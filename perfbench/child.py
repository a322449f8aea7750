"""One benchmark process: set up and run the wignerlab CLI once.

Usage: python3 child.py REQUEST.json

The request names the checkout root, the CLI argv, the mode (`run` or
`trace`), the parent's `time.perf_counter()` just before it spawned
this process, and the path to write the result to.  `perf_counter` is
CLOCK_MONOTONIC on Linux, so the two processes' readings are comparable and
setup_s counts interpreter start-up too.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
    }


def main() -> int:
    with open(sys.argv[1]) as fh:
        req = json.load(fh)
    src = os.path.join(req["root"], "src")
    import wignerlab
    from wignerlab import cli

    if not os.path.abspath(wignerlab.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"wignerlab imported from {wignerlab.__file__}, not {src}\n")
        return 3
    argv = req["argv"]
    args = cli.make_parser().parse_args(argv)
    cli.build_config(cli.read_config(args.config), args)
    t_setup = time.perf_counter()
    out = {"setup_s": t_setup - req["t_spawn"]}

    tracer = None
    if req["mode"] == "trace":
        from tracer import Tracer  # next to this script, hence on sys.path

        tracer = Tracer()
        tracer.install()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        code, error = cli.main(argv), None
    except SystemExit as exc:  # argparse's usage error (exit 64)
        code, error = exc.code, None
    except Exception as exc:  # reported to the parent as a failed run
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    out.update({
        "exit_code": code,
        "raised": error,
        "wall_s": wall,
        "cpu_s": _cpu_s() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    })
    if tracer is not None:
        out["trace"] = tracer.dump()
    with open(req["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
