"""The names the benchmark binds must exist in the library.

`perfbench/tracer.py` wraps library functions by name at run time, and its
`install()` raises when one is gone; `perfbench/run.py` writes config files
whose keys the runners must read. These checks catch a rename or a
dead-code deletion here, without running the benchmark.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

from wignerlab import cli, experiments

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name; run.py puts perfbench/ on the path
    sys.modules[spec.name], path = mod, sys.path[:]
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path[:] = path
    return mod


def _tracer():
    return _load("tracer")


def test_tracer_extra_names_exist():
    for layer, cls, attr, _ in _tracer()._EXTRA:
        owner = importlib.import_module(f"wignerlab.{layer}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert inspect.isfunction(getattr(owner, attr, None)), (layer, cls, attr)


def test_tracer_wraps_map_and_runners():
    assert inspect.isfunction(experiments._map_indexed)
    assert experiments.RUNNERS
    for name, fn in experiments.RUNNERS.items():
        assert inspect.isfunction(fn) and fn.__module__ == "wignerlab.experiments", name


def test_workload_config_keys_are_read(tmp_path):
    """A key the runner does not read, or a value its config rejects, makes
    every benchmark process exit 64. Each workload's full and smoke config
    is written as `run.py` writes it and built as the CLI builds it, at the
    benchmark's two seeds."""
    run = _load("run")
    path = tmp_path / "config.txt"
    for name, wl in run.WORKLOADS.items():
        for part in (wl.config, wl.smoke):
            unread = set(part) - experiments.READS[wl.command]
            assert not unread, (name, sorted(unread))
        for cfg in (wl.config, {**wl.config, **wl.smoke}):
            for seed in (20240901, 20240902):
                path.write_text(run.config_text(cfg) + f"master_seed = {seed}\n")
                args = cli.make_parser().parse_args([wl.command, "--config", str(path)])
                built = cli.build_config(cli.read_config(args.config), args)
                assert built.master_seed == seed and built.n_list == cfg["n_list"], name


def test_per_layer_metrics_name_existing_spans():
    """Each `<layer>.<function>` span a per-layer metric reads is a public
    function of that module, or a name the tracer adds by hand."""
    tracer = _tracer()
    extra = {span for *_, span in tracer._EXTRA} | {tracer.RUNNER}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in (m["name"] for m in metrics):
        parts = metric.split(".")[:-1]  # drop the statistic
        if parts and parts[-1][:1] == "n" and parts[-1][1:].isdigit():
            parts = parts[:-1]  # drop the per-N key
        if len(parts) != 2 or parts[0] not in tracer.LAYERS or parts[0] == "linalg":
            continue
        span = ".".join(parts)
        if span in extra:
            continue
        mod = importlib.import_module(f"wignerlab.{parts[0]}")
        fn = getattr(mod, parts[1], None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, metric


def test_report_json_has_the_keys_run_reads(tmp_path):
    """`run.py` reads the report's top-level `passed` and each check's `name`
    and `passed`; a report without them fails every benchmark process."""
    out = tmp_path / "out"
    argv = ["counting", "--n", "64", "--samples", "2", "--out", str(out), "--quiet"]
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    report = json.loads((out / "counting.json").read_text())
    assert isinstance(report["passed"], bool)
    assert report["checks"]
    for check in report["checks"]:
        assert isinstance(check["name"], str) and isinstance(check["passed"], bool)
