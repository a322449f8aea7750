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
import threading
from pathlib import Path

import numpy as np

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
    argv = ["rigidity", "--n", "64", "--samples", "2", "--out", str(out), "--quiet"]
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    report = json.loads((out / "rigidity.json").read_text())
    assert isinstance(report["passed"], bool)
    assert report["checks"]
    for check in report["checks"]:
        assert isinstance(check["name"], str) and isinstance(check["passed"], bool)


def _undo_on_teardown(monkeypatch):
    """Register every function `Tracer.install()` may rebind, so that the
    test's teardown restores the untraced library."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("wignerlab."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj):
                monkeypatch.setattr(mod, attr, obj)
            elif inspect.isclass(obj) and obj.__module__.startswith("wignerlab"):
                for a, member in list(vars(obj).items()):
                    if inspect.isfunction(member):
                        monkeypatch.setattr(obj, a, member)
    for key, fn in experiments.RUNNERS.items():
        monkeypatch.setitem(experiments.RUNNERS, key, fn)
    for attr in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, attr, getattr(np.linalg, attr))


def test_every_runner_runs_traced(monkeypatch):
    """The tracer reads each wrapped call's first argument after the call; a
    runner must leave it readable (lsc passes control_sweep a sample whose h
    it has consumed)."""
    _undo_on_teardown(monkeypatch)
    tracer = _tracer().Tracer()
    tracer.install()
    for name, runner in experiments.RUNNERS.items():
        n = 96 if name == "dbm-relax" else 16
        runner(experiments.ExperimentConfig(n_list=[n], samples_per_n=2, eta_count=3,
                                            reference_samples=1, distribution_b="rademacher"))
    assert {s[1] for s in tracer.spans} >= {"resolvent.control_sweep", "experiments.runner"}


def test_traced_reference_solves_nest_under_the_reference(monkeypatch, host_blas_threads):
    """The reference's solves run in pool threads, one reference span per
    spectrum, so every tridiagonal solve is the child of one and `layer.dbm`
    does not count the solves that `layer.sampler` counts."""
    _undo_on_teardown(monkeypatch)
    tracer = _tracer().Tracer()
    tracer.install()
    with host_blas_threads(2):
        cfg = experiments.ExperimentConfig(n_list=[128], samples_per_n=2, reference_samples=4)
        experiments.RUNNERS["dbm-relax"](cfg)
    spans = {s[0]: s for s in tracer.spans}
    solves = [s for s in tracer.spans if s[1] == "sampler.eigvalsh_tridiagonal"]
    assert len(solves) == 4
    assert all(s[5] != threading.get_ident() for s in solves)  # in the pool
    references = {s[0] for s in tracer.spans if s[1] == "dbm.equilibrium_gap_reference"}
    assert len(references) == 4
    for solve in solves:
        parent = solve[4]
        while parent and parent not in references:
            parent = spans[parent][4]
        assert parent in references, solve
