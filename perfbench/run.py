"""Monte Carlo benchmark of the wignerlab CLI.

    python3 perfbench/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --smoke             # tiny sizes, checks the harness

Each workload is one `wignerlab` subcommand with a generated config file.
A run is closed-loop: the CLI runs in a fresh Python process (child.py), one
process at a time, until `--seconds` have passed; the result line reports
medians over those processes.  Each process also times its own set-up:
interpreter start through `import wignerlab.cli` and config build.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
and traced processes; the traced ones wrap the `wignerlab.*` functions from
outside (tracer.py) and give the per-layer metrics.  BLAS/OpenMP thread
variables are passed through as found and recorded.

Correctness is checked on every process: exit code, the report's checks,
a finite and well-formed CSV whose SHA-256 is the same for every process of
the run, and, where reference_csv.json has one for this config and seed,
whether it matches.  Everything is written under `.bench_out/`; the last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 20240901
TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
from tracer import LAYERS, summarize  # noqa: E402


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    smoke: dict  # overrides for --smoke
    solves: Callable[[dict], int]  # eigensolves per CLI run
    rows: Callable[[dict], int]  # CSV data rows
    ranges: dict = field(default_factory=dict)  # column -> (lo, hi), open interval


WORKLOADS = {
    "rigidity-sweep": Workload(
        "rigidity",
        {"n_list": [256, 512, 1024, 2048], "samples_per_n": 2, "profile": "flat",
         "symmetry": "symmetric", "distribution": "gaussian", "threads": 1},
        {"n_list": [32, 48, 64, 96], "samples_per_n": 2},
        solves=lambda c: len(c["n_list"]) * c["samples_per_n"],
        rows=lambda c: len(c["n_list"]),
        ranges={"median_edge_dev": (0.0, 1.0), "median_center_dev": (0.0, 1.0)},
    ),
    "lsc-resolvent": Workload(
        "lsc",
        {"n_list": [512], "samples_per_n": 8, "profile": "flat", "symmetry": "symmetric",
         "distribution": "gaussian", "e_values": [0.0], "eta_count": 12, "threads": 1},
        {"n_list": [64], "samples_per_n": 2},
        solves=lambda c: c["samples_per_n"],
        rows=lambda c: len(c["n_list"]) * len(c["e_values"]) * c["eta_count"],
        ranges={"median_lambda": (0.0, 1.0)},
    ),
    "dbm-flow": Workload(
        "dbm-relax",
        {"n_list": [512], "samples_per_n": 4, "reference_samples": 100,
         "symmetry": "symmetric", "threads": 1},
        {"n_list": [128], "samples_per_n": 2, "reference_samples": 4},
        solves=lambda c: 5 * c["samples_per_n"] + c["reference_samples"],
        rows=lambda c: 5,
        ranges={"ks": (0.0, 1.0)},
    ),
    "edge-band-hermitian": Workload(
        "edge",
        {"n_list": [512], "samples_per_n": 8, "profile": "band:w=64",
         "symmetry": "hermitian", "distribution": "gaussian",
         "distribution_b": "rademacher", "threads": 2},
        {"n_list": [64], "samples_per_n": 4, "profile": "band:w=8"},
        solves=lambda c: 2 * c["samples_per_n"],
        rows=lambda c: 2 * c["samples_per_n"],
        ranges={"top_1": (-100.0, 100.0), "bottom": (-100.0, 100.0)},
    ),
}


def config_text(cfg: dict) -> str:
    lines = []
    for key, value in cfg.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(xs):
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------------------
# one CLI process


def spawn(mode: str, argv: list, workdir: Path, tag: str) -> dict:
    """Run child.py once; returns its result dict, or {"spawn_error": ...}."""
    req_path = workdir / f"{tag}.request.json"
    res_path = workdir / f"{tag}.result.json"
    res_path.unlink(missing_ok=True)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else []))
    req = {"root": str(ROOT), "argv": argv, "mode": mode, "result": str(res_path)}
    req["t_spawn"] = time.perf_counter()
    req_path.write_text(json.dumps(req))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(req_path)],
                              cwd=ROOT, env=child_env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"spawn_error": f"timed out after {TIMEOUT_S} s"}
    if proc.returncode != 0 or not res_path.exists():
        return {"spawn_error": f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    out = json.loads(res_path.read_text())
    out["stderr"] = proc.stderr.strip()[-500:]
    return out


def inspect_outputs(wl: Workload, cfg: dict, out_dir: Path, name: str) -> dict:
    """Checks, CSV hash and CSV sanity of one CLI run's output files."""
    csv_path, json_path = out_dir / f"{name}.csv", out_dir / f"{name}.json"
    problems = []
    if not csv_path.exists() or not json_path.exists():
        return {"problems": ["missing CSV or JSON output"], "nonfinite": False}
    data = csv_path.read_bytes()
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    nonfinite = False
    for row in body:
        for col, cell in zip(header, row):
            try:
                v = float(cell)
            except ValueError:
                continue  # label column (edge's "ensemble")
            if not math.isfinite(v):
                nonfinite = True
            lo, hi = wl.ranges.get(col, (-math.inf, math.inf))
            if not lo < v < hi:
                problems.append(f"{col}={cell} outside ({lo}, {hi})")
            if col == "samples" and v != cfg["samples_per_n"]:
                problems.append(f"samples={cell}, expected {cfg['samples_per_n']}")
    if len(body) != wl.rows(cfg):
        problems.append(f"{len(body)} CSV rows, expected {wl.rows(cfg)}")
    if nonfinite:
        problems.append("non-finite CSV value")
    report = json.loads(json_path.read_text())
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    bytes_written = len(data) + json_path.stat().st_size
    return {"csv_sha256": sha256(data), "checks_total": len(report["checks"]),
            "checks_passed": len(report["checks"]) - len(failing), "failing": failing,
            "report_passed": report["passed"], "problems": problems,
            "nonfinite": nonfinite, "bytes_written": bytes_written}


def classify(inv: dict) -> str | None:
    """Why an invocation counts as an error (exit 1/64, raised, non-finite), or None."""
    if "spawn_error" in inv:
        return inv["spawn_error"]
    if inv.get("raised"):
        return f"raised {inv['raised']}"
    code = inv.get("exit_code")
    if code not in (0, 2):
        return f"exit {code}: {inv.get('stderr', '')}"
    if inv.get("nonfinite"):
        return "non-finite CSV value"
    return None


# ---------------------------------------------------------------------------
# one run


def environment(seed: int, cfg: dict, child_env: dict) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        **child_env,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "cli_threads": cfg.get("threads", 1),
        "git_commit": commit,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    wl = WORKLOADS[name]
    cfg = {**wl.config, **(wl.smoke if smoke else {})}
    workdir = OUT / ("smoke" if smoke else "runs") / name / f"s{seed}-t{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    text = config_text(cfg)
    config_path = workdir / "config.txt"
    config_path.write_text(text + f"master_seed = {seed}\n")

    def argv(out_dir):
        return [wl.command, "--config", str(config_path), "--out", str(out_dir), "--quiet"]

    # Start a process only if the longest one so far would still end
    # before the deadline, so a run never measures past --seconds.
    invocations, longest = [], 0.0
    deadline = time.perf_counter() + seconds
    while len(invocations) < (2 if trace else 1) or time.perf_counter() + longest <= deadline:
        t0 = time.perf_counter()
        k = len(invocations)
        mode = "trace" if trace and k % 2 else "run"
        out_dir = workdir / f"run{k}"
        inv = spawn(mode, argv(out_dir), workdir, f"run{k}")
        inv["mode"] = mode
        if "spawn_error" not in inv and inv.get("exit_code") in (0, 2):
            inv.update(inspect_outputs(wl, cfg, out_dir, wl.command))
        inv["error"] = classify(inv)
        invocations.append(inv)
        longest = max(longest, time.perf_counter() - t0)

    ref = _reference(name, text, seed)
    hashes = {inv["csv_sha256"] for inv in invocations if "csv_sha256" in inv}
    problems = sorted({p for inv in invocations for p in inv.get("problems", [])})
    if len(hashes) > 1:
        problems.append(f"CSV differs between runs of one seed: {sorted(map(str, hashes))}")
    for inv in invocations:
        if inv["error"] is None and inv["exit_code"] != (0 if inv["report_passed"] else 2):
            problems.append(f"exit {inv['exit_code']} disagrees with report passed="
                            f"{inv['report_passed']}")
    failed = sum(inv["error"] is not None for inv in invocations)
    ok = [inv for inv in invocations if inv["error"] is None]
    plain = [inv for inv in ok if inv["mode"] == "run"]
    solves = wl.solves(cfg)
    setups = [inv["setup_s"] for inv in plain]
    first = ok[0] if ok else {}
    result = {
        "workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "config": text, "eigensolves_per_run": solves,
        "environment": environment(
            seed, cfg, next((inv["env"] for inv in invocations if "env" in inv), {})),
        "attempted": len(invocations), "failed": failed,
        "error_ratio": failed / len(invocations),
        "correct": failed == 0 and not problems, "problems": problems,
        "csv_sha256": first.get("csv_sha256"), "csv_reference": ref,
        "csv_matches_reference": None if ref is None else first.get("csv_sha256") == ref,
        "exit_codes": [inv.get("exit_code") for inv in invocations],
        "checks": f"{first.get('checks_passed')}/{first.get('checks_total')}",
        "failing_checks": first.get("failing", []),
        "errors": [inv["error"] for inv in invocations if inv["error"]],
        "setup_s_all": setups,
        "wall_s_all": [inv["wall_s"] for inv in plain],
    }
    metrics = {
        "wall_s": (median([inv["wall_s"] for inv in plain]), "s"),
        "matrices_per_s": (median([solves / inv["wall_s"] for inv in plain]), "1/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([inv["peak_rss_mb"] for inv in plain]), "MiB"),
    }
    if trace:
        traced = [inv for inv in ok if inv["mode"] == "trace"]
        summaries = [summarize(inv.pop("trace"), cfg.get("threads", 1)) for inv in traced]
        metrics = layer_metrics(summaries, traced, plain, result["error_ratio"])
        result["dominant"] = dominant(summaries)
        result["by_n"] = by_n_table(summaries)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for inv in invocations:
        inv.pop("trace", None)
    result["invocations"] = invocations
    (workdir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def _reference(name: str, text: str, seed: int) -> str | None:
    """Recorded CSV SHA-256 for this workload config and seed, if any."""
    ref = json.loads((HERE / "reference_csv.json").read_text()).get(name, {})
    if ref.get("config_sha256") != sha256(text.encode()):
        return None
    return ref.get("seeds", {}).get(str(seed), {}).get("csv_sha256")


# ---------------------------------------------------------------------------
# per-layer metrics from traced runs


def per_layer_names() -> list[tuple[str, str]]:
    return [(m["name"], m["unit"]) for m in
            json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def layer_value(metric: str, s: dict) -> float:
    """Value of a per-layer metric name like 'linalg.eigvalsh.n512.p50_ms'."""
    if metric.startswith("layer."):
        return s["layer_self_s"].get(metric.split(".")[1], 0.0)
    span, stat = metric.rsplit(".", 1)
    head, _, nkey = span.rpartition(".")
    if nkey.startswith("n") and nkey[1:].isdigit():
        rec = s["by_name"].get(head)
        return rec["by_n_p50_ms"].get(int(nkey[1:]), 0.0) if rec else 0.0
    rec = s["by_name"].get(span)
    return rec[stat] if rec else 0.0


def layer_metrics(summaries, traced, plain, error_ratio) -> dict:
    untraced_wall = median([inv["wall_s"] for inv in plain])
    traced_wall = median([inv["wall_s"] for inv in traced])
    special = {
        "experiments.parallel_efficiency": median([s["parallel_efficiency"] for s in summaries]),
        "process.cpu_s": median([inv["cpu_s"] for inv in plain]),
        "process.cpu_per_wall": median([inv["cpu_s"] / inv["wall_s"] for inv in plain]),
        "cli.bytes_written": median([inv["bytes_written"] for inv in traced]),
        "trace.coverage": median([s["coverage"] for s in summaries]),
        "trace.overhead_ratio": traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
        "error_ratio": error_ratio,
    }
    out = {}
    for metric, unit in per_layer_names():
        if metric in special:
            value = special[metric]
        else:
            value = median([layer_value(metric, s) for s in summaries])
        out[metric] = (value, unit)
    return out


def dominant(summaries) -> dict:
    """Largest self times, as shares of all traced self time (which sums
    over threads, so shares stay below 1 with a thread pool)."""
    total = median([sum(r["self_s"] for r in s["by_name"].values()) for s in summaries])
    names = {n for s in summaries for n in s["by_name"]}
    spans = {n: median([s["by_name"].get(n, {}).get("self_s", 0.0) for s in summaries]) / total
             for n in names}
    layers = {ly: median([s["layer_self_s"].get(ly, 0.0) for s in summaries]) / total
              for ly in LAYERS}
    top = lambda d, k: dict(sorted(d.items(), key=lambda kv: -kv[1])[:k])
    return {"spans": top(spans, 6), "layers": top(layers, 8)}


def by_n_table(summaries) -> dict:
    """p50 ms per N for the spans of the ROADMAP's baseline layer table."""
    names = ("sampler.sample_indexed", "profile.content_hash", "sampler.sample_matrix",
             "linalg.eigvalsh", "linalg.eigh", "resolvent.green_at")
    table = {}
    for name in names:
        ns = sorted({n for s in summaries for n in s["by_name"].get(name, {}).get("by_n_p50_ms", {})})
        if ns:
            table[name] = {n: median([s["by_name"][name]["by_n_p50_ms"].get(n, 0.0)
                                      for s in summaries if name in s["by_name"]]) for n in ns}
    return table


# ---------------------------------------------------------------------------
# printing


def print_run(res: dict) -> None:
    env = res["environment"]
    print(f"== {res['workload']} seed {res['seed']} trace {res['trace']}"
          f"{' (smoke)' if res['smoke'] else ''}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for k, inv in enumerate(res["invocations"]):
        line = f"  {inv['mode']:5s} {k:2d}: "
        if inv["error"]:
            line += f"ERROR {inv['error']}"
        else:
            line += (f"exit {inv['exit_code']} wall {inv['wall_s']:.3f} s "
                     f"setup {inv['setup_s']:.3f} s rss {inv['peak_rss_mb']:.1f} MiB "
                     f"checks {inv['checks_passed']}/{inv['checks_total']} "
                     f"csv {inv['csv_sha256'][:16]}")
        print(line)
    ref = res["csv_matches_reference"]
    print(f"csv sha256 {res['csv_sha256']} reference: "
          f"{'none for this config and seed' if ref is None else ('match' if ref else 'MISMATCH')}")
    print(f"checks passed {res['checks']}; failing: {', '.join(res['failing_checks']) or 'none'}")
    print(f"error_ratio {res['error_ratio']:.4f} ({res['failed']}/{res['attempted']})")
    for p in res["problems"]:
        print(f"PROBLEM: {p}")
    if res["trace"]:
        print("dominant spans (share of traced self time): " + ", ".join(
            f"{n} {v:.1%}" for n, v in res["dominant"]["spans"].items()))
        print("layers (share of traced self time): " + ", ".join(
            f"{n} {v:.1%}" for n, v in res["dominant"]["layers"].items()))
        for name, row in res["by_n"].items():
            print(f"  p50 by N {name}: " + ", ".join(f"N={n} {v:.2f} ms" for n, v in row.items()))
    for k, m in res["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")


def result_line(res: dict) -> str:
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": res["metrics"]})


def run_all(seed: int, seconds: float) -> int:
    results = [run_workload(name, seed, seconds, False, False) for name in WORKLOADS]
    for res in results:
        print_run(res)
    end_to_end = list(results[0]["metrics"])
    print(f"\n{'workload':22s}" + "".join(f"{m:>14s}{'':6s}" for m in end_to_end)
          + f"{'error_ratio':>14s}  csv_sha256        checks  ref")
    for res in results:
        cells = "".join(f"{res['metrics'][m]['value']:>14.4f} {res['metrics'][m]['unit']:5s}"
                        for m in end_to_end)
        ref = {None: "none", True: "match", False: "MISMATCH"}[res["csv_matches_reference"]]
        print(f"{res['workload']:22s}{cells}{res['error_ratio']:>14.4f}  "
              f"{str(res['csv_sha256'])[:16]}  {res['checks']:>6s}  {ref}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
    }))
    return 0


def run_smoke(seed: int) -> int:
    """Every workload at tiny sizes, untraced and traced; every metric that
    BENCHMARK.json names must be emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads differ from {list(WORKLOADS)}")
    for name in WORKLOADS:
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            res = run_workload(name, seed, 0.0, trace, smoke=True)
            print_run(res)
            if not res["correct"] or res["failed"]:
                errors.append(f"{name} trace {int(trace)}: correct={res['correct']} "
                              f"failed={res['failed']} {res['problems']} {res['errors']}")
            for m in listed:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    errors.append(f"{name} trace {int(trace)}: metric {m['name']} "
                                  f"missing or wrong unit: {got}")
            extra = set(res["metrics"]) - {m["name"] for m in listed}
            if extra:
                errors.append(f"{name} trace {int(trace)}: metrics not in BENCHMARK.json: {extra}")
    for e in errors:
        print(f"SMOKE FAIL: {e}")
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wignerlab" / "cli.py").is_file():
        sys.stderr.write(f"no wignerlab sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    if args.smoke:
        return run_smoke(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    print_run(res)
    print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
