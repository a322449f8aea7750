"""Outside-in span tracing of wignerlab, installed at run time.

`Tracer.install()` replaces names in the `wignerlab.*` module namespaces
(and `numpy.linalg.eigvalsh`/`eigh`) with wrappers that record one span per
call: (id, name, start, end, parent id, thread, sample index, N).  Nothing in
`src/` is modified; spans stay in memory until the run ends.

`summarize()` turns the spans of one traced CLI invocation into per-layer
numbers: call counts, self time (duration minus the union of child spans),
per-N medians, coverage and parallel efficiency.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time

LAYERS = ("profile", "sampler", "linalg", "semicircle", "resolvent", "dbm",
          "experiments", "cli")

# Methods and private names the public-function scan cannot find, with the
# span name the benchmark reports them under.
_EXTRA = (
    ("profile", "VarianceProfile", "content_hash", "profile.content_hash"),
    ("experiments", "ExperimentConfig", "make_profile", "profile.make_profile"),
    ("sampler", "EntryDistribution", "draw", "sampler.draw"),
    ("cli", None, "_write_outputs", "cli.write_outputs"),
)

RUNNER = "experiments.runner"


def _size(args) -> int:
    """Matrix dimension N of a call, read from its first argument."""
    if not args:
        return 0
    a = args[0]
    n = getattr(a, "n", None)
    if isinstance(n, int):
        return n
    shape = getattr(a, "shape", None)
    return int(shape[0]) if shape else 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.samples: list[tuple] = []  # (start, end, thread, sample index)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _wrap(self, name: str, fn):
        local, ids, spans, clock = self._local, self._ids, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = getattr(local, "span", 0)
            sid = next(ids)
            local.span = sid
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                local.span = parent
                spans.append((sid, name, t0, t1, parent, threading.get_ident(),
                              getattr(local, "sample", -1), _size(args)))

        return traced

    def _wrap_map(self, fn):
        """Wrap experiments._map_indexed so every span of sample i carries i.

        The sample interval is kept apart from the span tree: code in the
        per-sample closure stays in the runner's self time.
        """
        local, samples, clock = self._local, self.samples, time.perf_counter

        @functools.wraps(fn)
        def traced_map(one, count, threads):
            outer = getattr(local, "span", 0)

            def sample(i):
                saved = (getattr(local, "span", 0), getattr(local, "sample", -1))
                local.span, local.sample = outer, i
                t0 = clock()
                try:
                    return one(i)
                finally:
                    samples.append((t0, clock(), threading.get_ident(), i))
                    local.span, local.sample = saved

            return fn(sample, count, threads)

        return traced_map

    def install(self) -> None:
        import numpy.linalg
        from wignerlab import experiments

        mods = {name: sys.modules[f"wignerlab.{name}"] for name in LAYERS if name != "linalg"}
        originals = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[obj] = f"{layer}.{attr}"
        for layer, cls, attr, span in _EXTRA:
            owner = getattr(mods[layer], cls) if cls else mods[layer]
            originals[getattr(owner, attr)] = span
        for fn in experiments.RUNNERS.values():
            originals[fn] = RUNNER
        wrapped = {fn: self._wrap(span, fn) for fn, span in originals.items()}
        wrapped[experiments._map_indexed] = self._wrap_map(experiments._map_indexed)

        # Rebind every module-level name, class attribute and RUNNERS entry
        # that refers to a wrapped function, so `from .x import f` copies
        # are traced too.
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif inspect.isclass(obj) and obj.__module__.startswith("wignerlab"):
                    for a, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and member in wrapped:
                            setattr(obj, a, wrapped[member])
        for key, fn in list(experiments.RUNNERS.items()):
            experiments.RUNNERS[key] = wrapped[fn]
        numpy.linalg.eigvalsh = self._wrap("linalg.eigvalsh", numpy.linalg.eigvalsh)
        numpy.linalg.eigh = self._wrap("linalg.eigh", numpy.linalg.eigh)

    def dump(self) -> dict:
        idents = [s[5] for s in self.spans] + [s[2] for s in self.samples]
        threads = {t: k for k, t in enumerate(dict.fromkeys(idents))}
        return {
            "spans": [[*s[:5], threads[s[5]], *s[6:]] for s in self.spans],
            "samples": [[a, b, threads[t], i] for a, b, t, i in self.samples],
        }


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(trace: dict, threads: int) -> dict:
    """Per-name and per-layer numbers for one traced invocation."""
    spans = trace["spans"]
    children: dict[int, list] = {}
    for sid, name, t0, t1, parent, *_ in spans:
        children.setdefault(parent, []).append((t0, t1))
    by_name: dict[str, dict] = {}
    for sid, name, t0, t1, parent, thread, sample, n in spans:
        rec = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "durations": [], "by_n": {}})
        dur = t1 - t0
        rec["calls"] += 1
        rec["busy_s"] += dur
        rec["self_s"] += dur - _union(children.get(sid, ()), t0, t1)
        rec["durations"].append(dur)
        if n:
            rec["by_n"].setdefault(n, []).append(dur)

    runners = [s for s in spans if s[1] == RUNNER]
    runner_wall = sum(s[3] - s[2] for s in runners)
    covered = 0.0
    for r in runners:
        inner = [(s[2], s[3]) for s in spans
                 if s[1] != RUNNER and r[2] <= s[2] and s[3] <= r[3]]
        covered += _union(inner, r[2], r[3])
    sample_busy = sum(b - a for a, b, *_ in trace["samples"])

    layers = dict.fromkeys(LAYERS, 0.0)
    for name, rec in by_name.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + rec["self_s"]
    return {
        "by_name": {
            name: {
                "calls": rec["calls"],
                "busy_s": rec["busy_s"],
                "self_s": rec["self_s"],
                "p50_ms": 1e3 * statistics.median(rec["durations"]),
                "by_n_p50_ms": {n: 1e3 * statistics.median(d) for n, d in rec["by_n"].items()},
            }
            for name, rec in by_name.items()
        },
        "layer_self_s": layers,
        "runner_wall_s": runner_wall,
        "coverage": covered / runner_wall if runner_wall else 0.0,
        "parallel_efficiency": sample_busy / (threads * runner_wall) if runner_wall else 0.0,
    }
