import dataclasses
import itertools
import json
import math
import threading
import time
import weakref

import numpy as np
import pytest

from wignerlab import dbm, experiments, sampler
from wignerlab.experiments import (
    READS,
    RUNNERS,
    Check,
    ConfigError,
    ExperimentConfig,
    counting_sup,
    edge_fluctuations,
    fmean,
    ks_two_sample,
    load_calibration,
    median,
    monte_carlo,
    nearest_rank_quantile,
    profile_from_spec,
    rigidity_stats,
    run_dbm_relax,
    run_edge,
    run_lsc,
    run_rigidity,
    slope_fit,
    upper_mean_square,
)
from wignerlab.profile import flat_profile
from wignerlab.sampler import HERMITIAN, SYMMETRIC, from_name, sample_indexed
from wignerlab.semicircle import classical_locations, n_sc


def test_ks_identical():
    stat, _ = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert stat == 0.0


def test_ks_disjoint():
    stat, _ = ks_two_sample([0.0, 1.0], [5.0, 6.0])
    assert stat == 1.0


def test_ks_half():
    stat, _ = ks_two_sample([0.0], [0.0, 1.0])
    assert stat == 0.5


@pytest.mark.parametrize("alpha", [0.05, 0.01, 0.001])
def test_ks_critical_values(alpha):
    _, crit = ks_two_sample(np.zeros(100), np.zeros(100), alpha)
    scale = math.sqrt(200 / (100 * 100))
    assert crit == pytest.approx(math.sqrt(-math.log(alpha / 2) / 2) * scale, rel=1e-12)


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_slope_fit_linear():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    slope, _, _ = slope_fit(xs, xs)
    assert slope == pytest.approx(1.0, abs=1e-12)
    slope, _, _ = slope_fit(xs, 1.0 / xs)
    assert slope == pytest.approx(-1.0, abs=1e-12)


def test_slope_fit_two_thirds():
    xs = np.array([256.0, 512.0, 1024.0, 2048.0])
    slope, intercept, stderr = slope_fit(xs, 3.7 * xs ** (-2.0 / 3.0))
    assert slope == pytest.approx(-2.0 / 3.0, abs=1e-10)
    assert stderr < 1e-10


def test_slope_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        slope_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        slope_fit([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])


def test_slope_fit_is_nan_on_a_zero_y():
    # a sampled median can be exactly 0, and a check on a NaN slope fails
    assert all(math.isnan(v) for v in slope_fit([2.0, 3.0, 4.0], [1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        slope_fit([0.0, 3.0, 4.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        slope_fit([3.0, 4.0], [0.0, 1.0])


@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
@pytest.mark.parametrize("n", [2, 3, 64, 130])
def test_upper_mean_square_bits_match_index_arrays(symmetry, n):
    h = sample_indexed(flat_profile(n), from_name("gaussian"), symmetry, 3, 0).h
    iu = np.triu_indices(n, k=1)
    assert upper_mean_square(h) == float(np.mean(np.abs(h[iu]) ** 2))


def test_nearest_rank_quantile():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert median(xs) == 3.0
    assert nearest_rank_quantile(xs, 0.95) == 5.0
    assert nearest_rank_quantile(xs, 0.2) == 1.0
    assert fmean([1.0, 2.0, 3.0]) == 2.0


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(n_list=[512, 256])
    with pytest.raises(ConfigError):
        ExperimentConfig(samples_per_n=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(profile="sparse").make_profile(16)
    # the profile's own ProfileError surfaces as a ConfigError
    for spec, n in [("band:w=0", 8), ("band:w=1", 1), ("flat", 0)]:
        with pytest.raises(ConfigError):
            profile_from_spec(spec, n)
    # the spec is checked at the smallest size
    with pytest.raises(ConfigError, match="band width 5 outside"):
        ExperimentConfig(n_list=[8, 64], profile="band:w=5")
    assert ExperimentConfig(n_list=[10, 64], profile="band:w=5").make_profile(64).n == 64


def test_counting_sup_single_eigenvalue():
    lam = 0.13
    s = counting_sup(np.array([lam]))
    assert s == pytest.approx(max(n_sc(lam), 1.0 - n_sc(lam)), abs=1e-12)


# below n = 4 the bulk window starts at index 0; n // 4 - 1 would be -1
@pytest.mark.parametrize("n", [2, 3, 64])
def test_rigidity_stats_shapes(n):
    gamma = classical_locations(n)
    stats = rigidity_stats(gamma, gamma)
    assert stats["scaled_max"] == 0.0
    assert stats["edge_dev"] == 0.0
    assert stats["bulk_max"] == 0.0
    assert stats["spectral_radius"] == max(-gamma[0], gamma[-1])


def test_rigidity_runs_below_four():
    rep = run_rigidity(ExperimentConfig(n_list=[3], samples_per_n=2))
    assert [r[:2] for r in rep.rows] == [(3, 2)]


def test_calibration_loads():
    calib = load_calibration()
    assert calib["version"] == 2
    assert set(calib) == {
        "version", "comment", "polylog_exponent", "lsc_envelope_logpow",
        "lsc_envelope_const", "lsc_slope_band", "offdiag_envelope_const",
        "rigidity_edge_slope", "rigidity_bulk_slope", "rigidity_scaled_const",
        "counting_const", "extreme_c", "edge_alpha", "relax_t0_factor",
        "relax_eq_factor",
    }
    assert calib["polylog_exponent"] == 2.0
    assert calib["lsc_slope_band"] == [-1.2, -0.8]


def test_edge_requires_two_distributions():
    with pytest.raises(ConfigError):
        run_edge(ExperimentConfig(n_list=[32], samples_per_n=2))


def test_edge_rejects_moment_mismatch():
    cfg = ExperimentConfig(
        n_list=[32], samples_per_n=2,
        distribution="gaussian", distribution_b="gaussian:scale=1.5",
    )
    with pytest.raises(ConfigError):
        run_edge(cfg)


@pytest.mark.parametrize("law_b", ["rademacher", "uniform", "two_point:0.3"])
def test_edge_accepts_matched_moments(law_b):
    cfg = ExperimentConfig(n_list=[32], samples_per_n=2,
                           distribution="gaussian", distribution_b=law_b)
    assert len(run_edge(cfg).rows) == 4


def test_edge_rejects_one_percent_rescaled_law():
    # second moments 1 and 1.0201; an empirical 4-SE test on 10^5 draws per
    # law cannot tell them apart (it accepted this pair at seed 20240901)
    cfg = ExperimentConfig(
        n_list=[32], samples_per_n=2, master_seed=20240901,
        distribution="gaussian", distribution_b="gaussian:scale=1.01",
    )
    with pytest.raises(ConfigError):
        run_edge(cfg)
    cfg.allow_moment_mismatch = True
    assert len(run_edge(cfg).rows) == 4


def test_edge_tests_at_the_calibrated_level(monkeypatch):
    # a level that is neither 1% nor 5% must reach the critical value exactly
    calib = load_calibration() | {"edge_alpha": 0.001}
    monkeypatch.setattr(experiments, "load_calibration", lambda: calib)
    cfg = ExperimentConfig(n_list=[32], samples_per_n=6,
                           distribution="gaussian", distribution_b="rademacher")
    (check,) = run_edge(cfg).checks
    m = n = cfg.samples_per_n
    c = math.sqrt(-math.log(0.001 / 2) / 2)
    assert check.name == "edge_ks"
    assert check.hi == pytest.approx(c * math.sqrt((m + n) / (m * n)), rel=1e-12)


@pytest.mark.parametrize("law, passed", [("gaussian", True), ("gaussian:scale=4", False)])
def test_extreme_flags_a_rescaled_law(law, passed):
    # at N = 64 the threshold is 2 + c N^-2/3 (log N)^1.5 = 7.30 (c = 10); a
    # law four times too wide puts every spectrum edge near 8
    rep = run_rigidity(ExperimentConfig(n_list=[64], samples_per_n=20, distribution=law))
    (check,) = [c for c in rep.checks if c.name == "extreme_n64"]
    threshold = 2.0 + load_calibration()["extreme_c"] * 64 ** (-2 / 3) * math.log(64) ** 1.5
    assert check.hi == rep.fits["extreme_threshold_n64"] == threshold
    assert check.passed == passed
    assert (check.margin > 0) if passed else (check.margin < 0)


def test_report_determinism_across_threads(tmp_path):
    paths, hashes = [], []
    for threads in (1, 2):
        cfg = ExperimentConfig(n_list=[48, 64, 96], samples_per_n=8, threads=threads)
        rep = run_rigidity(cfg)
        path = tmp_path / f"rigidity_{threads}.csv"
        rep.write_csv(path)
        paths.append(path)
        hashes.append(rep.content_hash())
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("runner, cfg", [
    (run_edge, dict(symmetry=HERMITIAN, distribution_b="rademacher")),
    (run_rigidity, dict()),
], ids=["edge-hermitian", "rigidity-symmetric"])
def test_report_determinism_across_threads_at_n256(tmp_path, runner, cfg):
    """At N = 256 the eigenvalue bits depend on the BLAS thread count, so the
    pool must not change the threads a factorization runs on."""
    csvs, hashes = [], []
    for threads in (1, 2, 4):
        rep = runner(ExperimentConfig(n_list=[256], samples_per_n=8, threads=threads, **cfg))
        path = tmp_path / f"{threads}.csv"
        rep.write_csv(path)
        csvs.append(path.read_bytes())
        hashes.append(rep.content_hash())
    assert len(set(csvs)) == 1
    assert len(set(hashes)) == 1


def _count_overlap(monkeypatch, targets, seen=None):
    """Wrap each owner.name of targets so a call sleeps 20 ms and counts toward
    the returned state's calls and peak number of calls in flight, over all
    targets together; seen(args) adds to its log."""
    guard = threading.Lock()
    state = {"active": 0, "peak": 0, "calls": 0, "log": []}

    def counted(fn):
        def wrapper(*args, **kwargs):
            with guard:
                state["active"] += 1
                state["calls"] += 1
                state["peak"] = max(state["peak"], state["active"])
                if seen is not None:
                    state["log"].append(seen(args))
            try:
                time.sleep(0.02)
                return fn(*args, **kwargs)
            finally:
                with guard:
                    state["active"] -= 1
        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    return state


def _blas_threads():
    threads = sampler._lapack().get("threads")
    if threads is None:
        pytest.skip("OpenBLAS exports no thread count setter")
    return threads


@pytest.mark.parametrize("count", [1, 2])
def test_reference_solves_as_many_spectra_at_once_as_blas_has_threads(monkeypatch, count,
                                                                      host_blas_threads):
    """dsterf calls no BLAS: before an unpinned flow, which runs on every
    BLAS thread, the reference keeps the host's count and runs that many
    solves at once."""
    state = _count_overlap(monkeypatch, [(dbm, "eigvalsh_tridiagonal")])
    with host_blas_threads(count):
        run_dbm_relax(ExperimentConfig(n_list=[sampler.PIN_MAX_N + 1], samples_per_n=2,
                                       reference_samples=6))
    assert state["calls"] == 6 and state["peak"] == count


def _solve_overlap(monkeypatch):
    """Count the reference's tridiagonal solves and the flow's dense solves
    apart; each call logs how many calls of the other kind are in flight as
    it starts, so two calls overlapped if and only if some log entry is > 0."""
    states = {}
    states["reference"] = _count_overlap(monkeypatch, [(dbm, "eigvalsh_tridiagonal")],
                                         seen=lambda args: states["flow"]["active"])
    states["flow"] = _count_overlap(monkeypatch, [(sampler, "eigvalsh_inplace")],
                                    seen=lambda args: states["reference"]["active"])
    return states["reference"], states["flow"]


@pytest.mark.parametrize("count", [1, 2])
def test_reference_runs_beside_pinned_flow_solves(monkeypatch, count, host_blas_threads):
    """At N <= PIN_MAX_N the flow's phases pin BLAS to one thread, and the
    reference, which calls no BLAS, is solved on the cores they leave idle,
    no wider than the host's thread count."""
    reference, flow = _solve_overlap(monkeypatch)
    with host_blas_threads(count):
        run_dbm_relax(ExperimentConfig(n_list=[128], samples_per_n=2, reference_samples=20))
    assert reference["calls"] == 20 and flow["calls"] == 8
    assert any(reference["log"] + flow["log"])
    assert reference["peak"] == count


def test_reference_runs_before_unpinned_flow_solves(monkeypatch):
    """Above PIN_MAX_N the flow's solves run on every BLAS thread, so the
    reference is solved first and none of its solves overlaps a flow solve."""
    reference, flow = _solve_overlap(monkeypatch)
    run_dbm_relax(ExperimentConfig(n_list=[sampler.PIN_MAX_N + 1], samples_per_n=2,
                                   reference_samples=4))
    assert reference["calls"] == 4 and flow["calls"] == 8
    assert not any(reference["log"] + flow["log"])


def test_flow_error_waits_for_the_reference(monkeypatch, host_blas_threads):
    """A flow solve that raises while the reference is still being solved
    reaches the caller once the reference's threads are gone, with BLAS_LOCK
    free and the host's thread count back."""
    get, _ = _blas_threads()
    samples, running = 20, []
    reference = _count_overlap(monkeypatch, [(dbm, "eigvalsh_tridiagonal")])

    def failing(h):
        running.append(reference["calls"] < samples)
        raise FloatingPointError("eigendecomposition produced non-finite values")

    monkeypatch.setattr(sampler, "eigvalsh_inplace", failing)
    with host_blas_threads(2):
        host, before = get(), threading.active_count()
        with pytest.raises(FloatingPointError):
            run_dbm_relax(ExperimentConfig(n_list=[128], samples_per_n=2,
                                           reference_samples=samples))
        assert get() == host
    assert running and running[0]
    assert reference["active"] == 0 and threading.active_count() == before
    assert not sampler.BLAS_LOCK.locked()


def test_reference_worker_error_reaches_the_runner(monkeypatch, host_blas_threads):
    solve, raised = dbm.eigvalsh_tridiagonal, []

    def failing(d, e):
        if not raised:
            raised.append(threading.get_ident())
            raise FloatingPointError("eigendecomposition produced non-finite values")
        return solve(d, e)

    monkeypatch.setattr(dbm, "eigvalsh_tridiagonal", failing)
    with host_blas_threads(2), pytest.raises(FloatingPointError):
        run_dbm_relax(ExperimentConfig(n_list=[128], samples_per_n=2, reference_samples=6))
    assert raised and raised[0] != threading.get_ident()
    assert not sampler.BLAS_LOCK.locked()


def test_lsc_factorizes_each_sample_where_it_lies(monkeypatch, traced_peak):
    """lsc's statistic solves the drawn buffer itself: a drawn N = 512 sample
    peaks at least one N×N copy (8 N² bytes) lower than through eigen_pair's
    copy of h."""
    n = 512
    cfg = ExperimentConfig(n_list=[n], samples_per_n=1, eta_count=3)
    run_lsc(dataclasses.replace(cfg, n_list=[64]))  # warm-up imports and caches

    def peak():
        return traced_peak(run_lsc, cfg)[1]

    in_place = peak()
    eigen_pair = sampler.WignerSample.eigen_pair
    monkeypatch.setattr(sampler.WignerSample, "eigen_pair", lambda s, consume=False: eigen_pair(s))
    assert peak() - in_place >= 8 * n * n - 256 * 1024


def test_unpinned_blas_calls_run_one_at_a_time(monkeypatch):
    """lsc's eigh and resolvent products, and solves above PIN_MAX_N, never
    overlap: their phases run one sample at a time on every BLAS thread."""
    state = _count_overlap(monkeypatch, [(np.linalg, "eigvalsh"), (sampler, "eigvalsh_inplace"),
                                         (sampler, "eigh_inplace"), (np, "matmul")])
    n = sampler.PIN_MAX_N + 1
    runs = [
        (run_lsc, dict(n_list=[8], eta_count=3)),
        (run_rigidity, dict(n_list=[n])),
        (run_dbm_relax, dict(n_list=[n], samples_per_n=2, reference_samples=1)),
    ]
    for runner, cfg in runs:
        state.update(peak=0, calls=0)
        runner(ExperimentConfig(**{"samples_per_n": 8, **cfg, "threads": 4}))
        assert state["calls"] > 0 and state["peak"] == 1, (runner.__name__, state)


def test_unpinned_statistics_run_on_the_calling_thread(monkeypatch):
    """A phase that leaves BLAS on the host's threads runs its samples one at
    a time, whatever --threads: rigidity above PIN_MAX_N and lsc at every N
    call each statistic on the thread that runs the runner."""
    idents = []

    def on_thread(fn):
        def wrapper(*args, **kwargs):
            idents.append(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "rigidity_stats", on_thread(experiments.rigidity_stats))
    monkeypatch.setattr(experiments, "control_sweep", on_thread(experiments.control_sweep))
    runs = [
        (run_rigidity, dict(n_list=[sampler.PIN_MAX_N + 1])),
        (run_lsc, dict(n_list=[8], eta_count=3)),
    ]
    for runner, cfg in runs:
        idents.clear()
        runner(ExperimentConfig(**cfg, samples_per_n=8, threads=4))
        assert idents == [threading.get_ident()] * 8, runner.__name__


def test_pinned_solves_run_concurrently_on_one_blas_thread(monkeypatch):
    """At N <= PIN_MAX_N the pool's solves overlap, and each sees one
    OpenBLAS thread; above it each sees the host's count."""
    get, _ = _blas_threads()
    host = get()
    state = _count_overlap(monkeypatch, [(sampler, "eigvalsh_inplace")],
                           seen=lambda args: (args[0].shape[0], get()))
    runs = [
        (run_edge, dict(n_list=[64], symmetry=HERMITIAN, distribution_b="rademacher")),
        (run_rigidity, dict(n_list=[48, 64, sampler.PIN_MAX_N + 1], samples_per_n=4)),
        (run_dbm_relax, dict(n_list=[96], samples_per_n=4, reference_samples=1)),
    ]
    for runner, cfg in runs:
        state.update(peak=0, calls=0, log=[])
        runner(ExperimentConfig(**{"samples_per_n": 8, **cfg, "threads": 4}))
        assert state["peak"] > 1, runner.__name__
        assert state["log"] and all(t == (1 if n <= sampler.PIN_MAX_N else host)
                                    for n, t in state["log"]), (runner.__name__, state["log"])


@pytest.mark.parametrize("threads", [1, 3])
def test_monte_carlo_draws_into_one_buffer_per_worker(monkeypatch, threads):
    """Every solve of a pool worker runs in the one N×N buffer it allocated at
    its first sample, so the solves see at most min(threads, samples) arrays
    (a fresh array per sample would give 6), and no buffer outlives the
    phase. The spectra are those of fresh arrays."""
    n, count = 256, 6
    cfg = ExperimentConfig(n_list=[n], samples_per_n=count, threads=threads)
    p, d = flat_profile(n), from_name(cfg.distribution)
    with sampler.eigenvalue_phase(n):
        want = [sample_indexed(p, d, SYMMETRIC, cfg.master_seed, i).eigenvalues().tobytes()
                for i in range(count)]
    seen = []  # holds every array, so no address is reused
    solve = sampler.eigvalsh_inplace

    def recording(h):
        seen.append(h)
        return solve(h)

    monkeypatch.setattr(sampler, "eigvalsh_inplace", recording)
    assert monte_carlo(cfg, n, lambda s: s.eigenvalues().tobytes()) == want
    assert len(seen) == count
    assert len({h.ctypes.data for h in seen}) <= min(threads, count)
    alive = [weakref.ref(h) for h in seen]
    seen.clear()
    assert all(ref() is None for ref in alive)
    # the flow draws into the workers' buffers too: each flow time after the
    # start (which factorizes nothing) solves its samples in turn
    run_dbm_relax(ExperimentConfig(n_list=[96], samples_per_n=count, reference_samples=1,
                                   threads=threads))
    assert len(seen) == 4 * count
    for k in range(4):
        flow_time = seen[k * count:(k + 1) * count]
        assert len({h.ctypes.data for h in flow_time}) <= min(threads, count), k


def test_runners_restore_host_blas_threads():
    """The pin ends with each phase, also when a statistic raises."""
    get, set_ = _blas_threads()
    host = get()
    set_(2)
    try:
        want = get()
        for name, runner in RUNNERS.items():
            n = 96 if name == "dbm-relax" else 16
            runner(ExperimentConfig(n_list=[n], samples_per_n=2, reference_samples=1,
                                    distribution_b="rademacher", threads=2))
            assert get() == want, name

        def bad(w):
            raise ArithmeticError("statistic failed")

        for threads in (1, 2):
            with pytest.raises(ArithmeticError):
                monte_carlo(ExperimentConfig(n_list=[16], samples_per_n=2, threads=threads), 16, bad)
            assert get() == want
            assert not sampler.BLAS_LOCK.locked()
    finally:
        set_(host)


def test_report_rerun_byte_identical(tmp_path):
    outs = []
    for run in range(2):
        cfg = ExperimentConfig(n_list=[64], samples_per_n=6)
        rep = run_rigidity(cfg)
        p = tmp_path / f"rigidity_{run}.csv"
        rep.write_csv(p)
        rep.write_json(tmp_path / f"rigidity_{run}.json")
        outs.append(p)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    j = json.loads((tmp_path / "rigidity_0.json").read_text())
    assert j["experiment"] == "rigidity"
    assert j["config"]["master_seed"] == 1
    assert "content_hash" in j


@pytest.mark.parametrize("value, bounds, passed, margin", [
    (0.5, dict(lo=0.0, hi=2.0), True, 0.5),
    (-1.0, dict(lo=0.0, hi=2.0), False, -1.0),
    (3.5, dict(lo=0.0, hi=2.0), False, -1.5),
    (0.25, dict(hi=1.0), True, 0.75),
    (1.25, dict(hi=1.0), False, -0.25),
    (3.0, dict(lo=1.0), True, 2.0),
    (0.5, dict(lo=1.0), False, -0.5),
    (2.0, dict(lo=0.0, hi=2.0), True, 0.0),
    (0.0, dict(hi=0.0), True, 0.0),
    (math.nan, dict(lo=0.0, hi=2.0), False, math.nan),
    (math.nan, dict(hi=4.0), False, math.nan),
], ids=["inside", "below", "above", "hi-inside", "hi-above", "lo-inside", "lo-below",
        "at-hi", "at-hi-zero", "nan", "nan-one-sided"])
def test_check_margin_and_verdict(value, bounds, passed, margin):
    c = Check("x", value, **bounds)
    assert c.passed is passed
    assert c.margin == pytest.approx(margin, nan_ok=True)
    assert f"margin {c.margin:.4g}" in c.detail
    assert "inf" not in c.detail
    # the one line the CLI and the acceptance suite print
    assert str(c) == f"[{'PASS' if passed else 'FAIL'}] x: {c.detail}"
    assert str(c).endswith(f"margin {margin:.4g}")


@pytest.mark.parametrize("nan_at", [0, 1], ids=["offdiag-z", "diag-z"])
def test_variance_interp_fails_on_a_nan_z(monkeypatch, nan_at):
    # at each flow time the runner takes fmean of the off-diagonal statistic,
    # then of the diagonal one; one of the two turns NaN, and so does its z
    # except at t = 0, where z is 0 by definition
    calls, real = itertools.count(), experiments.fmean
    monkeypatch.setattr(experiments, "fmean",
                        lambda xs: math.nan if next(calls) % 2 == nan_at else real(xs))
    rep = run_dbm_relax(ExperimentConfig(n_list=[96], samples_per_n=2, reference_samples=1))
    interp = [c for c in rep.checks if c.name.startswith("variance_interp_t")]
    assert [c.passed for c in interp] == [True, False, False, False, False]
    assert all(math.isnan(row[3 + nan_at]) for row in rep.rows[1:])


def test_monte_carlo_matches_serial_draws():
    base = dict(n_list=[40], samples_per_n=5, profile="band:w=8",
                symmetry="hermitian", distribution="rademacher", master_seed=21)
    p = ExperimentConfig(**base).make_profile(40)
    d = from_name("rademacher")
    want = [sample_indexed(p, d, "hermitian", 21, i).eigenvalues() for i in range(5)]
    for threads in (1, 3):
        got = monte_carlo(ExperimentConfig(**base, threads=threads), 40, lambda s: s.eigenvalues())
        assert len(got) == len(want)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_edge_fluctuations():
    eigs = np.array([-2.5, -1.0, 0.0, 1.5, 2.0, 3.0])
    scale = 6 ** (2.0 / 3.0)
    got = edge_fluctuations(eigs, 2)
    assert got.tolist() == [scale * 1.0, scale * 0.0, scale * 0.5]


def test_reads_keyed_like_runners():
    assert set(READS) == set(RUNNERS)


# a valid value, other than the base config's, for every field
OTHER_VALUE = dict(
    n_list=[3], samples_per_n=3, profile="band:w=1", distribution="rademacher",
    distribution_b="uniform", symmetry=HERMITIAN, master_seed=2, e_values=[1.0],
    eta_count=5, allow_moment_mismatch=True, reference_samples=2, threads=2,
)


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_unread_fields_change_nothing(tmp_path, name):
    """A field outside READS[name] changes neither the CSV nor the report's
    config and hash, and the config records exactly READS[name]."""
    assert set(OTHER_VALUE) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    # dbm-relax's gap window needs N >= 83
    base = ExperimentConfig(n_list=[83 if name == "dbm-relax" else 2], samples_per_n=2,
                            distribution_b="rademacher", reference_samples=1)
    want = RUNNERS[name](base)
    want.write_csv(tmp_path / "base.csv")
    assert set(want.config) == READS[name]
    for field in sorted(set(OTHER_VALUE) - READS[name]):
        rep = RUNNERS[name](dataclasses.replace(base, **{field: OTHER_VALUE[field]}))
        rep.write_csv(tmp_path / f"{field}.csv")
        assert (tmp_path / f"{field}.csv").read_bytes() == (tmp_path / "base.csv").read_bytes(), field
        assert (rep.config, rep.content_hash()) == (want.config, want.content_hash()), field
