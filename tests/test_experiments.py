import dataclasses
import json
import math
import threading
import time

import numpy as np
import pytest

from wignerlab import sampler
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
    run_counting,
    run_dbm_relax,
    run_edge,
    run_extreme_bound,
    run_lsc,
    run_rigidity,
    slope_fit,
    upper_mean_square,
)
from wignerlab.profile import flat_profile
from wignerlab.sampler import HERMITIAN, SYMMETRIC, from_name, sample_indexed
from wignerlab.semicircle import classical_locations, n_sc


def test_ks_identical():
    stat, _, _ = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert stat == 0.0


def test_ks_disjoint():
    stat, _, _ = ks_two_sample([0.0, 1.0], [5.0, 6.0])
    assert stat == 1.0


def test_ks_half():
    stat, _, _ = ks_two_sample([0.0], [0.0, 1.0])
    assert stat == 0.5


def test_ks_critical_values():
    _, c5, c1 = ks_two_sample(np.zeros(100), np.zeros(100))
    scale = math.sqrt(200 / (100 * 100))
    assert c5 == pytest.approx(math.sqrt(-math.log(0.025) / 2) * scale, rel=1e-12)
    assert c1 == pytest.approx(math.sqrt(-math.log(0.005) / 2) * scale, rel=1e-12)
    assert c1 > c5


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


@pytest.mark.parametrize("law, frac", [("gaussian", 0.0), ("gaussian:scale=4", 1.0)])
def test_extreme_flags_a_rescaled_law(law, frac):
    # at N = 64 the threshold is 2 + c N^-2/3 (log N)^1.5 = 7.30 (c = 10); a
    # law four times too wide puts every spectrum edge near 8
    rep = run_extreme_bound(ExperimentConfig(n_list=[64], samples_per_n=20, distribution=law))
    assert rep.rows[0][3] == frac
    assert rep.passed == (frac == 0.0)


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


def test_blas_calls_run_one_at_a_time(monkeypatch):
    """Pool workers overlap sampling and statistics, never two
    factorizations or resolvent products."""
    guard = threading.Lock()
    state = {"active": 0, "peak": 0, "calls": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            with guard:
                state["active"] += 1
                state["calls"] += 1
                state["peak"] = max(state["peak"], state["active"])
            try:
                time.sleep(0.02)
                return fn(*args, **kwargs)
            finally:
                with guard:
                    state["active"] -= 1
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    monkeypatch.setattr(sampler, "eigvalsh_inplace", counted(sampler.eigvalsh_inplace))
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    monkeypatch.setattr(np, "matmul", counted(np.matmul))
    runs = [
        (run_lsc, dict(n_list=[8], eta_count=3)),
        (run_edge, dict(n_list=[8], symmetry=HERMITIAN, distribution_b="rademacher")),
        (run_dbm_relax, dict(n_list=[96], samples_per_n=2, reference_samples=1)),
    ]
    for runner, cfg in runs:
        state.update(peak=0, calls=0)
        runner(ExperimentConfig(**{"samples_per_n": 8, **cfg, "threads": 4}))
        assert state["calls"] > 0 and state["peak"] == 1, (runner.__name__, state)


def test_report_rerun_byte_identical(tmp_path):
    outs = []
    for run in range(2):
        cfg = ExperimentConfig(n_list=[64], samples_per_n=6)
        rep = run_counting(cfg)
        p = tmp_path / f"counting_{run}.csv"
        rep.write_csv(p)
        rep.write_json(tmp_path / f"counting_{run}.json")
        outs.append(p)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    j = json.loads((tmp_path / "counting_0.json").read_text())
    assert j["experiment"] == "counting"
    assert j["config"]["master_seed"] == 1
    assert "content_hash" in j


def test_check_dataclass():
    c = Check("x", True, "fine")
    assert c.passed and c.name == "x"


def test_monte_carlo_matches_serial_draws():
    base = dict(n_list=[40], samples_per_n=5, profile="band:w=8",
                symmetry="hermitian", distribution="rademacher", master_seed=21)
    p = ExperimentConfig(**base).make_profile(40)
    d = from_name("rademacher")
    stat = lambda s: s.eigenvalues()
    want = [stat(sample_indexed(p, d, "hermitian", 21, i)) for i in range(5)]
    for threads in (1, 3):
        got = monte_carlo(ExperimentConfig(**base, threads=threads), 40, stat)
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
