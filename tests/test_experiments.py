import json
import math

import numpy as np
import pytest

from wignerlab.experiments import (
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
    rigidity_stats,
    run_counting,
    run_edge,
    run_extreme_bound,
    run_lsc,
    run_rigidity,
    slope_fit,
)
from wignerlab.sampler import from_name, sample_indexed
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


def test_counting_sup_single_eigenvalue():
    lam = 0.13
    s = counting_sup(np.array([lam]))
    assert s == pytest.approx(max(n_sc(lam), 1.0 - n_sc(lam)), abs=1e-12)


def test_rigidity_stats_shapes():
    n = 64
    gamma = classical_locations(n)
    stats = rigidity_stats(gamma, gamma)
    assert stats["scaled_max"] == 0.0
    assert stats["edge_dev"] == 0.0


def test_calibration_loads():
    calib = load_calibration()
    assert calib["polylog_exponent"] == 2.0
    assert calib["lsc_slope_band"] == [-1.2, -0.8]


def test_lsc_grid_outside_window_rejected():
    cfg = ExperimentConfig(n_list=[64], samples_per_n=2, eta_min_exponent=-2.0)
    with pytest.raises(ConfigError):
        run_lsc(cfg)


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


def test_extreme_monotone_in_c():
    base = dict(n_list=[64], samples_per_n=50)
    fracs = []
    for c in (0.0, 2.0, 10.0):
        rep = run_extreme_bound(ExperimentConfig(**base, extreme_c=c))
        fracs.append(rep.rows[0][3])
    assert fracs[0] >= fracs[1] >= fracs[2]
    # at c=0 the threshold sits at the edge itself, so positive edge
    # fluctuations exceed it with noticeable frequency
    assert fracs[0] > 0.02
    assert fracs[2] == 0.0


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
