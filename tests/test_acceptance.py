"""End-to-end acceptance suite.

Each test covers one release criterion at its stated size and tolerance and
prints a single PASS/FAIL line (visible with pytest -s or on failure).
Heavy Monte Carlo fixtures are module-scoped and shared between criteria.
Every test carries the ``acceptance`` marker: ``pytest -m "not acceptance"``
runs the unit tests alone.
"""

import math
import time

import numpy as np
import pytest

from wignerlab.experiments import (
    ExperimentConfig,
    load_calibration,
    run_counting,
    run_dbm_relax,
    run_edge,
    run_lsc,
    run_rigidity,
)
from wignerlab.profile import flat_profile
from wignerlab.resolvent import identity_trial
from wignerlab.sampler import HERMITIAN, SYMMETRIC, derive_stream, gaussian, sample_matrix
from wignerlab.semicircle import classical_locations, m_sc, n_sc

pytestmark = pytest.mark.acceptance

CALIB = load_calibration()


def verdict(name: str, passed: bool, detail: str) -> bool:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return passed


# criterion 1 -----------------------------------------------------------------


def test_criterion_1_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(5, 21))
        sym = SYMMETRIC if trial % 2 else HERMITIAN
        s = sample_matrix(flat_profile(n), gaussian(), sym, derive_stream(20240901, trial))
        # np.maximum keeps a NaN residual; Python's max would drop it
        worst = np.maximum(worst, np.max(identity_trial(s, rng)))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    assert verdict(
        "criterion-1 identity suite",
        ok,
        f"max relative residual {worst:.3e} (tol 1e-9), {elapsed:.1f}s (< 30s)",
    )


# criterion 2 -----------------------------------------------------------------


def test_criterion_2_semicircle_analytics():
    t0 = time.time()
    n = 1000
    eta_lo = 1e-2
    rng = np.random.default_rng(7)
    worst_res, worst_mod = 0.0, 0.0
    for _ in range(10**4):
        z = complex(rng.uniform(-5, 5), rng.uniform(eta_lo * 1.01, 10.0))
        m = m_sc(z)
        worst_res = max(worst_res, abs(m + 1.0 / (z + m)))
        worst_mod = max(worst_mod, abs(m))
    gamma = classical_locations(n)
    worst_gamma = max(abs(n_sc(g) - (j + 1) / n) for j, g in enumerate(gamma))
    worst_sym = float(np.max(np.abs(gamma[: n - 1] + gamma[: n - 1][::-1])))
    elapsed = time.time() - t0
    ok = (
        worst_res <= 1e-12
        and worst_mod <= 1.0 + 1e-14
        and worst_gamma <= 1e-10
        and worst_sym <= 1e-10
        and elapsed < 5.0
    )
    assert verdict(
        "criterion-2 semicircle analytics",
        ok,
        f"defining residual {worst_res:.2e} (tol 1e-12), |m| max {worst_mod:.15f}, "
        f"gamma residual {worst_gamma:.2e} (tol 1e-10), symmetry {worst_sym:.2e}, "
        f"{elapsed:.1f}s (< 5s)",
    )


# criteria 3 + 4 --------------------------------------------------------------


@pytest.fixture(scope="module")
def lsc_report():
    cfg = ExperimentConfig(
        n_list=[512], samples_per_n=100, eta_count=12, master_seed=20240901
    )
    return run_lsc(cfg)


def test_criterion_3_local_law_scaling(lsc_report):
    slope = lsc_report.fits["slope_n512_e0.0"]
    lo, hi = CALIB["lsc_slope_band"]
    assert verdict(
        "criterion-3 local-law scaling",
        lo <= slope <= hi,
        f"OLS slope of log median deviation vs log(N*eta) = {slope:.4f}, band [{lo}, {hi}]",
    )


def test_criterion_4_offdiagonal_law(lsc_report):
    worst = max(r[8] for r in lsc_report.rows)
    envelope = math.log(512) ** CALIB["polylog_exponent"]
    assert verdict(
        "criterion-4 off-diagonal law",
        worst <= envelope,
        f"max median off-diagonal ratio {worst:.3f} <= (log N)^2 = {envelope:.3f}",
    )


# criterion 5 -----------------------------------------------------------------


@pytest.fixture(scope="module")
def rigidity_report():
    cfg = ExperimentConfig(
        n_list=[256, 512, 1024, 2048], samples_per_n=100, master_seed=20240901
    )
    return run_rigidity(cfg)


def test_criterion_5_rigidity_slopes(rigidity_report):
    rep = rigidity_report
    edge = rep.fits["edge_slope"]
    center = rep.fits["center_slope"]
    edge_ok = abs(edge - (-2.0 / 3.0)) <= 0.1
    center_ok = abs(center - (-1.0)) <= 0.15
    scaled_ok = all(c.passed for c in rep.checks if c.name.startswith("rigidity_scaled"))
    assert verdict(
        "criterion-5 rigidity slopes",
        edge_ok and center_ok and scaled_ok,
        f"edge slope {edge:.4f} (-2/3 +- 0.1), center slope {center:.4f} (-1 +- 0.15), "
        f"scaled statistic within (log N)^2 at every N: {scaled_ok}",
    )


# criterion 6 -----------------------------------------------------------------


def test_criterion_6_counting_function():
    cfg = ExperimentConfig(n_list=[256, 1024], samples_per_n=100, master_seed=20240901)
    rep = run_counting(cfg)
    ok = all(c.passed for c in rep.checks)
    ratios = {r[0]: r[4] for r in rep.rows}
    assert verdict(
        "criterion-6 counting function",
        ok,
        f"median N*sup / (log N)^2 per N: {ratios}",
    )


# criterion 7 -----------------------------------------------------------------


def test_criterion_7_edge_universality():
    cfg = ExperimentConfig(
        n_list=[1024], samples_per_n=400, master_seed=20240901,
        distribution="gaussian", distribution_b="rademacher",
    )
    rep = run_edge(cfg)
    ks = rep.fits["ks_top"]
    crit1 = rep.fits["critical_1pct"]
    neg_cfg = ExperimentConfig(
        n_list=[1024], samples_per_n=100, master_seed=20240901,
        distribution="gaussian",
        distribution_b=f"gaussian:scale={math.sqrt(2.0)!r}",
        allow_moment_mismatch=True,
    )
    neg = run_edge(neg_cfg)
    neg_ok = neg.fits["ks_top"] > neg.fits["critical_5pct"]
    ok = ks < crit1 and neg_ok
    assert verdict(
        "criterion-7 edge universality",
        ok,
        f"matched KS {ks:.4f} < 1% critical {crit1:.4f}; negative control KS "
        f"{neg.fits['ks_top']:.4f} > 5% critical {neg.fits['critical_5pct']:.4f}",
    )


# criterion 8 -----------------------------------------------------------------


def test_criterion_8_dbm_relaxation():
    n = 512
    cfg = ExperimentConfig(
        n_list=[n], samples_per_n=100, reference_samples=100, master_seed=20240901,
    )
    rep = run_dbm_relax(cfg)
    # the runner's flow times 0, 0.5/N, 2/N, 8/N and 4, from its t column
    ks = {t: rep.fits[f"ks_t{t}"] for t, *_ in rep.rows}
    far_ok = ks[0.0] >= 5.0 * ks[4.0]
    fast_ok = ks[8.0 / n] <= 2.0 * ks[4.0]
    var_ok = all(
        c.passed for c in rep.checks if c.name.startswith("variance_interp")
    )
    assert verdict(
        "criterion-8 DBM relaxation",
        far_ok and fast_ok and var_ok,
        f"KS(0)={ks[0.0]:.4f} >= 5*KS(4)={5 * ks[4.0]:.4f}; "
        f"KS(8/N)={ks[8.0 / n]:.4f} <= 2*KS(4)={2 * ks[4.0]:.4f}; "
        f"variance interpolation within 4 SE at every t: {var_ok}",
    )


# criterion 9 -----------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    payloads, hashes = [], []
    for threads in (1, 4):
        cfg = ExperimentConfig(
            n_list=[64, 96], samples_per_n=10, master_seed=20240901, threads=threads
        )
        rep = run_counting(cfg)
        path = tmp_path / f"counting_t{threads}.csv"
        rep.write_csv(path)
        payloads.append(path.read_bytes())
        hashes.append(rep.content_hash())
    ok = payloads[0] == payloads[1] and hashes[0] == hashes[1]
    assert verdict(
        "criterion-9 determinism",
        ok,
        "byte-identical CSV and equal content hash across --threads 1 and 4",
    )
