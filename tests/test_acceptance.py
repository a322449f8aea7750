"""End-to-end acceptance suite.

Each test covers one release criterion at its stated size and prints one
`[PASS]`/`[FAIL]` line per check, with its margin, through the printer the
CLI uses (visible with pytest -s or on failure). Criteria 3-8 assert every
check of their runners' reports, so their bounds live in calibration.json
alone; criteria 1, 2 and 9 have no runner and state their own checks.
Heavy Monte Carlo fixtures are module-scoped and shared between criteria.
Every test carries the ``acceptance`` marker: ``pytest -m "not acceptance"``
runs the unit tests alone.
"""

import math
import time

import numpy as np
import pytest

from wignerlab.experiments import (
    Check,
    ExperimentConfig,
    run_counting,
    run_dbm_relax,
    run_edge,
    run_lsc,
    run_rigidity,
)
from wignerlab.profile import flat_profile
from wignerlab.resolvent import IDENTITY_CHECKS, IDENTITY_TOL, identity_trial
from wignerlab.sampler import HERMITIAN, SYMMETRIC, derive_stream, gaussian, sample_matrix
from wignerlab.semicircle import classical_locations, m_sc, n_sc

pytestmark = pytest.mark.acceptance


def assert_checks(checks, *prefixes):
    """Print each check whose name starts with one of prefixes (every check
    when none is given) and assert that all of them passed. Matching none
    fails, so a renamed check cannot pass unseen."""
    chosen = [c for c in checks if c.name.startswith(prefixes or ("",))]
    assert chosen, f"no check named {prefixes} among {[c.name for c in checks]}"
    for c in chosen:
        print(c)
    assert all(c.passed for c in chosen)


# criterion 1 -----------------------------------------------------------------


def test_criterion_1_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(20240901)
    worst = np.zeros(len(IDENTITY_CHECKS))
    for trial in range(200):
        n = int(rng.integers(5, 21))
        sym = SYMMETRIC if trial % 2 else HERMITIAN
        s = sample_matrix(flat_profile(n), gaussian(), sym, derive_stream(20240901, trial))
        # np.maximum keeps a NaN residual; Python's max would drop it
        worst = np.maximum(worst, identity_trial(s, rng))
    checks = [Check(k, v, hi=IDENTITY_TOL) for k, v in zip(IDENTITY_CHECKS, worst)]
    assert_checks(checks + [Check("identity_seconds", time.time() - t0, hi=30.0)])


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
        # np.maximum and np.max keep a NaN; Python's max would drop it
        worst_res = np.maximum(worst_res, abs(m + 1.0 / (z + m)))
        worst_mod = np.maximum(worst_mod, abs(m))
    gamma = classical_locations(n)
    worst_gamma = np.max([abs(n_sc(g) - (j + 1) / n) for j, g in enumerate(gamma)])
    worst_sym = np.max(np.abs(gamma[: n - 1] + gamma[: n - 1][::-1]))
    assert_checks([
        Check("semicircle_residual", worst_res, hi=1e-12),
        Check("semicircle_abs_m", worst_mod, hi=1.0 + 1e-14),
        Check("gamma_residual", worst_gamma, hi=1e-10),
        Check("gamma_symmetry", worst_sym, hi=1e-10),
        Check("semicircle_seconds", time.time() - t0, hi=5.0),
    ])


# criteria 3 + 4 --------------------------------------------------------------


@pytest.fixture(scope="module")
def lsc_report():
    cfg = ExperimentConfig(
        n_list=[512], samples_per_n=100, eta_count=12, master_seed=20240901
    )
    return run_lsc(cfg)


def test_criterion_3_local_law_scaling(lsc_report):
    assert_checks(lsc_report.checks, "lsc_slope_", "lsc_envelope_")


def test_criterion_4_offdiagonal_law(lsc_report):
    assert_checks(lsc_report.checks, "lsc_offdiag_")


# criterion 5 -----------------------------------------------------------------


def test_criterion_5_rigidity_slopes():
    cfg = ExperimentConfig(
        n_list=[256, 512, 1024, 2048], samples_per_n=100, master_seed=20240901
    )
    assert_checks(run_rigidity(cfg).checks)


# criterion 6 -----------------------------------------------------------------


def test_criterion_6_counting_function():
    cfg = ExperimentConfig(n_list=[256, 1024], samples_per_n=100, master_seed=20240901)
    assert_checks(run_counting(cfg).checks)


# criterion 7 -----------------------------------------------------------------


def test_criterion_7_edge_universality():
    cfg = ExperimentConfig(
        n_list=[1024], samples_per_n=400, master_seed=20240901,
        distribution="gaussian", distribution_b="rademacher",
    )
    assert_checks(run_edge(cfg).checks)
    neg_cfg = ExperimentConfig(
        n_list=[1024], samples_per_n=100, master_seed=20240901,
        distribution="gaussian",
        distribution_b=f"gaussian:scale={math.sqrt(2.0)!r}",
        allow_moment_mismatch=True,
    )
    # the negative control: entry variances 1 and 2 must tell their edges apart
    (neg,) = run_edge(neg_cfg).checks
    print(f"{neg} (negative control, must fail)")
    assert neg.name == "edge_ks" and not neg.passed


# criterion 8 -----------------------------------------------------------------


def test_criterion_8_dbm_relaxation():
    cfg = ExperimentConfig(
        n_list=[512], samples_per_n=100, reference_samples=100, master_seed=20240901,
    )
    assert_checks(run_dbm_relax(cfg).checks)


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
    # the CSV and the content hash across --threads 1 and 4
    mismatched = (payloads[0] != payloads[1]) + (hashes[0] != hashes[1])
    assert_checks([Check("determinism_mismatches", mismatched, hi=0)])
