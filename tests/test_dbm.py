import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from wignerlab.dbm import (
    FlowError,
    SampleSizeError,
    _noise,
    equilibrium_gap_reference,
    gap_distribution,
    ou_endpoint,
)
from wignerlab.experiments import ExperimentConfig, run_dbm_relax
from wignerlab.sampler import HERMITIAN, SYMMETRIC, derive_stream, eigvalsh_inplace
from wignerlab.semicircle import classical_locations, rho_sc


def start_diagonal(n, seed=0):
    return derive_stream(seed, 0).standard_normal(n)


def test_endpoint_t0_identity():
    start = start_diagonal(16)
    ht = ou_endpoint(start, 0.0, SYMMETRIC, derive_stream(1, 0))
    assert np.array_equal(ht, np.diag(start))


def test_endpoint_negative_t_rejected():
    with pytest.raises(FlowError):
        ou_endpoint(start_diagonal(4), -0.1, SYMMETRIC, derive_stream(1, 0))


def test_endpoint_nan_t_rejected():
    # NaN < 0 is False: a sign test alone lets it through to an all-NaN sample
    with pytest.raises(FlowError):
        ou_endpoint(start_diagonal(4), math.nan, SYMMETRIC, derive_stream(1, 0))


def test_endpoint_dense_start_rejected():
    with pytest.raises(FlowError):
        ou_endpoint(np.diag(start_diagonal(4)), 0.5, SYMMETRIC, derive_stream(1, 0))


def test_endpoint_large_t_forgets_start():
    ht = ou_endpoint(np.full(64, 100.0), 80.0, SYMMETRIC, derive_stream(2, 0))
    assert np.max(np.abs(np.diag(ht))) < 10.0  # e^{-40} * 100 + Gaussian noise


@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
@pytest.mark.parametrize("n", [2, 3, 130])
def test_endpoint_bits_match_dense_formula(symmetry, n):
    # scaling the noise in place and adding the start on its diagonal gives
    # the bits of the dense e^{-t/2} diag(s) + sqrt(1 - e^{-t}) V
    start = classical_locations(n)
    for r, t in enumerate([1e-3, 0.5 / n, 0.7, 4.0, 30.0]):
        dense = math.exp(-t / 2.0) * np.diag(start) + math.sqrt(1.0 - math.exp(-t)) * _noise(
            n, symmetry, derive_stream(5, r)
        )
        ht = ou_endpoint(start, t, symmetry, derive_stream(5, r))
        assert ht.dtype == dense.dtype
        assert ht.tobytes() == dense.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [130, 512])
def test_eigvalsh_of_diagonal_start_is_exact(dtype, n):
    # dbm-relax takes the start's spectrum as gamma itself
    gamma = classical_locations(n)
    assert eigvalsh_inplace(np.diag(gamma).astype(dtype)).tobytes() == gamma.tobytes()


def test_endpoint_variance_interpolation():
    # H_t - e^{-t/2} diag(s) is noise of entry variance (1 - e^{-t})/n, on
    # and off the diagonal; Monte Carlo vs analytic, in both classes
    n, t, m = 32, 0.7, 400
    start = start_diagonal(n, seed=3)
    iu = np.triu_indices(n, k=1)
    target = (1.0 - math.exp(-t)) / n
    for symmetry in (SYMMETRIC, HERMITIAN):
        off = np.empty((m, iu[0].size))
        diag = np.empty((m, n))
        for r in range(m):
            ht = ou_endpoint(start, t, symmetry, derive_stream(4, r))
            off[r] = np.abs(ht[iu]) ** 2
            diag[r] = np.abs(np.diag(ht) - math.exp(-t / 2.0) * start) ** 2
        for vals in (off, diag):
            se = vals.mean(axis=1).std(ddof=1) / math.sqrt(m)
            assert abs(vals.mean() - target) <= 4 * se


def test_dbm_relax_holds_one_matrix():
    # the flow sample is the noise buffer itself and the off-diagonal
    # statistic takes half a matrix: no dense start, no triu index arrays
    n = 512
    cfg = ExperimentConfig(n_list=[n], samples_per_n=2, reference_samples=2, master_seed=6)
    run_dbm_relax(replace(cfg, n_list=[130]))  # warm-up imports and caches
    tracemalloc.start()
    try:
        run_dbm_relax(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n * n


def test_semigroup_coefficient_identity():
    for s, t in ((0.1, 0.5), (0.02, 1.7)):
        assert math.exp(-s / 2) * math.exp(-(t - s) / 2) == pytest.approx(math.exp(-t / 2), rel=1e-14)


def test_endpoint_preserves_symmetry():
    start = start_diagonal(10, seed=7)
    for r, t in enumerate([0.1, 0.3, 0.9]):
        h = ou_endpoint(start, t, HERMITIAN, derive_stream(7, r + 1))
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_gap_unfolding_equispaced():
    # equispaced eigenvalues at spacing (n rho)^-1 give unit unfolded gaps
    n = 400
    center = 0.0
    spacing = 1.0 / (n * rho_sc(center))
    eigs = center + (np.arange(n) - n / 2) * spacing
    gaps = gap_distribution(eigs, (center, 30 * spacing))
    # density variation across the narrow window bounds the deviation
    assert np.allclose(gaps, 1.0, atol=2e-2)


def test_gap_mean_near_one_for_goe():
    gaps = equilibrium_gap_reference(512, SYMMETRIC, 4, derive_stream(10, 0))
    assert abs(gaps.mean() - 1.0) <= 0.02


def test_gap_window_too_small():
    with pytest.raises(SampleSizeError):
        gap_distribution(np.linspace(-2, 2, 400), (0.0, 0.01))
    with pytest.raises(SampleSizeError):
        gap_distribution(np.array([5.0, 6.0]), (0.0, 0.5))


def test_rigid_start_has_degenerate_gaps():
    gamma = classical_locations(512)
    gaps = gap_distribution(gamma, (0.0, 1.0))
    assert gaps.std() < 0.05  # near point mass at 1
