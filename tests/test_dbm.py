import math

import numpy as np
import pytest

from wignerlab.dbm import (
    FlowError,
    SampleSizeError,
    equilibrium_gap_reference,
    gap_distribution,
    ou_endpoint,
)
from wignerlab.profile import flat_profile
from wignerlab.sampler import HERMITIAN, SYMMETRIC, derive_stream, gaussian, sample_matrix
from wignerlab.semicircle import classical_locations, rho_sc


def start_matrix(n, seed=0):
    return sample_matrix(flat_profile(n), gaussian(), SYMMETRIC, derive_stream(seed, 0)).h


def test_endpoint_t0_identity():
    h0 = start_matrix(16)
    ht = ou_endpoint(h0, 0.0, SYMMETRIC, derive_stream(1, 0))
    assert np.array_equal(ht, h0)


def test_endpoint_negative_t_rejected():
    with pytest.raises(FlowError):
        ou_endpoint(start_matrix(4), -0.1, SYMMETRIC, derive_stream(1, 0))


def test_endpoint_large_t_forgets_start():
    h0 = np.diag(np.full(64, 100.0))
    ht = ou_endpoint(h0, 80.0, SYMMETRIC, derive_stream(2, 0))
    assert np.max(np.abs(np.diag(ht))) < 10.0  # e^{-40} * 100 + Gaussian noise


def test_endpoint_variance_interpolation():
    # E|H_t,ij|^2 = e^{-t} sigma2 + (1 - e^{-t})/n, Monte Carlo vs analytic
    n, t, m = 32, 0.7, 400
    h0 = start_matrix(n, seed=3)
    iu = np.triu_indices(n, k=1)
    sigma2 = np.abs(h0[iu]) ** 2
    vals = np.empty((m, iu[0].size))
    for r in range(m):
        ht = ou_endpoint(h0, t, SYMMETRIC, derive_stream(4, r))
        vals[r] = np.abs(ht[iu]) ** 2
    target = math.exp(-t) * sigma2.mean() + (1.0 - math.exp(-t)) / n
    obs = vals.mean()
    se = vals.mean(axis=1).std(ddof=1) / math.sqrt(m)
    assert abs(obs - target) <= 4 * se


def test_semigroup_coefficient_identity():
    for s, t in ((0.1, 0.5), (0.02, 1.7)):
        assert math.exp(-s / 2) * math.exp(-(t - s) / 2) == pytest.approx(math.exp(-t / 2), rel=1e-14)


def test_endpoint_preserves_symmetry():
    h0 = sample_matrix(flat_profile(10), gaussian(), HERMITIAN, derive_stream(7, 0)).h
    for r, t in enumerate([0.1, 0.3, 0.9]):
        h = ou_endpoint(h0, t, HERMITIAN, derive_stream(7, r + 1))
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
