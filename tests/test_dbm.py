import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from wignerlab import dbm, experiments, sampler
from wignerlab.dbm import (
    GAP_WINDOW,
    FlowError,
    SampleSizeError,
    _noise,
    beta_hermite,
    equilibrium_gap_reference,
    gap_distribution,
    gaussian_ensemble_spectrum,
    ou_endpoint,
)
from wignerlab.experiments import ExperimentConfig, ks_two_sample, run_dbm_relax
from wignerlab.sampler import HERMITIAN, SYMMETRIC, WignerSample, derive_stream, eigvalsh_inplace
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


def test_dbm_relax_holds_one_matrix(traced_peak):
    # the flow sample is the noise buffer itself and the off-diagonal
    # statistic takes half a matrix: no dense start, no triu index arrays
    n = 512
    cfg = ExperimentConfig(n_list=[n], samples_per_n=2, reference_samples=2, master_seed=6)
    run_dbm_relax(replace(cfg, n_list=[130]))  # warm-up imports and caches
    _, peak = traced_peak(run_dbm_relax, cfg)
    assert peak <= 2.5 * 8 * n * n


def test_dbm_relax_start_row_factorizes_nothing(monkeypatch):
    # the t = 0 sample is diag(gamma): its gaps are gamma's, K times over,
    # and only the four later flow times factorize
    n, k = 130, 3
    calls = []
    eigenvalues = WignerSample.eigenvalues
    monkeypatch.setattr(WignerSample, "eigenvalues", lambda s: calls.append(s.n) or eigenvalues(s))
    rep = run_dbm_relax(ExperimentConfig(n_list=[n], samples_per_n=k, reference_samples=2))
    assert rep.rows[0][2] == k * gap_distribution(classical_locations(n), GAP_WINDOW).size
    assert calls == [n] * 4 * k


@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
def test_dbm_relax_start_row_needs_no_sample_phase(monkeypatch, symmetry):
    # the t = 0 row is known before any draw: only the four later flow times
    # run a sample phase and draw an endpoint, and the start row pools K
    # copies of gamma's gaps with both variances at their target
    n, k = 130, 3
    phases, endpoints, pooled = [], [], []
    monte_carlo, endpoint, ks = experiments.monte_carlo, dbm.ou_endpoint, experiments.ks_two_sample
    monkeypatch.setattr(experiments, "monte_carlo",
                        lambda *a, **kw: phases.append(a[1]) or monte_carlo(*a, **kw))
    monkeypatch.setattr(dbm, "ou_endpoint",
                        lambda start, t, *a: endpoints.append(t) or endpoint(start, t, *a))
    monkeypatch.setattr(experiments, "ks_two_sample",
                        lambda a, b: pooled.append(a) or ks(a, b))
    rep = run_dbm_relax(ExperimentConfig(n_list=[n], samples_per_n=k, symmetry=symmetry,
                                         reference_samples=2))
    assert phases == [n] * 4
    assert len(endpoints) == 4 * k and 0.0 not in endpoints
    start = gap_distribution(classical_locations(n), GAP_WINDOW)
    assert pooled[0].tobytes() == np.tile(start, k).tobytes()
    assert rep.rows[0][0] == 0.0 and rep.rows[0][3:] == (0.0, 0.0)


def test_semigroup_coefficient_identity():
    for s, t in ((0.1, 0.5), (0.02, 1.7)):
        assert math.exp(-s / 2) * math.exp(-(t - s) / 2) == pytest.approx(math.exp(-t / 2), rel=1e-14)


@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
@pytest.mark.parametrize("n", [2, 10, 130])
def test_endpoint_keeps_only_its_upper_triangle(symmetry, n):
    # the sample is its upper triangle and diagonal over a strict lower
    # triangle of +0.0, and mirrors to an exactly symmetric (Hermitian) matrix
    start = start_diagonal(n, seed=7)
    for r, t in enumerate([0.0, 0.1, 0.3, 0.9]):
        ht = ou_endpoint(start, t, symmetry, derive_stream(7, r + 1))
        assert np.tril(ht, -1).tobytes() == np.zeros_like(ht).tobytes()
        h = WignerSample(ht, mirrored=False).h
        assert np.array_equal(h, h.conj().T)


@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
def test_endpoint_into_a_stale_buffer_matches_a_fresh_call(symmetry):
    # out= overwrites every entry: a buffer of NaN gives a fresh call's bytes,
    # over a strict lower triangle of +0.0, at t = 0 as at t > 0
    n = 130
    start = start_diagonal(n, seed=3)
    for r, t in enumerate([0.0, 0.5 / n, 0.7]):
        out = np.empty((n, n), complex if symmetry == HERMITIAN else float)
        out.view(float).fill(np.nan)
        ht = ou_endpoint(start, t, symmetry, derive_stream(3, r), out=out)
        fresh = ou_endpoint(start, t, symmetry, derive_stream(3, r))
        assert ht is out and ht.dtype == fresh.dtype
        assert ht.tobytes() == fresh.tobytes()
        assert np.tril(ht, -1).tobytes() == np.zeros_like(ht).tobytes()


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_endpoint_rejects_an_unusable_out(t):
    start = start_diagonal(8)
    for out in (np.zeros((8, 8), complex), np.zeros((8, 9)), np.zeros((8, 8), order="F")):
        with pytest.raises(ValueError, match="out must be"):
            ou_endpoint(start, t, SYMMETRIC, derive_stream(1, 0), out=out)


def test_gap_unfolding_equispaced():
    # equispaced eigenvalues at spacing (n rho)^-1 give unit unfolded gaps
    n = 400
    center = 0.0
    spacing = 1.0 / (n * rho_sc(center))
    eigs = center + (np.arange(n) - n / 2) * spacing
    gaps = gap_distribution(eigs, (center, 30 * spacing))
    # density variation across the narrow window bounds the deviation
    assert np.allclose(gaps, 1.0, atol=2e-2)


def _pooled_reference(n, symmetry, samples, stream):
    """The gaps of ``samples`` reference spectra, drawn in turn from the one
    stream and concatenated in that order, as dbm-relax pools them."""
    return np.concatenate([equilibrium_gap_reference(*beta_hermite(n, symmetry, stream))
                           for _ in range(samples)])


def test_gap_mean_near_one_for_goe():
    # and for GUE: the reference draws the symmetric class as GOE, the
    # Hermitian class as GUE
    for symmetry in (SYMMETRIC, HERMITIAN):
        gaps = _pooled_reference(512, symmetry, 4, derive_stream(10, 0))
        assert abs(gaps.mean() - 1.0) <= 0.02


@pytest.mark.parametrize("beta, symmetry", [(1, SYMMETRIC), (2, HERMITIAN)])
def test_gaussian_ensemble_second_moment(beta, symmetry):
    # E (1/n) tr H^2 = (2/beta + n - 1)/n: diagonal variance 2/(beta n) and
    # off-diagonal variance 1/n; GOE's 1 + 1/n tells it from a flat diagonal
    n, m = 64, 400
    stream = derive_stream(11, beta)
    moments = np.array([np.mean(gaussian_ensemble_spectrum(n, symmetry, stream) ** 2)
                        for _ in range(m)])
    se = moments.std(ddof=1) / math.sqrt(m)
    assert abs(moments.mean() - (1.0 + (2.0 / beta - 1.0) / n)) <= 4 * se


def test_gaussian_ensemble_unknown_symmetry():
    with pytest.raises(ValueError, match="unknown symmetry"):
        gaussian_ensemble_spectrum(8, "orthogonal", derive_stream(0, 0))


@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
def test_reference_gaps_match_dense_gaussian_ensemble(symmetry):
    # the tridiagonal model against dense GOE/GUE, (A + A^H)/sqrt(2n) with
    # E|a_ij|^2 = 1, whose entries have variance 1/n off and 2/(beta n) on the
    # diagonal
    n, m = 128, 200
    stream = derive_stream(12, 0)
    dense = []
    for _ in range(m):
        a = stream.standard_normal((n, n))
        if symmetry == HERMITIAN:
            a = (a + 1j * stream.standard_normal((n, n))) / math.sqrt(2.0)
        h = (a + a.conj().T) / math.sqrt(2.0 * n)
        dense.append(gap_distribution(np.linalg.eigvalsh(h), GAP_WINDOW))
    reference = _pooled_reference(n, symmetry, m, derive_stream(12, 1))
    ks, critical = ks_two_sample(np.concatenate(dense), reference)
    assert ks < critical


@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
@pytest.mark.parametrize("blas_threads", [1, 2, 4])
def test_reference_bytes_match_a_serial_loop(symmetry, blas_threads, host_blas_threads,
                                             monkeypatch):
    """dbm-relax solves its reference spectra side by side, as many as
    OpenBLAS has threads (4 is more than this test assumes cores), and
    compares the flow with the bytes of drawing and solving them in turn from
    the one stream, also when threads switch often."""
    get = sampler._lapack()["threads"][0]
    n, samples, interval = 128, 9, sys.getswitchinterval()
    references = []

    def ks(pooled, reference):
        references.append(reference)
        return ks_two_sample(pooled, reference)

    monkeypatch.setattr(experiments, "ks_two_sample", ks)
    cfg = ExperimentConfig(n_list=[n], samples_per_n=2, symmetry=symmetry,
                           master_seed=21, reference_samples=samples)
    with host_blas_threads(blas_threads):
        sys.setswitchinterval(1e-6)
        try:
            run_dbm_relax(cfg)
            assert get() == blas_threads
        finally:
            sys.setswitchinterval(interval)
    stream = derive_stream(21, 10**6 + 1)
    want = np.concatenate([gap_distribution(gaussian_ensemble_spectrum(n, symmetry, stream),
                                            GAP_WINDOW) for _ in range(samples)])
    assert len(references) == 5  # one KS per flow time
    assert all(got.tobytes() == want.tobytes() for got in references)


def test_gap_window_too_small():
    with pytest.raises(SampleSizeError):
        gap_distribution(np.linspace(-2, 2, 400), (0.0, 0.01))
    with pytest.raises(SampleSizeError):
        gap_distribution(np.array([5.0, 6.0]), (0.0, 0.5))


def test_rigid_start_has_degenerate_gaps():
    gamma = classical_locations(512)
    gaps = gap_distribution(gamma, (0.0, 1.0))
    assert gaps.std() < 0.05  # near point mass at 1
