import math

import numpy as np
import pytest

from wignerlab.profile import band_profile, custom_profile, flat_profile
from wignerlab.sampler import (
    HERMITIAN,
    SYMMETRIC,
    DistributionError,
    Provenance,
    WignerSample,
    derive_stream,
    from_name,
    gaussian,
    moment_report,
    moments_match,
    rademacher,
    sample_indexed,
    sample_matrix,
    two_point,
    uniform,
)


def test_rademacher_flat_entries():
    p = flat_profile(4)
    s = sample_matrix(p, rademacher(), SYMMETRIC, derive_stream(0, 0))
    off = s.h[~np.eye(4, dtype=bool)]
    assert set(np.round(np.abs(off), 12)) == {0.5}


def test_hermitian_structure_exact():
    p = flat_profile(12)
    s = sample_matrix(p, gaussian(), HERMITIAN, derive_stream(1, 0))
    assert np.max(np.abs(s.h - s.h.conj().T)) == 0.0
    assert np.all(np.diag(s.h).imag == 0.0)


def test_symmetric_structure_exact():
    p = flat_profile(12)
    s = sample_matrix(p, uniform(), SYMMETRIC, derive_stream(1, 1))
    assert np.max(np.abs(s.h - s.h.T)) == 0.0


def test_entry_variance_flat_gaussian():
    # chi-squared concentration: mean of N|h_ij|^2 over off-diagonal entries
    n = 512
    s = sample_matrix(flat_profile(n), gaussian(), SYMMETRIC, derive_stream(2, 0))
    iu = np.triu_indices(n, k=1)
    vals = n * np.abs(s.h[iu]) ** 2
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) < 3 * se


def test_hermitian_re_im_variance_split():
    # Var(Re h) = Var(Im h) = sigma2/2, tested at ~1e5 off-diagonal draws
    n = 450
    s = sample_matrix(flat_profile(n), gaussian(), HERMITIAN, derive_stream(3, 0))
    iu = np.triu_indices(n, k=1)
    re = n * s.h[iu].real ** 2
    im = n * s.h[iu].imag ** 2
    for vals in (re, im):
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.5) < 4 * se


def test_stream_determinism():
    p = flat_profile(8)
    a = sample_matrix(p, gaussian(), SYMMETRIC, derive_stream(7, 3)).h
    b = sample_matrix(p, gaussian(), SYMMETRIC, derive_stream(7, 3)).h
    assert np.array_equal(a, b)


def test_stream_distinct_indices():
    p = flat_profile(8)
    a = sample_matrix(p, gaussian(), SYMMETRIC, derive_stream(7, 0)).h
    b = sample_matrix(p, gaussian(), SYMMETRIC, derive_stream(7, 1)).h
    assert not np.array_equal(a, b)


def test_stream_schedule_invariance():
    # consuming indices in any order leaves each sample unchanged
    p = flat_profile(6)
    direct = {i: sample_indexed(p, gaussian(), SYMMETRIC, 11, i).h for i in range(4)}
    for i in reversed(range(4)):
        again = sample_indexed(p, gaussian(), SYMMETRIC, 11, i).h
        assert np.array_equal(direct[i], again)


def test_moment_report_rademacher():
    rep = moment_report(rademacher(), 4, 10**4, derive_stream(5, 0))
    assert rep[0].empirical == pytest.approx(0.0, abs=4 * max(rep[0].stderr, 1e-12))
    assert rep[1].empirical == 1.0
    assert rep[3].empirical == 1.0


def test_moment_report_preconditions():
    with pytest.raises(ValueError):
        moment_report(gaussian(), 9, 10**4, derive_stream(0, 0))
    with pytest.raises(ValueError):
        moment_report(gaussian(), 4, 100, derive_stream(0, 0))


def test_gaussian_vs_rademacher_matching():
    rng = derive_stream(6, 0)
    a = moment_report(gaussian(), 4, 10**5, rng)
    b = moment_report(rademacher(), 4, 10**5, rng)
    assert moments_match(a, b, order=2)
    assert not moments_match(a, b, order=4)  # 4th moments are 3 vs 1


def test_two_point_matches_gaussian_at_order_two():
    rng = derive_stream(6, 1)
    a = moment_report(gaussian(), 4, 10**5, rng)
    b = moment_report(two_point(0.3), 4, 10**5, rng)
    assert moments_match(a, b, order=2)
    assert not moments_match(a, b, order=4)


def test_matching_symmetric_reflexive():
    rng = derive_stream(6, 2)
    a = moment_report(gaussian(), 4, 10**4, rng)
    b = moment_report(rademacher(), 4, 10**4, rng)
    for order in (2, 4):
        assert moments_match(a, a, order)
        assert moments_match(b, b, order)
        assert moments_match(a, b, order) == moments_match(b, a, order)


@pytest.mark.parametrize("law", [gaussian(), rademacher(), uniform(), two_point(0.2)])
def test_standardization(law):
    assert law.analytic_moment(1) == pytest.approx(0.0, abs=1e-12)
    assert law.analytic_moment(2) == pytest.approx(1.0, abs=1e-12)
    x = law.draw(derive_stream(9, 0), 10**5)
    assert abs(x.mean()) < 4 / math.sqrt(len(x))


def test_uniform_analytic_moments():
    # E x^4 = 9/5 for the sqrt(3)-scaled uniform
    assert uniform().analytic_moment(4) == pytest.approx(1.8)
    assert uniform().analytic_moment(3) == 0.0


def test_from_name():
    assert from_name("rademacher").law == "rademacher"
    assert from_name("two_point:0.25").p == 0.25
    assert from_name("gaussian:scale=2.0").scale == 2.0
    with pytest.raises(DistributionError):
        from_name("cauchy")


def test_two_point_bad_p():
    with pytest.raises(DistributionError):
        two_point(1.0)


def test_lazy_eigendecomposition():
    s = sample_indexed(flat_profile(16), gaussian(), SYMMETRIC, 1, 0)
    assert s._eigenvalues is None
    w = s.eigenvalues()
    assert np.all(np.diff(w) >= 0)
    w2, u = s.eigen_pair()
    assert np.allclose((u * w2) @ u.conj().T, s.h, atol=1e-10)


def _reference_draw(d, rng, size):
    """EntryDistribution.draw written with fresh arrays at every step."""
    if d.law == "gaussian":
        x = rng.standard_normal(size)
    elif d.law == "rademacher":
        x = rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
    elif d.law == "uniform":
        x = (rng.random(size) * 2.0 - 1.0) * math.sqrt(3.0)
    else:
        x = np.where(rng.random(size) < d.p, d.a, d.b)
    return x * d.scale


@pytest.mark.parametrize("law", [gaussian(), rademacher(), uniform(), two_point(0.3),
                                 gaussian(1.5), rademacher(-0.5), uniform(0.25)])
def test_draw_matches_fresh_array_formulation(law):
    got = law.draw(derive_stream(3, 0), 1001)
    want = _reference_draw(law, derive_stream(3, 0), 1001)
    assert got.tobytes() == want.tobytes()


def _reference_matrix(p, d, symmetry, stream):
    """Full-matrix formulation: scatter through triu_indices, then h + h^H."""
    n = p.n
    sigma = np.sqrt(p.sigma2)
    iu = np.triu_indices(n, k=1)
    if symmetry == SYMMETRIC:
        h = np.zeros((n, n))
        h[iu] = d.draw(stream, iu[0].size) * sigma[iu]
        h = h + h.T
    else:
        re = d.draw(stream, iu[0].size)
        im = d.draw(stream, iu[0].size)
        h = np.zeros((n, n), dtype=complex)
        h[iu] = (re + 1j * im) / math.sqrt(2.0) * sigma[iu]
        h = h + h.conj().T
    np.fill_diagonal(h, d.draw(stream, n) * np.diag(sigma))
    return h


def _custom_sparse(n):
    """Doubly stochastic profile with unequal entries and symmetric zeros."""
    rng = np.random.default_rng(n)
    a = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    s = a + a.T + np.eye(n)
    for _ in range(500):
        s = s / s.sum(axis=0, keepdims=True)
        s = 0.5 * (s + s.T)
    return custom_profile(s)


_PROFILES = {
    "flat": flat_profile,
    "band": lambda n: band_profile(n, max(1, n // 8), lambda x: 0.5 if abs(x) <= 1.0 else 0.0),
    "custom": _custom_sparse,
}


# 64 is the mirror's block size: these sizes fall below, on and across it
@pytest.mark.parametrize("n", [2, 3, 5, 64, 65, 130])
@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
@pytest.mark.parametrize("kind", sorted(_PROFILES))
def test_sample_matrix_matches_full_matrix_formulation(kind, symmetry, n):
    p = _PROFILES[kind](n)
    for k, law in enumerate([gaussian(), rademacher(), uniform(), two_point(0.3)]):
        got = sample_matrix(p, law, symmetry, derive_stream(n, k)).h
        want = _reference_matrix(p, law, symmetry, derive_stream(n, k))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # array_equal counts -0.0 == 0.0; the bytes must agree too, since the
        # sign of a zero can steer LAPACK's Householder reflections
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", ["eigenvalues", "eigen_pair"])
def test_non_finite_spectrum_raises(method):
    h = np.eye(4)
    h[0, 1] = h[1, 0] = np.inf
    p = flat_profile(4)
    s = WignerSample(h, p, SYMMETRIC, Provenance(-1, -1, "gaussian", p.content_hash(), SYMMETRIC))
    with pytest.raises(FloatingPointError):
        getattr(s, method)()
