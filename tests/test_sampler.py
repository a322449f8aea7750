import math
import tracemalloc

import numpy as np
import pytest

from wignerlab import sampler
from wignerlab.profile import VarianceProfile, band_profile, flat_profile
from wignerlab.sampler import (
    HERMITIAN,
    SYMMETRIC,
    DRAW_CHUNK,
    DistributionError,
    WignerSample,
    derive_stream,
    from_name,
    gaussian,
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
    w, u = s.eigen_pair()
    assert np.allclose((u * w) @ u.conj().T, s.h, atol=1e-10)
    assert s.eigenvalues() is w  # the cache: h is kept
    assert np.all(np.diff(w) >= 0)
    assert s.h.shape == (16, 16)
    t = sample_indexed(flat_profile(16), gaussian(), SYMMETRIC, 1, 0)
    assert np.all(np.diff(t.eigenvalues()) >= 0)
    with pytest.raises(RuntimeError, match="consumed"):
        t.eigen_pair()


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


@pytest.mark.parametrize("law", [gaussian(), rademacher(), uniform(), two_point(0.3)])
def test_chunked_draw_matches_one_call(law):
    # more than two chunks and an odd remainder, drawn into a slice of a
    # larger buffer as sample_matrix does; the stream then continues alike
    count = 2 * DRAW_CHUNK + 3
    got_rng, want_rng = derive_stream(5, 0), derive_stream(5, 0)
    buf = np.zeros(count + 1)
    got = law.draw(got_rng, out=buf[1:])
    want = _reference_draw(law, want_rng, count)
    assert got.tobytes() == want.tobytes()
    assert got_rng.standard_normal(7).tobytes() == want_rng.standard_normal(7).tobytes()


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
    """Circulant profile with unequal entries and symmetric zeros."""
    rng = np.random.default_rng(n)
    a = rng.random(n) * (rng.random(n) < 0.7)
    c = a + np.roll(a[::-1], 1)  # c[k] == c[-k]
    c[0] += 1.0
    return VarianceProfile(c / c.sum(), "custom")


def _band(n):
    return band_profile(n, max(1, n // 8), lambda x: 0.5 if abs(x) <= 1.0 else 0.0)


_LAWS = [gaussian(), rademacher(), uniform(), two_point(0.3)]

_PROFILES = {
    "flat": flat_profile,
    "band": _band,
    "custom": _custom_sparse,
}


# 64 is the mirror's block size: these sizes fall below, on and across it
@pytest.mark.parametrize("n", [2, 3, 5, 64, 65, 130])
@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
@pytest.mark.parametrize("kind", sorted(_PROFILES))
def test_sample_matrix_matches_full_matrix_formulation(kind, symmetry, n):
    p = _PROFILES[kind](n)
    for k, law in enumerate(_LAWS):
        got = sample_matrix(p, law, symmetry, derive_stream(n, k)).h
        want = _reference_matrix(p, law, symmetry, derive_stream(n, k))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # array_equal counts -0.0 == 0.0; the bytes must agree too, since the
        # sign of a zero can steer LAPACK's Householder reflections
        assert got.tobytes() == want.tobytes()


# Hermitian scratch batches of one row, two rows, and seven rows with a short
# last batch; at the default size one row fills a batch only when N > 16385
@pytest.mark.parametrize("chunk", [4, 1200, 4000])
def test_hermitian_batches_match_full_matrix_formulation(chunk, monkeypatch):
    monkeypatch.setattr(sampler, "DRAW_CHUNK", chunk)
    p = _band(130)
    for k, law in enumerate(_LAWS):
        got = sample_matrix(p, law, HERMITIAN, derive_stream(130, k)).h
        want = _reference_matrix(p, law, HERMITIAN, derive_stream(130, k))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", ["eigenvalues", "eigen_pair"])
def test_non_finite_spectrum_raises(method):
    h = np.eye(4)
    h[0, 1] = h[1, 0] = np.inf
    s = WignerSample(h)
    with pytest.raises(FloatingPointError):
        getattr(s, method)()


def test_sample_takes_only_the_matrix():
    # the eigendecomposition cache is filled by the sample, never passed in
    with pytest.raises(TypeError):
        WignerSample(np.eye(2), np.ones(2))


def _eigvalsh_cases(n):
    """(sample, np.linalg.eigvalsh of its h) for both classes, flat and band
    profiles and all four laws."""
    for symmetry in (SYMMETRIC, HERMITIAN):
        for kind in ("flat", "band"):
            p = _PROFILES[kind](n)
            for k, law in enumerate(_LAWS):
                s = sample_matrix(p, law, symmetry, derive_stream(n, k))
                yield s, np.linalg.eigvalsh(s.h)


# one and two BLAS threads give different bits from N = 192/224 on
@pytest.mark.parametrize("n", [2, 3, 130, 193, 256, 512])
def test_eigenvalues_in_place_match_eigvalsh_bytes(n):
    for s, want in _eigvalsh_cases(n):
        assert s.eigenvalues().tobytes() == want.tobytes()


@pytest.mark.parametrize("lib", [None, object()], ids=["no-library", "no-symbol"])
def test_eigenvalues_fallback_matches_bytes(monkeypatch, lib):
    def cdll(name):
        if lib is None:
            raise OSError(f"{name}: cannot open shared object file")
        return lib

    monkeypatch.setattr(sampler.ctypes, "CDLL", cdll)
    sampler._lapack.cache_clear()
    try:
        assert sampler._lapack() == {}
        for s, want in _eigvalsh_cases(130):
            assert s.eigenvalues().tobytes() == want.tobytes()
            with pytest.raises(RuntimeError, match="consumed"):
                s.eigen_pair()
    finally:
        sampler._lapack.cache_clear()


def test_eigenvalues_of_a_strided_matrix_leave_it_untouched():
    h = sample_matrix(flat_profile(40), gaussian(), SYMMETRIC, derive_stream(4, 0)).h
    for view in (np.asfortranarray(h), h[::-1, ::-1]):
        before = view.tobytes()
        assert WignerSample(view).eigenvalues().tobytes() == np.linalg.eigvalsh(view).tobytes()
        assert view.tobytes() == before


def test_consumed_sample_raises():
    s = sample_matrix(flat_profile(8), gaussian(), HERMITIAN, derive_stream(5, 0))
    w = s.eigenvalues()
    assert s.eigenvalues() is w
    for read in (lambda: s.h, lambda: s.n, s.eigen_pair):
        with pytest.raises(RuntimeError, match="consumed"):
            read()


# the ids law0-law3 name these laws in this order
_ALLOC_LAWS = [gaussian(), uniform(), rademacher(), two_point(0.3)]


@pytest.mark.parametrize("symmetry, law", [
    *(pytest.param(SYMMETRIC, law, id=f"law{k}") for k, law in enumerate(_ALLOC_LAWS)),
    *(pytest.param(HERMITIAN, law, id=f"hermitian-law{k}") for k, law in enumerate(_ALLOC_LAWS)),
])
def test_symmetric_sample_allocates_one_matrix(symmetry, law):
    # draws go straight into h: one buffer at N = 1024 (8 MiB real, 16 MiB
    # complex), not the packed draws and their scaled copy besides;
    # rademacher and two_point add one chunk's temporaries, a Hermitian
    # sample one scratch batch of whole rows (<= 384 KiB)
    n = 1024
    p = flat_profile(n)
    sample_matrix(flat_profile(8), law, symmetry, derive_stream(0, 0))  # warm-up imports
    tracemalloc.start()
    try:
        h = sample_matrix(p, law, symmetry, derive_stream(0, 0)).h
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= h.nbytes + 2**20
