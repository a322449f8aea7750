import math

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
    eigvalsh_tridiagonal,
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
        # each entry's real part, then its imaginary part, of variance sigma2/2 each
        z = d.draw(stream, 2 * iu[0].size).view(complex)
        h = np.zeros((n, n), dtype=complex)
        h[iu] = z * np.sqrt(p.sigma2 / 2.0)[iu]
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
    return band_profile(n, max(1, n // 8))


_LAWS = [gaussian(), rademacher(), uniform(), two_point(0.3)]

_PROFILES = {
    "flat": flat_profile,
    "band": _band,
    "custom": _custom_sparse,
}


# sizes from the smallest up, odd and even, at and past a power of two
@pytest.mark.parametrize("n", [2, 3, 5, 64, 65, 130])
@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
@pytest.mark.parametrize("kind", sorted(_PROFILES))
def test_sample_matrix_matches_full_matrix_formulation(kind, symmetry, n):
    p = _PROFILES[kind](n)
    for k, law in enumerate(_LAWS):
        got_rng, want_rng = derive_stream(n, k), derive_stream(n, k)
        got = sample_matrix(p, law, symmetry, got_rng).h
        want = _reference_matrix(p, law, symmetry, want_rng)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # array_equal counts -0.0 == 0.0; the bytes must agree too, since the
        # sign of a zero can steer LAPACK's Householder reflections
        assert got.tobytes() == want.tobytes()
        # the sample read exactly its m + n (Hermitian: 2m + n) values
        assert got_rng.standard_normal(7).tobytes() == want_rng.standard_normal(7).tobytes()


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


def _case_draws(n):
    """A function drawing the same fresh sample at each call, for both
    classes, flat and band profiles and all four laws."""
    for symmetry in (SYMMETRIC, HERMITIAN):
        for kind in ("flat", "band"):
            p = _PROFILES[kind](n)
            for k, law in enumerate(_LAWS):
                yield lambda p=p, law=law, symmetry=symmetry, k=k: sample_matrix(
                    p, law, symmetry, derive_stream(n, k))


def _eigvalsh_cases(n):
    """(sample, np.linalg.eigvalsh of its h) for each of _case_draws."""
    for draw in _case_draws(n):
        s = draw()
        yield s, np.linalg.eigvalsh(s.h)


def _eigh_cases(n):
    """(a sample never mirrored, np.linalg.eigh of the same sample's h) for
    each of _case_draws."""
    for draw in _case_draws(n):
        yield draw(), np.linalg.eigh(draw().h)


# one and two BLAS threads give different bits from N = 192/224 on
@pytest.mark.parametrize("n", [2, 3, 130, 193, 256, 512])
def test_eigenvalues_in_place_match_eigvalsh_bytes(n):
    for s, want in _eigvalsh_cases(n):
        assert s.eigenvalues().tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [130, 256, 512])
@pytest.mark.parametrize("kind", ["flat", "band"])
@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
def test_eigenvalues_read_no_lower_triangle(symmetry, kind, n):
    """The eigenvalue path never fills the lower triangle, and never needs to:
    the unfilled sample and the same h with a lower triangle of NaN give the
    eigenvalue bytes of the full matrix."""
    p = _PROFILES[kind](n)
    full = sample_matrix(p, gaussian(), symmetry, derive_stream(n, 1)).h
    want = WignerSample(full.copy()).eigenvalues()
    got = sample_matrix(p, gaussian(), symmetry, derive_stream(n, 1)).eigenvalues()
    assert got.tobytes() == want.tobytes()
    full[np.tril_indices(n, -1)] = np.nan
    assert WignerSample(full, mirrored=False).eigenvalues().tobytes() == want.tobytes()


def _twins(symmetry, n):
    """Two equal samples of the class at dimension n, never mirrored; at
    N = 1, which no profile has, two 1×1 matrices."""
    if n == 1:
        h = np.full((1, 1), 0.7, complex if symmetry == HERMITIAN else float)
        return WignerSample(h.copy()), WignerSample(h)
    return tuple(sample_matrix(flat_profile(n), gaussian(), symmetry, derive_stream(n, 2))
                 for _ in range(2))


@pytest.mark.parametrize("blas_threads", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 12, 130, 512])
@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
def test_eigen_pair_matches_eigh_bytes(symmetry, n, blas_threads, host_blas_threads):
    """eigen_pair solves a copy of h in place and gives (w, U) with the bytes
    of numpy's eigh of the mirrored h at either BLAS thread count, on a
    sample never mirrored and on one whose h was read first; h is left as it
    was. With consume it solves h itself, with the same bytes, and of the
    sample only n stays readable."""
    with host_blas_threads(blas_threads):
        s, t = _twins(symmetry, n)
        consumed = _twins(symmetry, n)[0]
        h = t.h
        before = h.tobytes()
        w0, u0 = np.linalg.eigh(h)
        for sample, consume in ((s, False), (t, False), (consumed, True)):
            w, u = sample.eigen_pair(consume=consume)
            assert w.tobytes() == w0.tobytes()
            assert u.tobytes() == u0.tobytes()
        assert t.h is h and h.tobytes() == before
        assert s.h.tobytes() == before
        assert consumed.n == n
        with pytest.raises(RuntimeError, match="consumed"):
            consumed.h


@pytest.mark.parametrize("stale", ["nan", "lapack-output"])
@pytest.mark.parametrize("law", [gaussian(), rademacher()], ids=["gaussian", "rademacher"])
@pytest.mark.parametrize("w", [None, 8], ids=["flat", "band-w8"])
@pytest.mark.parametrize("symmetry", [SYMMETRIC, HERMITIAN])
def test_sample_into_a_stale_buffer_matches_a_fresh_array(symmetry, w, law, stale):
    """sample_matrix(out=) overwrites all that h's mirror and a solve read: a
    buffer of NaN, or one holding an earlier sample's LAPACK output, gives the
    fresh array's h and eigenvalue bytes."""
    n = 130
    p = flat_profile(n) if w is None else band_profile(n, w)
    buf = np.empty((n, n), complex if symmetry == HERMITIAN else float)
    if stale == "nan":
        buf.view(float).fill(np.nan)
    else:
        sample_matrix(p, law, symmetry, derive_stream(n, 0), out=buf).eigenvalues()

    def fresh():
        return sample_matrix(p, law, symmetry, derive_stream(n, 1))

    want = fresh().eigenvalues()
    s = sample_matrix(p, law, symmetry, derive_stream(n, 1), out=buf)
    assert s.eigenvalues().tobytes() == want.tobytes()
    stale_h = buf.copy()
    h = sample_matrix(p, law, symmetry, derive_stream(n, 1), out=stale_h).h
    assert h is stale_h and h.tobytes() == fresh().h.tobytes()


def test_sample_matrix_rejects_an_unusable_out():
    """A wrong shape or dtype, or an out that is not C-contiguous or not
    writeable, raises before the stream is read."""
    n = 8
    read_only = np.empty((n, n))
    read_only.flags.writeable = False
    cases = [
        (SYMMETRIC, np.empty((n, n + 1))),
        (SYMMETRIC, np.empty((n - 1, n - 1))),
        (SYMMETRIC, np.empty(n * n)),
        (SYMMETRIC, np.empty((n, n), complex)),
        (SYMMETRIC, np.empty((n, n), np.float32)),
        (HERMITIAN, np.empty((n, n))),
        (HERMITIAN, np.empty((n, n), np.complex64)),
        (SYMMETRIC, np.empty((n, n), order="F")),
        (HERMITIAN, np.empty((n, 2 * n), complex)[:, ::2]),
        (SYMMETRIC, read_only),
    ]
    for symmetry, out in cases:
        stream = derive_stream(0, 0)
        with pytest.raises(ValueError, match="out must be"):
            sample_matrix(flat_profile(n), gaussian(), symmetry, stream, out=out)
        assert stream.standard_normal(3).tobytes() == derive_stream(0, 0).standard_normal(3).tobytes()


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
        for s, (w0, u0) in _eigh_cases(130):
            w, u = s.eigen_pair()
            assert w.tobytes() == w0.tobytes() and u.tobytes() == u0.tobytes()
        for n in (1, 2, 130):
            d, e = _tridiagonal(n)
            want = np.linalg.eigvalsh(_dense_tridiagonal(d, e))
            assert eigvalsh_tridiagonal(d, e).tobytes() == want.tobytes()
    finally:
        sampler._lapack.cache_clear()


def _tridiagonal(n, seed=0):
    stream = derive_stream(seed, n)
    return stream.standard_normal(n), stream.standard_normal(n - 1)


def _dense_tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@pytest.mark.parametrize("n", [2, 3, 64, 512])
def test_eigvalsh_tridiagonal_matches_dense(n):
    d, e = _tridiagonal(n)
    want = np.linalg.eigvalsh(_dense_tridiagonal(d, e))
    got = eigvalsh_tridiagonal(d, e)
    assert got is d  # the spectrum overwrites the diagonal
    assert np.all(np.diff(got) >= 0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("where", ["d", "e"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigvalsh_tridiagonal_non_finite_raises(where, bad):
    d, e = _tridiagonal(8)
    {"d": d, "e": e}[where][3] = bad
    with pytest.raises(FloatingPointError):
        eigvalsh_tridiagonal(d, e)


def test_eigvalsh_tridiagonal_rejects_mismatched_lengths():
    # a short e would have dsterf read past its end
    d, e = _tridiagonal(8)
    for args in ((d, e[:-1]), (d, np.append(e, 1.0)), (d[:, None], e)):
        with pytest.raises(ValueError, match="do not match"):
            eigvalsh_tridiagonal(*args)


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
def test_symmetric_sample_allocates_one_matrix(symmetry, law, traced_peak):
    # draws go straight into h, for both classes: one buffer at N = 1024
    # (8 MiB real, 16 MiB complex), not the packed draws and their scaled
    # copy besides; rademacher and two_point add one chunk's temporaries
    n = 1024
    p = flat_profile(n)
    sample_matrix(flat_profile(8), law, symmetry, derive_stream(0, 0))  # warm-up imports
    s, peak = traced_peak(sample_matrix, p, law, symmetry, derive_stream(0, 0))
    # the draw alone: reading h mirrors it through one N×N temporary
    assert peak <= s.h.nbytes + 2**20
