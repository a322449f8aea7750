import hashlib

import numpy as np
import pytest

from wignerlab.profile import (
    ProfileError,
    VarianceProfile,
    assumption_report,
    band_profile,
    flat_profile,
    symmetric_offsets,
)


def test_flat_entries():
    p = flat_profile(4)
    assert np.all(p.sigma2 == 0.25)
    assert np.allclose(p.sigma2.sum(axis=0), 1.0, atol=1e-12)
    assert p.c_inf == 1.0 and p.c_sup == 1.0


def test_flat_n2():
    assert np.all(flat_profile(2).sigma2 == 0.5)


def test_flat_dimension_error():
    with pytest.raises(ProfileError):
        flat_profile(1)


def test_flat_spectral_gap():
    rep = assumption_report(flat_profile(16))
    assert rep.eigenvalue_one_simple
    assert rep.delta_minus == pytest.approx(1.0, abs=1e-10)
    assert rep.delta_plus == pytest.approx(1.0, abs=1e-10)


def test_band_indicator_example():
    # n=8, w=2: admissible offsets -2..2, raw row sum 5/4, normalized to 1/5
    p = band_profile(8, 2)
    assert p.sigma2[0, 0] == pytest.approx(0.2)
    assert p.sigma2[0, 2] == pytest.approx(0.2)
    assert p.sigma2[0, 6] == pytest.approx(0.2)  # wraparound offset -2
    assert p.sigma2[0, 3] == 0.0
    assert np.allclose(p.sigma2.sum(axis=0), 1.0, atol=1e-12)


def test_band_half_bandwidth_close_to_flat():
    n = 8
    p = band_profile(n, n // 2)
    assert np.all(p.sigma2 > 0)
    assert np.allclose(p.sigma2.sum(axis=0), 1.0, atol=1e-12)


def _dense_band(n, w):
    """The N x N construction band_profile used before its circulant view,
    with its box shape 0.5 * 1{|x| <= 1}."""
    offsets = symmetric_offsets(n)
    weights = np.array([(0.5 if abs(d / w) <= 1.0 else 0.0) / w for d in offsets], dtype=float)
    weights /= weights.sum()
    idx = np.arange(n)
    d = (idx[:, None] - idx[None, :]) % n
    d = np.where(d > n / 2, d - n, d)  # symmetric representative in (-n/2, n/2]
    return weights[np.searchsorted(offsets, d)]


def _assert_same_as_dense(p, dense):
    assert p.sigma2.tobytes() == dense.tobytes()
    assert p.sigma2.sum(axis=0).tobytes() == dense.sum(axis=0).tobytes()
    assert p.content_hash() == hashlib.sha256(dense.tobytes()).hexdigest()[:16]
    assert np.array_equal(p.c, dense[:, 0])


# odd and even sizes, from the smallest up
_SIZES = [2, 3, 5, 64, 65, 130, 257]
_BANDS = [(16, 3), (17, 4), (32, 8)] + sorted(
    {(n, w) for n in _SIZES for w in (1, max(1, n // 8), n // 2)}
)


@pytest.mark.parametrize("n,w", _BANDS)
def test_band_column_sums(n, w):
    p = band_profile(n, w)
    assert np.allclose(p.sigma2.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(p.sigma2, p.sigma2.T)
    _assert_same_as_dense(p, _dense_band(n, w))


@pytest.mark.parametrize("n", _SIZES)
def test_flat_matches_dense_formula(n):
    _assert_same_as_dense(flat_profile(n), np.full((n, n), 1.0 / n))


@pytest.mark.parametrize(
    "build", [lambda: flat_profile(1024), lambda: band_profile(1024, 64)],
    ids=["flat", "band"],
)
def test_profiles_take_linear_storage(build, traced_peak):
    # one dense 1024 x 1024 float64 copy would be 8 MiB
    p, peak = traced_peak(build)
    assert peak < 2**20
    with pytest.raises(ValueError):
        p.sigma2[1, 0] = 1.0
    with pytest.raises(ValueError):
        p.c[0] = 1.0


def test_band_bandwidth_range():
    with pytest.raises(ProfileError):
        band_profile(8, 5)
    with pytest.raises(ProfileError):
        band_profile(8, 0)


def test_band_spectrum_matches_circulant_fourier():
    # the report reads Spec(B) off the DFT of the first column; the dense
    # eigensolve of sigma2 is the oracle
    n, w = 64, 16
    p = band_profile(n, w)
    dense = np.linalg.eigvalsh(np.array(p.sigma2))
    rep = assumption_report(p)
    assert rep.eigenvalue_one_simple
    assert rep.delta_plus == pytest.approx(1.0 - dense[-2], abs=1e-12)
    assert rep.delta_minus == pytest.approx(dense[0] + 1.0, abs=1e-12)
    # upper spectral gap of order (w/n)^2
    assert 0 < rep.delta_plus < 1.0


@pytest.mark.parametrize("make", [
    lambda: flat_profile(16),
    lambda: flat_profile(33),
    lambda: band_profile(65, 7),  # odd N: no Nyquist frequency
], ids=["flat16", "flat33", "band65w7"])
def test_spectrum_matches_dense_eigvalsh(make):
    p = make()
    dense = np.linalg.eigvalsh(np.array(p.sigma2))
    rep = assumption_report(p)
    assert rep.eigenvalue_one_simple
    assert rep.delta_plus == pytest.approx(1.0 - dense[-2], abs=1e-12)
    assert rep.delta_minus == pytest.approx(dense[0] + 1.0, abs=1e-12)


def test_identity_profile_not_simple():
    # the identity matrix is the circulant whose first column is e_0
    rep = assumption_report(VarianceProfile(np.eye(8)[:, 0], "custom"))
    assert not rep.eigenvalue_one_simple


def test_symmetric_offsets():
    assert list(symmetric_offsets(8)) == list(range(-3, 5))
    assert list(symmetric_offsets(7)) == list(range(-3, 4))


def test_profile_rejects_non_square_sigma2():
    # only a first column, a vector of n >= 2 numbers, makes a square circulant
    for c in [np.full((4, 4), 0.25), np.full((2, 2, 2), 0.125), np.ones(1), np.float64(1.0)]:
        with pytest.raises(ProfileError, match="shape"):
            VarianceProfile(c, "custom")
    p = VarianceProfile(np.full(4, 0.25), "custom")
    assert p.n == 4 and p.sigma2.shape == (4, 4)


def test_profile_immutable():
    p = flat_profile(4)
    with pytest.raises(ValueError):
        p.sigma2[0, 0] = 1.0
    with pytest.raises(ValueError):
        p.c[0] = 1.0


def test_profile_owns_its_column():
    b = np.full(4, 0.25)
    p = VarianceProfile(b, "custom")
    b[1] = 5.0
    assert np.all(p.c == 0.25)
    assert np.all(p.sigma2 == 0.25)
    assert np.all(p.sigma2.sum(axis=0) == 1.0)
    with pytest.raises(ValueError):
        p.c[1] = 5.0
    with pytest.raises(ValueError):
        p.sigma2[0, 1] = 5.0


def test_profiles_compare_and_hash_by_value():
    assert flat_profile(4) == flat_profile(4)
    assert hash(flat_profile(4)) == hash(flat_profile(4))
    assert len({flat_profile(4), flat_profile(4), flat_profile(6)}) == 2
    assert flat_profile(4) != VarianceProfile(np.full(4, 0.25), "custom")
    assert band_profile(8, 2) != flat_profile(8)
    assert flat_profile(4) != "flat"


def test_profile_rejects_negative_entry():
    with pytest.raises(ProfileError, match="negative"):
        VarianceProfile(np.array([0.6, -0.05, 0.5, -0.05]), "custom")


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_column_sum_tolerance(sign):
    for off, accepted in [(2e-12, False), (5e-13, True)]:
        c = np.full(4, 0.25)
        c[0] += sign * off  # c[0] is its own mirror, so only the sum moves
        if accepted:
            VarianceProfile(c, "custom")
        else:
            with pytest.raises(ProfileError, match="doubly stochastic"):
                VarianceProfile(c, "custom")


def test_content_hash_is_sha256_of_sigma2():
    p = band_profile(16, 4)
    want = hashlib.sha256(p.sigma2.tobytes()).hexdigest()[:16]
    assert p.content_hash() == want
    assert flat_profile(16).content_hash() != want


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_profile_rejects_non_finite_entry(bad):
    c = np.full(4, 0.25)
    c[1] = c[3] = bad
    with pytest.raises(ProfileError, match="non-finite"):
        VarianceProfile(c, "custom")


@pytest.mark.parametrize("n", [165, 256])
def test_symmetry_tolerance(n):
    # sigma2[1, 0] = c[1] and sigma2[0, 1] = c[n - 1]; the sum stays 1
    for asym, accepted in [(2e-12, False), (5e-13, True)]:
        c = np.full(n, 1.0 / n)
        c[1] += asym / 2
        c[n - 1] -= asym / 2
        if accepted:
            VarianceProfile(c, "custom")
        else:
            with pytest.raises(ProfileError, match="not symmetric"):
                VarianceProfile(c, "custom")
