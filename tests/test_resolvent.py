import math

import numpy as np
import pytest

from wignerlab.profile import flat_profile
from wignerlab.resolvent import (
    EMPTY,
    MinorSpec,
    SingularityError,
    averaged_fluctuation,
    control_params,
    default_ell,
    green_at,
    identity_residuals,
    k_quantity,
    minor_green,
    self_consistent_residual,
    ward_residual,
    xi_quantities,
)
from wignerlab.sampler import (
    HERMITIAN,
    SYMMETRIC,
    derive_stream,
    gaussian,
    sample_matrix,
)
from wignerlab.semicircle import SpectralPoint, m_sc


def make_sample(n, sym=SYMMETRIC, seed=0, index=0):
    return sample_matrix(flat_profile(n), gaussian(), sym, derive_stream(seed, index))


def zero_sample(n):
    s = make_sample(n)
    s.h = np.zeros((n, n))
    return s


def set_matrix(s, h):
    s.h = h
    s._eigenvalues = None
    s._eigenvectors = None
    return s


Z_I = SpectralPoint(0.0, 1.0)


def test_eigen_pair_reconstruction():
    s = make_sample(24)
    w, u = s.eigen_pair()
    scale = max(1.0, np.abs(s.h).max())
    assert np.max(np.abs((u * w) @ u.conj().T - s.h)) <= 1e-10 * scale
    assert np.sum(w) == pytest.approx(np.trace(s.h), abs=1e-10)


def test_eigen_pair_1x1():
    s = set_matrix(make_sample(2), np.zeros((1, 1)))
    s.profile = None
    w, _ = s.eigen_pair()
    assert list(w) == [0.0]


def test_green_trivial_1x1():
    s = set_matrix(make_sample(2), np.zeros((1, 1)))
    g, m_n = green_at(s, Z_I)
    assert g[0, 0] == pytest.approx(1j, abs=1e-15)
    assert m_n == pytest.approx(1j, abs=1e-15)


def test_green_inverse_residual():
    for n in (8, 32, 64):
        s = make_sample(n, seed=1)
        g, _ = green_at(s, SpectralPoint(0.3, 0.05))
        resid = (s.h - complex(0.3, 0.05) * np.eye(n)) @ g - np.eye(n)
        assert np.max(np.abs(resid)) <= 1e-9


def test_green_matches_dense_solve():
    # independent oracle: direct dense linear solve of (H - z) X = I
    n = 32
    s = make_sample(n, seed=2)
    z = SpectralPoint(-1.2, 0.02)
    g, m_n = green_at(s, z)
    x = np.linalg.solve(s.h - z.z * np.eye(n), np.eye(n))
    assert np.max(np.abs(g - x)) <= 1e-8
    assert m_n.imag > 0
    assert np.mean(1.0 / (s.eigenvalues() - z.z)) == pytest.approx(m_n, abs=1e-12)


def test_control_params_zero_matrix():
    s = zero_sample(2)
    g, _ = green_at(s, Z_I)
    snap = control_params(g, Z_I)
    expected = abs(1j - m_sc(1j))
    assert snap.lambda_d == pytest.approx(expected, abs=1e-12)
    assert snap.lam == pytest.approx(expected, abs=1e-12)
    assert snap.lambda_o == 0.0
    assert snap.psi >= 0.0


def test_control_params_diagonal_offdiag_zero():
    s = set_matrix(make_sample(5), np.diag([0.1, -0.4, 0.9, 0.0, 1.3]))
    g, _ = green_at(s, SpectralPoint(0.5, 0.3))
    snap = control_params(g, SpectralPoint(0.5, 0.3))
    assert snap.lambda_o <= 1e-15


def test_lambda_le_lambda_d():
    for idx in range(5):
        s = make_sample(16, seed=3, index=idx)
        z = SpectralPoint(0.7, 0.2)
        snap = control_params(green_at(s, z)[0], z)
        assert snap.lam <= snap.lambda_d + 1e-15


def test_minor_empty_equals_full():
    s = make_sample(9)
    z = SpectralPoint(0.1, 0.4)
    assert np.allclose(minor_green(s, EMPTY, z), green_at(s, z)[0], atol=1e-12)


def test_minor_trailing_block():
    s = make_sample(3)
    z = SpectralPoint(-0.3, 0.7)
    gm = minor_green(s, MinorSpec.of(0), z)
    block = s.h[1:, 1:]
    ref = np.linalg.solve(block - z.z * np.eye(2), np.eye(2))
    assert np.allclose(gm, ref, atol=1e-12)


def test_minor_deletion_commutes():
    s = make_sample(7)
    z = SpectralPoint(0.0, 0.5)
    a = minor_green(s, MinorSpec.of(1, 4), z)
    b = minor_green(s, MinorSpec.of(4, 1), z)
    assert np.array_equal(a, b)


def test_minor_cannot_remove_all():
    s = make_sample(3)
    with pytest.raises(ValueError):
        minor_green(s, MinorSpec.of(0, 1, 2), SpectralPoint(0, 1))


def test_k_quantity_inverse_identity():
    s = make_sample(10, sym=HERMITIAN, seed=4)
    z = SpectralPoint(0.4, 0.2)
    g, _ = green_at(s, z)
    for i in (0, 3, 9):
        kq, _ = k_quantity(s, EMPTY, i, i, z)
        assert abs(g[i, i] * kq - 1.0) <= 1e-9


def test_k_quantity_2x2_by_hand():
    s = make_sample(2)
    c = 0.37
    set_matrix(s, np.array([[0.2, c], [c, -0.5]]))
    z = SpectralPoint(0.1, 0.6)
    _, zq = k_quantity(s, EMPTY, 0, 0, z)
    assert zq == pytest.approx(c**2 / (-0.5 - z.z), abs=1e-12)


def test_k_quantity_zero_matrix():
    s = zero_sample(4)
    z = SpectralPoint(0.0, 1.0)
    kq, zq = k_quantity(s, EMPTY, 1, 1, z)
    assert zq == 0.0
    assert kq == pytest.approx(-z.z, abs=1e-15)
    kq_off, zq_off = k_quantity(s, EMPTY, 1, 2, z)
    assert zq_off == 0.0 and kq_off == 0.0


def test_k_quantity_rejects_removed_index():
    s = make_sample(5)
    with pytest.raises(IndexError):
        k_quantity(s, MinorSpec.of(2), 2, 3, SpectralPoint(0, 1))


def test_xi_diagonal_matrix():
    s = set_matrix(make_sample(4), np.diag([0.3, -0.2, 0.8, 0.1]))
    z = SpectralPoint(0.0, 0.5)
    _, z_i, _ = xi_quantities(s, 0, z)
    gm = minor_green(s, MinorSpec.of(0), z)
    sig = s.profile.sigma2[0]
    expected = -complex(np.sum(sig[1:] * np.diag(gm)))
    assert z_i == pytest.approx(expected, abs=1e-12)


def test_self_consistent_residual():
    for sym in (SYMMETRIC, HERMITIAN):
        s = make_sample(12, sym=sym, seed=5)
        for i in (0, 7):
            assert self_consistent_residual(s, i, SpectralPoint(0.2, 0.3)) <= 1e-9


def test_averaged_fluctuation_matches_sum():
    s = make_sample(6, seed=6)
    z = SpectralPoint(-0.1, 0.8)
    total = sum(xi_quantities(s, i, z)[1] for i in range(6)) / 6
    assert averaged_fluctuation(s, z) == pytest.approx(total, abs=1e-13)


def test_partial_expectation_against_monte_carlo():
    # re-randomize row i and compare the analytic partial expectation of the
    # quadratic form with the Monte Carlo average
    n, i, m = 12, 4, 10**4
    s = make_sample(n, seed=7)
    z = SpectralPoint(0.3, 0.5)
    spec = MinorSpec.of(i)
    keep = spec.keep(n)
    gm = minor_green(s, spec, z)
    sig = np.sqrt(s.profile.sigma2[keep, i])
    rng = np.random.default_rng(123)
    draws = rng.standard_normal((m, n - 1)) * sig
    vals = np.einsum("mk,kl,ml->m", draws, gm, draws)
    expected = complex(np.sum(sig**2 * np.diag(gm)))
    for part in ("real", "imag"):
        obs = getattr(vals, part)
        se = obs.std(ddof=1) / math.sqrt(m)
        assert abs(obs.mean() - getattr(expected, part)) <= 4 * se


def test_identity_residuals_random_suite():
    rng = np.random.default_rng(8)
    for trial in range(20):
        n = int(rng.integers(5, 21))
        sym = SYMMETRIC if trial % 2 else HERMITIAN
        s = make_sample(n, sym=sym, seed=9, index=trial)
        z = SpectralPoint(float(rng.uniform(-2, 2)), float(10 ** rng.uniform(-2, 1)))
        t = MinorSpec(frozenset(int(x) for x in rng.choice(n, int(rng.integers(0, n - 4)), replace=False)))
        rest = [x for x in range(n) if x not in t.t]
        i, j, k = (int(x) for x in rng.choice(rest, 3, replace=False))
        assert max(identity_residuals(s, z, t, i, j, k)) <= 1e-9


def test_identity_residuals_diagonal_matrix():
    s = set_matrix(make_sample(5), np.diag([0.5, -0.1, 0.2, 0.9, -0.7]))
    res = identity_residuals(s, SpectralPoint(0.0, 0.3), EMPTY, 0, 2, 4)
    assert res[2] == 0.0 and res[3] == 0.0


def test_identity_residuals_requires_distinct():
    s = make_sample(6)
    with pytest.raises(ValueError):
        identity_residuals(s, Z_I, EMPTY, 1, 1, 2)


def test_ward_identity():
    s = make_sample(32, seed=10)
    z = SpectralPoint(0.2, 0.05)
    g, _ = green_at(s, z)
    assert ward_residual(g, z) <= 1e-10
    sh = make_sample(32, sym=HERMITIAN, seed=10)
    gh, _ = green_at(sh, z)
    assert ward_residual(gh, z, relative=True) <= 1e-10


def test_ward_identity_1x1():
    s = set_matrix(make_sample(2), np.zeros((1, 1)))
    g, _ = green_at(s, Z_I)
    assert ward_residual(g, Z_I) <= 1e-15


def test_xi_singularity_guard():
    s = zero_sample(3)
    # G_ii = i at z = i, fine; force tiny diagonal via huge eta instead
    with pytest.raises(SingularityError):
        xi_quantities(s, 0, SpectralPoint(0.0, 1e15))


def test_default_ell():
    assert default_ell(512) >= 1
    assert default_ell(512) == math.ceil(2.0 * math.log(math.log(512)))
