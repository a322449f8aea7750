import math

import numpy as np
import pytest

from wignerlab.profile import flat_profile
from wignerlab.resolvent import (
    _PANEL,
    SingularityError,
    control_params,
    control_sweep,
    green_at,
    identity_residuals,
    identity_trial,
    k_quantity,
    minor_green,
    ward_residual,
)
from wignerlab.sampler import (
    HERMITIAN,
    SYMMETRIC,
    WignerSample,
    derive_stream,
    gaussian,
    sample_matrix,
)
from wignerlab.semicircle import SpectralPoint, m_sc

EMPTY = frozenset()


def minor(*indices):
    return frozenset(indices)


def make_sample(n, sym=SYMMETRIC, seed=0, index=0):
    return sample_matrix(flat_profile(n), gaussian(), sym, derive_stream(seed, index))


def zero_sample(n):
    return WignerSample(np.zeros((n, n)))


Z_I = SpectralPoint(0.0, 1.0)


def test_eigen_pair_reconstruction():
    s = make_sample(24)
    w, u = s.eigen_pair()
    scale = max(1.0, np.abs(s.h).max())
    assert np.max(np.abs((u * w) @ u.conj().T - s.h)) <= 1e-10 * scale
    assert np.sum(w) == pytest.approx(np.trace(s.h), abs=1e-10)


def test_eigen_pair_1x1():
    s = WignerSample(np.zeros((1, 1)))
    w, _ = s.eigen_pair()
    assert list(w) == [0.0]


def test_green_trivial_1x1():
    s = WignerSample(np.zeros((1, 1)))
    g = green_at(s, Z_I)
    assert g[0, 0] == pytest.approx(1j, abs=1e-15)
    m_n = np.mean(1.0 / (s.eigenvalues() - Z_I.z))
    assert m_n == pytest.approx(1j, abs=1e-15)
    assert np.diag(g).mean() == pytest.approx(m_n, abs=1e-15)


def spectral_formula(w, u, z):
    # the resolvent written out as one complex product U diag(1/(w - z)) U^H
    return (u * (1.0 / (w - z))) @ u.conj().T


def test_green_returns_array():
    g = green_at(make_sample(4), Z_I)
    assert isinstance(g, np.ndarray)
    assert g.shape == (4, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 130, 512])
def test_green_symmetric_matches_complex_formula(n):
    if n == 1:
        s = WignerSample(np.array([[0.3]]))
    else:
        s = make_sample(n, seed=11)
    w, u = s.eigen_pair()
    assert u.dtype == np.float64
    for eta in (n**-0.9, 0.05, 1.0, 10.0):
        z = SpectralPoint(0.2, eta)
        g = green_at(s, z)
        assert g.dtype == np.complex128
        ref = spectral_formula(w, u, z.z)
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_green_hermitian_bytes_unchanged():
    n = 48
    s = make_sample(n, sym=HERMITIAN, seed=13)
    spec = minor(0, 5, 30)
    keep = np.setdiff1d(np.arange(n), list(spec))
    wm, um = np.linalg.eigh(s.h[np.ix_(keep, keep)])
    w, u = s.eigen_pair()
    assert u.dtype == np.complex128
    for eta in (n**-0.9, 0.05, 1.0, 10.0):
        z = SpectralPoint(0.6, eta)
        g = green_at(s, z)
        assert g.tobytes() == spectral_formula(w, u, z.z).tobytes()
        gm = minor_green(s, spec, z)[np.ix_(keep, keep)]
        assert gm.tobytes() == spectral_formula(wm, um, z.z).tobytes()


def two_gemm_formula(w, u, z):
    # the reference for the symmetric class: one real GEMM each for Re G and
    # Im G over all N×N entries
    inv = 1.0 / (w - z)
    g = np.empty(u.shape, dtype=np.complex128)
    g.real = (u * inv.real) @ u.T
    g.imag = (u * inv.imag) @ u.T
    return g


def panel_formula(w, u, z):
    # the arithmetic green_at keeps bit for bit, one GEMM per panel of _PANEL.
    # Real eigenvectors: B = diag(1/(w - z)) U^T, whose entries are the real
    # products u_jk Re(1/(w_k - z)) and u_jk Im(1/(w_k - z)); G[:c1, c0:c1]
    # from the C-ordered rows U[:c1] whatever the order of u and the float
    # view of B[:, c0:c1], and the upper triangle mirrored below the
    # diagonal. Complex ones: G[lo:hi] from the rows U[lo:hi] scaled by
    # 1/(w - z) with U^H, the transpose of a C-ordered conj(U)
    n = len(w)
    inv = 1.0 / (w - z)
    g = np.empty(u.shape, dtype=np.complex128)
    if np.iscomplexobj(u):
        uh = np.conjugate(u, order="C").T
        for lo in range(0, n, _PANEL):
            g[lo:lo + _PANEL] = (np.ascontiguousarray(u[lo:lo + _PANEL]) * inv) @ uh
        return g
    b = np.empty(u.shape, dtype=np.complex128)
    b.real = inv.real[:, None] * u.T
    b.imag = inv.imag[:, None] * u.T
    for c0 in range(0, n, _PANEL):
        c1 = min(c0 + _PANEL, n)
        cols = np.ascontiguousarray(b[:, c0:c1]).view(np.float64)
        g[:c1, c0:c1] = (np.ascontiguousarray(u[:c1]) @ cols).view(np.complex128)
    for i in range(n):
        g[i + 1:, i] = g[i, i + 1:]
    return g


# N = 130 is large enough for the GEMMs to take the multithreaded BLAS path;
# 127-129 straddle a power-of-two blocking edge, the next four sizes put a
# panel edge on either side of a row, and at 257 and 300 the last panel is
# narrow: there the bits follow the panel edges
@pytest.mark.parametrize("sym", [SYMMETRIC, HERMITIAN])
@pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 130, _PANEL - 1, _PANEL, _PANEL + 1,
                               2 * _PANEL + 1, 257, 300])
def test_control_sweep_bits_equal_green_at(sym, n):
    s = make_sample(n, sym=sym, seed=17)
    w, u = s.eigen_pair()
    pts = [SpectralPoint(e, float(eta)) for e in (0.0, -1.9)
           for eta in np.geomspace(n**-0.9, 1.0, 5)]
    snaps = control_sweep(s, pts)
    assert len(snaps) == len(pts)
    for z, snap in zip(pts, snaps):
        g = green_at(s, z)
        assert g.tobytes() == panel_formula(w, u, z.z).tobytes()
        ref = control_params(g, z)
        assert (snap.lam, snap.lambda_o) == (ref.lam, ref.lambda_o)


@pytest.mark.parametrize("sym, mib", [(SYMMETRIC, 4.0), (HERMITIAN, 7.0)])
def test_control_sweep_works_in_panels(sym, mib, traced_peak):
    """A 12-point sweep of an N = 512 sample allocates U's C-ordered copy (or
    U^H) and O(N·_PANEL) beside it: no N×N B, scaled U, G or mask."""
    n = 512
    s = make_sample(n, sym=sym, seed=23)
    s.eigen_pair(consume=True)
    pts = [SpectralPoint(0.0, float(eta)) for eta in np.geomspace(n**-0.9, 1.0, 12)]
    control_sweep(s, pts[:1])  # warm-up imports and caches
    _, peak = traced_peak(control_sweep, s, pts)
    assert peak <= mib * 2**20


@pytest.mark.parametrize("n", [2, 3, 130, 512])
def test_green_symmetric_is_symmetric_near_two_gemm_formula(n):
    s = make_sample(n, seed=19)
    w, u = s.eigen_pair()
    for eta in (n**-0.9, 0.05, 1.0):
        z = SpectralPoint(-0.4, eta)
        g = green_at(s, z)
        assert np.array_equal(g, g.T)
        ref = two_gemm_formula(w, u, z.z)
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("sym", [SYMMETRIC, HERMITIAN])
@pytest.mark.parametrize("n", [2, 2 * _PANEL + 1, 257])
def test_diagonal_h_has_no_offdiagonal_resolvent(sym, n):
    d = np.random.default_rng(n).uniform(-2.0, 2.0, n)
    s = WignerSample(np.diag(d).astype(np.complex128 if sym == HERMITIAN else np.float64))
    pts = [SpectralPoint(0.3, 0.01), SpectralPoint(-1.0, 1.0)]
    for z, snap in zip(pts, control_sweep(s, pts)):
        assert snap.lambda_o == 0.0
        assert control_params(green_at(s, z), z).lambda_o == 0.0


def test_green_at_returns_fresh_array():
    s = make_sample(130, seed=3)
    z1, z2 = SpectralPoint(0.0, 0.1), SpectralPoint(0.5, 0.01)
    g1 = green_at(s, z1)
    before = g1.tobytes()
    g2 = green_at(s, z2)
    control_sweep(s, [z2, z1])
    assert not np.shares_memory(g1, g2)
    assert g1.tobytes() == before


def test_nonfinite_spectrum_raises_on_every_path():
    # a NaN entry: LAPACK either fails to converge or returns NaN eigenvalues,
    # and neither may come back as an all-NaN resolvent
    h = make_sample(130, seed=5).h
    h[129, 129] = np.nan
    s = WignerSample(h)
    z = SpectralPoint(0.0, 1.0)
    for resolve in (lambda: green_at(s, z), lambda: minor_green(s, minor(0), z),
                    lambda: control_sweep(s, [z])):
        with pytest.raises((FloatingPointError, np.linalg.LinAlgError)):
            resolve()
    assert np.all(np.isfinite(minor_green(s, minor(129), z)))


def test_green_inverse_residual():
    for n in (8, 32, 64):
        s = make_sample(n, seed=1)
        g = green_at(s, SpectralPoint(0.3, 0.05))
        resid = (s.h - complex(0.3, 0.05) * np.eye(n)) @ g - np.eye(n)
        assert np.max(np.abs(resid)) <= 1e-9


def test_green_matches_dense_solve():
    # independent oracle: direct dense linear solve of (H - z) X = I
    n = 32
    s = make_sample(n, seed=2)
    z = SpectralPoint(-1.2, 0.02)
    g = green_at(s, z)
    x = np.linalg.solve(s.h - z.z * np.eye(n), np.eye(n))
    assert np.max(np.abs(g - x)) <= 1e-8
    m_n = np.diag(g).mean()
    assert m_n.imag > 0
    assert np.mean(1.0 / (s.eigenvalues() - z.z)) == pytest.approx(m_n, abs=1e-12)


def test_control_params_zero_matrix():
    s = zero_sample(2)
    g = green_at(s, Z_I)
    snap = control_params(g, Z_I)
    expected = abs(1j - m_sc(1j))
    assert snap.lam == pytest.approx(expected, abs=1e-12)
    assert snap.lambda_o == 0.0


def test_control_params_diagonal_offdiag_zero():
    s = WignerSample(np.diag([0.1, -0.4, 0.9, 0.0, 1.3]))
    g = green_at(s, SpectralPoint(0.5, 0.3))
    snap = control_params(g, SpectralPoint(0.5, 0.3))
    assert snap.lambda_o <= 1e-15


def test_lambda_le_lambda_d():
    # |mean_i (G_ii - m_sc)| <= max_i |G_ii - m_sc|
    for idx in range(5):
        s = make_sample(16, seed=3, index=idx)
        z = SpectralPoint(0.7, 0.2)
        g = green_at(s, z)
        lambda_d = np.abs(np.diag(g) - m_sc(z)).max()
        assert control_params(g, z).lam <= lambda_d + 1e-15


def test_minor_empty_equals_full():
    s = make_sample(9)
    z = SpectralPoint(0.1, 0.4)
    assert np.allclose(minor_green(s, EMPTY, z), green_at(s, z), atol=1e-12)


def test_minor_trailing_block():
    s = make_sample(3)
    z = SpectralPoint(-0.3, 0.7)
    gm = minor_green(s, minor(0), z)[1:, 1:]
    block = s.h[1:, 1:]
    ref = np.linalg.solve(block - z.z * np.eye(2), np.eye(2))
    assert np.allclose(gm, ref, atol=1e-12)


def test_minor_deletion_commutes():
    s = make_sample(7)
    z = SpectralPoint(0.0, 0.5)
    a = minor_green(s, minor(1, 4), z)
    b = minor_green(s, minor(4, 1), z)
    assert np.array_equal(a, b)


def test_minor_cannot_remove_all():
    s = make_sample(3)
    with pytest.raises(ValueError):
        minor_green(s, minor(0, 1, 2), SpectralPoint(0, 1))


@pytest.mark.parametrize("sym", [SYMMETRIC, HERMITIAN])
@pytest.mark.parametrize("t", [(), (3,), (0, 4, 7, 10)])
def test_minor_green_in_h_indexing(sym, t):
    # G^(t) is N×N: exact zeros on the rows and columns in t, and on the kept
    # block the bytes of the kept block's own resolvent
    n = 11
    s = make_sample(n, sym=sym, seed=29)
    z = SpectralPoint(0.4, 0.05)
    keep = np.setdiff1d(np.arange(n), list(t))
    g = minor_green(s, frozenset(t), z)
    assert g.shape == (n, n)
    assert np.all(g[list(t), :] == 0.0) and np.all(g[:, list(t)] == 0.0)
    ref = green_at(WignerSample(h=s.h[np.ix_(keep, keep)]), z)
    assert g[np.ix_(keep, keep)].tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [-1, 5])
def test_minor_green_rejects_index_outside(bad):
    with pytest.raises(IndexError):
        minor_green(make_sample(5), minor(1, bad), SpectralPoint(0, 1))


def test_k_quantity_inverse_identity():
    s = make_sample(10, sym=HERMITIAN, seed=4)
    z = SpectralPoint(0.4, 0.2)
    g = green_at(s, z)
    for i in (0, 3, 9):
        kq, _ = k_quantity(s, EMPTY, i, i, z)
        assert abs(g[i, i] * kq - 1.0) <= 1e-9


def test_k_quantity_2x2_by_hand():
    c = 0.37
    s = WignerSample(np.array([[0.2, c], [c, -0.5]]))
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
        k_quantity(s, minor(2), 2, 3, SpectralPoint(0, 1))


def test_partial_expectation_against_monte_carlo():
    # re-randomize row i and compare the analytic partial expectation of the
    # quadratic form with the Monte Carlo average
    n, i, m = 12, 4, 10**4
    s = make_sample(n, seed=7)
    z = SpectralPoint(0.3, 0.5)
    spec = minor(i)
    keep = np.setdiff1d(np.arange(n), list(spec))
    gm = minor_green(s, spec, z)[np.ix_(keep, keep)]
    sig = np.sqrt(flat_profile(n).sigma2[keep, i])
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
        s = make_sample(n, sym=SYMMETRIC if trial % 2 else HERMITIAN, seed=9, index=trial)
        assert max(identity_trial(s, rng)) <= 1e-9


@pytest.mark.parametrize("n", [3, 12])
def test_identity_trial(n):
    # at n = 3 the minor is empty and i, j, k are the three indices
    rng = np.random.default_rng(n)
    for trial in range(4):
        s = make_sample(n, sym=SYMMETRIC if trial % 2 else HERMITIAN, index=trial)
        res = identity_trial(s, rng)
        assert len(res) == 5 and max(res) <= 1e-9


# identity_trial's five residuals, as repr strings, for fixed trials drawn
# from one rng; they pin the bits of the minors and the quadratic forms
IDENTITY_PINS = [
    (3, HERMITIAN, ("4.577566798522237e-16", "1.9338189639618107e-15", "3.687719171243329e-16",
                    "1.4007730267873712e-15", "4.425969263440061e-16")),
    (12, SYMMETRIC, ("4.47545209131181e-16", "3.312370836300154e-15", "4.461339368122325e-16",
                     "1.6554193960453606e-14", "9.694045379884425e-16")),
    (20, HERMITIAN, ("1.0235750533041806e-15", "4.10500133117723e-15", "8.9381009197431e-16",
                     "6.1037079860469954e-15", "1.0939535496168999e-15")),
    (20, SYMMETRIC, ("1.734723475976807e-18", "4.6678335431685614e-14", "6.384798321345887e-16",
                     "3.6477621192503397e-14", "8.788416502444864e-16")),
]


def test_identity_trial_residuals_keep_their_bits():
    rng = np.random.default_rng(32)
    for index, (n, sym, want) in enumerate(IDENTITY_PINS):
        res = identity_trial(make_sample(n, sym=sym, seed=32, index=index), rng)
        assert tuple(repr(r) for r in res) == want


def test_identity_residuals_diagonal_matrix():
    s = WignerSample(np.diag([0.5, -0.1, 0.2, 0.9, -0.7]))
    res = identity_residuals(s, SpectralPoint(0.0, 0.3), EMPTY, 0, 2, 4)
    assert res[2] == 0.0 and res[3] == 0.0


def test_identity_residuals_singularity_guard():
    # G_jj = -1/z is below the 1e-14 guard at a huge eta
    with pytest.raises(SingularityError):
        identity_residuals(zero_sample(4), SpectralPoint(0.0, 1e15), EMPTY, 0, 1, 2)


def test_identity_residuals_requires_distinct():
    s = make_sample(6)
    with pytest.raises(ValueError):
        identity_residuals(s, Z_I, EMPTY, 1, 1, 2)


def test_ward_identity():
    s = make_sample(32, seed=10)
    z = SpectralPoint(0.2, 0.05)
    g = green_at(s, z)
    assert ward_residual(g, z) <= 1e-10
    sh = make_sample(32, sym=HERMITIAN, seed=10)
    gh = green_at(sh, z)
    assert ward_residual(gh, z) <= 1e-10


def test_ward_identity_1x1():
    s = WignerSample(np.zeros((1, 1)))
    g = green_at(s, Z_I)
    assert ward_residual(g, Z_I) <= 1e-15
