"""Green functions, minors and the exact perturbation identities, plus the
deviation diagnostics used by the experiments."""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .sampler import WignerSample
from .semicircle import SpectralPoint, m_sc


class SingularityError(ArithmeticError):
    pass


@dataclass(frozen=True)
class GreenSnapshot:
    """Resolvent deviation diagnostics at one spectral point."""

    lambda_o: float
    lam: float


# width of a real column panel and height of a complex row panel. Each panel
# is one GEMM, and fewer, larger GEMMs run faster (128×128 tiles spent 16-19 %
# more time in GEMM than 128-row strips at N = 512 and 1024); 112 is the
# widest that keeps a real N = 512 sweep, U's C-ordered copy included, under
# 4 MiB
_PANEL = 112


class _Resolvent:
    """G = U diag(1/(w - z)) U^H for one spectral factorization (w, U), one
    panel of G per GEMM, in two N×_PANEL work arrays allocated once; each
    panel overwrites the last, so the working set beside U is O(N·_PANEL).

    Real U (symmetric class) gives a complex symmetric G, so only its upper
    triangle is computed, by column panels: for [c0, c1), the columns
    B[:, c0:c1] of B = diag(1/(w - z)) U^T are built, and G[:c1, c0:c1] is
    one real GEMM of U[:c1] with their float view. Nothing below the
    diagonal block G[c0:c1, c0:c1] is computed. Complex U (Hermitian class)
    takes row panels: G[lo:hi] is one complex GEMM of the scaled rows
    U[lo:hi] diag(1/(w - z)) with U^H. The layout of a GEMM operand sets the
    product's last bits, so each has one layout whatever the order of U
    (``eigen_pair`` gives a Fortran-ordered U): the real class holds U and
    U^T both C-ordered, and U^H is the transpose of a C-ordered conj(U),
    whose rows conjugated give U's rows contiguously.
    """

    def __init__(self, w: np.ndarray, u: np.ndarray):
        self.w, self.n = w, len(w)
        self.real = not np.iscomplexobj(u)
        if self.real:
            self.u, self.ut = np.ascontiguousarray(u), np.ascontiguousarray(u.T)
        else:
            self.uh = np.conjugate(u, order="C").T
        size = self.n * min(self.n, _PANEL)
        # the panel's B columns or scaled rows; free again once its GEMM is done
        self.work = np.empty(size, dtype=np.complex128)
        self.g = np.empty(size, dtype=np.complex128)

    def panels(self, z: complex):
        """Yield (r0, c0, g), g = G[r0:r0 + g.shape[0], c0:c0 + g.shape[1]].
        Each panel holds one block of G's diagonal, G[k:k + m, k:k + m] with
        k = max(r0, c0) and m = min(g.shape). ``work`` is free while a panel
        is out."""
        inv = 1.0 / (self.w - z)
        n = self.n
        for lo in range(0, n, _PANEL):
            hi = min(lo + _PANEL, n)
            if self.real:
                b = self.work[:n * (hi - lo)].reshape(n, hi - lo)
                # (x + 0i) times 1/(w - z) is x Re + x Im i: the real products' bits
                np.copyto(b, self.ut[:, lo:hi])
                np.multiply(b, inv[:, None], out=b)
                g = self.g[:hi * (hi - lo)].reshape(hi, hi - lo)
                np.matmul(self.u[:hi], b.view(np.float64), out=g.view(np.float64))
                yield 0, lo, g
            else:
                rows = np.conjugate(self.uh.T[lo:hi], out=self.work[:(hi - lo) * n].reshape(hi - lo, n))
                np.multiply(rows, inv, out=rows)
                g = self.g[:(hi - lo) * n].reshape(hi - lo, n)
                yield lo, 0, np.matmul(rows, self.uh, out=g)


def green_at(s: WignerSample, z: SpectralPoint) -> np.ndarray:
    """Full resolvent G = (H - z)^-1 from the sample's cached spectral
    factorization, as a fresh complex128 array, panel by panel with the bits
    of ``control_sweep``. In the symmetric class each pair G_ij = G_ji is
    computed once, so G is exactly symmetric."""
    r = _Resolvent(*s.eigen_pair())
    g = np.empty((r.n, r.n), dtype=np.complex128)
    for r0, c0, p in r.panels(z.z):
        g[r0:r0 + p.shape[0], c0:c0 + p.shape[1]] = p
    if r.real:
        lower = np.tril_indices(r.n, -1)
        g[lower] = g.T[lower]
    return g


def ward_residual(g: np.ndarray, z: SpectralPoint) -> float:
    """Largest relative deviation from sum_l |G_kl|^2 = Im G_kk / eta over k."""
    lhs = np.sum(np.abs(g) ** 2, axis=1)
    rhs = np.diag(g).imag / z.eta
    return float((np.abs(lhs - rhs) / np.abs(rhs)).max())


def control_params(g: np.ndarray, z: SpectralPoint) -> GreenSnapshot:
    """Largest off-diagonal entry of G and the averaged deviation
    |m_N - m_sc| of its normalized trace from the semicircle transform."""
    off = np.abs(g)
    np.fill_diagonal(off, 0.0)
    lambda_o = float(off.max()) if g.shape[0] > 1 else 0.0
    lam = abs(complex(np.diag(g).mean()) - m_sc(z))
    return GreenSnapshot(lambda_o=lambda_o, lam=lam)


def control_sweep(s: WignerSample, pts: list[SpectralPoint]) -> list[GreenSnapshot]:
    """``control_params(green_at(s, z), z)`` for each z in pts, with the same
    bits, reduced panel by panel in the resolvent's work arrays; the full G
    is never formed, and the sweep's memory beside U (and U^H) is
    O(N·_PANEL)."""
    r = _Resolvent(*s.eigen_pair())
    t = min(r.n, _PANEL)
    # the entries of a panel's diagonal block that Λ_o skips: the diagonal,
    # and in the symmetric class the lower triangle, which green_at mirrors
    drop = np.tri(t, dtype=bool) if r.real else np.eye(t, dtype=bool)
    diag = np.empty(r.n, dtype=np.complex128)
    snaps = []
    for z in pts:
        lambda_o = np.float64(0.0)
        for r0, c0, g in r.panels(z.z):
            k, m = max(r0, c0), min(g.shape)
            block = (slice(k - r0, k - r0 + m), slice(k - c0, k - c0 + m))
            diag[k:k + m] = g[block].diagonal()
            a = np.abs(g, out=r.work.view(np.float64)[:g.size].reshape(g.shape))
            np.copyto(a[block], 0.0, where=drop[:m, :m])
            lambda_o = np.maximum(lambda_o, a.max())
        lam = abs(complex(diag.mean()) - m_sc(z))
        snaps.append(GreenSnapshot(lambda_o=float(lambda_o), lam=lam))
    return snaps


def minor_green(s: WignerSample, t: Collection[int], z: SpectralPoint) -> np.ndarray:
    """G^(t) in H's own indexing: N×N, exact zeros on the rows and columns in
    t, and the kept block's resolvent, from a fresh factorization, on the rest."""
    if any(not 0 <= i < s.n for i in t):
        raise IndexError(f"minor {sorted(t)} has an index outside [0, {s.n})")
    keep = np.array([i for i in range(s.n) if i not in t], dtype=int)
    if keep.size == 0:
        raise ValueError("minor removes every index")
    g = np.zeros((s.n, s.n), dtype=np.complex128)
    g[np.ix_(keep, keep)] = green_at(WignerSample(h=s.h[np.ix_(keep, keep)]), z)
    return g


def k_quantity(s: WignerSample, t: Collection[int], i: int, j: int, z: SpectralPoint):
    """The quadratic form Z_ij = a^i* G^(ij,t) a^j over the minor with
    rows/columns t+{i,j} removed, and K_ij = h_ij - z*delta_ij - Z_ij."""
    if i in t or j in t:
        raise IndexError(f"index {i if i in t else j} already removed by the minor")
    full = {*t, i, j}
    gm = minor_green(s, full, z)
    # over the kept block only: summing the zeros too would move Z's last bits
    keep = np.array([x for x in range(s.n) if x not in full], dtype=int)
    zq = complex(s.h[keep, i].conj() @ gm[np.ix_(keep, keep)] @ s.h[keep, j])
    kq = complex(s.h[i, j] - (z.z if i == j else 0.0) - zq)
    return kq, zq


def _relative(lhs, rhs, scale) -> float:
    """|lhs - rhs| relative to the larger of |scale| and |rhs|."""
    return float(abs(lhs - rhs) / max(abs(scale), abs(rhs), 1e-300))


def identity_residuals(s: WignerSample, z: SpectralPoint, t: Collection[int], i: int, j: int,
                       k: int) -> tuple[float, float, float, float]:
    """Relative residuals of the four exact perturbation identities:

      (1) G^(t)_ii * K^(i,t)_ii = 1
      (2) G^(t)_ij = -G^(t)_jj G^(j,t)_ii K^(ij,t)_ij
      (3) G^(t)_ii - G^(j,t)_ii = G^(t)_ij G^(t)_ji / G^(t)_jj
      (4) G^(t)_ij - G^(k,t)_ij = G^(t)_ik G^(t)_kj / G^(t)_kk
    """
    if len({i, j, k}) != 3:
        raise ValueError(f"indices {i}, {j}, {k} must be distinct")
    if removed := {i, j, k} & set(t):
        raise IndexError(f"indices {sorted(removed)} already removed by the minor")
    g = minor_green(s, t, z)
    if abs(g[j, j]) < 1e-14 or abs(g[k, k]) < 1e-14:
        raise SingularityError("degenerate diagonal resolvent entry")
    gj = minor_green(s, {*t, j}, z)
    gk = minor_green(s, {*t, k}, z)
    r1 = float(abs(g[i, i] * k_quantity(s, t, i, i, z)[0] - 1.0))
    r2 = _relative(g[i, j], -g[j, j] * gj[i, i] * k_quantity(s, t, i, j, z)[0], g[i, j])
    r3 = _relative(g[i, i] - gj[i, i], g[i, j] * g[j, i] / g[j, j], g[i, i])
    r4 = _relative(g[i, j] - gk[i, j], g[i, k] * g[k, j] / g[k, k], g[i, j])
    return r1, r2, r3, r4


# the check names of identity_trial's five residuals, in its order, and the
# bound each residual must stay under
IDENTITY_CHECKS = ("identity_inverse", "identity_offdiag", "identity_diag_minor",
                   "identity_offdiag_minor", "identity_ward")
IDENTITY_TOL = 1e-9


def identity_trial(s: WignerSample, rng: np.random.Generator) -> tuple[float, ...]:
    """The four identity_residuals and the ward_residual of s at a random z
    (|E| <= 3, 1e-2 <= eta <= 10), minor t and distinct i, j, k outside t;
    IDENTITY_CHECKS names them."""
    n = s.n
    z = SpectralPoint(float(rng.uniform(-3, 3)), float(10 ** rng.uniform(-2, 1)))
    tsize = int(rng.integers(0, max(1, n - 4)))
    t = frozenset(int(x) for x in rng.choice(n, tsize, replace=False))
    rest = [x for x in range(n) if x not in t]
    i, j, k = (int(x) for x in rng.choice(rest, 3, replace=False))
    return (*identity_residuals(s, z, t, i, j, k), ward_residual(green_at(s, z), z))
