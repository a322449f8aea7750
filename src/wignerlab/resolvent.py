"""Green functions, minors and the exact perturbation identities, plus the
deviation diagnostics used by the experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import WignerSample
from .semicircle import SpectralPoint, m_sc


class SingularityError(ArithmeticError):
    pass


@dataclass(frozen=True)
class MinorSpec:
    """Set of removed row/column indices."""

    t: frozenset[int]

    def check(self, n: int) -> None:
        for i in self.t:
            if not 0 <= i < n:
                raise IndexError(f"minor index {i} outside [0, {n})")

    def keep(self, n: int) -> np.ndarray:
        self.check(n)
        return np.array([i for i in range(n) if i not in self.t], dtype=int)


@dataclass(frozen=True)
class GreenSnapshot:
    """Resolvent deviation diagnostics at one spectral point."""

    lambda_o: float
    lam: float


_STRIP = 128  # rows of G per GEMM: the fastest of 64-256 at N = 256, 512, 1024


class _Resolvent:
    """G = U diag(1/(w - z)) U^H for one spectral factorization (w, U), in
    row strips, in work arrays allocated once; each strip overwrites the last.

    Real U (symmetric class) gives a complex symmetric G, so only its upper
    triangle is computed: with B = diag(1/(w - z)) U^T, G[lo:hi, lo:] is one
    real GEMM of U[lo:hi] with the float view of B[:, lo:]. Complex U
    (Hermitian class) takes one complex GEMM for all of G. The layout of a
    GEMM operand sets the product's last bits, so each has one layout
    whatever the order of U (``eigen_pair`` gives a Fortran-ordered U): the
    real class holds U and U^T both C-ordered, and U^H is the transpose of a
    C-ordered conj(U).
    """

    def __init__(self, w: np.ndarray, u: np.ndarray):
        self.w, self.u, self.n = w, u, len(w)
        self.real = not np.iscomplexobj(u)
        if self.real:
            self.u, self.ut = np.ascontiguousarray(u), np.ascontiguousarray(u.T)
            self.b = np.empty(u.shape, dtype=np.complex128)
            self.g = np.empty(min(self.n, _STRIP) * self.n, dtype=np.complex128)
        else:
            self.uh = np.conjugate(u, order="C").T
            self.scaled = np.empty(u.shape, dtype=np.complex128)
            self.g = np.empty(u.shape, dtype=np.complex128)

    def strips(self, z: complex):
        """Yield (lo, c0, g), g = G[lo:lo + len(g), c0:], for consecutive row
        strips: c0 = lo for real U, c0 = 0 for complex U."""
        inv = 1.0 / (self.w - z)
        n = self.n
        if not self.real:
            np.multiply(self.u, inv, out=self.scaled)
            np.matmul(self.scaled, self.uh, out=self.g)
            for lo in range(0, n, _STRIP):
                yield lo, 0, self.g[lo:lo + _STRIP]
            return
        np.multiply(self.ut, inv.real[:, None], out=self.b.real)
        np.multiply(self.ut, inv.imag[:, None], out=self.b.imag)
        b = self.b.view(np.float64)
        for lo in range(0, n, _STRIP):
            hi = min(lo + _STRIP, n)
            g = self.g[:(hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
            np.matmul(self.u[lo:hi], b[:, 2 * lo:], out=g.view(np.float64))
            yield lo, lo, g


def green_at(s: WignerSample, z: SpectralPoint) -> np.ndarray:
    """Full resolvent G = (H - z)^-1 from the sample's cached spectral
    factorization, as a fresh complex128 array. In the symmetric class each
    pair G_ij = G_ji is computed once, so G is exactly symmetric."""
    r = _Resolvent(*s.eigen_pair())
    g = np.empty((r.n, r.n), dtype=np.complex128)
    for lo, c0, strip in r.strips(z.z):
        g[lo:lo + len(strip), c0:] = strip
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
    bits, reduced strip by strip in work arrays allocated once for the
    sample; the full G is never formed in the symmetric class."""
    r = _Resolvent(*s.eigen_pair())
    n = r.n
    # the entries Λ_o ranges over; j > i suffices when G is symmetric
    keep = np.triu(np.ones((n, n), dtype=bool), 1) if r.real else ~np.eye(n, dtype=bool)
    mag = np.empty(min(n, _STRIP) * n)
    diag = np.empty(n, dtype=np.complex128)
    snaps = []
    for z in pts:
        lambda_o = np.float64(0.0)
        for lo, c0, g in r.strips(z.z):
            h = len(g)
            a = np.abs(g, out=mag[:g.size].reshape(g.shape))
            lambda_o = np.maximum(lambda_o, a.max(where=keep[lo:lo + h, c0:], initial=0.0))
            diag[lo:lo + h] = g.diagonal(lo - c0)
        lam = abs(complex(diag.mean()) - m_sc(z))
        snaps.append(GreenSnapshot(lambda_o=float(lambda_o), lam=lam))
    return snaps


def minor_green(s: WignerSample, t: MinorSpec, z: SpectralPoint) -> np.ndarray:
    """Resolvent of H with rows/columns in t removed, indexed by the kept set.

    Computed by a fresh factorization; correct but not incremental.
    """
    keep = t.keep(s.n)
    if keep.size == 0:
        raise ValueError("minor removes every index")
    return green_at(WignerSample(h=s.h[np.ix_(keep, keep)]), z)


def k_quantity(s: WignerSample, t: MinorSpec, i: int, j: int, z: SpectralPoint):
    """The quadratic form Z_ij = a^i* G^(ij,t) a^j over the minor with
    rows/columns t+{i,j} removed, and K_ij = h_ij - z*delta_ij - Z_ij."""
    if i in t.t or j in t.t:
        raise IndexError(f"index {i if i in t.t else j} already removed by the minor")
    full = MinorSpec(t.t | {i, j})
    keep = full.keep(s.n)
    if keep.size == 0:
        raise ValueError("no indices left outside the minor")
    gm = minor_green(s, full, z)
    ai = s.h[keep, i]
    aj = s.h[keep, j]
    zq = complex(ai.conj() @ gm @ aj)
    kq = complex(s.h[i, j] - (z.z if i == j else 0.0) - zq)
    return kq, zq


def identity_residuals(
    s: WignerSample, z: SpectralPoint, t: MinorSpec, i: int, j: int, k: int
) -> tuple[float, float, float, float]:
    """Relative residuals of the four exact perturbation identities:

      (1) G^(t)_ii * K^(i,t)_ii = 1
      (2) G^(t)_ij = -G^(t)_jj G^(j,t)_ii K^(ij,t)_ij
      (3) G^(t)_ii - G^(j,t)_ii = G^(t)_ij G^(t)_ji / G^(t)_jj
      (4) G^(t)_ij - G^(k,t)_ij = G^(t)_ik G^(t)_kj / G^(t)_kk
    """
    if len({i, j, k}) != 3:
        raise ValueError(f"indices {i}, {j}, {k} must be distinct")
    for idx in (i, j, k):
        if idx in t.t:
            raise IndexError(f"index {idx} already removed by the minor")
    keep = t.keep(s.n)
    pos = {v: a for a, v in enumerate(keep)}
    g = minor_green(s, t, z)
    gi, gj, gk = pos[i], pos[j], pos[k]

    def sub(extra: int) -> tuple[np.ndarray, dict]:
        spec = MinorSpec(t.t | {extra})
        kp = spec.keep(s.n)
        return minor_green(s, spec, z), {v: a for a, v in enumerate(kp)}

    if abs(g[gj, gj]) < 1e-14 or abs(g[gk, gk]) < 1e-14:
        raise SingularityError("degenerate diagonal resolvent entry")

    kq_i, _ = k_quantity(s, t, i, i, z)
    r1 = abs(g[gi, gi] * kq_i - 1.0)

    gjt, pj = sub(j)
    kq_ij, _ = k_quantity(s, t, i, j, z)
    rhs2 = -g[gj, gj] * gjt[pj[i], pj[i]] * kq_ij
    r2 = abs(g[gi, gj] - rhs2) / max(abs(g[gi, gj]), abs(rhs2), 1e-300)

    lhs3 = g[gi, gi] - gjt[pj[i], pj[i]]
    rhs3 = g[gi, gj] * g[gj, gi] / g[gj, gj]
    r3 = abs(lhs3 - rhs3) / max(abs(g[gi, gi]), abs(rhs3), 1e-300)

    gkt, pk = sub(k)
    lhs4 = g[gi, gj] - gkt[pk[i], pk[j]]
    rhs4 = g[gi, gk] * g[gk, gj] / g[gk, gk]
    r4 = abs(lhs4 - rhs4) / max(abs(g[gi, gj]), abs(rhs4), 1e-300)

    return float(r1), float(r2), float(r3), float(r4)


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
    t = MinorSpec(frozenset(int(x) for x in rng.choice(n, tsize, replace=False)))
    rest = [x for x in range(n) if x not in t.t]
    i, j, k = (int(x) for x in rng.choice(rest, 3, replace=False))
    return (*identity_residuals(s, z, t, i, j, k), ward_residual(green_at(s, z), z))
