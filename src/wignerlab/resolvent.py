"""Green functions, minors and the exact self-consistent perturbation
identities, plus the deviation diagnostics used by the experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampler import WignerSample
from .semicircle import SpectralPoint, m_sc

DEFAULT_A0 = 2.0


class SingularityError(ArithmeticError):
    pass


@dataclass(frozen=True)
class MinorSpec:
    """Set of removed row/column indices."""

    t: frozenset[int]

    @staticmethod
    def of(*indices: int) -> "MinorSpec":
        return MinorSpec(frozenset(indices))

    def check(self, n: int) -> None:
        for i in self.t:
            if not 0 <= i < n:
                raise IndexError(f"minor index {i} outside [0, {n})")

    def keep(self, n: int) -> np.ndarray:
        self.check(n)
        return np.array([i for i in range(n) if i not in self.t], dtype=int)


EMPTY = MinorSpec(frozenset())


@dataclass(frozen=True)
class GreenSnapshot:
    """Resolvent deviation diagnostics at one spectral point."""

    z: SpectralPoint
    m_n: complex
    lambda_d: float
    lambda_o: float
    lam: float
    psi: float


def default_ell(n: int, a0: float = DEFAULT_A0) -> int:
    """Log-power exponent in the fluctuation scale psi."""
    return max(1, math.ceil(a0 * math.log(math.log(n))))


def green_at(s: WignerSample, z: SpectralPoint):
    """Full resolvent G = (H - z)^-1 and its normalized trace, from the
    sample's cached spectral factorization."""
    w, u = s.eigen_pair()
    inv = 1.0 / (w - z.z)
    g = (u * inv) @ u.conj().T
    m_n = complex(inv.mean())
    return g, m_n


def ward_residual(g: np.ndarray, z: SpectralPoint, relative: bool = False) -> float:
    """Deviation from sum_l |G_kl|^2 = Im G_kk / eta, maximized over k."""
    lhs = np.sum(np.abs(g) ** 2, axis=1)
    rhs = np.diag(g).imag / z.eta
    res = np.abs(lhs - rhs)
    if relative:
        res = res / np.abs(rhs)
    return float(res.max())


def control_params(
    g: np.ndarray, z: SpectralPoint, ell: int | None = None
) -> GreenSnapshot:
    """Diagonal / off-diagonal / averaged deviation of G from m_sc, and the
    fluctuation scale psi = (log N)^ell * sqrt((Lambda + Im m_sc)/(N eta))."""
    n = g.shape[0]
    msc = m_sc(z)
    diag = np.diag(g)
    lambda_d = float(np.abs(diag - msc).max())
    off = np.abs(g - np.diag(diag))
    lambda_o = float(off.max()) if n > 1 else 0.0
    m_n = complex(diag.mean())
    lam = abs(m_n - msc)
    if ell is None:
        ell = default_ell(n) if n >= 3 else 1
    psi = math.log(n) ** ell * math.sqrt((lam + msc.imag) / (n * z.eta)) if n > 1 else 0.0
    return GreenSnapshot(
        z=z,
        m_n=m_n,
        lambda_d=lambda_d,
        lambda_o=lambda_o,
        lam=lam,
        psi=psi,
    )


def minor_green(s: WignerSample, t: MinorSpec, z: SpectralPoint) -> np.ndarray:
    """Resolvent of H with rows/columns in t removed, indexed by the kept set.

    Computed by a fresh factorization; correct but not incremental.
    """
    keep = t.keep(s.n)
    if keep.size == 0:
        raise ValueError("minor removes every index")
    hm = s.h[np.ix_(keep, keep)]
    w, u = np.linalg.eigh(hm)
    return (u * (1.0 / (w - z.z))) @ u.conj().T


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


def xi_quantities(s: WignerSample, i: int, z: SpectralPoint):
    """Per-row quantities of the self-consistent equation.

    a_i couples the row variances to the resolvent; z_i is the fluctuation of
    the quadratic form around its exact partial expectation (computed from
    sigma2, not by Monte Carlo); upsilon_i = a_i + h_ii - z_i is the error
    term in v_i = 1/(-z - m_sc - (sum_j sigma2_ij v_j - upsilon_i)) - m_sc.
    """
    g, _ = green_at(s, z)
    gii = g[i, i]
    if abs(gii) < 1e-14:
        raise SingularityError(f"G_{i}{i} = {gii} too small")
    sig = s.profile.sigma2[i]
    mask = np.ones(s.n, dtype=bool)
    mask[i] = False
    a_i = complex(sig[i] * gii + np.sum(sig[mask] * g[i, mask] * g[mask, i]) / gii)
    spec = MinorSpec.of(i)
    keep = spec.keep(s.n)
    gm = minor_green(s, spec, z)
    ai = s.h[keep, i]
    z_full = complex(ai.conj() @ gm @ ai)
    z_expect = complex(np.sum(sig[keep] * np.diag(gm)))
    z_i = z_full - z_expect
    upsilon_i = a_i + s.h[i, i] - z_i
    return a_i, z_i, upsilon_i


def self_consistent_residual(s: WignerSample, i: int, z: SpectralPoint) -> float:
    """Residual of the exact self-consistent equation for v_i = G_ii - m_sc."""
    g, _ = green_at(s, z)
    msc = m_sc(z)
    v = np.diag(g) - msc
    _, _, upsilon_i = xi_quantities(s, i, z)
    sig = s.profile.sigma2[i]
    denom = -z.z - msc - (complex(np.sum(sig * v)) - upsilon_i)
    return abs(v[i] - (1.0 / denom - msc))


def averaged_fluctuation(s: WignerSample, z: SpectralPoint) -> complex:
    """Mean over rows of the quadratic-form fluctuation z_i."""
    total = 0.0 + 0.0j
    for i in range(s.n):
        _, z_i, _ = xi_quantities(s, i, z)
        total += z_i
    return total / s.n


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
