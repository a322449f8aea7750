"""Sampling of Hermitian/symmetric random matrices with a variance profile.

Entries are independent for i <= j, centered, standardized before scaling by
sigma_ij, and reproducible through per-sample RNG streams derived from one
master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profile import VarianceProfile

HERMITIAN = "hermitian"
SYMMETRIC = "symmetric"


class DistributionError(ValueError):
    pass


@dataclass(frozen=True)
class EntryDistribution:
    """Standardized (mean 0, variance 1) entry law with sub-exponential tails."""

    law: str
    a: float = 0.0
    b: float = 0.0
    p: float = 0.0
    theta: float = 1.0  # tail decay parameter, informational only
    scale: float = 1.0  # deliberate de-standardization, for negative controls

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.law == "gaussian":
            x = rng.standard_normal(size)
        elif self.law == "rademacher":
            x = rng.integers(0, 2, size=size).astype(float)
            x *= 2.0
            x -= 1.0
        elif self.law == "uniform":
            x = (rng.random(size) * 2.0 - 1.0) * math.sqrt(3.0)
        elif self.law == "two_point":
            x = np.where(rng.random(size) < self.p, self.a, self.b)
        else:
            raise DistributionError(f"unknown law {self.law!r}")
        # a copy: in place, the allocator kept more memory resident (peak RSS)
        return x * self.scale

    def analytic_moment(self, k: int) -> float:
        """Exact k-th moment of the standardized law (before ``scale``)."""
        if self.law == "gaussian":
            m = 0.0 if k % 2 else math.prod(range(1, k, 2))  # (k-1)!!
        elif self.law == "rademacher":
            m = float(k % 2 == 0)
        elif self.law == "uniform":
            m = 0.0 if k % 2 else 3.0 ** (k / 2) / (k + 1)
        elif self.law == "two_point":
            m = self.p * self.a**k + (1.0 - self.p) * self.b**k
        else:
            raise DistributionError(f"unknown law {self.law!r}")
        return m * self.scale**k


def gaussian(scale: float = 1.0) -> EntryDistribution:
    return EntryDistribution(law="gaussian", theta=2.0, scale=scale)


def rademacher(scale: float = 1.0) -> EntryDistribution:
    return EntryDistribution(law="rademacher", theta=2.0, scale=scale)


def uniform(scale: float = 1.0) -> EntryDistribution:
    return EntryDistribution(law="uniform", theta=2.0, scale=scale)


def two_point(p: float) -> EntryDistribution:
    """Asymmetric two-point law with mean 0 and variance 1."""
    if not 0.0 < p < 1.0:
        raise DistributionError(f"p={p} outside (0, 1)")
    a = math.sqrt((1.0 - p) / p)
    b = -math.sqrt(p / (1.0 - p))
    return EntryDistribution(law="two_point", a=a, b=b, p=p, theta=1.0)


def from_name(name: str) -> EntryDistribution:
    table = {"gaussian": gaussian, "rademacher": rademacher, "uniform": uniform}
    if name in table:
        return table[name]()
    if name.startswith("two_point:"):
        return two_point(float(name.split(":", 1)[1]))
    if name.startswith("gaussian:scale="):
        return gaussian(float(name.split("=", 1)[1]))
    raise DistributionError(f"unknown distribution name {name!r}")


@dataclass(frozen=True)
class Provenance:
    master_seed: int
    sample_index: int
    law: str
    profile_hash: str
    symmetry: str


@dataclass
class WignerSample:
    """A realized matrix with a lazily computed eigendecomposition cache."""

    h: np.ndarray
    profile: VarianceProfile
    symmetry: str
    provenance: Provenance
    _eigenvalues: np.ndarray | None = field(default=None, repr=False)
    _eigenvectors: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            self._eigenvalues = _finite(np.linalg.eigvalsh(self.h))
        return self._eigenvalues

    def eigen_pair(self):
        if self._eigenvectors is None:
            w, u = np.linalg.eigh(self.h)
            self._eigenvalues, self._eigenvectors = _finite(w), u
        return self._eigenvalues, self._eigenvectors


def _finite(w: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(w)):
        raise FloatingPointError("eigendecomposition produced non-finite values")
    return w


def derive_stream(master_seed: int, sample_index: int) -> np.random.Generator:
    """Independent, schedule-invariant stream for one sample index."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(sample_index,))
    return np.random.default_rng(ss)


def sample_matrix(
    p: VarianceProfile,
    d: EntryDistribution,
    symmetry: str,
    stream: np.random.Generator,
    provenance: Provenance | None = None,
) -> WignerSample:
    """Draw one matrix with E h_ij = 0 and E |h_ij|^2 = sigma2_ij * scale^2.

    Draw order: the strict upper triangle in row-major order (for Hermitian
    matrices all real parts, then all imaginary parts), then the diagonal.
    """
    n = p.n
    m = n * (n - 1) // 2
    if symmetry == SYMMETRIC:
        upper = d.draw(stream, m)
        h = np.empty((n, n))
    elif symmetry == HERMITIAN:
        # independent real/imaginary parts, each of variance sigma2/2
        re = d.draw(stream, m)
        im = d.draw(stream, m)
        upper = (re + 1j * im) / math.sqrt(2.0)
        h = np.empty((n, n), dtype=complex)
    else:
        raise ValueError(f"unknown symmetry class {symmetry!r}")
    o = 0
    for i in range(n - 1):
        k = n - 1 - i
        np.multiply(upper[o : o + k], np.sqrt(p.sigma2[i, i + 1 :]), out=h[i, i + 1 :])
        o += k
    _mirror_upper(h)
    np.fill_diagonal(h, d.draw(stream, n) * np.sqrt(np.diagonal(p.sigma2)))
    if provenance is None:
        provenance = Provenance(-1, -1, d.law, p.content_hash(), symmetry)
    return WignerSample(h=h, profile=p, symmetry=symmetry, provenance=provenance)


_MIRROR_BLOCK = 64


def _mirror_upper(h: np.ndarray) -> None:
    """Overwrite h with U + U^H, U its strict upper triangle, block by block.

    Each entry gets the same addition with zero as in the full-matrix sum
    ``np.triu(h, 1) + np.triu(h, 1).conj().T``, so every bit matches it, the
    sign of zero included (a zero variance times a negative draw is -0.0, and
    x + 0.0 turns it into +0.0). The diagonal comes out zero.
    """
    n = h.shape[0]
    b = _MIRROR_BLOCK
    hermitian = np.iscomplexobj(h)
    # U[i, j] + conj(0); for complex h the conjugated zero is 0 - 0j
    upper_zero = complex(0.0, -0.0) if hermitian else 0.0
    for i0 in range(0, n, b):
        i1 = min(i0 + b, n)
        u = np.triu(h[i0:i1, i0:i1], 1)
        np.add(u, u.conj().T, out=h[i0:i1, i0:i1])
        for j0 in range(i1, n, b):
            j1 = min(j0 + b, n)
            up, lo = h[i0:i1, j0:j1], h[j0:j1, i0:i1]
            up += upper_zero
            if hermitian:
                np.conjugate(up.T, out=lo)
                lo += 0.0  # 0 + conj(U): a -0.0 imaginary part becomes +0.0
            else:
                lo[...] = up.T


def sample_indexed(p, d, symmetry, master_seed: int, sample_index: int) -> WignerSample:
    stream = derive_stream(master_seed, sample_index)
    prov = Provenance(master_seed, sample_index, d.law, p.content_hash(), symmetry)
    return sample_matrix(p, d, symmetry, stream, provenance=prov)


@dataclass(frozen=True)
class MomentRow:
    order: int
    empirical: float
    stderr: float


def moment_report(
    d: EntryDistribution, k: int, m: int, stream: np.random.Generator
) -> list[MomentRow]:
    """Empirical moments E x^j for j <= k with Monte Carlo standard errors."""
    if k > 8:
        raise ValueError(f"max order {k} > 8")
    if m < 10**4:
        raise ValueError(f"sample count {m} < 1e4")
    x = d.draw(stream, m)
    rows = []
    for j in range(1, k + 1):
        xj = x**j
        mean = float(xj.mean())
        stderr = float(xj.std(ddof=1) / math.sqrt(m))
        rows.append(MomentRow(order=j, empirical=mean, stderr=stderr))
    return rows


def moments_match(
    rep_a: list[MomentRow], rep_b: list[MomentRow], order: int, n_sigma: float = 4.0
) -> bool:
    """Whether the two empirical moment tables agree up to ``order``.

    Symmetric and reflexive: agreement means every |difference| is within
    n_sigma combined standard errors (with a tiny absolute floor for
    exact-zero moments).
    """
    for ra, rb in zip(rep_a, rep_b):
        if ra.order > order:
            break
        se = math.hypot(ra.stderr, rb.stderr)
        if abs(ra.empirical - rb.empirical) > n_sigma * se + 1e-12:
            return False
    return True
