"""Variance profiles for generalized Wigner ensembles.

A profile is the N x N matrix of entry variances.  Valid profiles are
symmetric, doubly stochastic (every column sums to 1) and have all entries
bounded by c/N.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SYMMETRY_TOL = 1e-12
STOCHASTIC_TOL = 1e-12
SIMPLE_EIG_TOL = 1e-8
_SYMMETRY_BLOCK = 128  # block edge of the symmetry check; fastest of 64..512 at N = 2048


class ProfileError(ValueError):
    """Raised when a variance profile violates its construction contract."""


@dataclass(frozen=True)
class VarianceProfile:
    """Immutable matrix of entry variances with assumption metadata.

    ``sigma2`` is read-only and may be a non-contiguous view (the built-in
    profiles store O(N) numbers); ``np.array(p.sigma2)`` gives a dense copy.
    """

    sigma2: np.ndarray
    kind: str

    def __post_init__(self):
        s = self.sigma2
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ProfileError(f"sigma2 shape {s.shape} is not square")
        col = s.sum(axis=0)
        # a NaN or infinite entry makes its column sum NaN or infinite; NaN
        # would otherwise pass every comparison below
        if not np.all(np.isfinite(col)):
            raise ProfileError("non-finite variance entry or column sum")
        if s.min() < 0:
            raise ProfileError("negative variance entry")
        if not _symmetric(s, SYMMETRY_TOL):
            raise ProfileError("sigma2 not symmetric")
        bad = np.argmax(np.abs(col - 1.0))
        if abs(col[bad] - 1.0) > STOCHASTIC_TOL:
            raise ProfileError(
                f"column {bad} sums to {col[bad]!r}, not doubly stochastic"
            )
        self.sigma2.flags.writeable = False

    @property
    def n(self) -> int:
        return self.sigma2.shape[0]

    @property
    def c_inf(self) -> float:
        return float(self.n * self.sigma2.min())

    @property
    def c_sup(self) -> float:
        return float(self.n * self.sigma2.max())

    def content_hash(self) -> str:
        """SHA-256 of sigma2's bytes, first 16 hex digits."""
        return hashlib.sha256(np.ascontiguousarray(self.sigma2)).hexdigest()[:16]


def _symmetric(s: np.ndarray, tol: float) -> bool:
    """max |s_ij - s_ji| <= tol, compared one block pair at a time so that no
    N x N temporary is built; |a - b| = |b - a| exactly, so visiting only
    the blocks on and above the diagonal gives the full-matrix verdict."""
    n = s.shape[0]
    b = _SYMMETRY_BLOCK
    buf = np.empty((min(b, n), min(b, n)))
    for i in range(0, n, b):
        for j in range(i, n, b):
            upper = s[i:i + b, j:j + b]
            d = buf[:upper.shape[0], :upper.shape[1]]
            np.subtract(upper, s[j:j + b, i:i + b].T, out=d)
            if np.abs(d, out=d).max() > tol:
                return False
    return True


@dataclass(frozen=True)
class AssumptionReport:
    """Spectral diagnostics of a profile against the model assumptions."""

    row_sum_residual: float
    delta_minus: float
    delta_plus: float
    eigenvalue_one_simple: bool


def flat_profile(n: int) -> VarianceProfile:
    """Uniform profile sigma2_ij = 1/n (the standard Wigner case)."""
    if n < 2:
        raise ProfileError(f"dimension {n} < 2")
    return VarianceProfile(sigma2=np.broadcast_to(1.0 / n, (n, n)), kind="flat")


def band_profile(n: int, w: int, f) -> VarianceProfile:
    """Band profile with bandwidth ``w`` and symmetric shape function ``f``.

    Raw variances are f([i-j]_n / w) / w with [i-j]_n the symmetric mod-n
    representative; the common circulant row sum is then divided out so
    double stochasticity holds exactly at finite n.
    """
    if n < 2:
        raise ProfileError(f"dimension {n} < 2")
    if not 1 <= w <= n // 2:
        raise ProfileError(f"bandwidth {w} outside [1, {n // 2}]")
    offsets = symmetric_offsets(n)
    weights = np.array([f(d / w) / w for d in offsets], dtype=float)
    if np.any(weights < 0):
        bad = offsets[int(np.argmin(weights))]
        raise ProfileError(f"shape function negative at offset {bad}")
    total = weights.sum()
    if total <= 0:
        raise ProfileError("shape function vanishes on all admissible offsets")
    weights /= total
    c = np.roll(weights, offsets[0])  # c[k]: the weight at offset [k]_n
    # circulant view over 2n numbers: sigma2[i, j] = c[(i - j) % n]
    sigma2 = sliding_window_view(np.concatenate([c, c])[::-1], n)[n - 1 :: -1]
    return VarianceProfile(sigma2=sigma2, kind="band")


def symmetric_offsets(n: int) -> np.ndarray:
    """All values of [i-j]_n: integers in (-n/2, n/2]."""
    return np.arange(-(n // 2) + 1 if n % 2 == 0 else -(n // 2), n // 2 + 1)


def assumption_report(p: VarianceProfile) -> AssumptionReport:
    """Spectral-gap parameters of the variance matrix.

    delta_plus/minus locate Spec(B) \\ {1} inside [-1+delta_-, 1-delta_+];
    eigenvalue 1 counts as simple when exactly one eigenvalue lies within
    1e-8 of 1.
    """
    spec = np.linalg.eigvalsh(p.sigma2)
    col = p.sigma2.sum(axis=0)
    row_sum_residual = float(np.max(np.abs(col - 1.0)))
    near_one = np.abs(spec - 1.0) <= SIMPLE_EIG_TOL
    simple = int(near_one.sum()) == 1
    rest = spec[~near_one] if near_one.any() else spec[:-1]
    if rest.size:
        delta_plus = float(1.0 - rest.max())
        delta_minus = float(rest.min() + 1.0)
    else:
        delta_plus = delta_minus = 1.0
    return AssumptionReport(
        row_sum_residual=row_sum_residual,
        delta_minus=delta_minus,
        delta_plus=delta_plus,
        eigenvalue_one_simple=simple,
    )
