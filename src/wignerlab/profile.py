"""Variance profiles for generalized Wigner ensembles.

A profile is the circulant N x N matrix of entry variances, stored as its
first column.  Valid profiles are symmetric, doubly stochastic (every column
sums to 1) and have all entries bounded by c/N.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SYMMETRY_TOL = 1e-12
STOCHASTIC_TOL = 1e-12
SIMPLE_EIG_TOL = 1e-8


class ProfileError(ValueError):
    """Raised when a variance profile violates its construction contract."""


@dataclass(frozen=True)
class VarianceProfile:
    """Immutable circulant matrix of entry variances, owning a read-only copy
    of its first column ``c``.  ``sigma2[i, j] == c[(i - j) % n]`` is a
    read-only N x N view over 2N numbers; it is symmetric when c[k] == c[-k]
    and doubly stochastic when sum(c) == 1, so both are checked in O(N).
    """

    c: np.ndarray
    kind: str
    sigma2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = np.array(self.c, dtype=float)  # a copy: the caller's array may change
        if c.ndim != 1 or c.size < 2:
            raise ProfileError(f"first column shape {c.shape} is not (n,) with n >= 2")
        # NaN would otherwise pass every comparison below
        if not np.all(np.isfinite(c)):
            raise ProfileError("non-finite variance entry")
        if c.min() < 0:
            raise ProfileError("negative variance entry")
        if np.abs(c - np.roll(c[::-1], 1)).max() > SYMMETRY_TOL:
            raise ProfileError("sigma2 not symmetric")
        if abs(c.sum() - 1.0) > STOCHASTIC_TOL:
            raise ProfileError(f"columns sum to {c.sum()!r}, not doubly stochastic")
        c.flags.writeable = False
        n = c.size
        sigma2 = sliding_window_view(np.concatenate([c, c])[::-1], n)[n - 1 :: -1]
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "sigma2", sigma2)

    def __eq__(self, other):
        if not isinstance(other, VarianceProfile):
            return NotImplemented
        return (self.kind, self.c.tobytes()) == (other.kind, other.c.tobytes())

    def __hash__(self):
        return hash((self.kind, self.c.tobytes()))

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def c_inf(self) -> float:
        return float(self.n * self.c.min())

    @property
    def c_sup(self) -> float:
        return float(self.n * self.c.max())

    def content_hash(self) -> str:
        """SHA-256 of sigma2's bytes, first 16 hex digits."""
        return hashlib.sha256(np.ascontiguousarray(self.sigma2)).hexdigest()[:16]


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
    return VarianceProfile(np.full(n, 1.0 / n), "flat")


def band_profile(n: int, w: int) -> VarianceProfile:
    """Band profile with bandwidth ``w``: the box shape 0.5 * 1{|x| <= 1}.

    Raw variances are 0.5 / w at the offsets [i-j]_n with |[i-j]_n| <= w,
    [i-j]_n the symmetric mod-n representative, and 0 elsewhere; the common
    circulant row sum is then divided out so double stochasticity holds
    exactly at finite n.
    """
    if n < 2:
        raise ProfileError(f"dimension {n} < 2")
    if not 1 <= w <= n // 2:
        raise ProfileError(f"band width {w} outside [1, {n // 2}]")
    offsets = symmetric_offsets(n)
    weights = np.where(np.abs(offsets) <= w, 0.5 / w, 0.0)
    weights /= weights.sum()
    # c[k]: the weight at offset [k]_n
    return VarianceProfile(np.roll(weights, offsets[0]), "band")


def symmetric_offsets(n: int) -> np.ndarray:
    """All values of [i-j]_n: integers in (-n/2, n/2]."""
    return np.arange(-(n // 2) + 1 if n % 2 == 0 else -(n // 2), n // 2 + 1)


def assumption_report(p: VarianceProfile) -> AssumptionReport:
    """Spectral-gap parameters of the variance matrix.

    delta_plus/minus locate Spec(B) \\ {1} inside [-1+delta_-, 1-delta_+];
    eigenvalue 1 counts as simple when exactly one eigenvalue lies within
    1e-8 of 1. A symmetric circulant's spectrum is the DFT of its first column.
    """
    spec = np.sort(np.fft.fft(p.c).real)
    row_sum_residual = float(abs(p.c.sum() - 1.0))  # every column sums to c.sum()
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
