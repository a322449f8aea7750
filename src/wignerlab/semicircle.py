"""Closed-form semicircle machinery: Stieltjes transform, density, cdf and
classical eigenvalue locations.

The classical locations are found by ``_brentq``, a line-for-line port of
SciPy's C solver ``optimize/Zeros/brentq.c``: given the same arguments it
returns the same bits as SciPy's ``optimize.brentq``, and the module needs
only numpy and the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SpectralDomainError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralPoint:
    """z = e + i*eta in the upper half plane."""

    e: float
    eta: float

    def __post_init__(self):
        if self.eta <= 0:
            raise SpectralDomainError(f"eta={self.eta} must be positive")

    @property
    def z(self) -> complex:
        return complex(self.e, self.eta)


def m_sc(z) -> complex:
    """Stieltjes transform of the semicircle law: the root of m + 1/(z+m) = 0
    with positive imaginary part (equivalently |m| <= 1) for Im z > 0."""
    if isinstance(z, SpectralPoint):
        z = z.z
    z = complex(z)
    if z.imag <= 0:
        raise SpectralDomainError(f"Im z = {z.imag} must be positive")
    s = np.sqrt(z - 2.0) * np.sqrt(z + 2.0)  # branch cut on [-2, 2], ~z at infinity
    # roots of m^2 + z m + 1 multiply to 1; compute the big one without
    # cancellation, then invert.  The |m| <= 1 root is the Im > 0 one.
    if (z.real * s.real + z.imag * s.imag) >= 0.0:
        q = -(z + s) / 2.0
    else:
        q = -(z - s) / 2.0
    return complex(1.0 / q)


def rho_sc(e):
    """Semicircle density (2*pi)^-1 * sqrt((4 - e^2)_+), element-wise."""
    return np.sqrt(np.maximum(4.0 - e * e, 0.0)) / (2.0 * math.pi)


def n_sc(e: float) -> float:
    """Distribution function of the semicircle law, in closed form."""
    if e <= -2.0:
        return 0.0
    if e >= 2.0:
        return 1.0
    return 0.5 + (e * math.sqrt(4.0 - e * e) + 4.0 * math.asin(e / 2.0)) / (4.0 * math.pi)


def classical_locations(n: int) -> np.ndarray:
    """gamma_j solving n_sc(gamma_j) = j/n, j = 1..n; gamma_n pinned to 2."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    out = np.empty(n)
    out[-1] = 2.0
    for j in range(1, n):
        q = j / n
        out[j - 1] = _brentq(lambda x: n_sc(x) - q, -2.0, 2.0,
                             xtol=1e-14, rtol=8.9e-16, maxiter=100)
    return out


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f in [xa, xb] by Brent's method, ported operation for operation
    from SciPy's brentq.c: every update rule and comparison is SciPy's, so
    the root carries the same bits.  Raises ValueError when f(xa) and f(xb)
    have the same sign and RuntimeError after maxiter steps without
    convergence, as SciPy's brentq does."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):  # C's signbit
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):  # C's MIN
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")

