"""Closed-form semicircle machinery: Stieltjes transform, density, cdf and
classical eigenvalue locations.

The classical locations come from one vectorized Newton solve in the angle
phi with x = 2 sin(phi/2), where the distribution function is elementary;
the module needs only numpy and the standard library.
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


def n_sc(e):
    """Distribution function of the semicircle law, in closed form,
    element-wise, a scalar for a scalar; math.asin, not np.arcsin, keeps the
    scalar formula's last bits."""
    e = np.asarray(e, dtype=np.float64)
    x = np.clip(e, -2.0, 2.0)
    asin = np.asarray(np.frompyfunc(math.asin, 1, 1)(x / 2.0), dtype=np.float64)
    inside = 0.5 + (x * np.sqrt(4.0 - x * x) + 4.0 * asin) / (4.0 * math.pi)
    return np.where(e <= -2.0, 0.0, np.where(e >= 2.0, 1.0, inside))[()]


def classical_locations(n: int) -> np.ndarray:
    """gamma_j solving n_sc(gamma_j) = j/n, j = 1..n; gamma_n pinned to 2.

    With x = 2 sin(phi/2), n_sc(x) = 1/2 + (phi + sin phi)/(2 pi), so
    gamma_j = 2 sin(phi_j/2) where phi_j + sin phi_j = c_j = pi (2j - n)/n.
    Newton steps from phi = c/2 approach each root monotonically from the
    side of 0 (phi + sin phi is odd and concave on [0, pi]), so they stay in
    (-pi, pi); once every step is below 1e-9, one more step lands at
    rounding level.
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    c = np.pi * (2.0 * np.arange(1, n) - n) / n
    phi = c / 2.0
    for _ in range(100):
        step = (phi + np.sin(phi) - c) / (1.0 + np.cos(phi))
        phi -= step
        if np.abs(step).max(initial=0.0) < 1e-9:
            phi -= (phi + np.sin(phi) - c) / (1.0 + np.cos(phi))
            return np.append(2.0 * np.sin(phi / 2.0), 2.0)
    raise RuntimeError("classical_locations: Newton solve did not converge")
