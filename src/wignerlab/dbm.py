"""Matrix Ornstein-Uhlenbeck flow toward GOE/GUE and gap-statistics tooling.

The endpoint of the flow is sampled exactly in distribution as
e^{-t/2} H_0 + sqrt(1 - e^{-t}) V with V an independent Gaussian matrix of
entry variance 1/N; pathwise integration exists for cross-validation only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .profile import VarianceProfile, flat_profile
from .sampler import WignerSample, gaussian, sample_matrix


class FlowError(ValueError):
    pass


class SampleSizeError(ValueError):
    pass


@dataclass
class FlowState:
    """One point of a matrix trajectory under the OU flow."""

    t: float
    h: np.ndarray
    initial_profile: VarianceProfile
    path_mode: str  # exact_ou | euler

    def expected_variance(self) -> np.ndarray:
        n = self.initial_profile.n
        return math.exp(-self.t) * self.initial_profile.sigma2 + (
            1.0 - math.exp(-self.t)
        ) / n


@dataclass(frozen=True)
class GapSample:
    """Unfolded nearest-neighbor spacings inside a bulk energy window."""

    gaps: np.ndarray
    window: tuple[float, float]  # (center, half_width)


@functools.lru_cache(maxsize=1)
def _flat(n: int) -> VarianceProfile:
    """The flat profile of the last dimension asked for, built once."""
    return flat_profile(n)


def _noise(n: int, symmetry: str, stream: np.random.Generator) -> np.ndarray:
    """Gaussian matrix with entry variance 1/n in both symmetry classes.

    Uses the flat profile on the diagonal too, which makes sigma2 = 1/n a
    fixed point of the variance interpolation.
    """
    return sample_matrix(_flat(n), gaussian(), symmetry, stream).h


def ou_endpoint(
    h0: np.ndarray | WignerSample,
    t: float,
    symmetry: str,
    stream: np.random.Generator,
) -> np.ndarray:
    """Exact-in-distribution sample of the flow at time t from start h0."""
    if t < 0:
        raise FlowError(f"t={t} must be nonnegative")
    h = h0.h if isinstance(h0, WignerSample) else h0
    n = h.shape[0]
    if t == 0.0:
        return h.copy()
    return math.exp(-t / 2.0) * h + math.sqrt(1.0 - math.exp(-t)) * _noise(
        n, symmetry, stream
    )


def ou_path(
    h0: np.ndarray | WignerSample,
    t_grid,
    symmetry: str,
    stream: np.random.Generator,
    mode: str = "exact_ou",
    euler_dt: float = 1e-4,
) -> list[np.ndarray]:
    """Trajectory sampled at the given increasing times starting from 0.

    exact_ou applies the one-step update H <- e^{-d/2} H + sqrt(1-e^{-d}) W
    between grid times; euler integrates dH = N^{-1/2} dB - H/2 dt with step
    euler_dt for cross-validation.
    """
    t_grid = list(t_grid)
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])) or (t_grid and t_grid[0] < 0):
        raise FlowError(f"time grid {t_grid} must be increasing and nonnegative")
    if mode not in ("exact_ou", "euler"):
        raise FlowError(f"unknown path mode {mode!r}")
    h = (h0.h if isinstance(h0, WignerSample) else h0).copy()
    n = h.shape[0]
    out = []
    prev = 0.0
    for t in t_grid:
        delta = t - prev
        if mode == "exact_ou":
            if delta > 0:
                h = math.exp(-delta / 2.0) * h + math.sqrt(
                    1.0 - math.exp(-delta)
                ) * _noise(n, symmetry, stream)
        else:
            steps = max(1, round(delta / euler_dt)) if delta > 0 else 0
            dt = delta / steps if steps else 0.0
            for _ in range(steps):
                h = h + math.sqrt(dt) * _noise(n, symmetry, stream) - 0.5 * h * dt
        out.append(h.copy())
        prev = t
    return out


def gap_distribution(eigs: np.ndarray, window: tuple[float, float]) -> GapSample:
    """Spacings inside the window, unfolded by the local semicircle density:
    each gap lambda_{j+1} - lambda_j is multiplied by N rho_sc(lambda_j)."""
    center, half_width = window
    eigs = np.sort(np.asarray(eigs))
    n = eigs.size
    mask = np.abs(eigs - center) <= half_width
    idx = np.flatnonzero(mask)
    if idx.size < 50:
        raise SampleSizeError(
            f"only {idx.size} eigenvalues in window ({center} +- {half_width}), need >= 50"
        )
    lo, hi = idx[0], idx[-1]
    lam = eigs[lo : hi + 1]
    raw = np.diff(lam)
    # semicircle.rho_sc, element-wise with the same operations
    x = lam[:-1]
    t = 4.0 - x * x
    rho = np.where(t > 0.0, np.sqrt(np.maximum(t, 0.0)) / (2.0 * math.pi), 0.0)
    unfolded = raw * n * rho
    return GapSample(gaps=unfolded, window=window)


def equilibrium_gap_reference(
    n: int,
    symmetry: str,
    samples: int,
    stream: np.random.Generator,
    window: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """Pooled unfolded gaps from independent Gaussian (flat-profile) matrices."""
    pools = []
    p = _flat(n)
    for _ in range(samples):
        s = sample_matrix(p, gaussian(), symmetry, stream)
        pools.append(gap_distribution(s.eigenvalues(), window).gaps)
    return np.concatenate(pools)
