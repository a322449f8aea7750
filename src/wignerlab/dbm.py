"""Matrix Ornstein-Uhlenbeck flow toward GOE/GUE and gap-statistics tooling.

The flow starts from a diagonal matrix H_0 = diag(s); its endpoint is
sampled exactly in distribution as e^{-t/2} H_0 + sqrt(1 - e^{-t}) V with V
an independent Gaussian matrix of entry variance 1/N.
"""

from __future__ import annotations

import math

import numpy as np

from .profile import flat_profile
from .sampler import gaussian, sample_matrix
from .semicircle import rho_sc


class FlowError(ValueError):
    pass


class SampleSizeError(ValueError):
    pass


# (center, half_width) of the bulk window whose gaps are compared
GAP_WINDOW = (0.0, 1.0)


def _noise(n: int, symmetry: str, stream: np.random.Generator) -> np.ndarray:
    """Gaussian matrix with entry variance 1/n in both symmetry classes.

    Uses the flat profile on the diagonal too, which makes sigma2 = 1/n a
    fixed point of the variance interpolation.
    """
    return sample_matrix(flat_profile(n), gaussian(), symmetry, stream).h


def ou_endpoint(
    start: np.ndarray, t: float, symmetry: str, stream: np.random.Generator
) -> np.ndarray:
    """Exact-in-distribution sample of the flow at time t from diag(start).

    The noise matrix becomes the sample: it is scaled where it lies and
    e^{-t/2} start is added on its diagonal, so the sample is one N x N
    buffer. At t = 0 the sample is diag(start) and draws nothing.
    """
    if not t >= 0:  # a NaN t fails every comparison
        raise FlowError(f"t={t} must be nonnegative")
    if np.ndim(start) != 1:
        raise FlowError(f"start of shape {np.shape(start)} is not a diagonal (n,)")
    if t == 0.0:
        return np.diag(start)
    h = _noise(start.size, symmetry, stream)
    h *= math.sqrt(1.0 - math.exp(-t))
    h.reshape(-1)[:: start.size + 1] += math.exp(-t / 2.0) * start
    return h


def gap_distribution(eigs: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Spacings inside the window (center, half_width), unfolded by the local
    semicircle density: each gap lambda_{j+1} - lambda_j is multiplied by
    N rho_sc(lambda_j)."""
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
    return np.diff(lam) * n * rho_sc(lam[:-1])


def equilibrium_gap_reference(
    n: int,
    symmetry: str,
    samples: int,
    stream: np.random.Generator,
) -> np.ndarray:
    """Pooled unfolded GAP_WINDOW gaps of independent flat Gaussian matrices."""
    pools = []
    p = flat_profile(n)
    for _ in range(samples):
        s = sample_matrix(p, gaussian(), symmetry, stream)
        pools.append(gap_distribution(s.eigenvalues(), GAP_WINDOW))
    return np.concatenate(pools)
