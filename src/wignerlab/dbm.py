"""Matrix Ornstein-Uhlenbeck flow toward GOE/GUE and gap-statistics tooling.

The flow starts from a diagonal matrix H_0 = diag(s); its endpoint is
sampled exactly in distribution as e^{-t/2} H_0 + sqrt(1 - e^{-t}) V with V
an independent Gaussian matrix of entry variance 1/N.
"""

from __future__ import annotations

import math

import numpy as np

from .profile import flat_profile
from .sampler import (HERMITIAN, SYMMETRIC, eigvalsh_tridiagonal, gaussian, sample_buffer,
                      sample_matrix)
from .semicircle import rho_sc


class FlowError(ValueError):
    pass


class SampleSizeError(ValueError):
    pass


# (center, half_width) of the bulk window whose gaps are compared
GAP_WINDOW = (0.0, 1.0)


def _noise(n: int, symmetry: str, stream: np.random.Generator,
           out: np.ndarray | None = None) -> np.ndarray:
    """Upper triangle and diagonal of a Gaussian matrix with entry variance
    1/n in both symmetry classes; the strict lower triangle is zero. Drawn
    into ``out`` if given, as in ``sample_matrix``.

    Uses the flat profile on the diagonal too, which makes sigma2 = 1/n a
    fixed point of the variance interpolation.
    """
    h = sample_buffer(n, symmetry, out)
    sample_matrix(flat_profile(n), gaussian(), symmetry, stream, out=h)
    for i in range(1, n):  # sample_matrix leaves it unset, or holding staged draws
        h[i, :i] = 0.0
    return h


def ou_endpoint(
    start: np.ndarray, t: float, symmetry: str, stream: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exact-in-distribution sample of the flow at time t from diag(start),
    in the class's dtype, drawn into ``out`` if given (see ``sample_buffer``),
    whatever it held.

    The result holds only the upper triangle and the diagonal of the sample,
    all a solve reads; its strict lower triangle is zero, and
    ``WignerSample(h, mirrored=False).h`` fills it. The noise matrix becomes
    the sample: it is scaled where it lies and e^{-t/2} start is added on its
    diagonal, so the sample is one N x N buffer. At t = 0 the sample is
    diag(start) over zeros and draws nothing.
    """
    if not t >= 0:  # a NaN t fails every comparison
        raise FlowError(f"t={t} must be nonnegative")
    if np.ndim(start) != 1:
        raise FlowError(f"start of shape {np.shape(start)} is not a diagonal (n,)")
    n = start.size
    if t == 0.0:
        h = sample_buffer(n, symmetry, out)
        h.fill(0.0)
    else:
        h = _noise(n, symmetry, stream, out)
        h *= math.sqrt(1.0 - math.exp(-t))
    h.reshape(-1)[:: n + 1] += math.exp(-t / 2.0) * start
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


def beta_hermite(n: int, symmetry: str, stream: np.random.Generator):
    """Diagonal d and off-diagonal e of ``gaussian_ensemble_spectrum``'s model,
    in its draw order."""
    beta = {SYMMETRIC: 1, HERMITIAN: 2}.get(symmetry)
    if beta is None:
        raise ValueError(f"unknown symmetry class {symmetry!r}")
    d = stream.standard_normal(n) * math.sqrt(2.0 / (beta * n))
    e = np.sqrt(stream.chisquare(beta * np.arange(n - 1, 0, -1)) / (beta * n))
    return d, e


def gaussian_ensemble_spectrum(n: int, symmetry: str, stream: np.random.Generator) -> np.ndarray:
    """Ascending eigenvalues of one GOE (symmetric) or GUE (hermitian) matrix with
    off-diagonal variance 1/n, from the beta-Hermite tridiagonal model (beta = 1, 2),
    whose spectrum has exactly that law (Dumitriu and Edelman, J. Math. Phys. 43
    (2002) 5830): d_i = sqrt(2/(beta n)) g_i, e_k = sqrt(chi^2_{beta(n-k)}/(beta n)).
    Draw order: the n normals g_i, then the n - 1 chi-square values, k = 1..n-1."""
    return eigvalsh_tridiagonal(*beta_hermite(n, symmetry, stream))


def equilibrium_gap_reference(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Unfolded GAP_WINDOW gaps of one reference spectrum: the tridiagonal matrix
    with diagonal d and off-diagonal e from ``beta_hermite``, which the solve may
    overwrite. ``dsterf`` calls no BLAS, so this is no phase and may run beside one."""
    return gap_distribution(eigvalsh_tridiagonal(d, e), GAP_WINDOW)
