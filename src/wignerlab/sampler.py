"""Sampling of Hermitian/symmetric random matrices with a variance profile.

Entries are independent for i <= j, centered, standardized before scaling by
sigma_ij, and reproducible through per-sample RNG streams derived from one
master seed.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .profile import VarianceProfile

HERMITIAN = "hermitian"
SYMMETRIC = "symmetric"


class DistributionError(ValueError):
    pass


# rademacher and two_point draw through a temporary (integers() has no out=),
# so they fill their output this many leading entries at a time; a Hermitian
# sample's scratch batch holds a quarter as many entries
DRAW_CHUNK = 1 << 16


def _chunks(x: np.ndarray):
    return (x[lo : lo + DRAW_CHUNK] for lo in range(0, len(x), DRAW_CHUNK))


@dataclass(frozen=True)
class EntryDistribution:
    """Standardized (mean 0, variance 1) entry law with sub-exponential tails."""

    law: str
    p: float = 0.0  # two_point: probability of the value a
    scale: float = 1.0  # deliberate de-standardization, for negative controls

    @property
    def a(self) -> float:
        """two_point: the value taken with probability p."""
        return math.sqrt((1.0 - self.p) / self.p)

    @property
    def b(self) -> float:
        """two_point: the value taken with probability 1 - p."""
        return -math.sqrt(self.p / (1.0 - self.p))

    def draw(self, rng: np.random.Generator, size=None, out=None) -> np.ndarray:
        """``size`` independent draws, or as many as fill ``out`` in place."""
        x = np.empty(size) if out is None else out
        if self.law == "gaussian":
            rng.standard_normal(out=x)
        elif self.law == "rademacher":
            for part in _chunks(x):
                np.multiply(rng.integers(0, 2, size=part.shape), 2.0, out=part)
            x -= 1.0
        elif self.law == "uniform":
            rng.random(out=x)
            x *= 2.0
            x -= 1.0
            x *= math.sqrt(3.0)
        elif self.law == "two_point":
            for part in _chunks(x):
                part[...] = np.where(rng.random(part.shape) < self.p, self.a, self.b)
        else:
            raise DistributionError(f"unknown law {self.law!r}")
        x *= self.scale
        return x

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
    return EntryDistribution(law="gaussian", scale=scale)


def rademacher(scale: float = 1.0) -> EntryDistribution:
    return EntryDistribution(law="rademacher", scale=scale)


def uniform(scale: float = 1.0) -> EntryDistribution:
    return EntryDistribution(law="uniform", scale=scale)


def two_point(p: float) -> EntryDistribution:
    """Asymmetric two-point law with mean 0 and variance 1."""
    if not 0.0 < p < 1.0:
        raise DistributionError(f"p={p} outside (0, 1)")
    return EntryDistribution(law="two_point", p=p)


def from_name(name: str) -> EntryDistribution:
    table = {"gaussian": gaussian, "rademacher": rademacher, "uniform": uniform}
    if name in table:
        return table[name]()
    if name.startswith("two_point:"):
        return two_point(float(name.split(":", 1)[1]))
    if name.startswith("gaussian:scale="):
        scale = float(name.split("=", 1)[1])
        if not (math.isfinite(scale) and scale > 0.0):
            raise DistributionError(f"scale {scale} in {name!r} must be finite and > 0")
        return gaussian(scale)
    raise DistributionError(f"unknown distribution name {name!r}")


# OpenBLAS runs a factorization or GEMM on all its threads, so two at once
# oversubscribe the cores. They hold this lock, never nested; pool workers overlap the rest.
BLAS_LOCK = threading.Lock()


class WignerSample:
    """A realized matrix h with a lazily computed eigendecomposition cache.

    ``eigenvalues()`` factorizes h where it lies, so it consumes the sample:
    h is gone afterwards. Call ``eigen_pair()`` first to keep h; the
    eigenvalues then come from its cache.
    """

    def __init__(self, h: np.ndarray):
        self._h = h
        self._eigenvalues: np.ndarray | None = None
        self._eigenvectors: np.ndarray | None = None

    @property
    def h(self) -> np.ndarray:
        if self._h is None:
            raise RuntimeError("sample consumed: eigenvalues() overwrote h; call eigen_pair() first")
        return self._h

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            h, self._h = self.h, None
            with BLAS_LOCK:
                w = eigvalsh_inplace(h)
            self._eigenvalues = _finite(w)
        return self._eigenvalues

    def eigen_pair(self):
        if self._eigenvectors is None:
            with BLAS_LOCK:
                w, u = np.linalg.eigh(self.h)
            self._eigenvalues, self._eigenvectors = _finite(w), u
        return self._eigenvalues, self._eigenvectors


def _finite(w: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(w)):
        raise FloatingPointError("eigendecomposition produced non-finite values")
    return w


@functools.cache
def _lapack() -> dict:
    """numpy's bundled ?syevd/?heevd and the dtypes of their work arrays, by
    the dtype of h; empty without scipy-openblas. Loaded on first use: dlsym
    on numpy's linalg extension also searches the libraries it links."""
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines = {  # work and iwork; work, rwork and iwork
            np.dtype(float): (lib.scipy_dsyevd_64_, (np.float64, np.int64)),
            np.dtype(complex): (lib.scipy_zheevd_64_, (np.complex128, np.float64, np.int64)),
        }
    except (OSError, AttributeError):
        return {}
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    for fn, work in routines.values():
        # jobz, uplo, n, a, lda, w, (array, length) per work array, info and
        # the hidden lengths of jobz and uplo
        fn.argtypes = [ctypes.c_char_p] * 2 + [i64, ptr, i64, ptr] + [ptr, i64] * len(work) + [
            i64, ctypes.c_size_t, ctypes.c_size_t]
        fn.restype = None
    return routines


def eigvalsh_inplace(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrix h with the bits of
    numpy's ``eigvalsh``, overwriting h.

    LAPACK (jobz 'N', uplo 'L', 64-bit integers) reads the C-ordered h as
    H^T = conj(H) and reduces it where it lies, without the Fortran-ordered
    copy numpy makes. Without numpy's bundled LAPACK, or for an h it cannot
    take in place, numpy's ``eigvalsh`` does the work.
    """
    fn, work = _lapack().get(h.dtype, (None, ()))
    if fn is None or h.ndim != 2 or h.shape[0] != h.shape[1] or not (
        h.flags.c_contiguous and h.flags.writeable
    ):
        return np.linalg.eigvalsh(h)
    n, w, info = h.shape[0], np.empty(h.shape[0]), ctypes.c_int64()

    def call(arrays, sizes) -> None:
        sized = [a for arr, size in zip(arrays, sizes)
                 for a in (arr.ctypes.data, ctypes.byref(ctypes.c_int64(size)))]
        fn(b"N", b"L", ctypes.byref(ctypes.c_int64(n)), h.ctypes.data,
           ctypes.byref(ctypes.c_int64(max(1, n))), w.ctypes.data, *sized, ctypes.byref(info), 1, 1)

    # query the workspace, then allocate it, as numpy does
    query = [np.zeros(1, k) for k in work]
    call(query, [-1] * len(work))
    sizes = [int(q[0].real) for q in query]
    call([np.empty(size, k) for size, k in zip(sizes, work)], sizes)
    if info.value:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (LAPACK info {info.value})")
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
) -> WignerSample:
    """Draw one matrix with E h_ij = 0 and E |h_ij|^2 = sigma2_ij * scale^2.

    Draw order: the strict upper triangle in row-major order (for Hermitian
    matrices all real parts, then all imaginary parts), then the diagonal.
    """
    n = p.n
    m = n * (n - 1) // 2
    # the real draws fill the last m float slots of h itself; row i's target
    # h[i, i+1:] ends before its own draws and every later row's (real h: at
    # slot n(i+1) <= n^2 - (n-1-i)(n-i)/2; complex h: at float slot
    # 2n(i+1) <= 2n^2 - (n-1-i)(n-i)/2), so no row overwrites draws still unread
    if symmetry == SYMMETRIC:
        h = np.empty((n, n))
        upper = d.draw(stream, out=h.reshape(-1)[n * n - m :])
    elif symmetry == HERMITIAN:
        h = np.empty((n, n), dtype=complex)
        upper = d.draw(stream, out=h.reshape(-1).view(float)[2 * n * n - m :])
        # the imaginary parts (drawn after all real parts) and the complex
        # entries go through scratch one batch of whole rows at a time: at
        # most DRAW_CHUNK / 4 entries of 24 bytes, or one row
        rows = max(1, DRAW_CHUNK // 4 // (n - 1))
        imag, entries = np.empty(rows * (n - 1)), np.empty(rows * (n - 1), dtype=complex)
    else:
        raise ValueError(f"unknown symmetry class {symmetry!r}")
    root = np.sqrt(p.c)
    # sqrt(sigma2[i, i+1:]) is root[n-1], root[n-2], ..., root[i+1]
    reverse = root[::-1]
    src, base = upper, 0  # row i's k entries are src[o - base : o - base + k]
    o = 0
    for i in range(n - 1):
        k = n - 1 - i
        if symmetry == HERMITIAN and i % rows == 0:
            # independent real/imaginary parts, each of variance sigma2/2:
            # the bits of (re + 1j * im) / sqrt(2) for every draw but -0.0
            j = min(i + rows, n - 1)
            src, base = entries[: (j - i) * (2 * n - 1 - i - j) // 2], o
            src.real = upper[o : o + src.size]
            src.imag = d.draw(stream, out=imag[: src.size])
            src /= math.sqrt(2.0)
        np.multiply(src[o - base : o - base + k], reverse[:k], out=h[i, i + 1 :])
        o += k
    _mirror_upper(h)
    np.fill_diagonal(h, d.draw(stream, n) * root[0])
    return WignerSample(h=h)


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
    """Sample `sample_index` of the ensemble, drawn from its own stream."""
    return sample_matrix(p, d, symmetry, derive_stream(master_seed, sample_index))
