"""Sampling of Hermitian/symmetric random matrices with a variance profile.

Entries are independent for i <= j, centered, standardized before scaling by
sigma_ij, and reproducible through per-sample RNG streams derived from one
master seed.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .profile import VarianceProfile

HERMITIAN = "hermitian"
SYMMETRIC = "symmetric"


class DistributionError(ValueError):
    pass


# rademacher and two_point draw through a temporary (integers() has no out=),
# so they fill their output this many leading entries at a time
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
# oversubscribe the cores. A sample phase holds this lock from start to end,
# so two phases, even in two Python threads, never overlap or interleave a
# pin's save and restore; ``blas_threads`` reads the host's count under it.
# Work that calls no BLAS (dbm's equilibrium reference, solved by dsterf)
# takes no lock, and may run beside a pinned phase on the cores it leaves idle.
BLAS_LOCK = threading.Lock()

# Up to this N a solve gains little from a second BLAS thread, so an
# eigenvalue phase pins BLAS to one thread and each pool worker solves its own.
PIN_MAX_N = 512


def pins(n: int, eigenvalues_only: bool = True) -> bool:
    """Whether ``eigenvalue_phase(n, eigenvalues_only)`` pins OpenBLAS to one thread."""
    return eigenvalues_only and n <= PIN_MAX_N and "threads" in _lapack()


def blas_threads() -> int:
    """The host's OpenBLAS thread count, read under ``BLAS_LOCK`` so that no
    phase's pin is read instead, or 1 without its thread count getter."""
    threads = _lapack().get("threads")
    with BLAS_LOCK:
        return threads[0]() if threads else 1


@contextlib.contextmanager
def eigenvalue_phase(n: int, eigenvalues_only: bool = True):
    """Scope of a sample phase at dimension n, which holds ``BLAS_LOCK`` and
    yields whether it pinned. A phase whose only BLAS calls are
    ``eigenvalues()`` at n <= PIN_MAX_N pins OpenBLAS to one thread, so a
    pool's solves can run concurrently, with bits independent of the pool and
    of the host's thread count, which is restored on exit. Any other phase
    leaves the host's count alone, and its BLAS calls must run one at a time.
    Never nested: a nested phase would deadlock."""
    with BLAS_LOCK:
        if not pins(n, eigenvalues_only):
            yield False
            return
        get, set_ = _lapack()["threads"]
        host = get()
        set_(1)
        try:
            yield True
        finally:
            set_(host)


def _map_indexed(fn, count: int, threads: int) -> list:
    """Apply fn to 0..count-1; result order (hence every report) is
    independent of the thread count."""
    if threads <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(count)))


class WignerSample:
    """A realized matrix h with a lazily computed eigendecomposition cache.

    A sample from ``sample_matrix`` holds only the upper triangle and the
    diagonal of h, all a solve reads; the lower triangle is filled on first
    access to ``h``. ``eigenvalues()`` factorizes h where it lies, so it
    consumes the sample: h is gone afterwards. Call ``eigen_pair()`` first to
    keep h; the eigenvalues then come from its cache.
    """

    def __init__(self, h: np.ndarray, *, mirrored: bool = True):
        self._h = h
        self._mirrored = mirrored
        self._eigenvalues: np.ndarray | None = None
        self._eigenvectors: np.ndarray | None = None

    def _live(self) -> np.ndarray:
        if self._h is None:
            raise RuntimeError("sample consumed: a solve overwrote h; call eigen_pair() first")
        return self._h

    @property
    def h(self) -> np.ndarray:
        h = self._live()
        if not self._mirrored:
            # the bits of U + U^H, U the strict upper triangle, with one N x N
            # temporary; the sign of zero too (x + 0.0 turns -0.0 into +0.0)
            diagonal, u = h.diagonal().copy(), np.triu(h, 1)
            np.conjugate(u.T, out=h)
            np.add(u, h, out=h)
            np.fill_diagonal(h, diagonal)
            self._mirrored = True
        return h

    @property
    def n(self) -> int:
        return (self._live() if self._eigenvectors is None else self._eigenvectors).shape[0]

    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            h, self._h = self._live(), None
            self._eigenvalues = _finite(eigvalsh_inplace(h))
        return self._eigenvalues

    def eigen_pair(self, consume: bool = False):
        """(w, U) with the bits of numpy's ``eigh`` of h, from a copy of h that
        ``eigh_inplace`` overwrites; h is kept. With ``consume`` h itself is
        overwritten, as by ``eigenvalues()``, and U is a view of its memory;
        ``n`` stays readable."""
        if self._eigenvectors is None:
            h = self._live()
            if consume:
                self._h = None
            w, u = eigh_inplace(h if consume else h.copy())
            self._eigenvalues, self._eigenvectors = _finite(w), u
        return self._eigenvalues, self._eigenvectors


def _finite(w: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(w)):
        raise FloatingPointError("eigendecomposition produced non-finite values")
    return w


@functools.cache
def _lapack() -> dict:
    """numpy's bundled ?syevd/?heevd and their work dtypes, by the dtype of h,
    dsterf under "sterf", and OpenBLAS's thread count getter and setter under
    "threads" if it exports them; empty without scipy-openblas. Loaded on first
    use: dlsym on numpy's linalg extension also searches the libraries it links."""
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines = {  # work and iwork; work, rwork and iwork
            np.dtype(float): (lib.scipy_dsyevd_64_, (np.float64, np.int64)),
            np.dtype(complex): (lib.scipy_zheevd_64_, (np.complex128, np.float64, np.int64)),
        }
        sterf = lib.scipy_dsterf_64_
    except (OSError, AttributeError):
        return {}
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    for fn, work in routines.values():
        # jobz, uplo, n, a, lda, w, (array, length) per work array, info and
        # the hidden lengths of jobz and uplo
        fn.argtypes = [ctypes.c_char_p] * 2 + [i64, ptr, i64, ptr] + [ptr, i64] * len(work) + [
            i64, ctypes.c_size_t, ctypes.c_size_t]
        fn.restype = None
    sterf.argtypes, sterf.restype = [i64, ptr, ptr, i64], None  # n, d, e, info
    try:
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:  # no pin: every phase runs its samples one at a time
        return {**routines, "sterf": sterf}
    get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
    return {**routines, "sterf": sterf, "threads": (get, set_)}


def eigvalsh_inplace(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrix h with the bits of
    numpy's ``eigvalsh``, overwriting h. Only h's upper triangle and diagonal
    are read.

    LAPACK (jobz 'N', uplo 'L', 64-bit integers) reads the C-ordered h as
    H^T = conj(H) and reduces it where it lies, without the Fortran-ordered
    copy numpy makes. Without numpy's bundled LAPACK, or for an h it cannot
    take in place, numpy's ``eigvalsh`` does the work on the same H^T.
    """
    w = _evd(h, b"N")
    return np.linalg.eigvalsh(h.T) if w is None else w


def eigh_inplace(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w and eigenvectors U of the Hermitian matrix h
    with the bits of numpy's ``eigh``, overwriting h. Only h's upper triangle
    and diagonal are read.

    As in ``eigvalsh_inplace``, LAPACK (jobz 'V') factorizes H^T = conj(H)
    where it lies. It writes its eigenvectors conj(U) over h as rows, so U is
    the Fortran-ordered view h.T once h is conjugated in place. Without that
    path, numpy's ``eigh`` returns the same conj(U) in a fresh array.
    """
    w = _evd(h, b"V")
    if w is None:
        w, u = np.linalg.eigh(h.T)
    else:
        u = h.T
    if np.iscomplexobj(u):
        # conj as 0 - Im: U's first row is real, with the +0.0 imaginary parts
        # numpy's eigh gives it, and keeps them
        np.subtract(0.0, u.imag, out=u.imag)
    return w, u


def _evd(h: np.ndarray, jobz: bytes) -> np.ndarray | None:
    """Eigenvalues from numpy's bundled ?syevd/?heevd (jobz, uplo 'L', 64-bit
    integers) run on h where it lies, or None without them or unless h is
    square, C-ordered and writeable."""
    fn, work = _lapack().get(h.dtype, (None, ()))
    if fn is None or h.ndim != 2 or h.shape[0] != h.shape[1] or not (
        h.flags.c_contiguous and h.flags.writeable
    ):
        return None
    n, w, info = h.shape[0], np.empty(h.shape[0]), ctypes.c_int64()

    def call(arrays, sizes) -> None:
        sized = [a for arr, size in zip(arrays, sizes)
                 for a in (arr.ctypes.data, ctypes.byref(ctypes.c_int64(size)))]
        fn(jobz, b"L", ctypes.byref(ctypes.c_int64(n)), h.ctypes.data,
           ctypes.byref(ctypes.c_int64(max(1, n))), w.ctypes.data, *sized, ctypes.byref(info), 1, 1)

    # query the workspace, then allocate it, as numpy does
    query = [np.zeros(1, k) for k in work]
    call(query, [-1] * len(work))
    sizes = [int(q[0].real) for q in query]
    call([np.empty(size, k) for size, k in zip(sizes, work)], sizes)
    if info.value:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (LAPACK info {info.value})")
    return w


def eigvalsh_tridiagonal(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, written over d by LAPACK's ``dsterf`` in
    O(n^2) (e is its workspace), with no BLAS call; without numpy's bundled
    LAPACK, numpy's ``eigvalsh`` of the dense matrix runs."""
    if d.ndim != 1 or e.shape != (max(d.size - 1, 0),):
        raise ValueError(f"diagonal {d.shape} and off-diagonal {e.shape} do not match")
    fn = _lapack().get("sterf")
    if fn is None:
        return _finite(np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)))
    d, e, info = np.require(d, float, "CW"), np.require(e, float, "CW"), ctypes.c_int64()
    fn(ctypes.byref(ctypes.c_int64(d.size)), d.ctypes.data, e.ctypes.data, ctypes.byref(info))
    _finite(d)  # a non-finite entry also stops the iteration; name it first
    if info.value:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (LAPACK info {info.value})")
    return d


def derive_stream(master_seed: int, sample_index: int) -> np.random.Generator:
    """Independent, schedule-invariant stream for one sample index."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(sample_index,))
    return np.random.default_rng(ss)


def sample_buffer(n: int, symmetry: str, out: np.ndarray | None = None) -> np.ndarray:
    """An array that can hold an n×n sample of the symmetry class: ``out``,
    which must be a writeable C-ordered n×n array of the class's dtype
    (float64, or complex128 if Hermitian), or a fresh one if None."""
    dtype = {SYMMETRIC: np.dtype(float), HERMITIAN: np.dtype(complex)}.get(symmetry)
    if dtype is None:
        raise ValueError(f"unknown symmetry class {symmetry!r}")
    if out is None:
        return np.empty((n, n), dtype)
    if out.shape != (n, n) or out.dtype != dtype or not (
        out.flags.c_contiguous and out.flags.writeable
    ):
        raise ValueError(f"out must be a writeable C-contiguous {dtype} array of shape "
                         f"{(n, n)}, not {out.dtype} {out.shape}")
    return out


def sample_matrix(
    p: VarianceProfile,
    d: EntryDistribution,
    symmetry: str,
    stream: np.random.Generator,
    out: np.ndarray | None = None,
) -> WignerSample:
    """Draw one matrix with E h_ij = 0 and E |h_ij|^2 = sigma2_ij * scale^2.

    Draw order: the strict upper triangle in row-major order (a Hermitian
    entry is its real part, then its imaginary part), then the diagonal, so
    a sample reads m + n values of its stream, or 2m + n if Hermitian. The
    lower triangle is left unfilled until the sample's ``h`` is read.

    ``out``, checked by ``sample_buffer``, becomes h: its upper triangle and
    diagonal are overwritten and its lower triangle is never read, so
    whatever it held gives the bits of a fresh array.
    """
    n = p.n
    m = n * (n - 1) // 2
    h = sample_buffer(n, symmetry, out)
    # Hermitian: independent real and imaginary parts, each of variance sigma2/2
    var = p.c if symmetry == SYMMETRIC else p.c / 2.0
    # the draws fill the last m entries of h itself; row i's target
    # h[i, i+1:] ends at entry n(i+1) <= n^2 - (n-1-i)(n-i)/2, before its own
    # draws and every later row's, so no row overwrites draws still unread
    upper = h.reshape(-1)[n * n - m :]
    d.draw(stream, out=upper.view(float))
    # the scales sqrt(var[i, i+1:]) are reverse[:n-1-i]
    reverse = np.sqrt(var)[::-1]
    o = 0
    for i in range(n - 1):
        k = n - 1 - i
        np.multiply(upper[o : o + k], reverse[:k], out=h[i, i + 1 :])
        o += k
    np.fill_diagonal(h, d.draw(stream, n) * np.sqrt(p.c[0]))
    return WignerSample(h=h, mirrored=False)


def sample_indexed(p, d, symmetry, master_seed: int, sample_index: int,
                   out: np.ndarray | None = None) -> WignerSample:
    """Sample `sample_index` of the ensemble, drawn from its own stream
    (into ``out`` if given, as in ``sample_matrix``)."""
    return sample_matrix(p, d, symmetry, derive_stream(master_seed, sample_index), out)
