import contextlib
import tracemalloc

import pytest

from wignerlab import sampler


@pytest.fixture(autouse=True)
def blas_threads_restored():
    """Every test leaves OpenBLAS's thread count as it found it, so a pinned
    phase that failed to restore it shows in the test that ran it. Does
    nothing when OpenBLAS exports no thread count getter."""
    threads = sampler._lapack().get("threads")
    before = threads[0]() if threads else None
    yield
    if threads:
        assert threads[0]() == before, "OpenBLAS thread count changed"


@pytest.fixture
def host_blas_threads():
    """``with host_blas_threads(k):`` sets the host's OpenBLAS thread count to
    k and restores it afterwards. Skips the test when OpenBLAS exports no
    thread count setter."""
    threads = sampler._lapack().get("threads")
    if threads is None:
        pytest.skip("OpenBLAS exports no thread count setter")
    get, set_ = threads

    @contextlib.contextmanager
    def at(count):
        host = get()
        set_(count)
        try:
            yield
        finally:
            set_(host)

    return at


def _traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak bytes that tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The ``_traced_peak`` helper: ``out, peak = traced_peak(fn, *args)``."""
    return _traced_peak
