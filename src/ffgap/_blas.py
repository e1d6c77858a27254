"""Run-time thread counts of the OpenBLAS copies that numpy and scipy bundle.

Their setters and getters are found through ctypes on first use, not at
import; where a library or symbol is absent, every call here is a no-op.
"""

import contextlib
import ctypes
import functools
import glob
import os


@functools.cache
def _pools() -> tuple:
    """(setter, getter) of every bundled OpenBLAS that exports them."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):  # numpy's ILP64 build, scipy's LP64 build
                setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    found.append((setter, getter))
    return tuple(found)


def set_threads(k: int) -> None:
    """Cap every bundled OpenBLAS at k threads; k below 1 is refused."""
    if k < 1:
        raise ValueError(f"need at least 1 BLAS thread, got {k}")
    for setter, _ in _pools():
        setter(k)


@contextlib.contextmanager
def single_thread():
    """Run the block (or decorated function) with every bundled OpenBLAS on one thread."""
    saved = [(setter, getter()) for setter, getter in _pools()]
    set_threads(1)
    try:
        yield
    finally:
        for setter, k in saved:
            setter(k)
