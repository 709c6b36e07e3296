"""One OpenBLAS thread for the duration of a block.

The march's sparse LU (SuperLU inside scipy) calls the OpenBLAS bundled
with scipy, and numpy's linear algebra calls the one bundled with numpy.
Both start one thread per core.  On the solves of this package the extra
threads buy no wall time but burn CPU, and when a sweep runs solves in
parallel threads they compete with those threads for the same cores.
:func:`one_blas_thread` sets both libraries to one thread while a block
runs and then restores the count they had.

The libraries are found and loaded through ``ctypes`` when this module is
imported, so their start-up (OpenBLAS starts its helper threads, which
busy-wait for about 0.1 s) is paid by the import and not by the first
block.  A library that cannot be found (another platform, another BLAS
build) is left alone.  Thread counts change only inside a block, and no
environment variable is read or set.
"""

import contextlib
import ctypes
import glob
import importlib
import os
import threading

__all__ = ["one_blas_thread"]

# (package, library file in the wheel's <package>.libs, getter, setter)
_OPENBLAS = (
    (
        "scipy",
        "libscipy_openblas-*.so",
        "scipy_openblas_get_num_threads",
        "scipy_openblas_set_num_threads",
    ),
    (
        "numpy",
        "libscipy_openblas64_-*.so",
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_set_num_threads64_",
    ),
)


def _thread_controls(libraries):
    """``(get, set)`` thread-count functions of every library found."""
    controls = []
    for package, pattern, get_name, set_name in libraries:
        module = importlib.import_module(package)
        site = os.path.dirname(os.path.dirname(os.path.abspath(module.__file__)))
        for path in sorted(glob.glob(os.path.join(site, package + ".libs", pattern))):
            try:
                lib = ctypes.CDLL(path)
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return controls


# The thread count is a property of the process, not of a caller, so the
# state that guards it is too: nested and concurrent blocks share one cap,
# the first entry saves the counts and the last exit restores them.
_lock = threading.Lock()
_controls = _thread_controls(_OPENBLAS)
_depth = 0
_saved = []


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every bundled OpenBLAS on one thread.

    Re-entrant and safe to enter from several threads at once.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(set_, get()) for get, set_ in _controls]
            for set_, _ in _saved:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, count in _saved:
                    set_(count)
                _saved = []
