"""One OpenBLAS thread for the process.

The march's sparse LU (SuperLU inside scipy) calls the OpenBLAS bundled
with scipy, and numpy's linear algebra calls the one bundled with numpy.
Both start one thread per core.  On the solves of this package the extra
threads buy no wall time but burn CPU, and when a sweep runs solves in
parallel threads they compete with those threads for the same cores.
:func:`set_one_thread` sets both libraries to one thread and stops their
helper threads; :mod:`evohom.solver` calls it once, when it is imported,
so the process keeps one BLAS thread from then on.

A helper thread busy-waits for about 0.1 s after its library loads, and
scipy's loads late in the package's import, so unstopped it would spin
through the first solves.  OpenBLAS starts its helpers anew only for a call
on more than one thread.

The libraries are found and loaded through ``ctypes``.  A library that
cannot be found (another platform, another BLAS build) is left alone, and
no environment variable is read or set.
"""

import ctypes
import glob
import importlib
import os

__all__ = ["set_one_thread"]

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
_STOP_HELPERS = "blas_thread_shutdown_"  # the same name in both libraries


def _thread_controls(libraries):
    """``(get, set, stop)`` of every library found: its thread-count getter
    and setter and the function that stops its helper threads."""
    controls = []
    for package, pattern, get_name, set_name in libraries:
        module = importlib.import_module(package)
        site = os.path.dirname(os.path.dirname(os.path.abspath(module.__file__)))
        for path in sorted(glob.glob(os.path.join(site, package + ".libs", pattern))):
            try:
                lib = ctypes.CDLL(path)
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                stop = getattr(lib, _STOP_HELPERS)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            stop.argtypes, stop.restype = [], ctypes.c_int
            controls.append((get, set_, stop))
    return controls


def set_one_thread():
    """Set every bundled OpenBLAS found to one thread and stop its helpers.

    Call it before any thread makes BLAS calls: changing the count while
    another thread is inside one is not safe.
    """
    for _, set_, stop in _thread_controls(_OPENBLAS):
        set_(1)
        stop()
