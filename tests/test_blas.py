"""Tests for the one-BLAS-thread block.

Thread counts are read through the same ``ctypes`` getters the helper uses.
Each test first sets every library to 3 threads, so that the cap and the
restore show even where the default count is already 1.
"""

import sys
import threading

import pytest
from scipy.sparse.linalg import splu

import evohom.blas as blas
import evohom.solver as solver
from evohom.blas import one_blas_thread
from evohom.experiments import build_run

CONTROLS = blas._thread_controls(blas._OPENBLAS)
TIMEOUT_S = 30.0


def counts():
    return [get() for get, _ in CONTROLS]


@pytest.fixture
def three_threads():
    if not CONTROLS:
        pytest.skip("no bundled OpenBLAS found")
    saved = counts()
    for _, set_ in CONTROLS:
        set_(3)
    try:
        yield [3] * len(CONTROLS)
    finally:
        for (_, set_), count in zip(CONTROLS, saved):
            set_(count)


@pytest.mark.skipif(sys.platform != "linux", reason="wheel layout of Linux")
def test_finds_scipy_and_numpy_openblas():
    assert len(CONTROLS) == 2


def test_one_thread_inside_restored_after(three_threads):
    with one_blas_thread():
        assert counts() == [1] * len(CONTROLS)
    assert counts() == three_threads
    assert blas._depth == 0


def test_nested_blocks(three_threads):
    with one_blas_thread():
        with one_blas_thread():
            assert counts() == [1] * len(CONTROLS)
        assert counts() == [1] * len(CONTROLS)
    assert counts() == three_threads


def test_exception_inside_restores(three_threads):
    with pytest.raises(RuntimeError, match="inside"):
        with one_blas_thread():
            raise RuntimeError("inside")
    assert counts() == three_threads
    assert blas._depth == 0


def test_two_threads_last_exit_restores(three_threads):
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = {}

    def first():
        with one_blas_thread():
            first_in.set()
            second_in.wait(TIMEOUT_S)
        first_out.set()

    def second():
        first_in.wait(TIMEOUT_S)
        with one_blas_thread():
            second_in.set()
            first_out.wait(TIMEOUT_S)
            seen["after_first_exit"] = counts()

    threads = [threading.Thread(target=f) for f in (first, second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(TIMEOUT_S)
        assert not t.is_alive()
    assert seen["after_first_exit"] == [1] * len(CONTROLS)
    assert counts() == three_threads


def test_many_threads_stress(three_threads):
    # more threads than cores, switching often: a lost update of the depth
    # would restore the count while a block is still open, or never
    wrong = []

    def worker():
        for _ in range(200):
            with one_blas_thread():
                if counts() != [1] * len(CONTROLS):
                    wrong.append(counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT_S)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert blas._depth == 0
    assert counts() == three_threads


def test_missing_library_is_skipped(monkeypatch):
    absent = (("numpy", "libnot-there-*.so", "get", "set"),)
    assert blas._thread_controls(absent) == []
    # a library that is there but lacks the symbols is skipped too
    package, pattern = blas._OPENBLAS[0][:2]
    wrong_symbols = ((package, pattern, "no_such_get", "no_such_set"),)
    assert blas._thread_controls(wrong_symbols) == []
    monkeypatch.setattr(blas, "_controls", [])
    with one_blas_thread():
        assert blas._depth == 1
    assert blas._depth == 0


def test_solve_evolution_factors_on_one_thread(three_threads, monkeypatch):
    seen = []

    def recording_splu(matrix, **options):
        seen.append(counts())
        return splu(matrix, **options)

    monkeypatch.setattr(solver, "splu", recording_splu)
    solver.solve_evolution(build_run("EX3", 1, slabs=4))
    assert seen == [[1] * len(CONTROLS)]
    assert counts() == three_threads
