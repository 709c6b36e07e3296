"""Tests for the one-BLAS-thread policy.

Thread counts are read through the same ``ctypes`` getters the setter uses.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from scipy.sparse.linalg import splu

import evohom.blas as blas
import evohom.solver as solver
from evohom.experiments import ExperimentSpec, convergence_sweep

CONTROLS = blas._thread_controls(blas._OPENBLAS)
SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT_S = 60.0


def counts():
    return [get() for get, _, _ in CONTROLS]


@pytest.mark.skipif(sys.platform != "linux", reason="wheel layout of Linux")
def test_finds_scipy_and_numpy_openblas():
    assert len(CONTROLS) == 2


def test_missing_library_is_skipped():
    absent = (("numpy", "libnot-there-*.so", "get", "set"),)
    assert blas._thread_controls(absent) == []
    # a library that is there but lacks the symbols is skipped too
    package, pattern = blas._OPENBLAS[0][:2]
    wrong_symbols = ((package, pattern, "no_such_get", "no_such_set"),)
    assert blas._thread_controls(wrong_symbols) == []


def test_importing_the_solver_sets_one_thread():
    # a fresh interpreter: both libraries at 3 threads until the solver
    # loads, and then no thread but the main one (the wheels are Linux's)
    if not CONTROLS:
        pytest.skip("no bundled OpenBLAS found")
    script = textwrap.dedent(
        """
        import json, os
        import evohom.blas as blas
        controls = blas._thread_controls(blas._OPENBLAS)
        for _, set_, _ in controls:
            set_(3)
        before = [get() for get, _, _ in controls]
        import evohom.solver
        after = [get() for get, _, _ in controls]
        print(json.dumps([before, after, len(os.listdir("/proc/self/task"))]))
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        check=True,
    )
    n = len(CONTROLS)
    assert json.loads(done.stdout) == [[3] * n, [1] * n, 1]


def test_sweep_factors_on_one_thread(monkeypatch):
    seen = []

    def recording_splu(matrix, **options):
        seen.append(counts())
        return splu(matrix, **options)

    monkeypatch.setattr(solver, "splu", recording_splu)
    convergence_sweep(ExperimentSpec("EX4", (1, 2)), jobs=2)
    # the reference and the two runs, each on one uniform grid
    assert seen == [[1] * len(CONTROLS)] * 3
