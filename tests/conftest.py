"""Fixtures shared by the test modules."""

import csv
import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def benchmark_workloads():
    """The benchmark's workload module, loaded from its file (read-only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def assert_golden():
    """Check a report's rows against its ``tests/golden/`` file at 1e-10
    relative (``tests/golden/regenerate.py`` writes the files)."""

    def check(report):
        ns = sorted({n for n, _, _ in report.rows if n > 0})
        name = f"{report.example}_n{'-'.join(map(str, ns))}.csv"
        path = Path(__file__).resolve().parent / "golden" / name
        with open(path, encoding="utf-8", newline="") as fh:
            golden = [(int(n), q, float(v)) for n, q, v in list(csv.reader(fh))[1:]]
        assert [row[:2] for row in report.rows] == [row[:2] for row in golden]
        for (n, q, value), (_, _, expected) in zip(report.rows, golden):
            assert value == pytest.approx(expected, rel=1e-10, abs=0.0), (n, q)

    return check
