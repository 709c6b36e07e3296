"""Fixtures shared by the test modules."""

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
