"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from evohom import cli, experiments, reporting, solver  # noqa: E402,F401


def _evohom_bindings():
    return {
        (key, attr): value
        for key, module in tracer.evohom_modules()
        for attr, value in vars(module).items()
    }


def _small_graded_solution():
    points = np.array([0.0, 0.01, 0.03, 0.07, 0.15, 0.3, 0.45, 0.6])
    problem = workloads.on_grid(experiments.build_run("EX3", 2, rho=1.0), points)
    return points, solver.solve_evolution(problem)


def test_tracer_wraps_every_binding_and_restores_them():
    before = _evohom_bindings()
    with tracer.Tracer():
        # restricted_load is bound in both experiments and reporting.
        assert getattr(experiments.restricted_load, tracer.MARK) == (
            "reporting.restricted_load"
        )
        assert getattr(reporting.restricted_load, tracer.MARK) == (
            "reporting.restricted_load"
        )
        assert getattr(solver.splu, tracer.MARK) == "solver.factor"
        assert tracer.installed_wrappers()
    after = _evohom_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.installed_wrappers() == []


def test_tracer_restores_after_an_exception():
    before = _evohom_bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    after = _evohom_bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_solve_records_factor_and_solve_spans():
    problem = experiments.build_run("EX3", 2, slabs=4)
    untraced = solver.solve_evolution(problem)
    with tracer.Tracer() as spans:
        traced = solver.solve_evolution(problem)
    np.testing.assert_array_equal(traced.coeffs, untraced.coeffs)
    m = tracer.layer_metrics(spans.records())
    assert m["solver.factor.calls"] == 1
    assert m["solver.lu_solve.calls"] == 4
    assert m["timequad.build_radau_rule.calls"] == 4
    assert m["solver.unknowns_max"] == 2 * problem.ndof
    assert m["solver.K_nnz_max"] > 0
    assert m["solver.lu_nnz_max"] >= m["solver.unknowns_max"]
    # The march's self time excludes the factor and solve spans inside it.
    (march,) = [s for s in spans.records() if s[0] == "solver.march"]
    assert 0.0 <= m["solver.march.self_s"] < march[2] - march[1]


def test_missing_target_reads_as_zero_calls(monkeypatch):
    monkeypatch.setitem(
        tracer.TARGETS, "reporting.pairing", ("evohom.reporting", "no_such_name")
    )
    with tracer.Tracer() as spans:
        reporting.pairing  # noqa: B018  (still the original function)
        assert not hasattr(reporting.pairing, tracer.MARK)
    m = tracer.layer_metrics(spans.records())
    assert m["reporting.pairing.calls"] == 0
    assert m["reporting.pairing.self_s"] == 0


def test_layer_metrics_self_and_inclusive_time():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["analytic.ode_exact", 1.0, 3.0, 0, None],
        ["analytic.bessel_i0", 1.5, 2.5, 1, None],
        ["analytic.bessel_i0", 4.0, 5.0, 0, None],
        ["solver.factor", 6.0, 9.0, 0, {"unknowns": 10, "K_nnz": 30, "lu_nnz": 50}],
    ]
    m = tracer.layer_metrics(spans)
    assert m["cli.main.self_s"] == 10.0 - 2.0 - 1.0 - 3.0
    assert m["analytic.s"] == 3.0  # the nested call is not counted twice
    assert m["solver.factor.calls"] == 1
    assert m["solver.lu_nnz_max"] == 50
    assert m["solver.lu_bytes_max"] == tracer.lu_bytes(10, 50)


def test_residual_check_fails_on_a_perturbed_coefficient():
    points, sol = _small_graded_solution()
    norms = experiments.solution_norms(sol)
    march = workloads.GradedMarch()
    assert march.check(points, (sol, norms)) == []
    coeffs = sol.coeffs.copy()
    coeffs[3, 1, 5] *= 1.0 + 1e-6
    bad = solver.EvolutionSolution(sol.problem, coeffs)
    failures = march.check(points, (bad, norms))
    assert len(failures) == 1 and failures[0].startswith("slab ")


def test_golden_row_check_accepts_round_off_and_rejects_a_perturbed_row():
    golden = workloads.golden_rows("EX4")
    assert workloads.compare_rows(dict(golden), golden) == []
    key = ("EX4", 16, "strong_u")
    rounded = dict(golden)
    rounded[key] *= 1.0 + 1e-12
    assert workloads.compare_rows(rounded, golden) == []
    perturbed = dict(golden)
    perturbed[key] *= 1.0 + 1e-4
    assert len(workloads.compare_rows(perturbed, golden)) == 1
    missing = dict(golden)
    del missing[key]
    assert workloads.compare_rows(missing, golden) == [f"missing row {key}"]


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert run.END_TO_END_UNITS == end_to_end
    assert run.PER_LAYER_UNITS == per_layer
    traced = set(tracer.layer_metrics([])) | {
        k for k in run.PER_LAYER_UNITS if k.startswith("trace.")
    }
    assert traced == set(per_layer)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = ["--workload", "sweep-ex3", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_graded_seed_moves_only_the_startup_points():
    a, b = workloads.graded_points(1), workloads.graded_points(2)
    k = workloads.GRADED_STARTUP_SLABS
    assert a.size == b.size == k + workloads.GRADED_TAIL_SLABS + 1
    assert np.all(np.diff(a) > 0.0) and np.all(np.diff(b) > 0.0)
    assert np.all(a[1:k] != b[1:k])
    np.testing.assert_array_equal(a[k:], b[k:])
    np.testing.assert_array_equal(a, workloads.graded_points(1))
