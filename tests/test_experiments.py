"""Experiment registry, sweep drivers, and reference self-consistency.

Anchor values are frozen from this implementation's first validated runs
and cross-checked against the analytic-oracle pairing series (computed
from the closed-form solutions alone, no discretisation): the n = 1
pairing of the oscillating-minus-homogenised solution against v = x is
0.2427626039834412 by dense composite Gauss quadrature (64 x 64 panels,
8-point; refinement changes it below 1e-15).
"""

import math

import numpy as np
import pytest

from evohom.experiments import (
    DEFAULT_N_LISTS,
    EXAMPLES,
    ExperimentSpec,
    build_run,
    convergence_sweep,
    oracle_pairing_series,
    solution_norms,
)
import evohom.experiments as experiments
from evohom.reporting import ConvergenceReport, fit_rate, pairing
from evohom.solver import solve_evolution

ORACLE_PAIR_X_N1 = 0.2427626039834412


class TestExperimentSpec:
    def test_defaults_fill_n_list(self):
        spec = ExperimentSpec("EX1")
        assert spec.n_list == DEFAULT_N_LISTS["EX1"]
        assert spec.slabs == 64
        assert spec.degree == 1
        assert spec.T == 2.0
        assert spec.rho == 0.0

    def test_example_id_is_case_insensitive(self):
        assert ExperimentSpec("ex3").example == "EX3"

    def test_n_list_sorted(self):
        assert ExperimentSpec("EX1", (8, 1, 4)).n_list == (1, 4, 8)

    def test_formula_level_family_not_runnable(self):
        with pytest.raises(ValueError, match="no desk-scale sweep"):
            ExperimentSpec("MAXWELL")

    def test_unknown_example(self):
        with pytest.raises(ValueError, match="unknown example id"):
            ExperimentSpec("EX9")

    def test_bad_indices(self):
        with pytest.raises(ValueError, match="integers >= 1"):
            ExperimentSpec("EX1", (0,))
        with pytest.raises(ValueError, match="integers >= 1"):
            ExperimentSpec("EX1", (1.5,))
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentSpec("EX1", (2, 2))

    def test_bad_knobs(self):
        with pytest.raises(ValueError, match="slabs"):
            ExperimentSpec("EX1", slabs=0)
        with pytest.raises(ValueError, match="degree"):
            ExperimentSpec("EX2", degree=0)
        with pytest.raises(ValueError, match="final time"):
            ExperimentSpec("EX1", T=0.0)
        with pytest.raises(ValueError, match="rho"):
            ExperimentSpec("EX1", rho=-0.5)

    @pytest.mark.parametrize(
        "knob, value",
        [("slabs", 2.5), ("slabs", True), ("degree", 1.7), ("degree", True)],
        ids=["slabs-fraction", "slabs-bool", "degree-fraction", "degree-bool"],
    )
    def test_non_integer_knobs_rejected(self, knob, value):
        # a fraction or a bool is no count: refused, not truncated
        with pytest.raises(ValueError, match=knob):
            ExperimentSpec("EX2", (1,), **{knob: value})
        with pytest.raises(ValueError, match=knob):
            build_run("EX2", 1, **{knob: value})

    def test_grid(self):
        grid = ExperimentSpec("EX1", T=2.0, slabs=16).grid()
        assert grid.num_slabs == 16
        assert not grid.length_classes().any()


class TestBuildRun:
    @pytest.mark.parametrize(
        "example,n", [("EX1", 1), ("EX2", 1), ("EX3", 2), ("EX4", 1), ("EX5", 1)]
    )
    def test_every_family_solves(self, example, n):
        sol = solve_evolution(build_run(example, n, slabs=4))
        norms = solution_norms(sol)
        assert all(np.isfinite(v) and v > 0.0 for v in norms.values())

    def test_component_names_from_law(self):
        sol = solve_evolution(build_run("EX3", 2, slabs=2))
        assert set(solution_norms(sol)) == {"u", "v"}

    def test_rejects_formula_level_family(self):
        with pytest.raises(ValueError, match="no desk-scale sweep"):
            build_run("MAXWELL", 1)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError, match="degree"):
            build_run("EX2", 1, degree=0)


class TestOraclePairingSeries:
    def test_reference_value(self):
        series = oracle_pairing_series((1,), "x")
        assert series[0][0] == 1
        assert series[0][1] == pytest.approx(ORACLE_PAIR_X_N1, abs=1e-8)

    def test_first_order_decay(self):
        series = oracle_pairing_series((1, 2, 4, 8), "x")
        assert fit_rate(series) == pytest.approx(-1.0, abs=0.02)


@pytest.fixture(scope="module")
def ex1_report():
    return convergence_sweep(ExperimentSpec("EX1", (1, 2, 4, 8, 16)))


@pytest.fixture(scope="module")
def ex3_report():
    return convergence_sweep(ExperimentSpec("EX3", (2, 4, 8)))


class TestEX1Sweep:
    @pytest.fixture
    def report(self, ex1_report):
        return ex1_report

    def test_matches_analytic_oracle(self, report):
        # Discrete pairing agrees with the pure-quadrature oracle value.
        assert report.value(1, "pair_u_x") == pytest.approx(
            ORACLE_PAIR_X_N1, rel=2e-2
        )

    def test_halving_anchor(self, report):
        # Consecutive indices halve the pairing: n=2 lands on half the
        # n=1 value (the published curve's 1.2138e-1 anchor).
        assert report.value(2, "pair_u_x") == pytest.approx(1.2138e-1, rel=0.1)
        assert report.value(1, "pair_u_x") == pytest.approx(2.4276e-1, rel=0.1)

    def test_first_order_slope(self, report):
        assert -1.2 <= report.value(0, "slope_pair_u_x") <= -0.8

    def test_constant_in_space_tests_floor(self, report):
        # v = 1 and v = t see only the discretisation floor: the exact
        # space-average of the oscillating solution is n-independent and
        # equals the homogenised solution.
        for name in ("pair_u_1", "pair_u_t"):
            assert all(v < 1e-4 for _, v in report.series(name))

    def test_no_slope_for_flat_floor_series(self):
        # pair_u_1 and pair_u_t do not depend on n, so a fitted slope would
        # be roundoff; the rows themselves stay
        report = convergence_sweep(ExperimentSpec("EX1", (1, 2, 4)))
        quantities = {q for _, q, _ in report.rows}
        assert {"pair_u_1", "pair_u_t", "slope_pair_u_x"} <= quantities
        assert not quantities & {"slope_pair_u_1", "slope_pair_u_t"}

    def test_report_round_trip(self, report, tmp_path):
        path = tmp_path / "ex1.csv"
        report.write(path)
        text = path.read_text()
        assert text.splitlines()[0] == "example,n,quantity,value"
        assert f"EX1,1,pair_u_x,{report.value(1, 'pair_u_x'):.12e}" in text


class TestEX3Sweep:
    @pytest.fixture
    def report(self, ex3_report):
        return ex3_report

    def test_quantity_set(self, report):
        pair = [q for q in report.quantities() if q.startswith("pair_")]
        strong = [q for q in report.quantities() if q.startswith("strong_")]
        assert len(pair) == 16  # 2 components x 2 halves x 4 spatial tests
        assert sorted(strong) == [
            "strong_u_left",
            "strong_u_right",
            "strong_v_left",
            "strong_v_right",
        ]

    def test_left_anchor(self, report):
        # Frozen from the first validated run of this driver; the
        # published curve anchor 2.6876e-2 brackets it within 35%.
        assert report.value(2, "pair_u_left_1") == pytest.approx(
            2.043131e-2, rel=1e-6
        )

    def test_coupled_half_converges_strongly(self, report):
        series = report.series("strong_u_left")
        assert series[-1][1] < 0.6 * series[0][1]

    def test_oscillating_half_stagnates(self, report):
        series = report.series("strong_u_right")
        assert series[-1][1] > 0.9 * series[0][1]


class TestSweepMechanics:
    def test_requires_spec(self):
        with pytest.raises(TypeError, match="ExperimentSpec"):
            convergence_sweep("EX1")

    def test_jobs_deterministic(self, assert_golden):
        # EX4 runs complex SuperLU factorisations in the worker threads; at
        # jobs > 1 the reference is solved alongside the runs, longest first
        for spec in (
            ExperimentSpec("EX1", (1, 2, 4)),
            ExperimentSpec("EX3", (1, 2)),
            ExperimentSpec("EX4", (1, 2)),
        ):
            seq = convergence_sweep(spec, jobs=1)
            assert_golden(seq)
            ns = [n for n, q, _ in seq.rows if not q.startswith("slope_")]
            assert ns == sorted(ns) and set(ns) == set(spec.n_list)
            for jobs in (2, 3):
                assert convergence_sweep(spec, jobs=jobs).rows == seq.rows

    @pytest.mark.parametrize(
        "example, n_list", [("EX2", (1, 2, 4)), ("EX3", (2, 4, 8))], ids=["EX2", "EX3"]
    )
    def test_degree_two_weighted_sweep(self, example, n_list):
        # degree 2 (reference at degree 3) under the weighted Radau rule
        spec = ExperimentSpec(example, n_list, degree=2, rho=0.5)
        seq = convergence_sweep(spec, jobs=1)
        assert all(math.isfinite(v) for _, _, v in seq.rows)
        assert convergence_sweep(spec, jobs=2).rows == seq.rows
        plain = convergence_sweep(ExperimentSpec(example, n_list, degree=2))
        assert len(plain.rows) == len(seq.rows)
        for (n, q, v), (n0, q0, v0) in zip(seq.rows, plain.rows):
            assert (n, q) == (n0, q0) and v != v0

    @pytest.mark.parametrize("level", [7, -3])
    def test_bad_reference_level_rejected(self, tmp_path, level):
        path = tmp_path / "sweep.csv"
        with pytest.raises(ValueError, match="reference_level must be 0 or 1"):
            convergence_sweep(ExperimentSpec("EX3", (1, 2)), out=path, reference_level=level)
        assert not path.exists()

    def test_csv_written(self, tmp_path):
        path = tmp_path / "sweep.csv"
        report = convergence_sweep(ExperimentSpec("EX1", (1, 2, 4)), out=path)
        back = ConvergenceReport(
            "EX1",
            tuple(
                (int(line.split(",")[1]), line.split(",")[2], float(line.split(",")[3]))
                for line in path.read_text().splitlines()[1:]
            ),
        )
        assert back.quantities() == report.quantities()

    def test_failure_flushes_error_row(self, tmp_path, monkeypatch):
        calls = []

        def boom(spec, ctx, n, sol):
            if n > 1:
                raise RuntimeError("synthetic failure")
            calls.append(n)
            return [(n, "pair_u_x", 1.0)]

        monkeypatch.setattr(experiments, "_report", boom)
        path = tmp_path / "partial.csv"
        with pytest.raises(RuntimeError, match="synthetic failure"):
            convergence_sweep(ExperimentSpec("EX1", (1, 2)), out=path)
        lines = path.read_text().splitlines()
        assert lines[-1].startswith("EX1,0,error,nan")
        assert any(",pair_u_x," in line for line in lines)
        assert calls == [1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reference_failure_flushes_error_row(self, tmp_path, monkeypatch, jobs):
        def failing_reference(spec, level):
            raise RuntimeError("reference failed")

        monkeypatch.setattr(experiments, "_prepare", failing_reference)
        solved = []
        run_problem = experiments.run_problem

        def counted_run(spec, n):
            solved.append(n)
            return run_problem(spec, n)

        monkeypatch.setattr(experiments, "run_problem", counted_run)
        path = tmp_path / "partial.csv"
        with pytest.raises(RuntimeError, match="reference failed"):
            convergence_sweep(ExperimentSpec("EX3", (1, 2)), out=path, jobs=jobs)
        assert path.read_text().splitlines()[-1] == "EX3,0,error,nan"
        if jobs == 1:  # the reference fails before any run starts
            assert solved == []


class TestEX2Sweep:
    def test_no_roundoff_rows_for_conserved_mean(self):
        # v's mean is conserved at 0, so its pairings with "1" and "t" are
        # roundoff and are not reported
        report = convergence_sweep(ExperimentSpec("EX2", (1, 2, 4)))
        quantities = report.quantities()
        assert "pair_u_1" in quantities and "pair_u_t" in quantities
        assert "pair_v_x" in quantities
        names = {q for _, q, _ in report.rows}
        for q in ("pair_v_1", "pair_v_t", "slope_pair_v_1", "slope_pair_v_t"):
            assert q not in names
        sol = solve_evolution(build_run("EX2", 2))
        assert abs(pairing(sol, "1", component=1)) <= 1e-12
        assert abs(pairing(sol, "t", component=1)) <= 1e-12


class TestReferenceSelfConsistency:
    """Two reference resolutions must tell the same story."""

    @pytest.mark.parametrize(
        "example, n_list",
        [("EX2", (1, 2)), ("EX3", (2, 4)), ("EX4", (2, 4))],
        ids=["EX2", "EX3", "EX4"],
    )
    def test_reference_levels_agree(self, example, n_list):
        # jobs=2 only for speed: rows do not depend on jobs
        spec = ExperimentSpec(example, n_list)
        a = convergence_sweep(spec, jobs=2, reference_level=0)
        b = convergence_sweep(spec, jobs=2, reference_level=1)
        for q in a.quantities():
            if q.startswith("slope_"):
                continue
            for n, va in a.series(q):
                vb = b.value(n, q)
                assert (
                    abs(va - vb) <= 0.1 * max(abs(va), abs(vb))
                    or abs(va - vb) < 1e-5
                )

    def test_ex5_dichotomy(self, assert_golden):
        report = convergence_sweep(ExperimentSpec("EX5", (2, 4, 8, 16)), jobs=2)
        assert_golden(report)
        su = report.series("strong_u")
        assert su[0][1] / su[-1][1] >= 4.0
        sv = report.series("strong_v")
        assert abs(sv[-1][1] - sv[-2][1]) <= 0.25 * sv[-2][1]
        for name in ("x0", "0y", "sinpix0", "0sinpiy", "1"):
            series = report.series(f"pair_v_{name}")
            tail = [v for n, v in series if n >= 8]
            assert all(x > y for x, y in zip(tail, tail[1:]))


def test_examples_registry():
    assert EXAMPLES == ("EX1", "EX2", "EX3", "EX4", "EX5")
    assert set(DEFAULT_N_LISTS) == set(EXAMPLES)


def test_ex3_sweep_matches_benchmark_golden_rows(benchmark_workloads):
    # the rows the benchmark gates on: a change that moves one fails here too
    sweep = benchmark_workloads.Sweep("EX3")
    argv = sweep.setup(0)
    assert sweep.check(argv, sweep.run(argv)) == []
