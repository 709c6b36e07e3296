"""Tests for the space-time dG(1) slab march."""

import functools
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import evohom.solver as solver
from evohom.analytic import ode_exact
from evohom.experiments import _FAMILIES, ExperimentSpec, _ex45_problem, build_run
from evohom.fields import Constant, RegionIndicator, SineOsc
from evohom.homogenise import build_limit_law
from evohom.laws import MaterialLaw, MemoryTerm, augment_memory, example_material
from evohom.meshes import build_mesh
from evohom.operators import assemble_skew_operator
from evohom.solver import EvolutionProblem, assemble_slab_system, solve_evolution
from evohom.spaces import (
    GaussLineSpace,
    build_space,
    collocated_mass,
    eval_matrix_1d,
    restricted_load,
)
from evohom.timequad import TRACE_LEFT, TRACE_RIGHT, TimeGrid, temporal_basis

# names the one component of the problems whose masses are preassembled
_UNIT_LAW = MaterialLaw(1, {(0, 0): Constant(1.0)}, {})


def _scalar_problem(m0=1.0, m1=1.0, grid=None, forcing=(), u0=0.0, rho=0.0):
    """One spatial DOF (P0 on a unit cell): the scheme reduces to an ODE."""
    space = GaussLineSpace(build_mesh((0.0, 1.0), 1), 0)
    op = assemble_skew_operator("zero", (space,))
    grid = grid or TimeGrid.uniform(1.0, 8)
    return EvolutionProblem(
        (space,),
        _UNIT_LAW,
        op,
        grid,
        forcing=forcing,
        u0=np.array([float(u0)]),
        rho=rho,
        m0mat=sp.csr_matrix(np.array([[float(m0)]])),
        m1mat=sp.csr_matrix(np.array([[float(m1)]])),
    )


class TestExactReproduction:
    # rho = 16 puts rho*h at 2, where cond(V) of the temporal pencil is 14
    @pytest.mark.parametrize("rho", [0.0, 1.0, 16.0])
    def test_constant_steady_state(self, rho):
        # d/dt u + u = 1 with u(0) = 1 stays at 1 exactly
        problem = _scalar_problem(
            forcing=[(lambda t: 1.0, np.array([1.0]))], u0=1.0, rho=rho
        )
        sol = solve_evolution(problem)
        assert np.max(np.abs(sol.coeffs[:, 0, 0] - 1.0)) <= 1e-12
        assert np.max(np.abs(sol.coeffs[:, 1, 0])) <= 1e-12

    @pytest.mark.parametrize("rho", [0.0, 0.7])
    def test_linear_in_time_exact(self, rho):
        # 2 u' + 3 u = 2b + 3(a + b t) has exact solution a + b t
        a, b = 0.4, 1.3
        problem = _scalar_problem(
            m0=2.0,
            m1=3.0,
            grid=TimeGrid.uniform(2.0, 5),
            forcing=[
                (lambda t: 1.0, np.array([2.0 * b + 3.0 * a])),
                (lambda t: t, np.array([3.0 * b])),
            ],
            u0=a,
            rho=rho,
        )
        sol = solve_evolution(problem)
        for m in range(1, 6):
            tm = problem.grid.slab(m)[1]
            assert sol.right_trace(m)[0] == pytest.approx(a + b * tm, abs=1e-11)
            # interior value at the slab midpoint, where l1 vanishes
            tmid = 0.5 * sum(problem.grid.slab(m))
            assert (temporal_basis(0.5) @ sol.coeffs[m - 1])[0] == pytest.approx(
                a + b * tmid, abs=1e-11
            )

    def test_pure_transport_ct(self):
        # u' = c with u(0) = 0: u = c t reproduced exactly (M1 = 0)
        c = 2.5
        problem = _scalar_problem(
            m0=1.0,
            m1=0.0,
            grid=TimeGrid.uniform(1.0, 4),
            forcing=[(lambda t: 1.0, np.array([c]))],
        )
        sol = solve_evolution(problem)
        for m in range(1, 5):
            tm = problem.grid.slab(m)[1]
            assert sol.right_trace(m)[0] == pytest.approx(c * tm, abs=1e-12)

    def test_zero_data_zero_solution(self):
        problem = _scalar_problem()
        sol = solve_evolution(problem)
        assert np.max(np.abs(sol.coeffs)) == 0.0


class TestConvergenceOrders:
    def _ode_right_trace_error(self, num_slabs):
        # u' + u = cos t + sin t, u(0) = 0  =>  u = sin t
        problem = _scalar_problem(
            grid=TimeGrid.uniform(1.0, num_slabs),
            forcing=[(lambda t: math.cos(t) + math.sin(t), np.array([1.0]))],
        )
        sol = solve_evolution(problem)
        return abs(sol.right_trace(num_slabs)[0] - math.sin(1.0))

    def test_right_trace_superconvergence(self):
        e4 = self._ode_right_trace_error(4)
        e8 = self._ode_right_trace_error(8)
        ratio = e4 / e8
        assert 6.5 <= ratio <= 9.5  # third order at the mesh points

    def _ode_l2_error(self, num_slabs):
        problem = _scalar_problem(
            grid=TimeGrid.uniform(1.0, num_slabs),
            forcing=[(lambda t: math.cos(t) + math.sin(t), np.array([1.0]))],
        )
        sol = solve_evolution(problem)
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(4)
        tau = 0.5 * (gauss_x + 1.0)
        total = 0.0
        for m in range(1, num_slabs + 1):
            t0, t1 = problem.grid.slab(m)
            pts = t0 + (t1 - t0) * tau
            w = 0.5 * (t1 - t0) * gauss_w
            vals = (temporal_basis(tau).T @ sol.coeffs[m - 1])[:, 0]
            total += float(w @ (vals - np.sin(pts)) ** 2)
        return math.sqrt(total)

    def test_l2_halving_ratio(self):
        e16 = self._ode_l2_error(16)
        e32 = self._ode_l2_error(32)
        assert e16 / e32 >= 3.5  # second order in the slab width


class TestOscillatingODEFamily:
    def test_collocated_midpoint_march_matches_closed_form(self):
        # forcing 1, coefficient sin(2 pi x) sampled at P0 midpoints:
        # every node solves u' + s_i u = 1 independently
        n, ncells, num_slabs, T = 1, 10, 64, 2.0
        mesh = build_mesh((0.0, 1.0), ncells)
        space = GaussLineSpace(mesh, 0)
        m0mat = collocated_mass(space)
        m1mat = collocated_mass(space, SineOsc(n))
        op = assemble_skew_operator("EX1", (space,))
        grid = TimeGrid.uniform(T, num_slabs)
        b = restricted_load(space, 1.0)
        problem = EvolutionProblem(
            (space,),
            _UNIT_LAW,
            op,
            grid,
            forcing=[(lambda t: 1.0, b)],
            m0mat=m0mat,
            m1mat=m1mat,
        )
        sol = solve_evolution(problem)

        nodes = space.nodes_global
        wts = space.weights_global
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(4)
        tau = 0.5 * (gauss_x + 1.0)
        total = 0.0
        for m in range(1, num_slabs + 1):
            t0, t1 = grid.slab(m)
            pts = t0 + (t1 - t0) * tau
            w = 0.5 * (t1 - t0) * gauss_w
            values = temporal_basis(tau).T @ sol.coeffs[m - 1]
            for t, wq, u in zip(pts, w, values):
                diff = u - ode_exact(n, t, nodes)
                total += wq * float(wts @ diff**2)
        err = math.sqrt(total)
        assert err <= 1e-3
        assert err > 1e-6  # sanity: the march is not trivially exact


class TestIntrinsicVariable:
    def _augmented_problem(self, num_slabs, T=1.0):
        # original law: m0 = 1, m1 = 2, memory term -2/(1+z) on (0, 1);
        # augmentation appends w with 2 w' + 2 w - 2 v = 0
        law = MaterialLaw(
            1,
            {(0, 0): Constant(1.0)},
            {(0, 0): Constant(2.0)},
            memory={(0, 0): (MemoryTerm(-2.0, 1.0, 1.0, RegionIndicator(0.0, 1.0)),)},
            component_names=("v",),
        )
        aug = augment_memory(law)
        assert aug.law.ncomp == 2
        mesh = build_mesh((0.0, 1.0), 1)
        space = GaussLineSpace(mesh, 0)
        spaces = (space, space)
        op = assemble_skew_operator("zero", spaces)

        two_pi = 2.0 * math.pi

        def w_exact(t):
            return (
                math.sin(two_pi * t)
                - two_pi * math.cos(two_pi * t)
                + two_pi * math.exp(-t)
            ) / (1.0 + two_pi**2)

        def g(t):
            return (
                two_pi * math.cos(two_pi * t)
                + 2.0 * math.sin(two_pi * t)
                - 2.0 * w_exact(t)
            )

        problem = EvolutionProblem(
            spaces,
            aug.law,
            op,
            TimeGrid.uniform(T, num_slabs),
            forcing=[(g, np.array([1.0, 0.0]))],
        )
        return problem, w_exact

    def test_augmented_masses(self):
        problem, _ = self._augmented_problem(4)
        assert np.allclose(problem.m0mat.toarray(), np.diag([1.0, 2.0]))
        assert np.allclose(
            problem.m1mat.toarray(), np.array([[2.0, -2.0], [-2.0, 2.0]])
        )

    def test_intrinsic_variable_second_order(self):
        errors = {}
        for num_slabs in (16, 32):
            problem, w_exact = self._augmented_problem(num_slabs)
            sol = solve_evolution(problem)
            errs = [
                abs(sol.right_trace(m)[1] - w_exact(problem.grid.slab(m)[1]))
                for m in range(1, num_slabs + 1)
            ]
            errors[num_slabs] = max(errs)
        assert errors[16] / errors[32] >= 3.0
        assert errors[32] <= 5e-3


class TestSolutionInterface:
    def test_coeffs_read_only(self):
        sol = solve_evolution(_scalar_problem())
        with pytest.raises(ValueError):
            sol.coeffs[0, 0, 0] = 1.0
        # built once per solution
        assert sol.coeffs is sol.coeffs

    @staticmethod
    def _mirrored(axes):
        """A small problem mirrored in x and y (the EX4 limit), in y (an EX4
        run) or not at all (an EX3 run)."""
        spec = ExperimentSpec("EX4" if axes else "EX3", slabs=4)
        if axes == (0, 1):
            law = build_limit_law("EX4")
            return _ex45_problem(spec, build_mesh(law.domain, (6, 6)), 2, law)
        return build_run(spec.example, 1, slabs=4)

    @pytest.mark.parametrize("axes", [(0, 1), (1,), ()], ids=["xy", "y", "none"])
    def test_stored_on_the_basis_unfolds_to_the_march(self, axes):
        problem = self._mirrored(axes)
        assert tuple(solver._mirrors(problem)) == axes
        sol = solve_evolution(problem)
        assert sol.stored.shape == (4, 2, solver._solve_basis(problem).shape[1])
        assert np.array_equal(sol.coeffs, np.stack([c for _, c in solver.march(problem)]))
        for m in range(1, 5):
            assert np.array_equal(sol.right_trace(m), TRACE_RIGHT @ sol.coeffs[m - 1])

    def test_component_slices(self):
        problem, _ = TestIntrinsicVariable()._augmented_problem(4)
        assert problem.component_slice(0) == slice(0, 1)
        assert problem.component_slice(1) == slice(1, 2)

    def test_determinism(self):
        def run():
            problem = _scalar_problem(
                grid=TimeGrid.uniform(1.0, 16),
                forcing=[(lambda t: math.cos(t), np.array([1.0]))],
            )
            return solve_evolution(problem).coeffs

        assert np.array_equal(run(), run())

    def test_evaluate_solution_pointwise(self):
        mesh = build_mesh((0.0, 1.0), 4)
        space = GaussLineSpace(mesh, 0)
        problem = EvolutionProblem(
            (space,),
            _UNIT_LAW,
            assemble_skew_operator("zero", (space,)),
            TimeGrid.uniform(1.0, 4),
            forcing=[(lambda t: 1.0, restricted_load(space, 1.0))],
            m0mat=collocated_mass(space),
            m1mat=collocated_mass(space, 0.0),
        )
        sol = solve_evolution(problem)
        # t = 0.5 ends slab 2
        vals = eval_matrix_1d(space, np.array([0.1, 0.6])) @ sol.right_trace(2)
        assert np.allclose(vals, 0.5, atol=1e-12)  # u = t, constant in x


class TestProblemValidation:
    def test_mass_kwarg_pairing(self):
        space = GaussLineSpace(build_mesh((0.0, 1.0), 1), 0)
        op = assemble_skew_operator("zero", (space,))
        grid = TimeGrid.uniform(1.0, 2)
        with pytest.raises(ValueError, match="both m0mat and m1mat"):
            EvolutionProblem((space,), _UNIT_LAW, op, grid, m0mat=sp.eye(1))

    def test_forcing_shape_checked(self):
        space = GaussLineSpace(build_mesh((0.0, 1.0), 1), 0)
        op = assemble_skew_operator("zero", (space,))
        grid = TimeGrid.uniform(1.0, 2)
        with pytest.raises(ValueError, match="stacked over all DOFs"):
            EvolutionProblem(
                (space,),
                _UNIT_LAW,
                op,
                grid,
                forcing=[(lambda t: 1.0, np.zeros(3))],
                m0mat=sp.eye(1),
                m1mat=sp.eye(1),
            )

    def test_operator_shape_checked(self):
        space = GaussLineSpace(build_mesh((0.0, 1.0), 2), 0)
        op = assemble_skew_operator("zero", (space, space))
        grid = TimeGrid.uniform(1.0, 2)
        with pytest.raises(ValueError, match="M0, M1 and A must match"):
            EvolutionProblem(
                (space,), _UNIT_LAW, op, grid, m0mat=sp.eye(2), m1mat=sp.eye(2)
            )
        with pytest.raises(ValueError, match="M0, M1 and A must match"):
            EvolutionProblem((space,), _UNIT_LAW, op, grid)

    @pytest.mark.parametrize("form", [np.asarray, sp.coo_matrix, sp.csr_matrix])
    def test_operator_in_any_format(self, form):
        # A is stored as CSR like the masses; a dense one crashed the march
        run = build_run("EX3", 2, slabs=4)
        problem = EvolutionProblem(
            run.spaces,
            run.law,
            form(run.operator.toarray()),
            run.grid,
            forcing=run.forcing,
            m0mat=run.m0mat,
            m1mat=run.m1mat,
        )
        assert np.array_equal(solve_evolution(problem).coeffs, solve_evolution(run).coeffs)

    def test_slab_index_checked(self):
        problem = _scalar_problem()
        with pytest.raises(ValueError, match="out of range"):
            assemble_slab_system(problem, 0, np.zeros(1))

    def test_nonuniform_grid_refactorises(self):
        # piecewise grid with two slab widths; u' = 1 must still be exact
        grid = TimeGrid(np.array([0.0, 0.1, 0.3, 0.6, 1.0]))
        problem = _scalar_problem(
            m0=1.0, m1=0.0, grid=grid, forcing=[(lambda t: 1.0, np.array([1.0]))]
        )
        sol = solve_evolution(problem)
        for m in range(1, 5):
            tm = grid.slab(m)[1]
            assert sol.right_trace(m)[0] == pytest.approx(tm, abs=1e-12)


class TestTwoDimensionalSmoke:
    def test_ex4_small_march(self):
        law = example_material("EX4", n=1)
        mesh = build_mesh(
            ((-2.0, 2.0), (-2.0, 2.0)), (10, 4), alignment=1, osc_region=(-1.0, 1.0)
        )
        su = build_space(mesh, "q", 1, zero_trace=True)
        spaces = (su, *build_space(mesh, "rt", 0))
        op = assemble_skew_operator("EX4", spaces)
        ndof = op.shape[0]
        b = np.zeros(ndof)
        b[: su.ndof] = np.kron(
            restricted_load(su.sx, 1.0), restricted_load(su.sy, 1.0)
        )
        problem = EvolutionProblem(
            spaces,
            law,
            op,
            TimeGrid.uniform(0.5, 4),
            forcing=[(lambda t: math.sin(2.0 * math.pi * t), b)],
        )
        sol = solve_evolution(problem)
        assert np.all(np.isfinite(sol.coeffs))
        assert np.max(np.abs(sol.right_trace(4))) > 1e-8


class TestPencilSolve:
    """The complex N x N slab solve against the real 2N x 2N slab system."""

    # lengths 0.05 (three times), 0.12, 0.08 and 0.15
    GRID = TimeGrid(np.array([0.0, 0.05, 0.1, 0.22, 0.3, 0.35, 0.5]))

    @staticmethod
    def _problem(example, degree, rho):
        """The family's run at n = 1; for EX5 its limit law, whose memory
        entry adds an intrinsic component, on a coarse mesh."""
        if example != "EX5":
            return build_run(example, 1, degree=degree, rho=rho)
        law = build_limit_law("EX5")
        spec = ExperimentSpec("EX5", (1,), degree=degree, rho=rho)
        return _ex45_problem(spec, build_mesh(law.domain, (10, 10)), degree, law)

    @pytest.mark.parametrize("rho", [0.0, 0.7, 2.0])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("example", ["EX2", "EX3", "EX4", "EX5"])
    def test_matches_real_slab_system(self, benchmark_workloads, example, degree, rho):
        problem = benchmark_workloads.on_grid(
            self._problem(example, degree, rho), self.GRID.t_points
        )
        sol = solve_evolution(problem)
        factors = {}  # the real system's LU per slab length (GRID has 4)
        prev_ref = prev = problem.m0mat @ problem.u0
        for m in range(1, self.GRID.num_slabs + 1):
            K, b = assemble_slab_system(problem, m, prev)
            # the datum enters the right-hand side only through the jump term
            b_ref = b + np.kron(TRACE_LEFT, prev_ref - prev)
            t_left, t_right = self.GRID.slab(m)
            h = round(t_right - t_left, 12)
            if h not in factors:
                factors[h] = splu(K)
            x = factors[h].solve(b_ref)
            y = np.concatenate(sol.coeffs[m - 1])
            assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)
            assert np.linalg.norm(K @ y - b) <= 1e-10 * np.linalg.norm(b)
            prev_ref = problem.m0mat @ (x[: problem.ndof] + x[problem.ndof :])
            prev = problem.m0mat @ sol.right_trace(m)

    def _count_factorisations(self, monkeypatch, grid, rho=0.0):
        calls = []

        def counting_splu(matrix, **options):
            calls.append(matrix.shape)
            return splu(matrix, **options)

        monkeypatch.setattr(solver, "splu", counting_splu)
        problem = _scalar_problem(
            grid=grid, forcing=[(lambda t: 1.0, np.array([1.0]))], rho=rho
        )
        solve_evolution(problem)
        assert all(shape == (1, 1) for shape in calls)  # N, not 2N, unknowns
        return len(calls)

    def test_one_factorisation_on_uniform_grid(self, monkeypatch):
        # the 30 lengths of this grid take 6 distinct values a few ulps apart
        assert self._count_factorisations(monkeypatch, TimeGrid.uniform(2.0, 30)) == 1

    RUNS = {"graded-0": 9, "graded-1": 9, "graded-7": 9, "GRID": 5, "roundoff": 3}

    @pytest.mark.parametrize("name", RUNS)
    def test_one_factorisation_per_run_of_equal_lengths(
        self, benchmark_workloads, monkeypatch, name
    ):
        if name.startswith("graded-"):
            # 8 geometric start-up slabs of distinct lengths and a uniform tail
            points = benchmark_workloads.graded_points(int(name[len("graded-"):]))
            assert len(points) == 16
        elif name == "GRID":
            # 0.05 comes back after 0.12: a new run, refactorised
            points = self.GRID.t_points
        else:
            # lengths 0.1, 0.1 to roundoff, 0.2 and 0.2 * (1 + 1e-9)
            points = np.cumsum([0.0, 0.1, 0.1, 0.2, 0.2 * (1.0 + 1e-9)])
        grid = TimeGrid(points)
        assert self._count_factorisations(monkeypatch, grid, rho=1.0) == self.RUNS[name]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_previous_factorisation_released(
        self, benchmark_workloads, monkeypatch, seed
    ):
        # each start-up slab is a run of its own: the last run's LU is
        # dropped before the next one is factorised, not after
        live_at_call = []
        factors = []

        class Factor:
            def __init__(self, lu):
                self.solve = lu.solve

        def tracking_splu(matrix, **options):
            live_at_call.append(sum(ref() is not None for ref in factors))
            factor = Factor(splu(matrix, **options))
            factors.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(solver, "splu", tracking_splu)
        grid = TimeGrid(benchmark_workloads.graded_points(seed))
        problem = _scalar_problem(
            grid=grid, forcing=[(lambda t: 1.0, np.array([1.0]))], rho=1.0
        )
        solve_evolution(problem)
        assert live_at_call == [0] * 9

    @pytest.mark.parametrize("rho_h", [8.0, 16.0, 100.0])
    def test_coalescing_pencil_raises(self, rho_h):
        problem = _scalar_problem(grid=TimeGrid.uniform(1.0, 4), rho=4.0 * rho_h)
        with pytest.raises(ArithmeticError, match=f"rho\\*h = {rho_h:.3g}"):
            solve_evolution(problem)


class TestCellDissection:
    """The nested-dissection ordering of every factorisation of the march."""

    def test_line_order(self):
        # P1 nodes 0..4 on 4 cells: each half's middle node is its
        # separator, and the middle node 2 is numbered last
        space = build_space(build_mesh((0.0, 1.0), 4), "cg", 1)
        assert solver.cell_dissection((space,)).tolist() == [0, 1, 4, 3, 2]

    def test_periodic_dof_spans_the_line(self):
        # node 0 joins both ends, so it straddles the first cut with node 2
        space = build_space(build_mesh((0.0, 1.0), 4), "cg", 1, periodic=True)
        ((lo, hi),) = space.dof_cells()
        assert lo.tolist() == [0, 0, 1, 2] and hi.tolist() == [4, 2, 3, 4]
        assert solver.cell_dissection((space,)).tolist() == [1, 3, 0, 2]

    def test_tensor_support_is_the_product(self):
        space = build_space(build_mesh(((0.0, 1.0), (0.0, 1.0)), (2, 3)), "dgq", 0)
        (x_lo, x_hi), (y_lo, y_hi) = space.dof_cells()
        # x-major: DOF 3 is cell (1, 0)
        assert (x_lo[3], x_hi[3], y_lo[3], y_hi[3]) == (1, 2, 0, 1)
        assert np.all(x_hi - x_lo == 1) and np.all(y_hi - y_lo == 1)

    def test_one_dof(self):
        assert solver.cell_dissection(_scalar_problem().spaces).tolist() == [0]

    def test_solve_basis_without_mirror_is_the_permutation(self):
        problem = build_run("EX3", 2)
        p = solver.cell_dissection(problem.spaces)
        basis = solver._solve_basis(problem)
        # column j is the unit vector at p[j]
        assert np.array_equal(basis.toarray(), np.eye(problem.ndof)[:, p])
        for m in (problem.m0mat, problem.m1mat + problem.operator):
            assert abs(basis.T @ m @ basis - m[p][:, p]).max() == 0.0

    @staticmethod
    @functools.lru_cache
    def _run(example, degree):
        return build_run(example, 1, degree=degree)

    @staticmethod
    def _first_factor(monkeypatch, problem):
        factors = []

        def recording_splu(matrix, **options):
            factors.append(splu(matrix, **options))
            return factors[-1]

        monkeypatch.setattr(solver, "splu", recording_splu)
        slabs = solver.march(problem)
        next(slabs)
        slabs.close()
        return factors[0]

    def test_less_fill_than_colamd(self, monkeypatch):
        # 0.132 M entries on the 2 400 unknowns left by the mirror in y
        # (0.276 M on all 4 801); COLAMD makes 0.459 M of the full,
        # unpermuted pencil
        lu = self._first_factor(monkeypatch, build_run("EX4", 2))
        assert lu.nnz <= 350_000

    @pytest.mark.parametrize("rho", [0.0, 2.0])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("example", ["EX1", "EX2", "EX3", "EX4", "EX5"])
    def test_permutation_with_diagonal_pivots(self, monkeypatch, example, degree, rho):
        # EX1 is diagonal and EX2 has a periodic DOF; the first slab's
        # factorisation makes no off-diagonal pivot
        run = self._run(example, degree)  # re-posed at rho: only lam moves
        problem = EvolutionProblem(
            run.spaces,
            run.law,
            run.operator,
            run.grid,
            forcing=run.forcing,
            rho=rho,
            m0mat=run.m0mat,
            m1mat=run.m1mat,
        )
        identity = np.arange(problem.ndof)
        assert np.array_equal(np.sort(solver.cell_dissection(problem.spaces)), identity)
        # a mirror-symmetric problem factors fewer unknowns than its DOFs
        perm_r = self._first_factor(monkeypatch, problem).perm_r
        assert np.array_equal(perm_r, np.arange(perm_r.size))


class TestMirrors:
    """The march on the invariant subspace of a problem's mirrors."""

    # u even, vx even, vy odd in y; vx odd in x; the memory variable of the
    # EX5 limit follows vy
    RUN = {1: (1, 1, -1)}
    REFERENCE = {
        "EX4": {0: (1, -1, 1), 1: (1, 1, -1)},
        "EX5": {0: (1, -1, 1, 1), 1: (1, 1, -1, -1)},
    }

    @staticmethod
    def _reference(example):
        """The family's level-0 reference problem, as a sweep poses it."""
        family, spec = _FAMILIES[example], ExperimentSpec(example)
        law = family.ref_law(example)
        return family.build(spec, family.ref_mesh(law.domain, 0), spec.degree + 1, law)

    @staticmethod
    def _reposed(run, forcing, u0):
        """``run`` with its data replaced."""
        return EvolutionProblem(
            run.spaces,
            run.law,
            run.operator,
            run.grid,
            forcing=forcing,
            u0=u0,
            rho=run.rho,
            m0mat=run.m0mat,
            m1mat=run.m1mat,
        )

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("example", ["EX4", "EX5"])
    def test_runs_mirrored_in_y(self, example, degree):
        assert solver._mirrors(build_run(example, 2, degree=degree)) == self.RUN

    @pytest.mark.parametrize("example", ["EX4", "EX5"])
    def test_references_mirrored_in_x_and_y(self, example):
        assert solver._mirrors(self._reference(example)) == self.REFERENCE[example]

    @pytest.mark.parametrize("example", ["EX1", "EX2", "EX3"])
    def test_one_dimensional_families_have_none(self, example):
        assert solver._mirrors(build_run(example, 2)) == {}
        assert solver._mirrors(build_run(example, 2, degree=2)) == {}

    @pytest.mark.parametrize("iy, mirrors", [(10, {}), (39, RUN)])
    def test_load_off_the_mirror_line_breaks_it(self, iy, mirrors):
        # u is Q1 on (20, 80) cells with zero trace: 19 x 79 DOFs, x-major,
        # and the line y = 0 holds the DOFs iy = 39; the same holds for the
        # load moved as the initial datum
        run = build_run("EX4", 2)
        ((g, load),) = run.forcing
        moved = load.copy()
        moved[3 * 79 + iy] *= 1.01
        assert solver._mirrors(self._reposed(run, [(g, moved)], None)) == mirrors
        assert solver._mirrors(self._reposed(run, run.forcing, moved)) == mirrors

    def test_problem_holds_data_only(self, monkeypatch):
        # the mirrors are detected by the march, not by the problem
        def refuse(problem):
            raise AssertionError("mirror detection")

        monkeypatch.setattr(solver, "_mirrors", refuse)
        problem = build_run("EX4", 2)
        assert not hasattr(problem, "mirrors")
        with pytest.raises(AssertionError, match="mirror detection"):
            next(solver.march(problem))

    def test_march_carries_its_datum_on_the_basis(self, monkeypatch):
        sizes = []

        def recording_rhs(forcing, rule, prev):
            sizes.append((prev.size, *(b.size for _, b in forcing)))
            return slab_rhs(forcing, rule, prev)

        slab_rhs = solver._slab_rhs
        monkeypatch.setattr(solver, "_slab_rhs", recording_rhs)
        problem = build_run("EX4", 2, slabs=4)
        solve_evolution(problem)
        assert problem.ndof == 4801 and sizes == [(2400, 2400)] * 4

    def test_first_factor_on_half_the_unknowns(self, monkeypatch):
        problem = build_run("EX4", 2)
        lu = TestCellDissection._first_factor(monkeypatch, problem)
        assert (problem.ndof, lu.shape[0]) == (4801, 2400)

    @pytest.mark.parametrize("example, size", [("EX4", 4800), ("EX5", 6400)])
    def test_basis_spans_the_fixed_vectors(self, example, size):
        problem = self._reference(example)
        basis = solver._solve_basis(problem)
        assert basis.shape == (problem.ndof, size)
        for axis, signs in solver._mirrors(problem).items():
            sign = np.repeat(signs, np.diff(problem.offsets))
            perm = solver._reflection(problem, axis)
            mirror = sp.csr_matrix((sign, perm, np.arange(problem.ndof + 1)))
            assert abs(mirror @ basis - basis).max() == 0.0
        # disjoint orbits of 1, 2 or 4 DOFs with entries +-1
        gram = (basis.T @ basis).tocoo()
        assert np.array_equal(gram.row, gram.col) and set(gram.data) <= {1.0, 2.0, 4.0}
        assert set(np.abs(basis.data)) == {1.0}

    @staticmethod
    def _assert_full_march_agrees(monkeypatch, problem):
        """The march on the basis against the march with no mirror."""
        reduced = solve_evolution(problem).coeffs
        monkeypatch.setattr(solver, "_mirrors", lambda problem: {})
        assert solver._solve_basis(problem).shape[1] == problem.ndof
        for a, b in zip(reduced, solve_evolution(problem).coeffs):
            assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)

    @pytest.mark.parametrize("rho", [0.0, 0.7])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("example", ["EX4", "EX5"])
    def test_reduced_march_matches_full(self, monkeypatch, example, degree, rho):
        problem = build_run(example, 2, degree=degree, rho=rho, slabs=8)
        assert solver._mirrors(problem) == self.RUN
        self._assert_full_march_agrees(monkeypatch, problem)

    def test_reduced_march_from_initial_data(self, monkeypatch):
        # the u-load is even in y: as the initial datum it keeps the mirror,
        # and the march folds M0 u0 once
        run = build_run("EX4", 2, slabs=8)
        ((_, load),) = run.forcing
        problem = self._reposed(run, run.forcing, load)
        assert solver._mirrors(problem) == self.RUN
        self._assert_full_march_agrees(monkeypatch, problem)
