"""Tests for pairings, strong norms, rate fits, and CSV reports."""

import importlib
import io
import math

import numpy as np
import pytest
import scipy.sparse as sp

from evohom.analytic import i0_antiderivative, ode_exact
from evohom.experiments import (
    ExperimentSpec,
    _ex3_problem,
    _ex45_problem,
    run_problem,
    solution_norms,
)
import evohom.reporting as reporting
from evohom.homogenise import build_limit_law
from evohom.fields import Constant
from evohom.laws import MaterialLaw, example_material
from evohom.meshes import build_mesh
from evohom.operators import assemble_skew_operator
from evohom.reporting import (
    ConvergenceReport,
    eval_matrix_1d,
    fit_rate,
    pairing,
    pairing_reader,
    restricted_load,
    slab_gauss,
    strong_norm_diff,
    strong_norm_reader,
    write_csv,
)
from evohom.solver import EvolutionProblem, EvolutionSolution, solve_evolution
from evohom.spaces import (
    TensorSpace,
    build_space,
    gauss_panels,
    gram1d,
    gram2d,
    merge_cuts,
)
from evohom.timequad import TimeGrid, temporal_basis

# Independently derived by dense tensor-Gauss quadrature of the analytic
# solutions (stable to 6e-17 under refinement): the oracle pairing
# int_0^2 int_0^1 (u_1(t,x) - u_hom(t)) x dx dt for the oscillating ODE
# family at n = 1 with unit-step forcing.
ORACLE_PAIRING_X_N1 = 0.2427626039834412

# Gauss points per merged cell and direction of the strong-norm oracles:
# exact for squared differences of operands up to degree 3.
_ORACLE_POINTS = 4


def _coefficients_at(sol, m, ts, k):
    """Spatial coefficients of component k at the times ts of slab m + 1."""
    t0, t1 = sol.grid.t_points[m : m + 2]
    c = sol.coeffs[m][:, sol.problem.component_slice(k)]
    return temporal_basis((ts - t0) / (t1 - t0)).T @ c


def _norm_on(u, ref, k, subdomain):
    """strong_norm_diff of a solution u on a subdomain, read by its reader."""
    return strong_norm_reader(u.problem, ref, k, subdomain)(u.coeffs)


def _unit_law(ncomp):
    """A law of unit masses: it names the components of a problem whose
    masses are preassembled."""
    return MaterialLaw(ncomp, {(i, i): Constant(1.0) for i in range(ncomp)}, {})


def _linear_solution(
    ncells=4, span=(0.0, 1.0), fn=None, u0=None, slabs=8, grid=None, degree=1
):
    """Solve M u' = b with b the load of ``fn``: u(t, x) = t * fn_proj(x)."""
    mesh = build_mesh(span, ncells)
    space = build_space(mesh, "cg", degree)
    op = assemble_skew_operator("zero", (space,))
    mass = gram1d(space, space)
    b = restricted_load(space, fn if fn is not None else 1.0)
    problem = EvolutionProblem(
        (space,),
        _unit_law(1),
        op,
        grid or TimeGrid.uniform(2.0, slabs),
        forcing=((lambda t: 1.0, b),),
        u0=u0,
        m0mat=mass,
        m1mat=sp.csr_matrix(mass.shape),
    )
    return solve_evolution(problem)


def _vector_solution(cells=(2, 2), span=((-2.0, 2.0), (-2.0, 2.0)), degree=0):
    """2-D flux pair with vx(t,x,y) = t*x and vy = 0 exactly (RT of ``degree``)."""
    mesh = build_mesh(span, cells)
    su = build_space(mesh, "q", 1, zero_trace=True)
    vx, vy = build_space(mesh, "rt", degree)
    spaces = (su, vx, vy)
    op = assemble_skew_operator("zero", (su,))
    from evohom.operators import extend_with_zero_components

    op = extend_with_zero_components(op, [vx.ndof, vy.ndof])
    mass = sp.block_diag(
        [gram2d(su, su), gram2d(vx, vx), gram2d(vy, vy)], format="csr"
    )
    b = np.concatenate(
        [
            np.zeros(su.ndof),
            np.kron(
                restricted_load(vx.sx, lambda x: x),
                restricted_load(vx.sy, 1.0),
            ),
            np.zeros(vy.ndof),
        ]
    )
    problem = EvolutionProblem(
        spaces,
        _unit_law(3),
        op,
        TimeGrid.uniform(2.0, 8),
        forcing=((lambda t: 1.0, b),),
        m0mat=mass,
        m1mat=sp.csr_matrix(mass.shape),
    )
    return solve_evolution(problem)


class TestPairingCallable:
    def test_unit_cylinder(self):
        grid = TimeGrid.uniform(2.0, 8)
        val = pairing(1.0, "1", domain=(0.0, 1.0), grid=grid)
        assert val == pytest.approx(2.0, rel=1e-13)

    def test_orthogonal_sine(self):
        grid = TimeGrid.uniform(2.0, 8)
        val = pairing(
            lambda t, x: np.sin(2.0 * np.pi * x),
            "1",
            domain=(0.0, 1.0),
            grid=grid,
        )
        assert abs(val) <= 1e-12

    def test_oracle_reference_value(self):
        grid = TimeGrid.uniform(2.0, 64)
        val = pairing(
            lambda t, x: ode_exact(1, t, x) - i0_antiderivative(t),
            "x",
            domain=(0.0, 1.0),
            grid=grid,
        )
        assert val == pytest.approx(ORACLE_PAIRING_X_N1, abs=1e-9)

    def test_needs_grid_and_domain(self):
        with pytest.raises(ValueError, match="TimeGrid"):
            pairing(1.0, "1", domain=(0.0, 1.0))
        with pytest.raises(ValueError, match="domain"):
            pairing(1.0, "1", grid=TimeGrid.uniform(1.0, 2))


EMPTY = [(1.0, 0.0), (0.5, 0.5), (0.5, 0.5 + 1e-11)]  # within 1e-10, reversed
NON_FINITE = [(0.0, math.nan), (0.0, math.inf)]


@pytest.mark.parametrize(
    "path, domain",
    [("solution", d) for d in EMPTY] + [("callable", d) for d in EMPTY + NON_FINITE],
)
def test_pairing_refuses_an_empty_domain(path, domain):
    # u(t, x) = t * x as a solution, x as a callable
    grid = TimeGrid.uniform(1.0, 2)
    if path == "solution":
        u, extra = _linear_solution(fn=lambda x: x, grid=grid), {}
    else:
        u, extra = (lambda t, x: x), {"grid": grid}
    with pytest.raises(ValueError, match="empty restriction interval"):
        pairing(u, "1", domain=domain, **extra)


class TestPairingSolution:
    def test_linear_exact_values(self):
        sol = _linear_solution(fn=lambda x: x)  # u = t*x
        assert pairing(sol, "x") == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert pairing(sol, "x2") == pytest.approx(0.5, rel=1e-12)
        assert pairing(sol, "t") == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert pairing(sol, "1") == pytest.approx(1.0, rel=1e-12)

    def test_subdomain_restriction(self):
        sol = _linear_solution(fn=lambda x: x)
        val = pairing(sol, "x", domain=(0.5, 1.0))
        assert val == pytest.approx(2.0 * 7.0 / 24.0, rel=1e-12)

    def test_offgrid_subdomain(self):
        # cut point 0.55 interior to a cell: load splitting keeps it exact
        sol = _linear_solution(fn=lambda x: x)
        val = pairing(sol, "x", domain=(0.55, 1.0))
        exact = 2.0 * (1.0 - 0.55**3) / 3.0
        assert val == pytest.approx(exact, rel=1e-12)

    def test_dictionary_mismatch(self):
        sol = _linear_solution()
        with pytest.raises(ValueError, match="dictionary mismatch"):
            pairing(sol, "x0")
        with pytest.raises(ValueError, match="dictionary mismatch"):
            pairing(sol, "no_such_test")

    def test_vector_pairings(self):
        sol = _vector_solution()
        # vx = t*x, vy = 0 on [0,2] x (-2,2)^2
        assert pairing(sol, "x0") == pytest.approx(128.0 / 3.0, rel=1e-12)
        assert abs(pairing(sol, "0y")) <= 1e-12
        # <t*x, sin(pi x)> = int t * int_y * int x sin(pi x) = 2*4*(-4/pi)
        assert pairing(sol, "sinpix0") == pytest.approx(-32.0 / math.pi, rel=1e-6)
        assert abs(pairing(sol, "1")) <= 1e-12  # odd in x
        box = ((0.0, 2.0), (-2.0, 2.0))
        val = pairing(sol, "1", domain=box)
        assert val == pytest.approx(2.0 * 2.0 * 4.0, rel=1e-12)

    def test_scalar_test_on_tensor_component(self):
        sol = _vector_solution()
        with pytest.raises(ValueError, match="dictionary mismatch"):
            pairing(sol, "x", component=1)


class TestStrongNormDiff:
    def test_self_is_zero(self):
        sol = _linear_solution(fn=lambda x: x)
        assert strong_norm_diff(sol, sol) == 0.0

    def test_constants(self):
        mesh = build_mesh((0.0, 1.0), 4)
        space = build_space(mesh, "cg", 1)
        op = assemble_skew_operator("zero", (space,))
        mass = gram1d(space, space)
        problem = EvolutionProblem(
            (space,),
            _unit_law(1),
            op,
            TimeGrid.uniform(2.0, 4),
            u0=3.0 * np.ones(space.ndof),
            m0mat=mass,
            m1mat=sp.csr_matrix(mass.shape),
        )
        sol = solve_evolution(problem)  # u = 3 for all t
        val = strong_norm_diff(sol, 1.0)
        assert val == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_cross_mesh_agreement(self):
        a = _linear_solution(ncells=4, fn=lambda x: x)
        b = _linear_solution(ncells=6, fn=lambda x: x)
        assert strong_norm_diff(a, b) <= 1e-12

    def test_subdomain(self):
        sol = _linear_solution(fn=lambda x: x)
        val = _norm_on(sol, 0.0, 0, (0.5, 1.0))
        assert val == pytest.approx(math.sqrt(7.0) / 3.0, rel=1e-12)

    def test_degree_three_reference_integrated_exactly(self):
        # the squared difference of a P1 and a P3 solution is of degree 6
        # on each merged cell: 4 points per cell are exact, 3 are 2.9e-3
        # (relative) off here.  The oracle takes 6 points per cell of the
        # union partition and 4 Gauss times per slab.
        fn = lambda x: np.sin(3.0 * x) + x**3
        a = _linear_solution(ncells=4, fn=fn, slabs=3)
        b = _linear_solution(ncells=3, fn=fn, slabs=3, degree=3)
        cuts = np.union1d(*(s.problem.spaces[0].mesh.boundaries for s in (a, b)))
        rx, rw = np.polynomial.legendre.leggauss(6)
        h = np.diff(cuts)[:, None]
        xs = (cuts[:-1, None] + 0.5 * h * (rx + 1.0)).ravel()
        ws = (0.5 * h * rw).ravel()
        evals = [eval_matrix_1d(s.problem.spaces[0], xs) for s in (a, b)]
        rt, rwt = np.polynomial.legendre.leggauss(4)
        acc = 0.0
        for m, (t0, t1) in enumerate(zip(a.grid.t_points[:-1], a.grid.t_points[1:])):
            ts = t0 + 0.5 * (t1 - t0) * (rt + 1.0)
            d = evals[0] @ _coefficients_at(a, m, ts, 0).T
            d -= evals[1] @ _coefficients_at(b, m, ts, 0).T
            acc += (0.5 * (t1 - t0) * rwt) @ (ws @ (d * d))
        expected = math.sqrt(acc)
        assert expected > 1e-4
        for u, ref in ((a, b), (b, a)):
            assert strong_norm_diff(u, ref) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_tensor_component(self):
        sol = _vector_solution()
        assert strong_norm_diff(sol, lambda t, xg, yg: t * xg, component=1) <= 1e-12
        val = strong_norm_diff(sol, 0.0, component=1)
        assert val == pytest.approx(math.sqrt(512.0) / 3.0, rel=1e-12)

    def test_tensor_point_order(self):
        # anisotropic mesh and domain: swapping x and y would pair t*x with
        # a y-grid of another extent and cell count
        sol = _vector_solution(cells=(3, 5), span=((-2.0, 2.0), (-1.0, 1.0)))
        val = strong_norm_diff(sol, lambda t, xg, yg: t * xg + yg, component=1)
        assert val == pytest.approx(math.sqrt(16.0 / 3.0), rel=1e-12)

    def test_tensor_subdomain_cut_inside_a_cell(self):
        sol = _vector_solution(cells=(3, 5), span=((-2.0, 2.0), (-1.0, 1.0)))
        box = ((0.0, 2.0), (-1.0, 0.5))  # y = 0.5 lies inside (0.2, 0.6)
        val = _norm_on(sol, 0.0, 1, box)
        assert val == pytest.approx(math.sqrt(32.0 / 3.0), rel=1e-12)

    def test_tensor_cross_mesh_and_degree(self):
        span = ((-2.0, 2.0), (-1.0, 1.0))
        a = _vector_solution(cells=(3, 5), span=span, degree=0)
        b = _vector_solution(cells=(2, 4), span=span, degree=1)
        assert strong_norm_diff(a, b, component=1) <= 1e-12
        assert strong_norm_diff(b, a, component=1) <= 1e-12

    @pytest.mark.parametrize("subdomain", [None, ((-1.0, 0.3), (-0.7, 2.0))])
    def test_tensor_matches_kronecker_evaluation(self, subdomain):
        # Against one 2-D evaluation matrix kron(Ex, Ey) per operand.  EX5's
        # oscillating law has no memory but its limit has: the memory (dgq)
        # component is compared between limits of degree 1 and 2.
        spec = ExperimentSpec("EX5", slabs=4)
        span = ((-2.0, 2.0), (-2.0, 2.0))

        def limit(cells, degree):
            law = build_limit_law("EX5")
            problem = _ex45_problem(spec, build_mesh(span, cells), degree, law)
            return solve_evolution(problem)

        sol = solve_evolution(run_problem(spec, 1))
        lim, ref = limit((12, 6), 1), limit((8, 8), 2)
        assert len(sol.problem.spaces) == 3 and len(ref.problem.spaces) == 4
        cases = [(sol, k) for k in range(3)] + [(lim, 3)]
        tq, wq = slab_gauss(sol.grid)
        dx, dy = subdomain or ((None, None), (None, None))
        for u, k in cases:
            spaces = [s.problem.spaces[k] for s in (u, ref)]
            xs, wx = gauss_panels(merge_cuts([s.sx for s in spaces], *dx), _ORACLE_POINTS)
            ys, wy = gauss_panels(merge_cuts([s.sy for s in spaces], *dy), _ORACLE_POINTS)
            eu, er = (
                sp.kron(eval_matrix_1d(s.sx, xs), eval_matrix_1d(s.sy, ys)).tocsr()
                for s in spaces
            )
            ws = np.kron(wx, wy)
            acc = 0.0
            for m in range(tq.shape[0]):
                d = eu @ _coefficients_at(u, m, tq[m], k).T
                d -= er @ _coefficients_at(ref, m, tq[m], k).T
                acc += wq[m] @ (ws @ (d * d))
            val = _norm_on(u, ref, k, subdomain)
            assert val > 0.0
            assert val == pytest.approx(math.sqrt(acc), rel=1e-13, abs=0.0)

    def test_nonuniform_grids_exact(self):
        # u = c*t is reproduced exactly by dG(1) on any time grid
        c = 1.5
        a = _linear_solution(fn=c, grid=TimeGrid([0.0, 0.1, 0.35, 0.4, 1.2, 2.0]))
        assert strong_norm_diff(a, lambda t, xs: np.full_like(xs, c * t)) <= 1e-12
        assert pairing(a, "t") == pytest.approx(c * 8.0 / 3.0, rel=1e-14)

    def test_needs_one_time_grid(self):
        a = _linear_solution(grid=TimeGrid([0.0, 0.1, 0.35, 0.4, 1.2, 2.0]))
        b = _linear_solution(ncells=6, grid=TimeGrid([0.0, 0.7, 0.75, 1.5, 1.55, 2.0]))
        c = _linear_solution(slabs=5)
        for u, ref in ((a, b), (b, a), (a, c), (c, _linear_solution())):
            with pytest.raises(ValueError, match="one time grid"):
                strong_norm_diff(u, ref)

    def test_incompatible_components(self):
        a = _linear_solution()
        b = _vector_solution()
        with pytest.raises(ValueError, match="incompatible components"):
            strong_norm_diff(a, b)

    def test_needs_a_solution(self):
        with pytest.raises(ValueError, match="discrete solution"):
            strong_norm_diff(1.0, 2.0)



# Operands that are neither a solution, a real constant nor a callable.
BAD_OPERANDS = ["x", b"x", 1j, None, np.bool_(True), object()]
BAD_IDS = ["str", "bytes", "complex", "None", "numpy-bool", "object"]


class TestOperandRule:
    """An operand is a solution, a ``numbers.Real`` constant or a callable."""

    @pytest.mark.parametrize("bad", BAD_OPERANDS, ids=BAD_IDS)
    def test_strong_norm_refuses(self, bad):
        with pytest.raises(TypeError, match="is not a solution, a real constant or a callable"):
            strong_norm_diff(_linear_solution(), bad)

    @pytest.mark.parametrize("bad", BAD_OPERANDS, ids=BAD_IDS)
    def test_pairing_refuses(self, bad):
        with pytest.raises(TypeError, match="is not a solution, a real constant or a callable"):
            pairing(bad, "1", domain=(0.0, 1.0), grid=TimeGrid.uniform(2.0, 8))

    def test_real_numbers_are_constants(self):
        sol, grid = _linear_solution(), TimeGrid.uniform(2.0, 8)
        for real in (np.float32(0.5), 0.5, 1 / 2):
            assert strong_norm_diff(sol, real) == strong_norm_diff(sol, 0.5) > 0.0
            assert pairing(real, "1", domain=(0.0, 1.0), grid=grid) == pytest.approx(
                1.0, rel=1e-13
            )
        assert strong_norm_diff(sol, 0) == strong_norm_diff(sol, 0.0)
        assert pairing(np.float32(0.5), "x", domain=(0.0, 1.0), grid=grid) == pairing(
            0.5, "x", domain=(0.0, 1.0), grid=grid
        )


def _gauss_time_norm(u, ref, k, subdomain=None):
    """strong_norm_diff read at the 4 Gauss times of each slab of u's grid.

    Each solution is evaluated with one matrix (kron(Ex, Ey) in 2-D) on
    the points of strong_norm_diff; a constant is a constant array.
    """
    sols = [o for o in (u, ref) if isinstance(o, EvolutionSolution)]
    spaces = [s.problem.spaces[k] for s in sols]
    if isinstance(spaces[0], TensorSpace):
        dx, dy = subdomain or ((None, None), (None, None))
        xs, wx = gauss_panels(merge_cuts([s.sx for s in spaces], *dx), _ORACLE_POINTS)
        ys, wy = gauss_panels(merge_cuts([s.sy for s in spaces], *dy), _ORACLE_POINTS)
        ws = np.kron(wx, wy)
        evals = [
            sp.kron(eval_matrix_1d(s.sx, xs), eval_matrix_1d(s.sy, ys)).tocsr()
            for s in spaces
        ]
    else:
        cuts = merge_cuts(spaces, *(subdomain or (None, None)))
        xs, ws = gauss_panels(cuts, _ORACLE_POINTS)
        evals = [eval_matrix_1d(s, xs) for s in spaces]

    def values(obj, m, ts):
        if isinstance(obj, EvolutionSolution):
            return evals[sols.index(obj)] @ _coefficients_at(obj, m, ts, k).T
        return np.full((ws.size, ts.size), float(obj))

    tq, wq = slab_gauss(sols[0].grid)
    acc = 0.0
    for m in range(tq.shape[0]):
        d = values(u, m, tq[m]) - values(ref, m, tq[m])
        acc += wq[m] @ (ws @ (d * d))
    return math.sqrt(acc)


@pytest.fixture(scope="module")
def one_grid_operands():
    """Solutions on one 4-slab grid: EX3 on two meshes and degrees, an EX5
    run and its limit (with a memory component) on another mesh."""
    ex3 = ExperimentSpec("EX3", slabs=4)
    ex5 = ExperimentSpec("EX5", slabs=4)
    mesh2d = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), (12, 6))
    return {
        "ex3": solve_evolution(run_problem(ex3, 1)),
        "ex3_other": solve_evolution(
            _ex3_problem(ex3, build_mesh((-1.0, 1.0), 30), 2, example_material("EX3", 2))
        ),
        "ex5": solve_evolution(run_problem(ex5, 1)),
        "lim": solve_evolution(_ex45_problem(ex5, mesh2d, 1, build_limit_law("EX5"))),
    }


class TestModalTimeRule:
    """Operands on one grid are read at their two dG(1) time coefficients."""

    # (u, ref, component, subdomain); a float ref is a constant.  Pairs of
    # 2-D solutions across degrees are in test_tensor_matches_kronecker_evaluation.
    CASES = [
        ("ex3", "ex3_other", 0, None),
        ("ex3", "ex3_other", 1, (-0.37, 0.55)),
        ("ex3", 0.0, 0, None),
        ("ex3_other", 0.25, 1, (-0.37, 0.55)),
        ("ex5", "lim", 0, None),
        ("ex5", "lim", 1, ((-1.0, 0.3), (-0.7, 2.0))),
        ("ex5", -0.5, 2, ((-1.0, 0.3), (-0.7, 2.0))),
        ("lim", 0.0, 3, None),
        ("lim", 0.25, 3, ((-1.0, 0.3), (-0.7, 2.0))),
    ]

    @pytest.mark.parametrize("u, ref, k, subdomain", CASES)
    def test_matches_gauss_time_rule(self, one_grid_operands, u, ref, k, subdomain):
        u = one_grid_operands[u]
        ref = one_grid_operands.get(ref, ref)
        expected = _gauss_time_norm(u, ref, k, subdomain)
        assert expected > 0.0
        val = _norm_on(u, ref, k, subdomain)
        assert val == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_reads_no_times(self, one_grid_operands, monkeypatch):
        # only a callable operand sends a strong norm to the Gauss times
        def forbidden(grid, npts=4):
            raise AssertionError("strong norm on one grid read a solution in time")

        monkeypatch.setattr(reporting, "slab_gauss", forbidden)
        for u, ref, k, subdomain in self.CASES:
            _norm_on(one_grid_operands[u], one_grid_operands.get(ref, ref), k, subdomain)
        assert set(solution_norms(one_grid_operands["ex5"])) == {"u", "vx", "vy"}
        # the rule needs equal time points, not one TimeGrid object
        a = _linear_solution(fn=lambda x: x)
        b = _linear_solution(ncells=6, fn=lambda x: x * x)
        assert a.grid is not b.grid
        assert strong_norm_diff(a, b) > 0.0
        # the patch is live: a callable operand is read at the Gauss times
        with pytest.raises(AssertionError, match="read a solution in time"):
            strong_norm_diff(a, lambda t, xs: t * xs)


def test_readers_take_slabs_in_any_blocks(one_grid_operands):
    # a sweep run feeds its readers the slabs as it marches, in blocks of any
    # size; the last value read is the stored solution's, bit for bit
    sol, lim = one_grid_operands["ex5"], one_grid_operands["lim"]
    cases = [
        (lambda: pairing_reader(sol.problem, "x0", None, 0), pairing(sol, "x0")),
        (lambda: strong_norm_reader(sol.problem, lim, 1, None), strong_norm_diff(sol, lim, 1)),
        (lambda: strong_norm_reader(sol.problem, 0.5, 0, None), strong_norm_diff(sol, 0.5)),
    ]
    for reader, whole in cases:
        read = reader()
        values = [read(sol.coeffs[a:b]) for a, b in ((0, 1), (1, 3), (3, 4))]
        assert values[-1] == whole
        assert values[0] == reader()(sol.coeffs[:1]) != whole


def test_stored_reference_reads_as_its_full_length_solution(one_grid_operands, monkeypatch):
    # the mirrored limit is stored on a quarter of its DOFs and unfolded
    # where it is read, in blocks of about 1 MB (here all 4 slabs) or of one
    # slab; every read equals that of the full-length solution with no
    # basis, bit for bit
    run, ref = one_grid_operands["ex5"], one_grid_operands["lim"]
    full = EvolutionSolution(ref.problem, ref.coeffs)
    assert (ref.stored.shape[2], full.stored.shape[2]) == (72, ref.problem.ndof) == (72, 289)
    reads = []
    for block in (ref.problem.block, 1):
        monkeypatch.setattr(ref.problem, "block", block)
        for sol in (ref, full):
            reads.append(
                [strong_norm_diff(run, sol, k) for k in range(3)]
                + [strong_norm_diff(sol, 0.25, k) for k in range(4)]
                + [pairing(sol, v, None, 1) for v in reporting.VECTOR_TEST_DICTIONARY]
            )
    assert ref.problem.block == 1 < ref.grid.num_slabs
    assert reads[1:] == reads[:-1]


def test_solution_norms_read_in_one_pass(one_grid_operands, monkeypatch):
    # in blocks of one slab, the three component norms take one unfold a
    # slab between them, and each equals its own strong norm
    sol = one_grid_operands["ex5"]
    expected = [strong_norm_diff(sol, 0.0, k) for k in range(3)]
    blocks, unfold = [], sol.unfold
    monkeypatch.setattr(sol, "unfold", lambda y, rows: blocks.append(len(y)) or unfold(y, rows))
    monkeypatch.setattr(sol.problem, "block", 1)
    assert list(solution_norms(sol).values()) == expected
    assert blocks == [1, 1, 1, 1]


class TestFitRate:
    def test_exact_power_law(self):
        assert fit_rate([(1, 1.0), (2, 0.5), (4, 0.25)]) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_stagnation(self):
        assert fit_rate([(1, 0.7), (2, 0.7), (4, 0.7)]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_figure_series(self):
        pts = [(1, 2.4276e-1), (2, 1.2138e-1), (4, 6.0692e-2), (8, 3.0346e-2)]
        assert fit_rate(pts) == pytest.approx(-1.0, abs=5e-3)

    def test_errors(self):
        with pytest.raises(ValueError, match="three points"):
            fit_rate([(1, 1.0), (2, 0.5)])
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(1, 1.0), (2, 0.0), (4, 0.25)])


class TestConvergenceReport:
    def test_round_trip(self):
        rows = [
            (1, "pair_u_x", 0.24),
            (2, "pair_u_x", 0.12),
            (4, "pair_u_x", 0.06),
            (0, "slope_pair_u_x", -1.0),
        ]
        rep = ConvergenceReport("EX1", tuple(rows))
        assert rep.quantities() == ("pair_u_x",)
        assert fit_rate(rep.series("pair_u_x")) == pytest.approx(-1.0, abs=1e-10)
        assert rep.value(2, "pair_u_x") == 0.12
        buf = io.StringIO()
        write_csv(buf, rep.example, rep.rows)
        text = buf.getvalue()
        lines = text.split("\n")
        assert lines[0] == "example,n,quantity,value"
        assert lines[1].startswith("EX1,1,pair_u_x,2.4")
        assert "e-01" in lines[1]
        assert text.count("\r") == 0

    def test_missing_quantity_rejected(self):
        rows = [
            (1, "a", 1.0),
            (2, "a", 0.5),
            (4, "a", 0.25),
            (1, "b", 1.0),
        ]
        with pytest.raises(ValueError, match="missing"):
            ConvergenceReport("EX1", tuple(rows))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ConvergenceReport("EX1", ((1, "a", float("nan")),))

    def test_write_csv_format(self):
        buf = io.StringIO()
        write_csv(buf, "EX3", [(2, "pair_u_1", 2.6876e-2)])
        lines = buf.getvalue().strip().split("\n")
        assert lines == [
            "example,n,quantity,value",
            "EX3,2,pair_u_1,2.687600000000e-02",
        ]


@pytest.mark.parametrize("module", ["evohom.reporting", "evohom.experiments"])
def test_export_list_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
