"""Experiment registry and convergence sweeps for the oscillating families.

Each family solves the evolutionary problem with oscillation index n and
compares against an n-independent reference: the analytic oscillating and
homogenised ODE solutions (EX1), or a finer discretisation of the
homogenised limit problem with one extra polynomial degree (EX2-EX5;
rational memory entries are eliminated by an intrinsic variable first,
and the interface family splices the analytic convolution solution onto
the half-line where the limit law is nonlocal-in-time).  Reported
quantities are test-dictionary pairings and strong norms per component
and subdomain; fitted log-log rates are appended as n = 0 rows.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import i0_antiderivative, ode_exact, ode_hom_exact
from .blas import one_blas_thread
from .fields import Constant, SineOsc
from .homogenise import build_limit_law
from .laws import MaterialLaw, augment_memory, example_material
from .meshes import build_mesh
from .operators import (
    assemble_skew_operator,
    component_offsets,
    extend_with_zero_components,
)
from .reporting import (
    ConvergenceReport,
    fit_rate,
    pairing,
    slab_gauss,
    strong_norm_diff,
    write_csv,
)
from .solver import EvolutionProblem, solve_evolution
from .spaces import build_space, collocated_mass, restricted_load
from .timequad import TimeGrid

__all__ = [
    "EXAMPLES",
    "DEFAULT_N_LISTS",
    "ExperimentSpec",
    "build_run",
    "solution_norms",
    "oracle_pairing_series",
    "convergence_sweep",
]

EXAMPLES = ("EX1", "EX2", "EX3", "EX4", "EX5")

DEFAULT_N_LISTS = {
    "EX1": (1, 2, 4, 8, 16),
    "EX2": (1, 2, 4, 8),
    "EX3": (2, 4, 8, 16, 32),
    "EX4": (2, 4, 8, 16),
    "EX5": (2, 4, 8, 16),
}

_SCALAR_TESTS = ("1", "x", "x2", "sinpix", "t")
# The periodic pair's v is not paired against "1" and "t": the periodic skew
# coupling conserves the mean of v, which starts at 0 and is not forced, so
# both pairings vanish in exact arithmetic and would report roundoff.
_EX2_TESTS = ((0, "u", _SCALAR_TESTS), (1, "v", ("x", "x2", "sinpix")))
# The interface family pairs against the spatial tests on each half
# separately (the temporal ramp test belongs to the single-component
# family, whose dictionary is the model for "the same in x").
_EX3_TESTS = ("1", "x", "x2", "sinpix")
_VECTOR_TESTS = ("x0", "0y", "sinpix0", "0sinpiy", "1")
_TWO_PI = 2.0 * math.pi
# No slope is fitted to a series with max/min - 1 <= _FLAT_RTOL: it does not
# depend on n (EX1's pair_u_1 and pair_u_t hold the time error of the
# n-independent mean, flat to about 1e-9), so its slope is roundoff that
# moves with any reordering of a sum.  The next-flattest series, EX3's
# strong_*_right, varies by 6e-3.
_FLAT_RTOL = 1e-6


def _sin2pit(t):
    return math.sin(_TWO_PI * t)


@dataclass(frozen=True)
class ExperimentSpec:
    """One convergence study: family, oscillation indices, run knobs."""

    example: str
    n_list: tuple = ()
    slabs: int = 64
    rho: float = 0.0
    degree: int = 1
    T: float = 2.0

    def __post_init__(self):
        ex = str(self.example).upper()
        if ex == "MAXWELL":
            raise ValueError(
                "the conductive formula-level family has no desk-scale "
                "sweep; use build_limit_law and augment_memory instead"
            )
        if ex not in EXAMPLES:
            raise ValueError(
                f"unknown example id {self.example!r}; runnable families: "
                + ", ".join(EXAMPLES)
            )
        object.__setattr__(self, "example", ex)
        ns = tuple(self.n_list) or DEFAULT_N_LISTS[ex]
        cleaned = []
        for n in ns:
            if int(n) != n or int(n) < 1:
                raise ValueError("oscillation indices must be integers >= 1")
            cleaned.append(int(n))
        if len(set(cleaned)) != len(cleaned):
            raise ValueError("duplicate oscillation indices")
        object.__setattr__(self, "n_list", tuple(sorted(cleaned)))
        if int(self.slabs) < 1:
            raise ValueError("slabs must be a positive integer")
        object.__setattr__(self, "slabs", int(self.slabs))
        if int(self.degree) < 1:
            raise ValueError("element degree must be >= 1")
        object.__setattr__(self, "degree", int(self.degree))
        if not float(self.T) > 0.0:
            raise ValueError("final time must be positive")
        object.__setattr__(self, "T", float(self.T))
        if float(self.rho) < 0.0:
            raise ValueError("the quadrature weight rho must be >= 0")
        object.__setattr__(self, "rho", float(self.rho))

    def grid(self):
        return TimeGrid.uniform(self.T, self.slabs)


# ---------------------------------------------------------------------------
# Problem builders (the oscillatory runs)
# ---------------------------------------------------------------------------


def _stack_loads(spaces, loads):
    offsets = component_offsets(spaces)
    out = np.zeros(int(offsets[-1]))
    for k, b in loads.items():
        out[int(offsets[k]) : int(offsets[k + 1])] = b
    return out


def _run_ex1(n, degree, slabs, rho, T):
    # Gauss-collocated piecewise constants: the semidiscrete system
    # decouples into the per-node oscillating ODEs the family studies.
    mesh = build_mesh((0.0, 1.0), 10 * n)
    space = build_space(mesh, "dg", 0)
    op = assemble_skew_operator("EX1", (space,))
    forcing = ((lambda t: 1.0, restricted_load(space, 1.0)),)
    return EvolutionProblem(
        (space,),
        None,
        op,
        TimeGrid.uniform(T, slabs),
        forcing=forcing,
        rho=rho,
        m0mat=collocated_mass(space),
        m1mat=collocated_mass(space, SineOsc(n)),
    )


def _ex2_problem(mesh, degree, law, slabs, rho, T):
    su = build_space(mesh, "cg", degree, periodic=True)
    sv = build_space(mesh, "cg", degree, periodic=True)
    spaces = (su, sv)
    op = assemble_skew_operator("EX2", spaces)
    b = _stack_loads(spaces, {0: restricted_load(su, 1.0)})
    return EvolutionProblem(
        spaces,
        law,
        op,
        TimeGrid.uniform(T, slabs),
        forcing=((_sin2pit, b),),
        rho=rho,
    )


def _run_ex2(n, degree, slabs, rho, T):
    mesh = build_mesh((0.0, 1.0), 10 * n, alignment=n)
    return _ex2_problem(mesh, degree, example_material("EX2", n), slabs, rho, T)


def _ex3_problem(mesh, degree, law, slabs, rho, T):
    su = build_space(mesh, "cg", degree, constraints=(0.0,))
    sv = build_space(mesh, "cg", degree, constraints=(-1.0,))
    spaces = (su, sv)
    op = assemble_skew_operator("EX3", spaces)
    b_u = _stack_loads(spaces, {0: restricted_load(su, 1.0)})
    b_v = _stack_loads(spaces, {1: restricted_load(sv, lambda x: x - 0.5)})
    return EvolutionProblem(
        spaces,
        law,
        op,
        TimeGrid.uniform(T, slabs),
        forcing=((_sin2pit, b_u), (lambda t: 1.0, b_v)),
        rho=rho,
    )


def _run_ex3(n, degree, slabs, rho, T):
    mesh = build_mesh((-1.0, 1.0), 40 * n)
    return _ex3_problem(mesh, degree, example_material("EX3", n), slabs, rho, T)


def _ex45_problem(mesh, degree, law, slabs, rho, T):
    su = build_space(mesh, "q", degree, zero_trace=True)
    rt = build_space(mesh, "rt", degree - 1)
    spaces = [su, rt.vx, rt.vy]
    op = assemble_skew_operator("div-grad", spaces)
    aug = augment_memory(law)
    for _ in aug.slots:
        wspace = build_space(mesh, "dgq", degree - 1)
        op = extend_with_zero_components(op, [wspace.ndof])
        spaces.append(wspace)
    b = _stack_loads(
        spaces,
        {
            0: np.kron(
                restricted_load(su.sx, 1.0), restricted_load(su.sy, 1.0)
            )
        },
    )
    return EvolutionProblem(
        tuple(spaces),
        aug.law,
        op,
        TimeGrid.uniform(T, slabs),
        forcing=((_sin2pit, b),),
        rho=rho,
    )


def _run_ex45(example, n, degree, slabs, rho, T):
    mesh = build_mesh(
        ((-2.0, 2.0), (-2.0, 2.0)),
        (10 * n, 80),
        alignment=n,
        osc_region=(-1.0, 1.0),
    )
    return _ex45_problem(
        mesh, degree, example_material(example, n), slabs, rho, T
    )


def build_run(example, n, *, degree=1, slabs=64, rho=0.0, T=2.0):
    """Assemble the oscillatory evolution problem of one family at index n.

    The collocated piecewise-constant family ignores ``degree``; the other
    families use continuous/mixed elements of the given degree (lowest
    order is 1).  Raises ValueError for unknown or non-runnable ids.
    """
    spec = ExperimentSpec(example, (int(n),), slabs, rho, degree, T)
    n = spec.n_list[0]
    if spec.example == "EX1":
        return _run_ex1(n, spec.degree, spec.slabs, spec.rho, spec.T)
    if spec.example == "EX2":
        return _run_ex2(n, spec.degree, spec.slabs, spec.rho, spec.T)
    if spec.example == "EX3":
        return _run_ex3(n, spec.degree, spec.slabs, spec.rho, spec.T)
    return _run_ex45(spec.example, n, spec.degree, spec.slabs, spec.rho, spec.T)


def _solve_run(spec, n):
    """The oscillatory run of the spec's family at index n, solved."""
    return solve_evolution(
        build_run(
            spec.example,
            n,
            degree=spec.degree,
            slabs=spec.slabs,
            rho=spec.rho,
            T=spec.T,
        )
    )


def solution_norms(sol):
    """Space-time L2 norm of every component (diagnostic/stability check)."""
    names = (
        sol.problem.law.component_names
        if sol.problem.law is not None
        else tuple(f"c{i}" for i in range(len(sol.problem.spaces)))
    )
    return {
        str(names[i]): strong_norm_diff(sol, 0.0, component=i)
        for i in range(len(sol.problem.spaces))
    }


# ---------------------------------------------------------------------------
# EX1: analytic oracle reference
# ---------------------------------------------------------------------------


def _prepare_ex1(spec, level=0):
    def hom(t, xs):
        return np.full(np.shape(xs), ode_hom_exact(t))

    grid = spec.grid()
    ref_pair = {
        name: pairing(hom, name, domain=(0.0, 1.0), grid=grid, cells=64)
        for name in _SCALAR_TESTS
    }
    return {"ref_pair": ref_pair}


def _report_ex1(spec, ctx, n, sol):
    rows = []
    for name in _SCALAR_TESTS:
        val = abs(pairing(sol, name) - ctx["ref_pair"][name])
        rows.append((n, f"pair_u_{name}", val))
    return rows


def oracle_pairing_series(n_list, name="x", *, T=2.0, slabs=64, cells=None):
    """EX1 pairings from the analytic solutions alone (no discretisation).

    For each n the value |<u_n - u_hom, v>| over [0, T] x (0, 1) is
    computed by composite Gauss quadrature of the closed-form solutions;
    the spatial rule resolves the oscillation (>= 8 cells per period).
    """
    grid = TimeGrid.uniform(float(T), int(slabs))
    out = []
    for n in n_list:
        n = int(n)
        ncell = int(cells) if cells is not None else max(64, 8 * n)
        diff = lambda t, x, _n=n: ode_exact(_n, t, x) - ode_hom_exact(t)
        val = pairing(diff, name, domain=(0.0, 1.0), grid=grid, cells=ncell)
        out.append((n, abs(val)))
    return out


# ---------------------------------------------------------------------------
# EX2: homogenised periodic-pair reference
# ---------------------------------------------------------------------------


def _prepare_ex2(spec, level=0):
    ncell = 160 if level == 0 else 240
    mesh = build_mesh((0.0, 1.0), ncell)
    ref = solve_evolution(
        _ex2_problem(
            mesh,
            spec.degree + 1,
            build_limit_law("EX2"),
            spec.slabs,
            spec.rho,
            spec.T,
        )
    )
    ref_pair = {
        (k, name): pairing(ref, name, component=k)
        for k, _, names in _EX2_TESTS
        for name in names
    }
    return {"ref": ref, "ref_pair": ref_pair}


def _report_ex2(spec, ctx, n, sol):
    rows = []
    for comp, tag, names in _EX2_TESTS:
        for name in names:
            val = abs(
                pairing(sol, name, component=comp) - ctx["ref_pair"][(comp, name)]
            )
            rows.append((n, f"pair_{tag}_{name}", val))
    rows.append((n, "strong_u", strong_norm_diff(sol, ctx["ref"], 0)))
    rows.append((n, "strong_v", strong_norm_diff(sol, ctx["ref"], 1)))
    return rows


# ---------------------------------------------------------------------------
# EX3: hybrid reference (fine transport run on (-1,0), analytic on (0,1))
# ---------------------------------------------------------------------------


def _ex3_plain_limit():
    # On (-1, 0) the zero-mean oscillation drops out of the limit entirely;
    # the (0, 1) restriction of this run is discarded in favour of the
    # analytic convolution solution.
    return MaterialLaw(
        2,
        {(0, 0): Constant(1.0), (1, 1): Constant(1.0)},
        {},
        nu0=1.0,
        dim=1,
        domain=(-1.0, 1.0),
        component_names=("u", "v"),
        label="EX3-transport-limit",
    )


def _prepare_ex3(spec, level=0):
    ncell = 320 if level == 0 else 160
    mesh = build_mesh((-1.0, 1.0), ncell)
    ref = solve_evolution(
        _ex3_problem(
            mesh, spec.degree + 1, _ex3_plain_limit(), spec.slabs, spec.rho, spec.T
        )
    )
    # Every pairing and strong norm of the sweep reads the limit at the
    # slab-Gauss times of the spec's grid (the runs' grid), so its time
    # factors are computed there, all at once.
    grid = spec.grid()
    tq = slab_gauss(grid)[0].ravel()
    u_table = dict(zip(tq.tolist(), ode_hom_exact(tq, source=_sin2pit).tolist()))
    v_table = dict(zip(tq.tolist(), i0_antiderivative(tq).tolist()))

    def u_right(t, xs):
        return np.full(np.shape(xs), u_table[float(t)])

    def v_right(t, xs):
        return (np.asarray(xs) - 0.5) * v_table[float(t)]

    ref_pair = {}
    for name in _EX3_TESTS:
        for k, right in ((0, u_right), (1, v_right)):
            ref_pair[(k, "left", name)] = pairing(
                ref, name, domain=(-1.0, 0.0), component=k
            )
            ref_pair[(k, "right", name)] = pairing(
                right, name, domain=(0.0, 1.0), grid=grid, cells=32
            )
    return {
        "ref": ref,
        "ref_pair": ref_pair,
        "u_right": u_right,
        "v_right": v_right,
    }


def _report_ex3(spec, ctx, n, sol):
    rows = []
    for comp, tag in ((0, "u"), (1, "v")):
        for side, dom in (("left", (-1.0, 0.0)), ("right", (0.0, 1.0))):
            for name in _EX3_TESTS:
                val = abs(
                    pairing(sol, name, domain=dom, component=comp)
                    - ctx["ref_pair"][(comp, side, name)]
                )
                rows.append((n, f"pair_{tag}_{side}_{name}", val))
    rows.append(
        (n, "strong_u_left", strong_norm_diff(sol, ctx["ref"], 0, (-1.0, 0.0)))
    )
    rows.append(
        (n, "strong_v_left", strong_norm_diff(sol, ctx["ref"], 1, (-1.0, 0.0)))
    )
    rows.append(
        (n, "strong_u_right", strong_norm_diff(sol, ctx["u_right"], 0, (0.0, 1.0)))
    )
    rows.append(
        (n, "strong_v_right", strong_norm_diff(sol, ctx["v_right"], 1, (0.0, 1.0)))
    )
    return rows


# ---------------------------------------------------------------------------
# EX4 / EX5: homogenised mixed reference (intrinsic variable where needed)
# ---------------------------------------------------------------------------


def _prepare_ex45(spec, level=0):
    ncell = 40 if level == 0 else 56
    mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), (ncell, ncell))
    ref = solve_evolution(
        _ex45_problem(
            mesh,
            spec.degree + 1,
            build_limit_law(spec.example),
            spec.slabs,
            spec.rho,
            spec.T,
        )
    )
    ref_pair = {name: pairing(ref, name) for name in _VECTOR_TESTS}
    return {"ref": ref, "ref_pair": ref_pair}


def _report_ex45(spec, ctx, n, sol):
    rows = [(n, "strong_u", strong_norm_diff(sol, ctx["ref"], 0))]
    sv = math.hypot(
        strong_norm_diff(sol, ctx["ref"], 1), strong_norm_diff(sol, ctx["ref"], 2)
    )
    rows.append((n, "strong_v", sv))
    for name in _VECTOR_TESTS:
        val = abs(pairing(sol, name) - ctx["ref_pair"][name])
        rows.append((n, f"pair_v_{name}", val))
    return rows


# Per family: (prepare the reference, report one solved run against it).
_DRIVERS = {
    "EX1": (_prepare_ex1, _report_ex1),
    "EX2": (_prepare_ex2, _report_ex2),
    "EX3": (_prepare_ex3, _report_ex3),
    "EX4": (_prepare_ex45, _report_ex45),
    "EX5": (_prepare_ex45, _report_ex45),
}


def convergence_sweep(spec, out=None, jobs=1, reference_level=0):
    """Run one family over its n-list and report all quantities.

    The n-independent reference is prepared once and shared.  The
    reference and the runs share one pool of ``jobs`` threads (``jobs`` >=
    1, else ValueError before anything is solved or written): the
    reference is submitted first and the runs longest first (descending
    n); each run task solves, waits for the reference, reports and drops
    its solution.  Rows are emitted in n-order and do not depend on
    ``jobs``.  The reference and the runs are solved and reported with one
    BLAS thread (:func:`one_blas_thread`), so the pool's threads do not
    compete with BLAS threads for the cores.
    ``reference_level`` = 1 swaps in the alternative reference resolution
    for self-consistency studies.  On failure, the reference's included,
    the partial CSV is flushed with an error row before the exception
    propagates; a run that starts after the reference failed is not
    solved.
    """
    if not isinstance(spec, ExperimentSpec):
        raise TypeError("convergence_sweep expects an ExperimentSpec")
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    prepare, report_run = _DRIVERS[spec.example]
    level = int(reference_level)
    rows = []
    try:
        with one_blas_thread(), ThreadPoolExecutor(max_workers=jobs) as pool:
            # submitted first, so a worker has taken it before any run
            # waits for it: the waits cannot fill the pool
            reference = pool.submit(prepare, spec, level=level)

            def run(n):
                if reference.done():
                    reference.result()  # a failed reference: skip the solve
                sol = _solve_run(spec, n)
                return report_run(spec, reference.result(), n, sol)

            futures = {n: pool.submit(run, n) for n in reversed(spec.n_list)}
            try:
                for n in spec.n_list:
                    rows.extend(futures[n].result())
            finally:
                for fut in futures.values():
                    fut.cancel()  # runs not yet started, on failure
    except Exception:
        if out is not None:
            write_csv(
                out,
                spec.example,
                list(rows) + [(0, "error", float("nan"))],
            )
        raise
    by_quantity = {}
    for n, q, v in rows:
        by_quantity.setdefault(q, []).append((n, v))
    for q in sorted(by_quantity):
        series = by_quantity[q]
        values = [v for _, v in series]
        if (
            len(series) >= 3
            and min(values) > 0.0
            and max(values) / min(values) - 1.0 > _FLAT_RTOL
        ):
            rows.append((0, f"slope_{q}", fit_rate(series)))
    report = ConvergenceReport(spec.example, tuple(rows))
    if out is not None:
        report.write(out)
    return report
