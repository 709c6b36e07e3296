"""Experiment registry and convergence sweeps for the oscillating families.

Each family solves the evolutionary problem with oscillation index n and
compares against an n-independent reference: the analytic homogenised ODE
solution (EX1), or a finer discretisation of the homogenised limit problem
with one extra polynomial degree (EX2-EX5; rational memory entries are
eliminated by an intrinsic variable first, and the interface family
splices the analytic convolution solution onto the half-line where the
limit law is nonlocal-in-time).  One table, ``_FAMILIES``, holds each
family's problem builder (shared by its runs and its discrete reference),
meshes and ordered reported quantities: test-dictionary pairings and strong
norms per component and subdomain.  Runs, references and reports all read
it; fitted log-log rates are appended as n = 0 rows.
"""

import math
from collections import namedtuple
from contextlib import closing, nullcontext
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import conv_i0, i0_antiderivative, ode_exact
from .blas import one_blas_thread
from .fields import Constant
from .homogenise import build_limit_law
from .laws import augment_memory, example_material, family_law
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
    pairing_reader,
    slab_gauss,
    strong_norm_diff,
    strong_norm_reader,
    write_csv,
)
from .solver import EvolutionProblem, march, solve_evolution
from .spaces import build_space, collocated_mass, restricted_load
from .timequad import TimeGrid

__all__ = [
    "EXAMPLES",
    "DEFAULT_N_LISTS",
    "ExperimentSpec",
    "build_run",
    "run_problem",
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
_EX2_V_TESTS = ("x", "x2", "sinpix")
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


def _count(value, message):
    """``value`` as an int >= 1, else ValueError(message); bools are refused."""
    if isinstance(value, bool) or int(value) != value or int(value) < 1:
        raise ValueError(message)
    return int(value)


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
        cleaned = [_count(n, "oscillation indices must be integers >= 1") for n in ns]
        if len(set(cleaned)) != len(cleaned):
            raise ValueError("duplicate oscillation indices")
        object.__setattr__(self, "n_list", tuple(sorted(cleaned)))
        slabs = _count(self.slabs, "slabs must be a positive integer")
        degree = _count(self.degree, "element degree must be >= 1")
        object.__setattr__(self, "slabs", slabs)
        object.__setattr__(self, "degree", degree)
        if not 0.0 < float(self.T) < math.inf:
            raise ValueError("final time must be positive and finite")
        object.__setattr__(self, "T", float(self.T))
        if not 0.0 <= float(self.rho) < math.inf:
            raise ValueError("the quadrature weight rho must be finite and >= 0")
        object.__setattr__(self, "rho", float(self.rho))

    def grid(self):
        return TimeGrid.uniform(self.T, self.slabs)


# ---------------------------------------------------------------------------
# Problem builders (spec, mesh, degree, law) and analytic limits
# ---------------------------------------------------------------------------


def _stacked(spaces, k, b):
    """The load ``b`` of component k as a stacked load, zero elsewhere."""
    offsets = component_offsets(spaces)
    out = np.zeros(int(offsets[-1]))
    out[int(offsets[k]) : int(offsets[k + 1])] = b
    return out


def _ex1_problem(spec, mesh, degree, law):
    # Gauss-collocated piecewise constants whatever the degree: the
    # semidiscrete system decouples into the per-node oscillating ODEs the
    # family studies.  The masses sample the law's coefficients at the
    # nodes instead of integrating them.
    space = build_space(mesh, "dg", 0)
    spaces = (space,)
    op = assemble_skew_operator("EX1", spaces)
    forcing = ((lambda t: 1.0, restricted_load(space, 1.0)),)
    m0, m1 = collocated_mass(space), collocated_mass(space, law.m1[(0, 0)])
    return EvolutionProblem(
        spaces, law, op, spec.grid(), forcing=forcing, rho=spec.rho, m0mat=m0, m1mat=m1
    )


def _ex2_problem(spec, mesh, degree, law):
    su = build_space(mesh, "cg", degree, periodic=True)
    sv = build_space(mesh, "cg", degree, periodic=True)
    spaces = (su, sv)
    op = assemble_skew_operator("EX2", spaces)
    forcing = ((_sin2pit, _stacked(spaces, 0, restricted_load(su, 1.0))),)
    return EvolutionProblem(spaces, law, op, spec.grid(), forcing=forcing, rho=spec.rho)


def _ex3_problem(spec, mesh, degree, law):
    su = build_space(mesh, "cg", degree, constraints=(0.0,))
    sv = build_space(mesh, "cg", degree, constraints=(-1.0,))
    spaces = (su, sv)
    op = assemble_skew_operator("EX3", spaces)
    b_u = _stacked(spaces, 0, restricted_load(su, 1.0))
    b_v = _stacked(spaces, 1, restricted_load(sv, lambda x: x - 0.5))
    forcing = ((_sin2pit, b_u), (lambda t: 1.0, b_v))
    return EvolutionProblem(spaces, law, op, spec.grid(), forcing=forcing, rho=spec.rho)


def _ex45_problem(spec, mesh, degree, law):
    su = build_space(mesh, "q", degree, zero_trace=True)
    aug = augment_memory(law)
    memory = [build_space(mesh, "dgq", degree - 1) for _ in aug.slots]
    spaces = (su, *build_space(mesh, "rt", degree - 1), *memory)
    op = assemble_skew_operator("div-grad", spaces[:3])
    op = extend_with_zero_components(op, [s.ndof for s in memory])
    load = np.kron(restricted_load(su.sx, 1.0), restricted_load(su.sy, 1.0))
    forcing = ((_sin2pit, _stacked(spaces, 0, load)),)
    return EvolutionProblem(
        spaces, aug.law, op, spec.grid(), forcing=forcing, rho=spec.rho
    )


def _ex1_limits(spec):
    def hom(t, xs):
        return np.full(np.shape(xs), i0_antiderivative(t))

    return {"hom": hom}


def _ex3_plain_limit():
    # On (-1, 0) the zero-mean oscillation drops out of the limit entirely;
    # the (0, 1) restriction of this run is discarded in favour of the
    # analytic convolution solution.
    one = Constant(1.0)
    return family_law("EX3", "EX3-transport-limit", {(0, 0): one, (1, 1): one}, {})


def _ex3_limits(spec):
    # Every pairing and strong norm of the sweep reads the limit at the
    # slab-Gauss times of the spec's grid (the runs' grid), so its time
    # factors are computed there, all at once.
    tq = slab_gauss(spec.grid())[0].ravel()
    u_table = dict(zip(tq.tolist(), conv_i0(_sin2pit, tq).tolist()))
    v_table = dict(zip(tq.tolist(), i0_antiderivative(tq).tolist()))

    def u_right(t, xs):
        return np.full(np.shape(xs), u_table[float(t)])

    def v_right(t, xs):
        return (np.asarray(xs) - 0.5) * v_table[float(t)]

    return {"u_right": u_right, "v_right": v_right}


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

# One family: ``build(spec, mesh, degree, law)`` poses both the run at index
# n (on ``run_mesh(domain, n)``, at the spec's degree, with the oscillating
# law) and the discrete reference (on ``ref_mesh(domain, reference_level)``,
# one degree higher, with ``ref_law(example)``; no ``ref_mesh``, no discrete
# reference); each mesh covers the ``domain`` of the law it is posed with.
# ``limits(spec)`` names the analytic reference operands, paired on
# ``panels`` composite-Gauss panels in space.  The quantities are reported
# in table order.
_Family = namedtuple(
    "_Family", "build run_mesh ref_mesh ref_law limits panels quantities"
)
# One reported quantity of a run against the reference operand named
# ``operand`` ("ref": the discrete reference): with a test dictionary name
# ``test``, the absolute difference of their pairings on ``domain`` (None:
# the whole domain) for the component ``comps[0]`` (a vector test pairs
# both flux components); with ``test`` None, the strong norm of their
# difference on ``domain``, the root sum of squares over ``comps``.
_Quantity = namedtuple("_Quantity", "name test comps domain operand")


def _pairs(prefix, tests, comps, domain, operand):
    return tuple(_Quantity(f"{prefix}_{t}", t, comps, domain, operand) for t in tests)


# The lambdas below call package functions through this module's bindings at
# call time, so that wrappers installed on them (the benchmark's tracer) see
# every call.
_LEFT, _RIGHT = (-1.0, 0.0), (0.0, 1.0)
_EX45 = _Family(
    _ex45_problem,
    lambda domain, n: build_mesh(
        domain, (10 * n, 80), alignment=n, osc_region=(-1.0, 1.0)
    ),
    lambda domain, level: build_mesh(domain, (56, 56) if level else (40, 40)),
    lambda example: build_limit_law(example),
    lambda spec: {},
    None,
    (
        _Quantity("strong_u", None, (0,), None, "ref"),
        _Quantity("strong_v", None, (1, 2), None, "ref"),
    )
    + _pairs("pair_v", _VECTOR_TESTS, (1, 2), None, "ref"),
)
_FAMILIES = {
    "EX1": _Family(
        _ex1_problem,
        lambda domain, n: build_mesh(domain, 10 * n),
        None,
        None,
        _ex1_limits,
        64,
        _pairs("pair_u", _SCALAR_TESTS, (0,), (0.0, 1.0), "hom"),
    ),
    "EX2": _Family(
        _ex2_problem,
        lambda domain, n: build_mesh(domain, 10 * n, alignment=n),
        lambda domain, level: build_mesh(domain, 240 if level else 160),
        lambda example: build_limit_law(example),
        lambda spec: {},
        None,
        _pairs("pair_u", _SCALAR_TESTS, (0,), None, "ref")
        + _pairs("pair_v", _EX2_V_TESTS, (1,), None, "ref")
        + (
            _Quantity("strong_u", None, (0,), None, "ref"),
            _Quantity("strong_v", None, (1,), None, "ref"),
        ),
    ),
    # the discrete reference on (-1, 0), the analytic limits on (0, 1)
    "EX3": _Family(
        _ex3_problem,
        lambda domain, n: build_mesh(domain, 40 * n),
        lambda domain, level: build_mesh(domain, 160 if level else 320),
        lambda example: _ex3_plain_limit(),
        _ex3_limits,
        32,
        _pairs("pair_u_left", _EX3_TESTS, (0,), _LEFT, "ref")
        + _pairs("pair_u_right", _EX3_TESTS, (0,), _RIGHT, "u_right")
        + _pairs("pair_v_left", _EX3_TESTS, (1,), _LEFT, "ref")
        + _pairs("pair_v_right", _EX3_TESTS, (1,), _RIGHT, "v_right")
        + (
            _Quantity("strong_u_left", None, (0,), _LEFT, "ref"),
            _Quantity("strong_v_left", None, (1,), _LEFT, "ref"),
            _Quantity("strong_u_right", None, (0,), _RIGHT, "u_right"),
            _Quantity("strong_v_right", None, (1,), _RIGHT, "v_right"),
        ),
    ),
    "EX4": _EX45,
    "EX5": _EX45,
}


def run_problem(spec, n):
    """The spec's run at index n: what a sweep solves and ``evohom run`` and
    ``evohom describe`` show."""
    family = _FAMILIES[spec.example]
    law = example_material(spec.example, n)
    return family.build(spec, family.run_mesh(law.domain, n), spec.degree, law)


def build_run(example, n, **knobs):
    """Assemble the oscillatory evolution problem of one family at index n.

    ``knobs`` are the run fields of :class:`ExperimentSpec` (``slabs``,
    ``rho``, ``degree``, ``T``), validated there.  The collocated
    piecewise-constant family ignores ``degree``; the other families use
    continuous/mixed elements of the given degree (lowest order is 1).
    Raises ValueError for unknown or non-runnable ids and invalid knobs.
    """
    spec = ExperimentSpec(example, (n,), **knobs)
    return run_problem(spec, spec.n_list[0])


def solution_norms(sol):
    """Space-time L2 norm of every component (diagnostic/stability check)."""
    names = sol.problem.law.component_names
    return {
        str(names[i]): strong_norm_diff(sol, 0.0, component=i)
        for i in range(len(sol.problem.spaces))
    }


def oracle_pairing_series(n_list, name="x", *, cells=None):
    """EX1 pairings from the analytic solutions alone (no discretisation).

    For each n the value |<u_n - u_hom, v>| over [0, 2] x (0, 1) is
    computed by composite Gauss quadrature of the closed-form solutions, in
    time on the grid of the family's default run (64 slabs); the spatial
    rule resolves the oscillation (>= 8 cells per period).
    """
    grid = ExperimentSpec("EX1").grid()
    out = []
    for n in n_list:
        n = int(n)
        ncell = int(cells) if cells is not None else max(64, 8 * n)
        diff = lambda t, x, _n=n: ode_exact(_n, t, x) - i0_antiderivative(t)
        val = pairing(diff, name, domain=(0.0, 1.0), grid=grid, cells=ncell)
        out.append((n, abs(val)))
    return out


def _prepare(spec, level):
    """The reference operands by name and their pairing per paired quantity."""
    family = _FAMILIES[spec.example]
    operands = family.limits(spec)
    if family.ref_mesh is not None:
        law = family.ref_law(spec.example)
        ref = family.build(spec, family.ref_mesh(law.domain, level), spec.degree + 1, law)
        operands["ref"] = solve_evolution(ref)
    # grid and cells apply to the analytic operands only
    analytic = {"grid": spec.grid(), "cells": family.panels}
    ref_pair = {
        q.name: pairing(operands[q.operand], q.test, q.domain, q.comps[0], **analytic)
        for q in family.quantities
        if q.test is not None
    }
    return operands, ref_pair


def _reader(problem, q, operands, ref_pair):
    """Quantity q of a run of ``problem`` as a reader (:func:`pairing_reader`)."""
    if q.test is not None:
        read = pairing_reader(problem, q.test, q.domain, q.comps[0])
        return lambda c: abs(read(c) - ref_pair[q.name])
    reads = [strong_norm_reader(problem, operands[q.operand], k, q.domain) for k in q.comps]
    return lambda c: math.hypot(*[read(c) for read in reads])


def _report(spec, reference, n, problem):
    """The rows (n, quantity, value) of run n, read while it marches.

    Slabs that come before the ``reference`` future is done are held until
    it is, so only the last slab waits for it.
    """
    quantities = _FAMILIES[spec.example].quantities
    block = max(1, 2**20 // (16 * problem.ndof))  # slabs in 1 MB, or one
    last, held, readers = problem.grid.num_slabs, [], []
    with closing(march(problem)) as slabs:
        for m, c in slabs:
            held.append(c)
            if m == last or (len(held) >= block and reference.done()):
                ctx = reference.result()
                readers = readers or [_reader(problem, q, *ctx) for q in quantities]
                chunk, held = np.stack(held), []
                values = [read(chunk) for read in readers]
    return [(n, q.name, v) for q, v in zip(quantities, values)]


def convergence_sweep(spec, out=None, jobs=1, reference_level=0):
    """Run one family over its n-list and report all quantities.

    The n-independent reference is prepared once and shared.  The
    reference and the runs share one pool of ``jobs`` threads (``jobs`` >=
    1, else ValueError before anything is solved or written): the
    reference is submitted first and the runs longest first (descending
    n); each run task reads its slabs as it marches (:func:`_report`), so
    no run holds its solution.  Rows are emitted in n-order and do not
    depend on ``jobs``.  The reference and the runs are solved and reported
    with one BLAS thread (:func:`one_blas_thread`), so the pool's threads do
    not compete with BLAS threads for the cores.
    ``reference_level`` = 1 swaps in the alternative reference resolution
    for self-consistency studies; any value but 0 or 1 raises ValueError
    before anything is solved or written.  ``out``, when given, is opened
    (and truncated) next, before anything is solved, so a path that cannot
    be written raises OSError at once; the report CSV is written to it.
    On failure, the reference's included, the partial CSV is flushed with
    an error row before the exception propagates; a run that starts after
    the reference failed is not solved.
    """
    if not isinstance(spec, ExperimentSpec):
        raise TypeError("convergence_sweep expects an ExperimentSpec")
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if reference_level not in (0, 1):
        raise ValueError(f"reference_level must be 0 or 1, got {reference_level!r}")
    sink = nullcontext() if out is None else open(out, "w", encoding="utf-8", newline="")
    with sink as fh:
        report = _sweep(spec, jobs, reference_level, fh)
        if fh is not None:
            write_csv(fh, spec.example, report.rows)
    return report


def _sweep(spec, jobs, reference_level, fh):
    """The report of :func:`convergence_sweep`; on failure the rows so far
    and an error row are written to ``fh`` (if not None)."""
    rows = []
    try:
        with one_blas_thread(), ThreadPoolExecutor(max_workers=jobs) as pool:
            # submitted first, so a worker has taken it before any run
            # waits for it: the waits cannot fill the pool
            reference = pool.submit(_prepare, spec, reference_level)

            def run(n):
                if reference.done():
                    reference.result()  # a failed reference: skip the solve
                return _report(spec, reference, n, run_problem(spec, n))

            futures = {n: pool.submit(run, n) for n in reversed(spec.n_list)}
            try:
                for n in spec.n_list:
                    rows.extend(futures[n].result())
            finally:
                for fut in futures.values():
                    fut.cancel()  # runs not yet started, on failure
    except Exception:
        if fh is not None:
            write_csv(fh, spec.example, rows + [(0, "error", float("nan"))])
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
    return ConvergenceReport(spec.example, tuple(rows))
