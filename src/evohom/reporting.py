"""Space-time pairings, strong norms, rate fits, and CSV reports.

The laboratory's reported quantities are unweighted space-time L2 inner
products over [0, T] x domain: pairings of a solution (discrete or oracle)
against a fixed dictionary of test functions, and strong norms of
differences against a reference.  A solution is read by readers
(:func:`pairing_reader`, :func:`strong_norm_reader`) that take its slabs in
blocks as a march yields them, each slab in its two dG(1) time coefficients
``coeffs[m, 0:2]``; a stored solution is unfolded from its basis for them
in blocks of about 1 MB, and a stored reference slab by slab, at the rows
of the component read.  A strong norm between discrete solutions on one
time grid, or against a constant c (the coefficients (c, 0)), weights the
squared differences of those coefficients by the exact masses h and h/3 of
the orthogonal pair (l0, l1) (:meth:`TimeGrid.basis_masses`).  Every other
pairing or strong norm takes the 4-point per-slab Gauss rule
(:func:`slab_gauss`) of the discrete operand's grid (or a callable
pairing's explicit grid), at the same local coordinates on every slab, so
a solution's values there are its coefficients times one fixed 2 x 4
matrix, ``_GAUSS_BASIS``.  Space is read line by line through
:mod:`evohom.spaces` (sum factorisation lives there): a solution pairing
sums ``(component, load vector)`` terms from :func:`product_load`, and a
strong norm evaluates each solution (:func:`point_evaluator`) at the Gauss
points of the cells of all discrete operands, merged per line by
:func:`merge_cuts`: 1 + their highest degree per cell and line (a constant
counts as degree 0), exact for the squared difference, or a fixed 3
against a callable (``_NORM_POINTS``).  An operand is a solution, a real
constant (``numbers.Real``) or a callable; anything else is a TypeError.
"""

import csv
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fields import as_field
from .meshes import _NODE_TOL, as_count, gauss_rule
from .solver import EvolutionSolution
from .spaces import (
    eval_matrix_1d,
    gauss_panels,
    merge_cuts,
    point_evaluator,
    product_load,
    restricted_load,
)
from .timequad import TimeGrid, temporal_basis

__all__ = [
    "TEST_DICTIONARY_1D",
    "VECTOR_TEST_DICTIONARY",
    "gauss_panels",
    "slab_gauss",
    "restricted_load",
    "eval_matrix_1d",
    "pairing",
    "pairing_reader",
    "read_stored",
    "strong_norm_diff",
    "strong_norm_reader",
    "fit_rate",
    "ConvergenceReport",
    "write_csv",
]

# Scalar test dictionary: name -> (spatial factor, read by fields.as_field;
# temporal factor or None for 1).  The names double as CSV quantity suffixes.
TEST_DICTIONARY_1D = {
    "1": (1.0, None),
    "x": (lambda x: x, None),
    "x2": (lambda x: x * x, None),
    "sinpix": (lambda x: np.sin(np.pi * x), None),
    "t": (1.0, lambda t: t),
}

# Vector test dictionary for the 2-D flux pair: name -> (component-1 term,
# component-2 term), each a separable (fx, fy) pair of 1-D coefficients
# (read by fields.as_field) or None for a vanishing component.
VECTOR_TEST_DICTIONARY = {
    "x0": ((lambda x: x, 1.0), None),
    "0y": (None, (1.0, lambda y: y)),
    "sinpix0": ((lambda x: np.sin(np.pi * x), 1.0), None),
    "0sinpiy": (None, (1.0, lambda y: np.sin(np.pi * y))),
    "1": ((1.0, 1.0), (1.0, 1.0)),
}


# Gauss points per panel of a callable pairing, and per merged cell and
# direction of a strong norm against a callable.
_PAIRING_POINTS = 8
_NORM_POINTS = 3


def slab_gauss(grid, npts=4):
    """Per-slab Gauss nodes/weights on [0, T]: arrays of shape (M, npts).

    Slab m's nodes are t_{m-1} + h_m * x_q with x_q the nodes of
    ``gauss_rule(npts)`` on [0, 1], the same local coordinates on every slab.
    """
    tq, wq = gauss_panels(grid.t_points, npts)
    return tq.reshape(-1, npts), wq.reshape(-1, npts)


# (l0, l1) at the local coordinates of the default slab_gauss times: the
# values there of a slab's dG(1) function are its coefficients times this.
_GAUSS_BASIS = temporal_basis(gauss_rule(4)[0])


def _scalar_test(v):
    """The (spatial, temporal) factors of a scalar test dictionary name."""
    if v not in TEST_DICTIONARY_1D:
        raise ValueError(f"dictionary mismatch: {v!r} is not a scalar test function")
    return TEST_DICTIONARY_1D[v]


def _per_line(space, domain):
    """One ``(lo, hi)`` or None per line of ``space`` from a domain: one pair in 1-D."""
    return (domain,) if len(space.lines) == 1 else domain or (None,) * len(space.lines)


def _load_terms(problem, v, domain, component):
    """A test function as ``(component, load vector)`` terms and a temporal factor.

    The component's space picks the dictionary: on a 2-D component ``v``
    names a vector test, one term per non-vanishing flux component (1, 2);
    on a 1-D component it names a scalar test, one term.
    """
    spaces, space = problem.spaces, problem.spaces[component]
    if len(space.lines) > 1:
        if v not in VECTOR_TEST_DICTIONARY:
            raise ValueError("dictionary mismatch: scalar test on a 2-D component; "
                             "use the vector test dictionary")
        if len(spaces) < 3 or not all(len(spaces[k].lines) > 1 for k in (1, 2)):
            raise ValueError("dictionary mismatch: vector tests need a 2-D flux pair")
        terms = [
            (k, product_load(spaces[k], term, _per_line(spaces[k], domain)))
            for k, term in zip((1, 2), VECTOR_TEST_DICTIONARY[v])
            if term is not None
        ]
        return terms, None
    spatial, temporal = _scalar_test(v)
    return [(component, product_load(space, (spatial,), _per_line(space, domain)))], temporal


def pairing_reader(problem, v, domain, component):
    """``read(c)``: takes the next slabs of a solution of ``problem`` (their
    coefficients, shape (slabs, 2, ndof)) and returns the :func:`pairing`
    over every slab read so far.  Slabs are projected onto the loads before
    they are read in time, so no (times x DOFs) array is formed."""
    terms, temporal = _load_terms(problem, v, domain, component)
    tq, wq = slab_gauss(problem.grid)
    w = wq if temporal is None else wq * np.asarray(temporal(tq), dtype=float)
    blocks = []

    def read(c):
        blocks.append([c[:, :, problem.component_slice(k)] @ r for k, r in terms])
        parts = (np.concatenate(p) @ _GAUSS_BASIS for p in zip(*blocks))
        return sum(float(np.sum(w[: len(q)] * q)) for q in parts)

    return read


def pairing(u, v, domain=None, component=0, *, grid=None, cells=64):
    """Unweighted space-time L2 pairing of ``u`` against a test function.

    ``u`` is an EvolutionSolution (exact load-vector path), or a callable
    ``u(t, xs)`` / scalar together with an explicit ``grid`` and 1-D
    ``domain`` interval (``cells`` composite-Gauss panels).  ``v`` is a test
    dictionary name; vector dictionary names pair the flux components
    (1, 2) of a 2-D solution.  ``domain`` restricts the spatial integral;
    one no longer than 1e-10 (empty or reversed) raises ValueError on
    either path, and so does a non-finite bound on the callable path.
    """
    if isinstance(u, EvolutionSolution):
        return read_stored([pairing_reader(u.problem, v, domain, component)], u)[0]
    _check_operand(u)
    if grid is None or not isinstance(grid, TimeGrid):
        raise ValueError("callable pairings need an explicit TimeGrid")
    if domain is None:
        raise ValueError("callable pairings need an explicit domain interval")
    lo, hi = map(float, domain)
    # the rule of spaces.merge_cuts; a non-finite bound fails it too
    if not (hi - lo > _NODE_TOL and math.isfinite(hi - lo)):
        raise ValueError("empty restriction interval")
    spatial, temporal = _scalar_test(v)
    cells = as_count(cells, 1, "a callable pairing needs an integer number of cells >= 1")
    xs, ws = gauss_panels(np.linspace(lo, hi, cells + 1), _PAIRING_POINTS)
    tq, wq = slab_gauss(grid)
    values = _sampler(u, (xs,))(tq.ravel())
    p = (ws * as_field(spatial)(xs)) @ values
    w = wq if temporal is None else wq * np.asarray(temporal(tq), dtype=float)
    return float(np.sum(w * p.reshape(tq.shape)))


def _check_operand(obj):
    """Raise TypeError unless ``obj`` is an operand: a solution, a real or a callable."""
    if not (isinstance(obj, (EvolutionSolution, numbers.Real)) or callable(obj)):
        raise TypeError(f"{obj!r} is not a solution, a real constant or a callable")


def _sampler(obj, pts):
    """fn(ts) -> values of a callable ``obj(t, *pts)`` or a constant at the
    points (rows) and the times ts (columns)."""
    if isinstance(obj, numbers.Real):
        return lambda ts: np.full((pts[0].size, len(ts)), float(obj))
    return lambda ts: np.stack([np.asarray(obj(t, *pts), dtype=float) for t in ts], 1)


def strong_norm_reader(problem, ref, component, subdomain):
    """``read(c)``: :func:`strong_norm_diff` against ``ref`` of a solution
    of ``problem``, read in blocks of slabs as in :func:`pairing_reader`."""
    _check_operand(ref)
    refs = [ref.problem] if isinstance(ref, EvolutionSolution) else []
    spaces = [p.spaces[component] for p in (problem, *refs)]
    if len({len(s.lines) for s in spaces}) > 1:
        raise ValueError("incompatible components: 1-D vs 2-D spaces")
    rules = []  # one Gauss rule a line, on the cuts of that line of every space
    for lines, bounds in zip(zip(*(s.lines for s in spaces)), _per_line(spaces[0], subdomain)):
        # 1 + the highest degree integrates the squared difference exactly
        npts = _NORM_POINTS if callable(ref) else 1 + max(s.degree for s in lines)
        rules.append(gauss_panels(merge_cuts(lines, *(bounds or (None, None))), npts))
    # the points are the product of the per-line nodes, x fastest
    nodes, weights = zip(*rules)
    ws = functools.reduce(np.kron, weights[::-1])
    pts = tuple(g.ravel() for g in np.meshgrid(*nodes))

    fu, wt = point_evaluator(spaces[0], nodes), problem.grid.basis_masses()
    if callable(ref):
        tq, wt = slab_gauss(problem.grid)
        f, sample = fu, _sampler(ref, pts)
        fu, fr = (lambda c: f(c) @ _GAUSS_BASIS), (lambda m: sample(tq[m]))
    elif isinstance(ref, numbers.Real):  # the coefficients (ref, 0) at every point
        fr = lambda m: np.array([[ref, 0.0]])
    elif np.array_equal(ref.grid.t_points, problem.grid.t_points):
        g, rows = point_evaluator(spaces[1], nodes), ref.problem.component_slice(component)
        fr = lambda m: g(ref.unfold(ref.stored[m], rows))
    else:
        raise ValueError("strong norms of two discrete solutions need one time grid")
    acc, done = 0.0, 0

    def read(c):
        nonlocal acc, done
        for cm in c[:, :, problem.component_slice(component)]:
            d = fu(cm) - fr(done)
            acc += float(wt[done] @ (ws @ np.square(d, out=d)))
            done += 1
        return math.sqrt(acc)

    return read


def strong_norm_diff(u, ref, component=0):
    """Space-time L2 norm of (u - ref) on a component (:func:`strong_norm_reader`).

    ``u`` is an EvolutionSolution; ``ref`` is one on a possibly different
    mesh but one time grid (other time points raise ValueError), a callable
    ``f(t, xs)`` / ``f(t, xg, yg)``, or a constant.  The module docstring
    gives the rules in time and in space.
    """
    if not isinstance(u, EvolutionSolution):
        raise ValueError("strong norms need u to be a discrete solution")
    return read_stored([strong_norm_reader(u.problem, ref, component, None)], u)[0]


def read_stored(readers, sol):
    """The last values of ``readers`` fed a stored solution in one pass, in
    blocks of about 1 MB, each block unfolded once for all of them."""
    k, stored = sol.problem.block, sol.stored
    for a in range(0, len(stored), k):
        c = sol.unfold(stored[a : a + k], slice(None))
        values = [read(c) for read in readers]
    return values


def fit_rate(points):
    """Least-squares slope of log(value) against log(n)."""
    pts = sorted((float(n), float(v)) for n, v in points)
    if len(pts) < 3:
        raise ValueError("rate fits need at least three points")
    ns = np.asarray([p[0] for p in pts])
    vs = np.asarray([p[1] for p in pts])
    if np.any(vs <= 0.0) or np.any(ns <= 0.0):
        raise ValueError("rate fits need positive abscissae and values")
    return float(np.polyfit(np.log(ns), np.log(vs), 1)[0])


@dataclass(frozen=True)
class ConvergenceReport:
    """Rows of (n, quantity, value) for one example family.

    Rows with n = 0 carry fitted slopes (quantity ``slope_<name>``).
    """

    example: str
    rows: tuple

    def __post_init__(self):
        rows = tuple((int(n), str(q), float(v)) for n, q, v in self.rows)
        object.__setattr__(self, "rows", rows)
        per_q = {}
        for n, q, v in rows:
            if not math.isfinite(v):
                raise ValueError(f"non-finite value for {q!r} at n = {n}")
            if n > 0:
                per_q.setdefault(q, set()).add(n)
        ns = set()
        for got in per_q.values():
            ns |= got
        for q, got in per_q.items():
            if got != ns:
                raise ValueError(f"quantity {q!r} missing for some n")

    def quantities(self):
        return tuple(sorted({q for n, q, _ in self.rows if n > 0}))

    def series(self, quantity):
        out = [(n, v) for n, q, v in self.rows if q == quantity and n > 0]
        if not out:
            raise KeyError(f"no rows for quantity {quantity!r}")
        return sorted(out)

    def value(self, n, quantity):
        for rn, q, v in self.rows:
            if rn == n and q == quantity:
                return v
        raise KeyError(f"no row ({n}, {quantity!r})")


def write_csv(fh, example, rows):
    """CSV with columns exactly example, n, quantity, value, written to the
    open text stream ``fh``."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["example", "n", "quantity", "value"])
    for n, q, v in rows:
        writer.writerow([example, int(n), q, f"{float(v):.12e}"])
