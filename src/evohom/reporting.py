"""Space-time pairings, strong norms, rate fits, and CSV reports.

The laboratory's reported quantities are unweighted space-time L2 inner
products over [0, T] x domain: pairings of a solution (discrete or oracle)
against a fixed dictionary of test functions, and strong norms of
differences against a reference.  Time takes one of two rules.  A strong
norm whose operands are discrete solutions on the same time points or
constants sums, slab by slab, the squared differences of the operands' two
dG(1) time coefficients weighted by the exact masses h and h/3 of the
orthogonal pair (l0, l1) (:meth:`TimeGrid.basis_masses`); a constant c has
the coefficients (c, 0).  Every other pairing or strong norm takes the
4-point per-slab Gauss rule (:func:`slab_gauss`) of the first discrete
operand's grid (or a callable pairing's explicit grid), at whose times
discrete solutions are read by :meth:`TimeGrid.evaluate` (through
:meth:`EvolutionSolution.coefficients_at` for strong norms).  Space takes
the one 1-D path of :mod:`evohom.spaces`: a solution pairing sums
``(component, load vector)`` terms from :func:`restricted_load`, strong
norms evaluate each solution with :func:`eval_matrix_1d` at the Gauss points
of the partition that :func:`merge_cuts` merges from the cells of all
discrete operands (on tensor spaces one matrix per direction, applied in
turn: sum factorisation), and callable or constant operands of both go
through one evaluator.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .solver import EvolutionSolution
from .spaces import (
    TensorSpace,
    coeff_values,
    eval_matrix_1d,
    gauss_panels,
    merge_cuts,
    restricted_load,
)
from .timequad import TimeGrid

__all__ = [
    "TEST_DICTIONARY_1D",
    "VECTOR_TEST_DICTIONARY",
    "gauss_panels",
    "slab_gauss",
    "restricted_load",
    "eval_matrix_1d",
    "pairing",
    "strong_norm_diff",
    "fit_rate",
    "ConvergenceReport",
    "write_csv",
]

# Scalar test dictionary: name -> (spatial factor or None for 1, temporal
# factor or None for 1).  The names double as CSV quantity suffixes.
TEST_DICTIONARY_1D = {
    "1": (None, None),
    "x": (lambda x: x, None),
    "x2": (lambda x: x * x, None),
    "sinpix": (lambda x: np.sin(np.pi * x), None),
    "t": (None, lambda t: t),
}

# Vector test dictionary for the 2-D flux pair: name -> (component-1 term,
# component-2 term), each a separable (fx, fy) pair of 1-D callables or
# None for a vanishing component (scalars mean constants).
VECTOR_TEST_DICTIONARY = {
    "x0": ((lambda x: x, 1.0), None),
    "0y": (None, (1.0, lambda y: y)),
    "sinpix0": ((lambda x: np.sin(np.pi * x), 1.0), None),
    "0sinpiy": (None, (1.0, lambda y: np.sin(np.pi * y))),
    "1": ((1.0, 1.0), (1.0, 1.0)),
}


# Gauss points per panel of a callable pairing and per strong-norm cell.
_PAIRING_POINTS = 8
_NORM_POINTS = 3


def slab_gauss(grid, npts=4):
    """Per-slab Gauss nodes/weights on [0, T]: arrays of shape (M, npts)."""
    tq, wq = gauss_panels(grid.t_points, npts)
    return tq.reshape(-1, npts), wq.reshape(-1, npts)


def _scalar_test(v):
    """The (spatial, temporal) factors of a scalar test dictionary name."""
    if v not in TEST_DICTIONARY_1D:
        raise ValueError(f"dictionary mismatch: {v!r} is not a scalar test function")
    return TEST_DICTIONARY_1D[v]


def _load_terms(sol, v, domain, component):
    """A test function as ``(component, load vector)`` terms and a temporal factor.

    Vector dictionary names give one term per non-vanishing flux component
    (1, 2) of a 2-D solution; anything else is one scalar term.
    """
    spaces = sol.problem.spaces
    if v in VECTOR_TEST_DICTIONARY and (
        v not in TEST_DICTIONARY_1D
        or isinstance(spaces[min(1, len(spaces) - 1)], TensorSpace)
    ):
        if len(spaces) < 3 or not all(
            isinstance(spaces[k], TensorSpace) for k in (1, 2)
        ):
            raise ValueError(
                "dictionary mismatch: vector tests need a 2-D flux pair"
            )
        dx, dy = ((None, None), (None, None)) if domain is None else domain
        terms = []
        for k, term in zip((1, 2), VECTOR_TEST_DICTIONARY[v]):
            if term is not None:
                fx, fy = term
                r = np.kron(
                    restricted_load(spaces[k].sx, fx, *dx),
                    restricted_load(spaces[k].sy, fy, *dy),
                )
                terms.append((k, r))
        return terms, None
    spatial, temporal = _scalar_test(v)
    space = spaces[component]
    if isinstance(space, TensorSpace):
        raise ValueError(
            "dictionary mismatch: scalar test on a 2-D component; "
            "use the vector test dictionary"
        )
    lo, hi = (None, None) if domain is None else domain
    return [(component, restricted_load(space, spatial, lo, hi))], temporal


def pairing(u, v, domain=None, component=0, *, grid=None, cells=64):
    """Unweighted space-time L2 pairing of ``u`` against a test function.

    ``u`` is an EvolutionSolution (exact load-vector path), or a callable
    ``u(t, xs)`` / scalar together with an explicit ``grid`` and 1-D
    ``domain`` interval (``cells`` composite-Gauss panels).  ``v`` is a test
    dictionary name; vector dictionary names pair the flux components
    (1, 2) of a 2-D solution.  ``domain`` restricts the spatial integral.
    """
    if isinstance(u, EvolutionSolution):
        terms, temporal = _load_terms(u, v, domain, component)
        tq, wq = slab_gauss(u.grid)
        # Project each slab's coefficients onto the load before reading them
        # in time, so no (times x DOFs) array is formed.
        spatial_pairings = [
            u.grid.evaluate(u.coeffs[:, :, u.problem.component_slice(k)] @ r, tq)
            for k, r in terms
        ]
    else:
        if grid is None or not isinstance(grid, TimeGrid):
            raise ValueError("callable pairings need an explicit TimeGrid")
        if domain is None:
            raise ValueError("callable pairings need an explicit domain interval")
        spatial, temporal = _scalar_test(v)
        xs, ws = gauss_panels(
            np.linspace(domain[0], domain[1], int(cells) + 1), _PAIRING_POINTS
        )
        tq, wq = slab_gauss(grid)
        values = _evaluator(u, component, (xs,), None)(tq.ravel())
        wsv = ws * coeff_values(spatial, xs)
        spatial_pairings = [(wsv @ values).reshape(tq.shape)]
    w = wq if temporal is None else wq * np.asarray(temporal(tq), dtype=float)
    return sum(float(np.sum(w * p)) for p in spatial_pairings)


def _evaluator(obj, component, pts, point_values):
    """Return fn(ts) -> values of obj at the points (rows) and times ts (columns).

    ``obj`` is a solution (its coefficients at ts, one row per time, mapped
    to point values by ``point_values(space)``), a callable
    ``obj(t, *pts)`` or a constant.
    """
    if isinstance(obj, EvolutionSolution):
        f = point_values(obj.problem.spaces[component])
        return lambda ts: f(obj.coefficients_at(ts, component))
    if np.isscalar(obj):
        return lambda ts: np.full((pts[0].size, len(ts)), float(obj))
    return lambda ts: np.stack(
        [np.asarray(obj(t, *pts), dtype=float) for t in ts], axis=1
    )


def strong_norm_diff(u, ref, component=0, subdomain=None):
    """Space-time L2 norm of (u - ref) on a component over a subdomain.

    ``u`` and ``ref`` are EvolutionSolutions on possibly different meshes
    and time grids (evaluated on the union-cell Gauss points of the finer
    partition), callables ``f(t, xs)`` / ``f(t, xg, yg)``, or constants.  At
    least one must be a discrete solution.  Without a callable, and with
    every discrete operand on the same time points, each slab is read at
    its two dG(1) time coefficients and weighted by their masses (h, h/3),
    which is exact; otherwise each slab is read at the 4 Gauss times of
    the first discrete operand's grid.  On tensor spaces the 2-D points are
    the y-major product of the 1-D ones, and a solution is evaluated by sum
    factorisation: its coefficients, reshaped to (times or time
    coefficients, nx, ny), are multiplied by the x evaluation matrix along
    x and then by the y one along y, so no 2-D evaluation matrix is formed.
    Values are formed one slab at a time: a whole-grid array would not fit
    in memory for the finest 2-D runs.
    """
    sols = [o for o in (u, ref) if isinstance(o, EvolutionSolution)]
    if not sols:
        raise ValueError("strong norms need at least one discrete solution")
    spaces = [s.problem.spaces[component] for s in sols]
    two_d = isinstance(spaces[0], TensorSpace)
    if any(isinstance(s, TensorSpace) != two_d for s in spaces):
        raise ValueError("incompatible components: 1-D vs 2-D spaces")
    if two_d:
        sx, sy = (None, None) if subdomain is None else subdomain
        xcuts = merge_cuts([s.sx for s in spaces], *(sx or (None, None)))
        ycuts = merge_cuts([s.sy for s in spaces], *(sy or (None, None)))
        xs, wx = gauss_panels(xcuts, _NORM_POINTS)
        ys, wy = gauss_panels(ycuts, _NORM_POINTS)
        ws = np.kron(wy, wx)
        pts = (np.tile(xs, ys.size), np.repeat(ys, xs.size))

        def point_values(space):
            ex = eval_matrix_1d(space.sx, xs)
            ey = eval_matrix_1d(space.sy, ys)
            nx, ny = space.sx.ndof, space.sy.ndof

            def f(c):
                # ex along x, then ey along y.  Only the two small arrays
                # before the last product are transposed; that product
                # lands in (ys, xs, times) order, i.e. (points, times).
                nt = len(c)
                a = ex @ c.reshape(nt, nx, ny).transpose(1, 0, 2).reshape(nx, -1)
                a = a.reshape(-1, nt, ny).transpose(2, 0, 1).reshape(ny, -1)
                return (ey @ a).reshape(-1, nt)

            return f

    else:
        cuts = merge_cuts(spaces, *(subdomain or (None, None)))
        xs, ws = gauss_panels(cuts, _NORM_POINTS)
        pts = (xs,)

        def point_values(space):
            e = eval_matrix_1d(space, xs)
            return lambda c: e @ c.T

    grid = sols[0].grid
    if all(
        np.isscalar(o)
        or (
            isinstance(o, EvolutionSolution)
            and np.array_equal(o.grid.t_points, grid.t_points)
        )
        for o in (u, ref)
    ):
        # Values at the two time coefficients, weighted by the masses of
        # the orthogonal pair (l0, l1); a constant c has coefficients (c, 0).
        wt = grid.basis_masses()

        def read(obj):
            if np.isscalar(obj):
                v = np.zeros((pts[0].size, 2))
                v[:, 0] = obj
                return lambda m: v
            f = point_values(obj.problem.spaces[component])
            c = obj.coeffs[:, :, obj.problem.component_slice(component)]
            return lambda m: f(c[m])

    else:
        tq, wt = slab_gauss(grid)

        def read(obj):
            f = _evaluator(obj, component, pts, point_values)
            return lambda m: f(tq[m])

    fu, fr = read(u), read(ref)
    acc = 0.0
    for m in range(wt.shape[0]):
        d = fu(m) - fr(m)
        acc += float(wt[m] @ (ws @ np.square(d, out=d)))
    return math.sqrt(max(acc, 0.0))


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

    def write(self, path):
        write_csv(path, self.example, self.rows)


def write_csv(path, example, rows):
    """CSV with columns exactly example, n, quantity, value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["example", "n", "quantity", "value"])
        for n, q, v in rows:
            writer.writerow([example, int(n), q, f"{float(v):.12e}"])
