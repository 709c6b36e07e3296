"""Space-time pairings, strong norms, rate fits, and CSV reports.

The laboratory's reported quantities are unweighted space-time L2 inner
products over [0, T] x domain: pairings of a solution (discrete or oracle)
against a fixed dictionary of test functions, and strong norms of
differences against a reference.  A solution is read by readers
(:func:`pairing_reader`, :func:`strong_norm_reader`) that take its slabs in
blocks as a march yields them, each slab in its two dG(1) time coefficients
``coeffs[m, 0:2]``.  A strong norm between discrete solutions on one time
grid, or against a constant c (the coefficients (c, 0)), weights the
squared differences of those coefficients by the exact masses h and h/3 of
the orthogonal pair (l0, l1) (:meth:`TimeGrid.basis_masses`).  Every other
pairing or strong norm takes the 4-point per-slab Gauss rule
(:func:`slab_gauss`) of the discrete operand's grid (or a callable
pairing's explicit grid), at the same local coordinates on every slab, so
a solution's values there are its coefficients times one fixed 2 x 4
matrix, ``_GAUSS_BASIS``.  Space takes the one 1-D path of
:mod:`evohom.spaces`: a solution pairing sums ``(component, load vector)``
terms from :func:`restricted_load`, strong norms evaluate each solution
with :func:`eval_matrix_1d` at the Gauss points of the partition that
:func:`merge_cuts` merges from the cells of all discrete operands (on
tensor spaces one matrix per direction, applied in turn: sum
factorisation), and callable operands of both go through one evaluator.
A strong norm takes 1 + the highest polynomial degree of its discrete
operands' spaces Gauss points per merged cell in each direction (a
constant counts as degree 0), which integrates the squared difference
exactly; against a callable it takes a fixed 3 (``_NORM_POINTS``).
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .meshes import gauss_rule
from .solver import EvolutionSolution
from .spaces import (
    TensorSpace,
    coeff_values,
    eval_matrix_1d,
    gauss_panels,
    merge_cuts,
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
    "strong_norm_diff",
    "strong_norm_reader",
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


def _load_terms(problem, v, domain, component):
    """A test function as ``(component, load vector)`` terms and a temporal factor.

    The component's space picks the dictionary: on a 2-D component ``v``
    names a vector test, one term per non-vanishing flux component (1, 2);
    on a 1-D component it names a scalar test, one term.
    """
    spaces = problem.spaces
    space = spaces[component]
    if isinstance(space, TensorSpace):
        if v not in VECTOR_TEST_DICTIONARY:
            raise ValueError(
                "dictionary mismatch: scalar test on a 2-D component; "
                "use the vector test dictionary"
            )
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
    lo, hi = (None, None) if domain is None else domain
    return [(component, restricted_load(space, spatial, lo, hi))], temporal


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
    (1, 2) of a 2-D solution.  ``domain`` restricts the spatial integral.
    """
    if isinstance(u, EvolutionSolution):
        return pairing_reader(u.problem, v, domain, component)(u.coeffs)
    if grid is None or not isinstance(grid, TimeGrid):
        raise ValueError("callable pairings need an explicit TimeGrid")
    if domain is None:
        raise ValueError("callable pairings need an explicit domain interval")
    spatial, temporal = _scalar_test(v)
    xs, ws = gauss_panels(
        np.linspace(domain[0], domain[1], int(cells) + 1), _PAIRING_POINTS
    )
    tq, wq = slab_gauss(grid)
    values = _sampler(u, (xs,))(tq.ravel())
    p = (ws * coeff_values(spatial, xs)) @ values
    w = wq if temporal is None else wq * np.asarray(temporal(tq), dtype=float)
    return float(np.sum(w * p.reshape(tq.shape)))


def _sampler(obj, pts):
    """fn(ts) -> values of a callable ``obj(t, *pts)`` or a constant at the
    points (rows) and the times ts (columns)."""
    if np.isscalar(obj):
        return lambda ts: np.full((pts[0].size, len(ts)), float(obj))
    return lambda ts: np.stack([np.asarray(obj(t, *pts), dtype=float) for t in ts], 1)


def strong_norm_reader(problem, ref, component, subdomain):
    """``read(c)``: :func:`strong_norm_diff` against ``ref`` of a solution
    of ``problem``, read in blocks of slabs as in :func:`pairing_reader`."""
    refs = [ref.problem] if isinstance(ref, EvolutionSolution) else []
    spaces = [p.spaces[component] for p in (problem, *refs)]
    two_d = isinstance(spaces[0], TensorSpace)
    if any(isinstance(s, TensorSpace) != two_d for s in spaces):
        raise ValueError("incompatible components: 1-D vs 2-D spaces")

    def panels(cuts, lines):
        # 1 + the highest degree integrates the squared difference exactly
        npts = _NORM_POINTS if callable(ref) else 1 + max(s.degree for s in lines)
        return gauss_panels(cuts, npts)

    if two_d:
        sx, sy = (None, None) if subdomain is None else subdomain
        lines_x, lines_y = [s.sx for s in spaces], [s.sy for s in spaces]
        xs, wx = panels(merge_cuts(lines_x, *(sx or (None, None))), lines_x)
        ys, wy = panels(merge_cuts(lines_y, *(sy or (None, None))), lines_y)
        ws = np.kron(wy, wx)
        pts = (np.tile(xs, ys.size), np.repeat(ys, xs.size))

        def point_values(space):
            ex = eval_matrix_1d(space.sx, xs)
            ey = eval_matrix_1d(space.sy, ys)
            nx, ny = space.sx.ndof, space.sy.ndof

            def f(c):
                # ex along x, then ey along y.  Only the two small arrays
                # before the last product are transposed; that product
                # lands in (ys, xs, coefficients) order, i.e. (points, 2).
                a = ex @ c.reshape(2, nx, ny).transpose(1, 0, 2).reshape(nx, -1)
                a = a.reshape(-1, 2, ny).transpose(2, 0, 1).reshape(ny, -1)
                return (ey @ a).reshape(-1, 2)

            return f

    else:
        xs, ws = panels(merge_cuts(spaces, *(subdomain or (None, None))), spaces)
        pts = (xs,)

        def point_values(space):
            e = eval_matrix_1d(space, xs)
            return lambda c: e @ c.T

    fu, wt = point_values(spaces[0]), problem.grid.basis_masses()
    if callable(ref):
        tq, wt = slab_gauss(problem.grid)
        f, sample = fu, _sampler(ref, pts)
        fu, fr = (lambda c: f(c) @ _GAUSS_BASIS), (lambda m: sample(tq[m]))
    elif np.isscalar(ref):  # the coefficients (ref, 0) at every point
        fr = lambda m: np.array([[ref, 0.0]])
    elif np.array_equal(ref.grid.t_points, problem.grid.t_points):
        g = point_values(spaces[1])
        rc = ref.coeffs[:, :, ref.problem.component_slice(component)]
        fr = lambda m: g(rc[m])
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
    mesh but one time grid (evaluated on the Gauss points of the cells
    merged from both meshes, 1 + the higher degree per cell and direction;
    other time points raise ValueError), a callable ``f(t, xs)`` /
    ``f(t, xg, yg)`` (3 points per cell and direction), or a constant.
    Each slab is read at its two dG(1) time coefficients.
    Without a callable they are weighted by their masses (h, h/3), which is
    exact; with one, they are mapped to the slab's 4 Gauss times
    (``_GAUSS_BASIS``), where the callable is read.  On tensor spaces the
    2-D points are the y-major product of the 1-D ones, and a solution is
    evaluated by sum factorisation: its two time coefficients, reshaped to
    (2, nx, ny), are multiplied by the x evaluation matrix along x and then
    by the y one along y, so no 2-D evaluation matrix is formed.
    """
    if not isinstance(u, EvolutionSolution):
        raise ValueError("strong norms need u to be a discrete solution")
    return strong_norm_reader(u.problem, ref, component, None)(u.coeffs)


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
