"""Closed-form homogenised limits for stratified oscillating media.

Covers four things:

* exact integral means of periodic coefficient fields,
* the stratified (layered-medium) effective tensor given in closed form by
  the classical mean formulas, plus the dual route that inverts pointwise,
  homogenises, and inverts back,
* Schur-type block quantities of a two-part splitting (the four operators
  that characterise block convergence) and a probe metric between two
  operators' quantities,
* the registry of limit material laws of the built-in example families,
  with memory entries in rational form.

A brute-force periodic cell-problem FEM solve is included as an
independent numerical oracle for the stratified formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .fields import (
    ANY_PERIOD,
    Constant,
    Field,
    RegionIndicator,
    as_field,
)
from .laws import MaterialLaw, MemoryTerm, _omega1_2d

__all__ = [
    "EffectiveTensor",
    "SchurQuad",
    "build_limit_law",
    "cell_problem_fem",
    "cell_problem_oracle",
    "default_probes",
    "dual_stratified_limit",
    "homogenise_stratified",
    "integral_mean",
    "pointwise_inverse",
    "schur_blocks",
    "schur_distance",
]

_GAUSS_PTS = 12
_POS_TOL = 1e-12


# ---------------------------------------------------------------------------
# Integral means
# ---------------------------------------------------------------------------


class _DerivedField(Field):
    """A pointwise function of parent fields (quotients, adjugates, ...).

    Keeps enough of the tree structure (breakpoints, period, piecewise
    constancy) for the mean integrator to stay exact where the parents
    permit.
    """

    def __init__(self, fn, parents):
        self.fn = fn
        self.parents = [as_field(p) for p in parents]

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def breakpoints(self, a, b):
        pts = np.concatenate([p.breakpoints(a, b) for p in self.parents] + [np.empty(0)])
        return np.unique(pts)

    def period(self):
        from .fields import _merge_periods

        return _merge_periods([p.period() for p in self.parents])

    def is_piecewise_constant(self):
        return all(p.is_piecewise_constant() for p in self.parents)

    def is_smooth(self):
        return all(p.is_smooth() for p in self.parents)

    def __repr__(self):
        return f"DerivedField({self.parents})"


def _quotient(num, den):
    num, den = as_field(num), as_field(den)
    return _DerivedField(lambda x: num(x) / den(x), [num, den])


def _cuts_on_period(f, ell):
    inner = np.asarray(f.breakpoints(0.0, ell), dtype=float)
    cuts = np.unique(np.concatenate([[0.0, ell], inner]))
    keep = [cuts[0]]
    for p in cuts[1:]:
        if p - keep[-1] > 1e-13 * ell:
            keep.append(p)
    return np.asarray(keep)


def integral_mean(coeff, period=1.0):
    """Mean value (1/l) * int_0^l coeff of an l-periodic coefficient.

    Piecewise-constant trees are integrated exactly by midpoint sampling on
    the breakpoint partition; all other trees use composite Gauss quadrature
    subdivided well below the finest child period (absolute accuracy better
    than 1e-12 for the smooth families used here).  Raises for coefficients
    that are not periodic with the given period.
    """
    f = as_field(coeff)
    ell = float(period)
    if ell <= 0.0:
        raise ValueError("period must be positive")
    if not f.is_periodic_with(ell):
        raise ValueError(f"coefficient {f!r} is not periodic with period {ell}")
    cuts = _cuts_on_period(f, ell)
    widths = np.diff(cuts)
    if f.is_piecewise_constant():
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        return float(np.dot(widths, f(mids))) / ell

    p = f.period()
    finest = ell if p in (None, ANY_PERIOD) else min(p, ell)
    max_chunk = finest / 8.0
    gx, gw = np.polynomial.legendre.leggauss(_GAUSS_PTS)
    total = 0.0
    for a, w in zip(cuts[:-1], widths):
        nchunk = max(1, int(np.ceil(w / max_chunk)))
        edges = a + w * np.linspace(0.0, 1.0, nchunk + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gx
            total += 0.5 * (hi - lo) * float(np.dot(gw, f(pts)))
    return total / ell


# ---------------------------------------------------------------------------
# Stratified effective tensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectiveTensor:
    """Constant effective tensor with a provenance note per entry."""

    matrix: np.ndarray
    provenance: tuple = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __repr__(self):
        return f"EffectiveTensor({self.matrix.tolist()})"


def _normalise_matrix(a_hat):
    rows = list(a_hat)
    d = len(rows)
    out = []
    for row in rows:
        entries = list(row)
        if len(entries) != d:
            raise ValueError("coefficient matrix must be square")
        out.append([as_field(e) for e in entries])
    return out


def _is_zero_entry(f):
    return isinstance(f, Constant) and f.value == 0.0


def _check_periodic_matrix(A, ell):
    for i, row in enumerate(A):
        for j, entry in enumerate(row):
            if not entry.is_periodic_with(ell):
                raise ValueError(
                    f"entry ({i}, {j}) = {entry!r} is not periodic with period {ell}"
                )


def _sample_on_period(f, ell, nsamp=4096):
    cuts = _cuts_on_period(f, ell)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    xs = np.concatenate([mids, np.linspace(0.0, ell, nsamp, endpoint=False) + ell / (2 * nsamp)])
    return f(xs)


def homogenise_stratified(a_hat, period=1.0):
    """Effective tensor of a layered medium a_hat(x1) by the mean formulas.

    ``a_hat`` is a d x d matrix (nested sequence) of coefficient fields of
    the stratification coordinate, periodic with ``period``.  Entries:

        b_11 = 1/m(1/a11)
        b_1j = m(a1j/a11) / m(1/a11)          (j >= 2)
        b_i1 = m(ai1/a11) / m(1/a11)          (i >= 2)
        b_ij = m(aij - ai1*a1j/a11)
               + m(ai1/a11) m(a1j/a11) / m(1/a11)   (i, j >= 2)

    Requires a11 uniformly positive (checked on samples).
    """
    A = _normalise_matrix(a_hat)
    d = len(A)
    ell = float(period)
    _check_periodic_matrix(A, ell)
    a11 = A[0][0]
    if float(np.min(_sample_on_period(a11, ell))) <= _POS_TOL:
        raise ValueError("the 11-entry must be uniformly positive")

    m_inv = integral_mean(_quotient(Constant(1.0), a11), ell)
    c1 = 1.0 / m_inv
    mat = np.zeros((d, d))
    prov = [["" for _ in range(d)] for _ in range(d)]
    mat[0, 0] = c1
    prov[0][0] = "1/m(1/a11)"
    r_row = np.zeros(d)  # m(a1j/a11)
    r_col = np.zeros(d)  # m(ai1/a11)
    for j in range(1, d):
        r_row[j] = integral_mean(_quotient(A[0][j], a11), ell)
        mat[0, j] = c1 * r_row[j]
        prov[0][j] = "m(a1j/a11)/m(1/a11)"
    for i in range(1, d):
        r_col[i] = integral_mean(_quotient(A[i][0], a11), ell)
        mat[i, 0] = c1 * r_col[i]
        prov[i][0] = "m(ai1/a11)/m(1/a11)"
    for i in range(1, d):
        for j in range(1, d):
            aij = A[i][j]
            cross = _DerivedField(
                lambda x, i=i, j=j: A[i][j](x) - A[i][0](x) * A[0][j](x) / a11(x),
                [aij, A[i][0], A[0][j], a11],
            )
            mat[i, j] = integral_mean(cross, ell) + c1 * r_col[i] * r_row[j]
            prov[i][j] = "m(aij - ai1*a1j/a11) + m(ai1/a11)*m(a1j/a11)/m(1/a11)"
    return EffectiveTensor(mat, tuple(tuple(r) for r in prov))


def pointwise_inverse(a_hat, period=1.0):
    """Pointwise matrix inverse of a coefficient matrix, as derived fields.

    Supported shapes: diagonal matrices of any size (entrywise reciprocal)
    and full 2 x 2 matrices (adjugate over determinant).  Raises when the
    sampled determinant is not bounded away from zero.
    """
    A = _normalise_matrix(a_hat)
    d = len(A)
    ell = float(period)
    diagonal = all(
        _is_zero_entry(A[i][j]) for i in range(d) for j in range(d) if i != j
    )
    if diagonal:
        out = []
        for i in range(d):
            aii = A[i][i]
            if float(np.min(np.abs(_sample_on_period(aii, ell)))) <= _POS_TOL:
                raise ValueError("singular pointwise inverse: zero diagonal entry")
            row = [as_field(0.0) for _ in range(d)]
            row[i] = _quotient(Constant(1.0), aii)
            out.append(row)
        return out
    if d != 2:
        raise ValueError(
            "pointwise inverse is implemented for diagonal matrices and full 2x2"
        )
    a, b, c, e = A[0][0], A[0][1], A[1][0], A[1][1]
    det = _DerivedField(lambda x: a(x) * e(x) - b(x) * c(x), [a, b, c, e])
    if float(np.min(np.abs(_sample_on_period(det, ell)))) <= _POS_TOL:
        raise ValueError("singular pointwise inverse: determinant vanishes on samples")
    return [
        [_quotient(e, det), _DerivedField(lambda x: -b(x) / det(x), [b, det])],
        [_DerivedField(lambda x: -c(x) / det(x), [c, det]), _quotient(a, det)],
    ]


def dual_stratified_limit(a_hat, period=1.0):
    """Invert pointwise, homogenise the inverse family, and invert back."""
    inv = pointwise_inverse(a_hat, period)
    hom = homogenise_stratified(inv, period)
    back = np.linalg.inv(hom.matrix)
    prov = tuple(
        tuple("inverse of dual limit: " + p for p in row) for row in hom.provenance
    )
    return EffectiveTensor(back, prov)


# ---------------------------------------------------------------------------
# Brute-force cell-problem oracle
# ---------------------------------------------------------------------------


def cell_problem_fem(avals, widths):
    """Effective tensor from a periodic P1 solve of the layered cell problem.

    ``avals`` has shape (ncell, d, d): the tensor per mesh cell of one
    period; ``widths`` the cell widths.  Solves the corrector equation
    (a11 chi_j')' = -(a_1j)' weakly with periodic boundary conditions and
    averages the corrected fluxes.  Entirely independent of the closed-form
    mean formulas.
    """
    avals = np.asarray(avals, dtype=float)
    widths = np.asarray(widths, dtype=float)
    ncell, d, _ = avals.shape
    ell = float(widths.sum())
    n = ncell  # periodic P1: one DOF per cell boundary, node n == node 0
    left = np.arange(n)
    right = (left + 1) % n
    k = avals[:, 0, 0] / widths
    rows = np.concatenate([left, right, left, right])
    cols = np.concatenate([left, right, right, left])
    vals = np.concatenate([k, k, -k, -k])
    K = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    hom = np.zeros((d, d))
    for jdir in range(d):
        g = avals[:, 0, jdir]
        rhs = np.zeros(n)
        np.add.at(rhs, left, g)
        np.add.at(rhs, right, -g)
        Kp = K.tolil()
        Kp[0, :] = 0.0
        Kp[0, 0] = 1.0
        rhs[0] = 0.0
        chi = spsolve(Kp.tocsc(), rhs)
        dchi = (chi[right] - chi[left]) / widths
        hom[:, jdir] = (
            np.sum(widths[:, None] * (avals[:, :, jdir] + avals[:, :, 0] * dchi[:, None]), axis=0)
            / ell
        )
    return hom


def cell_problem_oracle(a_hat, period=1.0, ncells=1024, richardson=True):
    """Sample a coefficient matrix on a fine aligned mesh and run the FEM.

    The mesh is uniform with the entries' breakpoints inserted (so layered
    two-phase media are resolved exactly); coefficients are midpoint
    sampled.  With ``richardson`` the solve is repeated on the doubled mesh
    and extrapolated, which removes the leading quadrature error for smooth
    coefficients.
    """
    A = _normalise_matrix(a_hat)
    d = len(A)
    ell = float(period)
    _check_periodic_matrix(A, ell)
    breaks = np.unique(
        np.concatenate(
            [np.asarray(A[i][j].breakpoints(0.0, ell), dtype=float) for i in range(d) for j in range(d)]
            + [np.empty(0)]
        )
    )

    def solve(nc):
        cuts = np.unique(np.concatenate([np.linspace(0.0, ell, nc + 1), breaks]))
        widths = np.diff(cuts)
        keep = widths > 1e-13 * ell
        cuts = np.concatenate([[0.0], cuts[1:][keep]])
        widths = np.diff(cuts)
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        avals = np.empty((mids.size, d, d))
        for i in range(d):
            for j in range(d):
                avals[:, i, j] = A[i][j](mids)
        return cell_problem_fem(avals, widths)

    t1 = solve(int(ncells))
    if not richardson:
        return t1
    t2 = solve(2 * int(ncells))
    return (4.0 * t2 - t1) / 3.0


# ---------------------------------------------------------------------------
# Schur-block quantities
# ---------------------------------------------------------------------------


def _normalise_split(split, n):
    if split is None:
        split = n // 2
    if isinstance(split, (int, np.integer)):
        k = int(split)
        if not 0 < k < n:
            raise ValueError("split size must be strictly between 0 and n")
        return np.arange(k), np.arange(k, n)
    i0 = np.asarray(split[0], dtype=int)
    i1 = np.asarray(split[1], dtype=int)
    merged = np.sort(np.concatenate([i0, i1]))
    if not np.array_equal(merged, np.arange(n)):
        raise ValueError("split must be a two-part partition of the index range")
    return i0, i1


@dataclass(frozen=True)
class SchurQuad:
    """The four block quantities of a two-part splitting of an operator.

    q00 = inv(a00), q10 = a10 inv(a00), q01 = inv(a00) a01,
    qS = a11 - a10 inv(a00) a01.  Together with the split they determine
    the operator uniquely.
    """

    q00: np.ndarray
    q10: np.ndarray
    q01: np.ndarray
    qS: np.ndarray
    idx0: np.ndarray = field(repr=False, default=None)
    idx1: np.ndarray = field(repr=False, default=None)

    def quantities(self):
        return self.q00, self.q10, self.q01, self.qS


def schur_blocks(a, split=None):
    """The four block quantities of ``a`` under the given split.

    ``split`` is an integer (size of the leading part), a pair of index
    arrays, or None for the half/half default.  Raises for a singular
    00-block.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("operator must be square")
    i0, i1 = _normalise_split(split, n)
    a00 = a[np.ix_(i0, i0)]
    a01 = a[np.ix_(i0, i1)]
    a10 = a[np.ix_(i1, i0)]
    a11 = a[np.ix_(i1, i1)]
    try:
        q00 = np.linalg.inv(a00)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular 00-block") from exc
    return SchurQuad(
        q00=q00,
        q10=a10 @ q00,
        q01=q00 @ a01,
        qS=a11 - a10 @ q00 @ a01,
        idx0=i0,
        idx1=i1,
    )


def default_probes(n):
    """Unit-normalised probe dictionary on n equispaced midpoint coordinates.

    Constants, coordinate monomials up to degree 2, and the first four
    Fourier modes.
    """
    x = (np.arange(n) + 0.5) / n
    probes = [np.ones(n), x, x**2]
    for k in range(1, 5):
        probes.append(np.sin(2.0 * np.pi * k * x))
        probes.append(np.cos(2.0 * np.pi * k * x))
    return [p / np.linalg.norm(p) for p in probes]


def schur_distance(a, b, split=None, probes=None):
    """Probe metric between the block quantities of two operators.

    The maximum over the four quantities and probe pairs (u, v) of
    |<u_part, (Q_a - Q_b) v_part>|, where each probe is restricted to the
    index parts matching the quantity's row/column spaces.  Zero iff the
    quantities agree on the probe span.
    """
    a = np.asarray(a)
    qa = schur_blocks(a, split)
    qb = schur_blocks(np.asarray(b), split)
    if probes is None:
        probes = default_probes(a.shape[0])
    p0 = [np.asarray(p)[qa.idx0] for p in probes]
    p1 = [np.asarray(p)[qa.idx1] for p in probes]
    sides = {0: (p0, p0), 1: (p1, p0), 2: (p0, p1), 3: (p1, p1)}  # (u, v) per quantity
    best = 0.0
    for q, (da, db) in enumerate(zip(qa.quantities(), qb.quantities())):
        us, vs = sides[q]
        diff = da - db
        for u in us:
            for v in vs:
                best = max(best, abs(float(u @ diff @ v)))
    return best


# ---------------------------------------------------------------------------
# Limit-law registry
# ---------------------------------------------------------------------------


def build_limit_law(example_id, *, eps0=1.0, mu0=1.0, eps=1.0, mu=1.0, sigma=1.0):
    """The closed-form limit material law of an oscillating example family.

    The limits are independent of the oscillation index.  Memory entries
    are rational (c/(a + b z)); the first family's limit is not rational
    (it is the Bessel-series law of the analytic module) and is rejected
    here.
    """
    example_id = str(example_id).upper()
    one = Constant(1.0)

    if example_id == "EX1":
        raise ValueError(
            "EX1's limit law is the nonrational Bessel-series law; "
            "use the analytic module (series_material_law) instead"
        )

    if example_id == "EX2":
        return MaterialLaw(
            2,
            {(0, 0): Constant(0.5), (1, 1): one},
            {(0, 0): Constant(0.5)},
            nu0=0.5,
            dim=1,
            domain=(0.0, 1.0),
            component_names=("u", "v"),
            label="EX2-limit",
        )

    if example_id == "EX3":
        bump = RegionIndicator(0.0, 1.0)
        return MaterialLaw(
            2,
            {(0, 0): one, (1, 1): one},
            {},
            series={(0, 0): bump, (1, 1): bump},
            nu0=1.0,
            dim=1,
            domain=(-1.0, 1.0),
            component_names=("u", "v"),
            label="EX3-limit",
        )

    if example_id == "EX4":
        omega1 = _omega1_2d()
        ext = 1.0 - omega1
        return MaterialLaw(
            3,
            {
                (0, 0): omega1 * 0.5 + ext * eps0,
                (1, 1): omega1 * 1.5 + ext * mu0,
                (2, 2): omega1 * (4.0 / 3.0) + ext * mu0,
            },
            {(0, 0): omega1 * 0.5},
            nu0=0.0,
            dim=2,
            domain=((-2.0, 2.0), (-2.0, 2.0)),
            component_names=("u", "vx", "vy"),
            label="EX4-limit",
        )

    if example_id == "EX5":
        omega1 = _omega1_2d()
        ext = 1.0 - omega1
        return MaterialLaw(
            3,
            {
                (0, 0): omega1 * 1.5 + ext * eps0,
                (1, 1): omega1 * 0.5 + ext * mu0,
                (2, 2): ext * mu0,
            },
            {
                (1, 1): omega1 * 0.5,
                (2, 2): omega1 * 2.0,
            },
            memory={(2, 2): (MemoryTerm(-2.0, 1.0, 1.0, omega1),)},
            nu0=0.0,
            dim=2,
            domain=((-2.0, 2.0), (-2.0, 2.0)),
            component_names=("u", "vx", "vy"),
            label="EX5-limit",
        )

    if example_id == "MAXWELL":
        omega1 = RegionIndicator(-1.0, 1.0)
        ext = 1.0 - omega1
        e_mean = omega1 * (eps / 2.0) + ext * eps0
        return MaterialLaw(
            6,
            {
                (0, 0): ext * eps0,
                (1, 1): e_mean,
                (2, 2): e_mean,
                (3, 3): omega1 * (4.0 * mu / 3.0) + ext * mu0,
                (4, 4): omega1 * (1.5 * mu) + ext * mu0,
                (5, 5): omega1 * (1.5 * mu) + ext * mu0,
            },
            {
                (0, 0): omega1 * (2.0 * sigma),
                (1, 1): omega1 * (sigma / 2.0),
                (2, 2): omega1 * (sigma / 2.0),
            },
            memory={(0, 0): (MemoryTerm(-2.0 * sigma**2, sigma, eps, omega1),)},
            nu0=0.0,
            dim=1,
            domain=(-2.0, 2.0),
            component_names=("E1", "E2", "E3", "H1", "H2", "H3"),
            label="MAXWELL-limit",
            formula_level=True,
        )

    raise ValueError(f"unknown example id {example_id!r}")
