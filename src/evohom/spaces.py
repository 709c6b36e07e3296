"""Discrete spaces on interval and tensor meshes, with Gram/load assembly.

A line space (:class:`LineSpace`) holds piecewise polynomials of degree k on
a :class:`Mesh1D`, each cell carrying the Lagrange basis through fixed
reference nodes.  The two kinds differ only in those nodes and in how many
degrees of freedom neighbouring cells share:

* :class:`NodalLineSpace` — H1-conforming Lagrange elements (equispaced
  nodes, end nodes shared), optionally periodic or with point constraints
  (zero value at listed nodes);
* :class:`GaussLineSpace` — discontinuous elements collocated at the
  (k+1)-point Gauss nodes of each cell (nothing shared), so the unweighted
  mass matrix is exactly diagonal.

Constraints are realised by a sparse prolongation ``P`` from constrained
degrees of freedom to unconstrained nodal values; all assembled forms are
``P^T G_full P``.  Tensor-product 2-D spaces combine two line spaces with
x-major degree-of-freedom ordering, and 2-D forms with separable coefficients
assemble as Kronecker sums of 1-D weighted Grams.

Every 1-D integral and point value goes through one path:

* :func:`merge_cuts` partitions an interval by the cell boundaries of the
  spaces involved and the breakpoints of the coefficient (clipped to the
  spaces' common span, then merged by :func:`meshes.partition`, the
  package's one cut-merger);
* :func:`gauss_panels` puts a Gauss rule (:func:`gauss_rule`) on each piece;
  both live in :mod:`meshes` and are re-exported here;
* :meth:`Mesh1D.cell_containing` finds the cell of each point (or piece) and
  :meth:`LineSpace.eval_cell` evaluates that cell's basis there.

:func:`eval_matrix_1d` assembles these values into a sparse point-evaluation
matrix; :func:`gram1d` and :func:`restricted_load` (the one load builder,
on the whole span or a sub-interval) sum them against the panel weights
piece by piece.  Each piece gets at least 4 points and enough to integrate
the polynomial integrand exactly; since pieces end at the coefficient's
breakpoints, piecewise-polynomial coefficients are integrated exactly too.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fields import Field, Separable2D
from .meshes import _NODE_TOL, Mesh1D, TensorMesh2D, gauss_panels, gauss_rule, partition

# Gauss points per piece of a load vector.
_LOAD_POINTS = 8


class _LagrangeBasis:
    """Lagrange basis on [0, 1] through the given nodes."""

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        m = self.nodes.size
        vander = np.vander(self.nodes, m, increasing=True)
        self.coef = np.linalg.inv(vander)  # coef[j, l]: x^j coefficient of basis l

    @property
    def size(self):
        return self.nodes.size

    def eval(self, t, deriv=0):
        """Values (or d-th derivatives) of all basis functions: (nbasis, nt)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        m = self.nodes.size
        coef = self.coef
        for _ in range(deriv):
            coef = coef[1:] * np.arange(1, coef.shape[0])[:, None]
        if coef.shape[0] == 0:
            return np.zeros((m, t.size))
        powers = np.vander(t, coef.shape[0], increasing=True)
        return (powers @ coef).T


class LineSpace:
    """Piecewise polynomials of one degree on a :class:`Mesh1D`.

    Each cell carries the Lagrange basis through ``ref_nodes`` on [0, 1].
    Cell ``c`` owns the unconstrained DOFs ``c*stride ... c*stride + k``, so
    neighbouring cells share ``k + 1 - stride`` of them.
    """

    def __init__(self, mesh, degree, ref_nodes, stride):
        self.mesh = mesh if isinstance(mesh, Mesh1D) else Mesh1D(mesh)
        self.degree = int(degree)
        self.basis = _LagrangeBasis(ref_nodes)
        self.span = self.mesh.span
        self.stride = int(stride)
        self.nfull = self.mesh.ncells * self.stride + self.basis.size - self.stride

    @property
    def ndof(self):
        return self.P.shape[1]

    def cell_full_dofs(self, ci):
        """Unconstrained DOFs of cell ci (one cell, or an array of cells)."""
        return np.asarray(ci)[..., None] * self.stride + np.arange(self.basis.size)

    def dof_cells(self):
        """Cell range ``[lo, hi)`` of each DOF's support, as ``((lo, hi),)``.

        A DOF spans the cells of the unconstrained DOFs that ``P`` joins in
        it, so a periodic DOF that joins both ends spans the whole line.
        """
        full = self.cell_full_dofs(np.arange(self.mesh.ncells))  # (ncells, nlocal)
        lo_full = np.searchsorted(full[:, -1], np.arange(self.nfull))
        hi_full = np.searchsorted(full[:, 0], np.arange(self.nfull), side="right")
        joined = self.P.tocsc()
        starts = joined.indptr[:-1]
        lo = np.minimum.reduceat(lo_full[joined.indices], starts)
        hi = np.maximum.reduceat(hi_full[joined.indices], starts)
        return ((lo, hi),)

    def eval_cell(self, ci, xs, deriv=0):
        """Local basis values at global points xs: (nlocal, npts).

        ``ci`` is one cell for all points or one cell per point.
        """
        b = self.mesh.boundaries
        ci = np.asarray(ci)
        h = b[ci + 1] - b[ci]
        t = (np.asarray(xs, dtype=float) - b[ci]) / h
        return self.basis.eval(t, deriv) / h**deriv


class NodalLineSpace(LineSpace):
    """H1-conforming Lagrange elements, optionally periodic or constrained."""

    def __init__(self, mesh, degree=1, periodic=False, constraints=()):
        if degree < 1:
            raise ValueError("nodal line spaces need degree >= 1")
        super().__init__(mesh, degree, np.linspace(0.0, 1.0, degree + 1), degree)
        k = self.degree
        # Cell c owns nodes c*k ... c*k + k - 1; the last cell also owns the
        # right end.
        lefts = self.mesh.boundaries[:-1, None]
        cell_nodes = lefts + self.mesh.widths[:, None] * self.basis.nodes
        node_x = np.append(cell_nodes[:, :k].ravel(), cell_nodes[-1, k])
        self.node_positions = node_x

        if periodic and constraints:
            raise ValueError("periodic spaces take no extra point constraints")
        if periodic:
            data = np.ones(self.nfull)
            rows = np.arange(self.nfull)
            cols = np.concatenate([np.arange(self.nfull - 1), [0]])
            self.P = sp.csr_matrix((data, (rows, cols)), shape=(self.nfull, self.nfull - 1))
        else:
            cons = np.asarray(constraints, dtype=float).reshape(-1, 1)
            hits = np.abs(node_x - cons) <= _NODE_TOL  # (constraint, node)
            missed = cons[~hits.any(axis=1), 0]
            if missed.size:
                raise ValueError(f"constraint point {missed[0]} is not a node")
            keep = np.ones(self.nfull, dtype=bool)
            keep[hits.argmax(axis=1)] = False  # first matching node
            kept = np.flatnonzero(keep)
            self.P = sp.csr_matrix(
                (np.ones(kept.size), (kept, np.arange(kept.size))),
                shape=(self.nfull, kept.size),
            )


class GaussLineSpace(LineSpace):
    """Discontinuous elements collocated at per-cell Gauss nodes."""

    def __init__(self, mesh, degree=0):
        if degree < 0:
            raise ValueError("discontinuous line spaces need degree >= 0")
        ref_nodes, ref_w = gauss_rule(degree + 1)
        super().__init__(mesh, degree, ref_nodes, degree + 1)
        self.P = sp.identity(self.nfull, format="csr")
        widths = self.mesh.widths
        lefts = self.mesh.boundaries[:-1]
        self.nodes_global = (lefts[:, None] + widths[:, None] * ref_nodes[None, :]).ravel()
        self.weights_global = (widths[:, None] * ref_w[None, :]).ravel()


def _coeff_pieces(coeff):
    """Normalise a 1-D coefficient to (scale, callable|None, breakpoints-fn)."""
    if coeff is None:
        return 1.0, None, lambda lo, hi: ()
    if np.isscalar(coeff):
        return float(coeff), None, lambda lo, hi: ()
    if isinstance(coeff, Field):
        return 1.0, coeff, coeff.breakpoints
    if callable(coeff):
        return 1.0, coeff, lambda lo, hi: ()
    raise TypeError(f"unsupported coefficient {coeff!r}")


def coeff_values(coeff, xs):
    """Values of a 1-D coefficient (None, scalar, Field or callable) at xs."""
    scale, fn, _ = _coeff_pieces(coeff)
    vals = np.full(np.shape(xs), scale)
    return vals if fn is None else vals * np.asarray(fn(xs), dtype=float)


def merge_cuts(spaces, lo=None, hi=None, extra=()):
    """Partition of [lo, hi] by the cell boundaries of ``spaces`` and ``extra``.

    ``lo`` and ``hi`` default to, and are clipped to, the common span of the
    spaces.  The points are merged by :func:`partition`.
    """
    lo = max([s.span[0] for s in spaces] + ([] if lo is None else [float(lo)]))
    hi = min([s.span[1] for s in spaces] + ([] if hi is None else [float(hi)]))
    if hi - lo <= _NODE_TOL:
        raise ValueError("empty restriction interval")
    pts = [s.mesh.boundaries for s in spaces] + [np.ravel(extra)]
    return partition(lo, hi, np.concatenate(pts))


def eval_matrix_1d(space, xs):
    """Sparse (len(xs), ndof) point-evaluation matrix of a 1-D space.

    A point on an interior cell boundary is evaluated in the cell to its
    right (see :meth:`Mesh1D.cell_containing`).
    """
    xs = np.asarray(xs, dtype=float)
    cells = space.mesh.cell_containing(xs)
    vals = space.eval_cell(cells, xs)
    full = sp.csr_matrix(
        (
            vals.T.ravel(),
            space.cell_full_dofs(cells).ravel(),
            np.arange(xs.size + 1) * vals.shape[0],
        ),
        shape=(xs.size, space.nfull),
    )
    return (full @ space.P).tocsr()


def _piece_basis(space, cuts, xs, deriv=0):
    """Cell of each piece of ``cuts`` and the local basis at its points.

    ``xs`` holds the same number of points per piece, piece by piece.
    Returns the cells and values of shape (nlocal, npieces, npts).
    """
    cells = space.mesh.cell_containing(0.5 * (cuts[:-1] + cuts[1:]))
    npts = xs.size // cells.size
    vals = space.eval_cell(np.repeat(cells, npts), xs, deriv)
    return cells, vals.reshape(-1, cells.size, npts)


def gram1d(row, col, coeff=None, drow=0, dcol=0):
    """Weighted Gram matrix  G_ij = int coeff * d^drow(row_i) * d^dcol(col_j).

    Integration runs over the union mesh of the two spaces (and the
    coefficient's breakpoints), so aligned piecewise-constant data and
    polynomial factors are integrated exactly.  Returns a CSR matrix of
    shape (row.ndof, col.ndof).
    """
    lo = max(row.span[0], col.span[0])
    hi = min(row.span[1], col.span[1])
    scale, _, bp = _coeff_pieces(coeff)
    if hi <= lo + _NODE_TOL or scale == 0.0:
        return sp.csr_matrix((row.ndof, col.ndof))
    npts = max(4, (row.degree + col.degree) // 2 + 2)
    cuts = merge_cuts((row, col), extra=bp(lo, hi))
    xs, w = gauss_panels(cuts, npts)
    w = (w * coeff_values(coeff, xs)).reshape(-1, npts)
    ri, br = _piece_basis(row, cuts, xs, drow)
    ci, bc = _piece_basis(col, cuts, xs, dcol)
    # One local block per piece, summed piece by piece: integrals that cancel
    # exactly between two cells stay exact zeros, out of the sparsity pattern.
    local = np.einsum("ikq,kq,jkq->kij", br, w, bc)
    rows, cols = np.broadcast_arrays(
        row.cell_full_dofs(ri)[:, :, None], col.cell_full_dofs(ci)[:, None, :]
    )
    g_full = sp.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(row.nfull, col.nfull)
    ).tocsr()
    return (row.P.T @ g_full @ col.P).tocsr()


def restricted_load(space, f, lo=None, hi=None):
    """Load vector  b_i = int_{lo}^{hi} f * space_i  (default: the whole span).

    The interval is split at the cell boundaries and at the breakpoints of a
    :class:`Field` ``f``, so piecewise-polynomial data integrate exactly.
    """
    _, _, bp = _coeff_pieces(f)
    cuts = merge_cuts([space], lo, hi, bp(*space.span))
    xs, w = gauss_panels(cuts, _LOAD_POINTS)
    cells, basis = _piece_basis(space, cuts, xs)
    w = (w * coeff_values(f, xs)).reshape(-1, _LOAD_POINTS)
    local = np.einsum("ikq,kq->ki", basis, w)
    out = np.zeros(space.nfull)
    np.add.at(out, space.cell_full_dofs(cells), local)
    return space.P.T @ out


def collocated_mass(space, coeff=None):
    """Diagonal weighted mass of a Gauss-collocated space.

    Instead of integrating the coefficient exactly, it is *sampled* at the
    collocation nodes: diag(w_q * coeff(x_q)).  For piecewise-constant
    aligned coefficients this equals the exact Gram; for smooth coefficients
    it is the spectral-collocation variant that makes the semidiscrete
    system decouple into per-node ODEs with the sampled coefficient.
    """
    if not isinstance(space, GaussLineSpace):
        raise TypeError("collocated masses are defined for Gauss line spaces")
    vals = space.weights_global * coeff_values(coeff, space.nodes_global)
    return sp.diags(vals, format="csr")


# ---------------------------------------------------------------------------
# Tensor-product 2-D spaces
# ---------------------------------------------------------------------------


class TensorSpace:
    """Tensor product of two line spaces with x-major DOF ordering."""

    def __init__(self, sx, sy):
        self.sx = sx
        self.sy = sy

    @property
    def ndof(self):
        return self.sx.ndof * self.sy.ndof

    def dof_cells(self):
        """x and y cell ranges of each DOF's support, as
        ``((xlo, xhi), (ylo, yhi))``: the product of its two line ranges."""
        ((xlo, xhi),), ((ylo, yhi),) = self.sx.dof_cells(), self.sy.dof_cells()
        nx, ny = self.sx.ndof, self.sy.ndof
        x = (np.repeat(xlo, ny), np.repeat(xhi, ny))
        y = (np.tile(ylo, nx), np.tile(yhi, nx))
        return x, y

    def __repr__(self):
        return f"TensorSpace({self.sx.ndof} x {self.sy.ndof} DOFs)"


def _coeff_terms_2d(coeff):
    """Normalise a 2-D coefficient into separable (fx, fy) term pairs."""
    if coeff is None:
        return [(None, None)]
    if np.isscalar(coeff):
        return [(float(coeff), None)]
    if isinstance(coeff, Separable2D):
        return list(coeff.terms)
    raise TypeError("2-D coefficients must be scalars or Separable2D")


def gram2d(row, col, coeff=None, drow=(0, 0), dcol=(0, 0)):
    """Weighted 2-D Gram matrix as a Kronecker sum over separable terms."""
    out = None
    for fx, fy in _coeff_terms_2d(coeff):
        gx = gram1d(row.sx, col.sx, coeff=fx, drow=drow[0], dcol=dcol[0])
        gy = gram1d(row.sy, col.sy, coeff=fy, drow=drow[1], dcol=dcol[1])
        term = sp.kron(gx, gy, format="csr")
        out = term if out is None else out + term
    return out


def build_space(mesh, family, degree=1, periodic=False, constraints=(), zero_trace=False):
    """Spec-level space factory.

    1-D families: ``"cg"`` (optionally periodic or with point constraints)
    and ``"dg"``.  2-D families on tensor meshes: ``"q"`` (scalar continuous,
    optionally zero-trace), ``"rt"`` (the H(div)-conforming Raviart–Thomas
    pair of order k = ``degree`` >= 0, returned as the two component spaces
    ``(vx, vy)`` with vx in CG_{k+1}(x) x DG_k(y) and vy in
    DG_k(x) x CG_{k+1}(y)), ``"dgq"`` (discontinuous tensor elements).
    """
    family = family.lower()
    if isinstance(mesh, Mesh1D):
        if family == "cg":
            return NodalLineSpace(
                mesh, degree, periodic=periodic, constraints=constraints
            )
        if family == "dg":
            return GaussLineSpace(mesh, degree)
        raise ValueError(f"unsupported 1-D family {family!r}")
    if isinstance(mesh, TensorMesh2D):
        if family == "q":
            cons_x = (mesh.x.span[0], mesh.x.span[1]) if zero_trace else ()
            cons_y = (mesh.y.span[0], mesh.y.span[1]) if zero_trace else ()
            return TensorSpace(
                NodalLineSpace(mesh.x, degree, constraints=cons_x),
                NodalLineSpace(mesh.y, degree, constraints=cons_y),
            )
        if family == "rt":
            if degree < 0:
                raise ValueError("RT spaces need degree >= 0")
            cg = [NodalLineSpace(m, degree + 1) for m in (mesh.x, mesh.y)]
            dg = [GaussLineSpace(m, degree) for m in (mesh.x, mesh.y)]
            return TensorSpace(cg[0], dg[1]), TensorSpace(dg[0], cg[1])
        if family == "dgq":
            return TensorSpace(
                GaussLineSpace(mesh.x, degree), GaussLineSpace(mesh.y, degree)
            )
        raise ValueError(f"unsupported 2-D family {family!r}")
    raise TypeError("mesh must be Mesh1D or TensorMesh2D")
