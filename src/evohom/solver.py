"""Space-time dG(1) march with exponentially weighted Radau quadrature.

On each half-open slab (t_{m-1}, t_m] the trial/test space is spanned by the
shifted Legendre pair l0 = 1, l1 = 2(t - t_{m-1})/h - 1, and the variational
statement uses the slab's 2-point weighted right-sided Gauss-Radau rule plus
the upwind jump term <M0 [U]_{m-1}, Phi+>.  With the coefficients as the
columns of U = [U^0, U^1] and the loads as those of B = [b^0, b^1], the slab
equations are

    M0 U (T1 + J)^T + (M1 + A) U T0^T = B,

where T0/T1 are the quadrature mass/stiffness forms of the temporal basis
and J_ij = l_i(left) * l_j(left).  :func:`assemble_slab_system` returns them
as one real 2N x 2N system, the independent check of the march.

dG(1) with a right Radau rule is the 2-stage Radau IIA method, so the 2x2
pencil T0^{-1}(T1 + J) = V diag(lam, conj(lam)) V^{-1} has a complex
conjugate eigenpair.  In the basis Z = U V^{-T} the slab splits into

    (lam M0 + M1 + A) z = w0 b^0 + w1 b^1,   w = lam's row of (T0 V)^{-1},

and its complex conjugate, so U^i = 2 Re(V[i, 0] z).  :func:`march` factors
this one complex N x N matrix once per run of consecutive slabs of equal
length, makes one complex solve per slab and yields each slab's
coefficients; :func:`solve_evolution` stores them.  The change of basis
costs about log10 cond(V) digits: cond(V) is 2.4 at rho*h = 0, 14 at
rho*h = 2, 1.2e3 at rho*h = 6 and above 1e7 from rho*h = 15, where the
pair all but coalesces, so the march refuses pencils with
cond(V) > _PENCIL_COND_MAX.

Every factorisation of a problem's march takes one ordering of its DOFs,
computed once per march from the cells of its spaces: a nested dissection
(:func:`cell_dissection`) that bisects the cell box and numbers the DOFs
straddling each cut after both halves.  SuperLU keeps that order
(``permc_spec="NATURAL"``) and pivots on the diagonal unless a diagonal
entry falls below _DIAG_PIVOT_THRESH of its column: the Hermitian part
Re(lam) M0 + M1 of the pencil is positive definite, so diagonal pivots
exist, and the threshold still pivots if one collapses.  On EX4 at n = 16
this makes 3.5 M LU entries where SuperLU's default COLAMD made 8.6 M.

SuperLU factors the transposed pencil: its CSR form, transposed, is a CSC
matrix over the same arrays, so nothing is copied, and each slab solves
with that factor through ``trans="T"``.  The fill, the ordering and the
diagonal pivots are those of the pencil's own LU, and the solutions agree
to 2.2e-15 relative; the transposed solve is the faster one.

Every problem is factored and solved on its solve basis S
(:func:`_solve_basis`), a sparse matrix with entries +-1: the march folds
the loads and M0 u0 once, marches on S^T (lam M0 + M1 + A) S and unfolds
the slabs it yields by an exact gather (:func:`_unfolder`); a solution is
stored on S and unfolded where it is read (:class:`EvolutionSolution`).  A
mirror R = signs x P reverses the DOFs along one axis of the cell box
(P, :func:`_reflection`) with a sign per component.  The data and their
images y under (M0 + M1 + A)^k, k below the component count, are then
R-invariant: <P y_i, y_i> gives the sign of each component i they reach,
and the others are even.  :func:`_mirrors` keeps R if it fixes each load,
u0, and M0 and M1 + A in R M R^T x = M x for one fixed random x (Freivalds'
check), to 1e-13 of the largest entry.  The solution is then R-invariant,
so S has one column per orbit of DOFs under the mirrors but the odd ones
(on a mirror line, in a component that changes sign there), taken in the
cell-dissection order of the orbit representatives.  With no mirror each
DOF is its own orbit and S is the permutation matrix of the dissection.
EX4/EX5 runs are mirrored in y, which halves their unknowns, and their
references in x and y, which quarters them; EX1-EX3 have no mirror.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .blas import one_blas_thread
from .operators import assemble_law_masses, component_offsets
from .spaces import reflection
from .timequad import (
    TRACE_LEFT,
    TRACE_RIGHT,
    TimeGrid,
    build_radau_rule,
    temporal_basis,
    temporal_matrices,
)


class EvolutionProblem:
    """One well-posed evolutionary solve: spaces + instant law + A + data.

    The DOFs of the spaces are stacked in order; ``offsets`` (from
    :func:`component_offsets`) delimits each component's block of them.
    ``operator`` is the spatial operator A as a sparse matrix over these
    stacked DOFs, and M0, M1 and A must each be ``(ndof, ndof)``.
    ``forcing`` is a sequence of separable terms ``(g, b)`` with ``g`` a
    scalar time signal and ``b`` a stacked spatial load vector; ``u0`` is a
    stacked coefficient vector of the initial datum (default zero).  The
    law's Galerkin masses are assembled unless ``m0mat`` and ``m1mat`` are
    passed preassembled; the law names the components either way.
    """

    def __init__(
        self,
        spaces,
        law,
        operator,
        grid,
        forcing=(),
        u0=None,
        rho=0.0,
        m0mat=None,
        m1mat=None,
    ):
        self.spaces = tuple(spaces)
        self.law = law
        self.operator = sp.csr_matrix(operator)
        if law.ncomp != len(self.spaces):
            raise ValueError("law and spaces disagree on the component count")
        self.offsets = component_offsets(self.spaces)
        self.ndof = int(self.offsets[-1])
        self.block = max(1, 2**20 // (16 * self.ndof))  # slabs in 1 MB, or one
        if not isinstance(grid, TimeGrid):
            raise TypeError("grid must be a TimeGrid")
        self.grid = grid
        self.rho = float(rho)
        if m0mat is not None or m1mat is not None:
            # preassembled masses (e.g. collocated diagonal variants)
            if m0mat is None or m1mat is None:
                raise ValueError("pass both m0mat and m1mat or neither")
            self.m0mat = sp.csr_matrix(m0mat)
            self.m1mat = sp.csr_matrix(m1mat)
        else:
            self.m0mat, self.m1mat = assemble_law_masses(self.spaces, law)
        square = (self.ndof, self.ndof)
        if any(m.shape != square for m in (self.m0mat, self.m1mat, self.operator)):
            raise ValueError("M0, M1 and A must match the stacked DOF count")
        self.forcing = []
        for g, b in forcing:
            b = np.asarray(b, dtype=float)
            if b.shape != (self.ndof,):
                raise ValueError("forcing loads must be stacked over all DOFs")
            self.forcing.append((g, b))
        if u0 is None:
            u0 = np.zeros(self.ndof)
        self.u0 = np.asarray(u0, dtype=float)
        if self.u0.shape != (self.ndof,):
            raise ValueError("u0 must be a stacked coefficient vector")

    def component_slice(self, i):
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))


def cell_dissection(spaces):
    """Nested-dissection ordering of the stacked DOFs of ``spaces``.

    The cell box of the spaces is bisected recursively at the middle cell
    boundary of its longer side (x on a tie), down to single cells.  The
    DOFs whose support (``dof_cells``) straddles a cut are that box's
    separator; the DOFs of the left half come first, then those of the
    right half, then the separator.  Every box of a level is cut at once:
    each DOF draws one base-3 digit per level (0 left, 1 right, 2 placed
    here as a separator or in a single cell, 0 once placed), and a stable
    sort of these keys keeps the DOFs placed together in their stacked order.
    The keys fit in int64 up to 39 levels, boxes of 2**19 cells a side.
    """
    boxes = zip(*map(_support_box, spaces))
    x_lo, x_hi, y_lo, y_hi = (np.concatenate(r) for r in boxes)
    box_x0, box_x1 = np.zeros_like(x_lo), np.full_like(x_hi, x_hi.max())
    box_y0, box_y1 = np.zeros_like(y_lo), np.full_like(y_hi, y_hi.max())
    key = np.zeros(x_lo.size, dtype=np.int64)
    open_ = np.ones(x_lo.size, dtype=bool)  # not yet placed
    while open_.any():
        in_y = box_y1 - box_y0 > box_x1 - box_x0  # the box is cut across y
        a = np.where(in_y, box_y0, box_x0)
        b = np.where(in_y, box_y1, box_x1)
        cut = (a + b) // 2
        left = np.where(in_y, y_hi, x_hi) <= cut
        right = np.where(in_y, y_lo, x_lo) >= cut
        placed = open_ & ((b - a <= 1) | ~(left | right))
        key = 3 * key + np.where(placed, 2, open_ & right)
        open_ &= ~placed
        left &= open_
        right &= open_
        box_x1 = np.where(left & ~in_y, cut, box_x1)
        box_y1 = np.where(left & in_y, cut, box_y1)
        box_x0 = np.where(right & ~in_y, cut, box_x0)
        box_y0 = np.where(right & in_y, cut, box_y0)
    return np.argsort(key, kind="stable")


def _support_box(space):
    """x and y cell ranges of each DOF's support; a line is one cell high."""
    ranges = space.dof_cells()
    if len(ranges) == 2:
        return (*ranges[0], *ranges[1])
    ((x_lo, x_hi),) = ranges
    return x_lo, x_hi, np.zeros_like(x_lo), np.ones_like(x_hi)


def _reflection(problem, axis):
    """Stacked DOF permutation that reverses each component's line ``axis``
    (0: x, 1: y; :func:`spaces.reflection`)."""
    pieces = zip(problem.offsets, problem.spaces)
    return np.concatenate([o + reflection(s, axis) for o, s in pieces])


def _mirrors(problem):
    """``{axis: component signs}`` of each mirror of the problem (see the
    module docstring); the diagonals, fixed whatever the signs, go first."""
    n, starts = problem.ndof, problem.offsets[:-1]
    m0, m1, op = problem.m0mat, problem.m1mat, problem.operator
    apply = (m0.__matmul__, lambda v: m1 @ v + op @ v)
    data = [b for _, b in problem.forcing] + [problem.u0]
    reached = [sum(data)]
    for _ in starts[1:]:
        reached.append(sum(f(reached[-1]) for f in apply))
    x = np.random.default_rng(0).random(n)
    images = [f(x) for f in apply]
    diag = m0.diagonal() + m1.diagonal() + op.diagonal()
    fixed = lambda a, b: np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
    out = {}
    for axis in (0, 1):
        perm = _reflection(problem, axis)
        if np.array_equal(perm, np.arange(n)) or not fixed(diag[perm], diag):
            continue
        signs = np.sign(sum(np.add.reduceat(y[perm] * y, starts) for y in reached))
        sign = np.repeat(np.where(signs == 0, 1.0, signs), np.diff(problem.offsets))
        pairs = [(sign * f(sign * x[perm])[perm], y) for f, y in zip(apply, images)]
        if all(fixed(a, b) for a, b in pairs + [(sign * b[perm], b) for b in data]):
            out[axis] = tuple(sign[starts].astype(int).tolist())
    return out


def _solve_basis(problem):
    """S, one column per orbit of DOFs under the :func:`_mirrors` but the
    odd ones (on a mirror line, in a component that changes sign), in the
    :func:`cell_dissection` order of the orbit representatives."""
    n = problem.ndof
    perms, signs = [np.arange(n)], [np.ones(n)]  # the group: (g x)_i = sign_i x_perm_i
    for axis, s in _mirrors(problem).items():
        perm, sign = _reflection(problem, axis), np.repeat(s, np.diff(problem.offsets))
        signs += [g * sign[q] for q, g in zip(perms, signs)]
        perms += [perm[q] for q in perms]
    perms, signs = np.array(perms), np.array(signs)
    rep = perms.min(axis=0)
    odd = ((perms == np.arange(n)) & (signs < 0)).any(axis=0)[rep]
    order = cell_dissection(problem.spaces)
    order = order[~odd[order] & (rep[order] == order)]
    col = np.empty(n, dtype=np.intp)
    col[order] = np.arange(order.size)
    rows = np.flatnonzero(~odd)
    entries = signs[perms.argmin(axis=0), np.arange(n)][rows]
    return sp.csr_matrix((entries, (rows, col[rep[rows]])), shape=(n, order.size))


def _slab_matrix(problem, rule):
    t0, t1, jump = temporal_matrices(rule)
    spatial = problem.m1mat + problem.operator
    return (
        sp.kron(t1 + jump, problem.m0mat) + sp.kron(t0, spatial)
    ).tocsc()


def _slab_rhs(forcing, rule, prev):
    """Loads (b^0, b^1) of one slab from the terms (g, b) and the jump datum."""
    basis = temporal_basis((rule.nodes - rule.t_left) / rule.h)  # (2, nq)
    rhs = np.outer(TRACE_LEFT, prev)
    for g, b in forcing:
        gvals = np.asarray([g(t) for t in rule.nodes], dtype=float)
        rhs += np.outer(basis @ (rule.weights * gvals), b)
    return rhs


def assemble_slab_system(problem, m, prev_trace_vec):
    """Matrix and right-hand side of slab m (1-based).

    ``prev_trace_vec`` is the M0-weighted datum entering the jump term: for
    m = 1 the M0-weighted initial datum, otherwise M0 times the previous
    slab's right trace.
    """
    if not 1 <= m <= problem.grid.num_slabs:
        raise ValueError(f"slab index {m} out of range")
    rule = build_radau_rule(problem.grid.slab(m), problem.rho)
    rhs = _slab_rhs(problem.forcing, rule, prev_trace_vec)
    return _slab_matrix(problem, rule), rhs.ravel()


class EvolutionSolution:
    """Per-slab dG(1) coefficients ``stored`` (num_slabs, 2, r) on the solve
    basis S of the march (the identity if no ``basis``).  ``unfold(y, rows)``
    gathers the DOFs ``rows`` of stored slabs y; ``coeffs`` (num_slabs, 2,
    ndof) is built read-only once, on first access: up to 4x the stored memory."""

    def __init__(self, problem, coeffs, basis=None):
        self.problem, self.grid, self.stored = problem, problem.grid, coeffs
        coeffs.setflags(write=False)
        self.unfold = _unfolder(sp.identity(problem.ndof) if basis is None else basis)

    @functools.cached_property
    def coeffs(self):
        full = self.unfold(self.stored, slice(None))
        full.setflags(write=False)
        return full

    def right_trace(self, m):
        """Value at t_m from slab m (1-based)."""
        return TRACE_RIGHT @ self.unfold(self.stored[m - 1], slice(None))


def _unfolder(basis):
    """``unfold(y, rows)``: rows of S y for a +-1 basis S, at most one entry a
    row, as an exact gather sign * y[..., col] (sign 0 on an empty row); the
    product is taken in place, 5x faster than a new array on EX4's slabs."""
    cols = np.arange(basis.shape[1])
    col, sign = (abs(basis) @ cols).astype(np.intp), basis @ np.ones(cols.size)
    return lambda y, rows: np.multiply(u := y.take(col[rows], axis=-1), sign[rows], out=u)


# Largest accepted condition number of the pencil's eigenvector matrix V;
# beyond it the complex slab solve would lose more than three digits.
_PENCIL_COND_MAX = 1e3

# SuperLU keeps the diagonal pivot unless it is below this fraction of its
# column's largest entry.  At 0.1, EX4 at n = 16 makes 1 188 off-diagonal
# pivots; at 0.01 no family's pencil makes one.
_DIAG_PIVOT_THRESH = 0.01


def _temporal_pencil(rule):
    """(lam, v, w) of one slab: T0^{-1}(T1 + J) v = lam v with Im lam > 0,
    and w, lam's row of (T0 V)^{-1}, which weights the loads (b^0, b^1).
    """
    t0, t1, jump = temporal_matrices(rule)
    lams, vecs = np.linalg.eig(np.linalg.solve(t0, t1 + jump))
    k = int(np.argmax(lams.imag))
    cond = np.linalg.cond(vecs)
    if not (lams[k].imag > 0.0 and cond <= _PENCIL_COND_MAX):
        raise ArithmeticError(
            f"temporal pencil near coalescence at rho*h = {rule.rho * rule.h:.3g} "
            f"(cond(V) = {cond:.2g} > {_PENCIL_COND_MAX:.0e}); use shorter slabs"
        )
    return lams[k], vecs[:, k], np.linalg.inv(t0 @ vecs)[k]


def march(problem):
    """Yield ``(m, coefficients of slab m)``, arrays (2, ndof), for m = 1, 2, ...

    One LU is alive at a time, with its pencil.  A slab whose length is
    within 1e-12 (relative) of the first slab of the current run reuses
    them (the lengths of a uniform grid differ by a few ulps); any other
    length starts a new run, which drops the old LU and factorises anew.
    Each LU factors the transposed pencil ``(S^T (lam M0 + M1 + A) S).T``
    on the problem's solve basis S (:func:`_solve_basis`; the permutation
    matrix of its nested dissection when nothing is mirrored) with diagonal
    pivots.  The march folds the loads and M0 u0 once, solves each slab on
    the basis with the transposed factor (``trans="T"``) and unfolds what it
    yields (:func:`_unfolder`).  The pencil, the factorisations and the
    march run with one BLAS thread (:func:`one_blas_thread`): SuperLU's BLAS
    calls on these systems gain no wall time from more threads, only CPU
    time, and a sweep that runs solves in parallel threads would have them
    compete for the same cores.
    """
    basis = _solve_basis(problem)
    unfold = _unfolder(basis)
    for m, y in _march_on(problem, basis):
        yield m, unfold(y, slice(None))


def _march_on(problem, basis):
    """The :func:`march` on the basis S: ``(m, Y)``, Y of shape (2, S.shape[1])."""
    with one_blas_thread():
        grid = problem.grid
        fold = basis.T.tocsr()
        m0, spatial = (
            fold @ (m @ basis) for m in (problem.m0mat, problem.m1mat + problem.operator)
        )
        forcing = [(g, fold @ b) for g, b in problem.forcing]
        prev = fold @ (problem.m0mat @ problem.u0)
        h_run = 0.0  # length of the first slab of the current run
        for m in range(1, grid.num_slabs + 1):
            rule = build_radau_rule(grid.slab(m), problem.rho)
            if abs(rule.h - h_run) > 1e-12 * h_run:
                h_run = rule.h
                lam, v, w = _temporal_pencil(rule)
                # release the previous run's LU before factorising, so
                # that two factorisations are not alive at the peak
                lu = None
                try:
                    lu = splu(
                        (lam * m0 + spatial).T,
                        permc_spec="NATURAL",
                        diag_pivot_thresh=_DIAG_PIVOT_THRESH,
                    )
                except RuntimeError as exc:
                    raise RuntimeError(
                        f"singular slab system at slab {m}: {exc}"
                    ) from exc
            b = _slab_rhs(forcing, rule, prev)
            # elementwise, not w @ b: numpy sends that complex-by-real product
            # to a threaded BLAS gemv, measured at 6 ms instead of 0.02 ms per
            # slab of EX4 at n = 2 on 2 vCPUs
            z = lu.solve(w[0] * b[0] + w[1] * b[1], trans="T")
            if not np.all(np.isfinite(z)):
                raise RuntimeError(
                    f"singular slab system at slab {m}: non-finite solve"
                )
            prev = m0 @ (TRACE_RIGHT @ (y := 2.0 * np.outer(v, z).real))
            yield m, y


def solve_evolution(problem):
    """Every slab of the :func:`march`, stored on its basis as one EvolutionSolution."""
    basis = _solve_basis(problem)
    slabs = (y for _, y in _march_on(problem, basis))
    coeffs = np.fromiter(slabs, (float, (2, basis.shape[1])), problem.grid.num_slabs)
    return EvolutionSolution(problem, coeffs, basis)
