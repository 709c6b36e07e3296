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

and its complex conjugate, so U^i = 2 Re(V[i, 0] z).  The march factors this
one complex N x N matrix once per class of equal slab lengths
(:meth:`TimeGrid.length_classes`) and makes one complex solve per slab.
The change of basis costs about log10 cond(V) digits: cond(V) is 2.4 at
rho*h = 0, 14 at rho*h = 2, 1.2e3 at rho*h = 6 and above 1e7 from
rho*h = 15, where the pair all but coalesces, so the march refuses
pencils with cond(V) > _PENCIL_COND_MAX.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .blas import one_blas_thread
from .operators import assemble_law_masses
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

    ``forcing`` is a sequence of separable terms ``(g, b)`` with ``g`` a
    scalar time signal and ``b`` a stacked spatial load vector; ``u0`` is a
    stacked coefficient vector of the initial datum (default zero).
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
        self.operator = operator
        if law is not None and law.ncomp != len(self.spaces):
            raise ValueError("law and spaces disagree on the component count")
        if operator.ncomp != len(self.spaces):
            raise ValueError("operator and spaces disagree on the component count")
        self.offsets = operator.offsets
        self.ndof = int(self.offsets[-1])
        if sum(s.ndof for s in self.spaces) != self.ndof:
            raise ValueError("operator offsets do not match the spaces")
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
            if law is None:
                raise ValueError("either a law or preassembled masses are required")
            self.m0mat, self.m1mat = assemble_law_masses(self.spaces, law)
        if self.m0mat.shape != (self.ndof, self.ndof) or self.m1mat.shape != (
            self.ndof,
            self.ndof,
        ):
            raise ValueError("mass matrices must match the stacked DOF count")
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


def _slab_matrix(problem, rule):
    t0, t1, jump = temporal_matrices(rule)
    spatial = (problem.m1mat + problem.operator.matrix).tocsr()
    return (
        sp.kron(t1 + jump, problem.m0mat) + sp.kron(t0, spatial)
    ).tocsc()


def _slab_rhs(problem, rule, prev_trace_vec):
    """Loads (b^0, b^1) of one slab as an array of shape (2, ndof)."""
    basis = temporal_basis((rule.nodes - rule.t_left) / rule.h)  # (2, nq)
    rhs = np.outer(TRACE_LEFT, prev_trace_vec)
    for g, b in problem.forcing:
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
    rhs = _slab_rhs(problem, rule, prev_trace_vec)
    return _slab_matrix(problem, rule), rhs.ravel()


class EvolutionSolution:
    """Per-slab dG(1) coefficients: array (num_slabs, 2, ndof)."""

    def __init__(self, problem, coeffs):
        self.problem = problem
        self.coeffs = coeffs
        coeffs.setflags(write=False)

    @property
    def grid(self):
        return self.problem.grid

    def right_trace(self, m):
        """Value at t_m from slab m (1-based)."""
        return TRACE_RIGHT @ self.coeffs[m - 1]


# Largest accepted condition number of the pencil's eigenvector matrix V;
# beyond it the complex slab solve would lose more than three digits.
_PENCIL_COND_MAX = 1e3


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


def solve_evolution(problem):
    """March all slabs; one complex factorisation per class of slab lengths.

    The pencil, the factorisations and the march run with one BLAS thread
    (:func:`one_blas_thread`): SuperLU's BLAS calls on these systems gain no
    wall time from more threads, only CPU time, and a sweep that runs
    solves in parallel threads would have them compete for the same cores.
    """
    with one_blas_thread():
        grid = problem.grid
        coeffs = np.zeros((grid.num_slabs, 2, problem.ndof))
        spatial = (problem.m1mat + problem.operator.matrix).tocsr()
        prev = problem.m0mat @ problem.u0
        labels = grid.length_classes()
        last = {label: m for m, label in enumerate(labels, start=1)}
        factors = {}
        for m, label in enumerate(labels, start=1):
            rule = build_radau_rule(grid.slab(m), problem.rho)
            if label not in factors:
                lam, v, w = _temporal_pencil(rule)
                # release the previous class's LU before factorising, so
                # that two factorisations are not alive at the peak
                lu = None
                try:
                    lu = splu((lam * problem.m0mat + spatial).tocsc())
                except RuntimeError as exc:
                    raise RuntimeError(
                        f"singular slab system at slab {m}: {exc}"
                    ) from exc
                factors[label] = lu, v, w
            lu, v, w = factors[label]
            if last[label] == m:
                del factors[label]  # no later slab has this length
            b = _slab_rhs(problem, rule, prev)
            # elementwise, not w @ b: numpy sends that complex-by-real product
            # to a threaded BLAS gemv, measured at 6 ms instead of 0.02 ms per
            # slab of EX4 at n = 2 on 2 vCPUs
            z = lu.solve(w[0] * b[0] + w[1] * b[1])
            if not np.all(np.isfinite(z)):
                raise RuntimeError(
                    f"singular slab system at slab {m}: non-finite solve"
                )
            coeffs[m - 1] = 2.0 * np.outer(v, z).real
            prev = problem.m0mat @ (TRACE_RIGHT @ coeffs[m - 1])
        return EvolutionSolution(problem, coeffs)
