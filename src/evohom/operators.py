"""Skew spatial operators, law mass assembly, and quadratic-form checks.

The spatial operator of every example family has the block form
``(0, D; -D^T, 0)`` for a single stored coupling block D, which makes the
assembled matrix skew-symmetric by construction:

* ``periodic-pair`` — D is the periodic derivative pairing <d v, u>;
* ``interface-pair`` — D is the derivative pairing supported on the left
  subinterval only, with the point constraints (first component vanishing at
  the interior interface, second at the left endpoint) supplying the
  boundary terms of integration by parts;
* ``div-grad`` — D couples the zero-trace scalar component to an
  H(div)-conforming pair via <div v, u>;
* ``zero`` — no spatial coupling.

Every operator is a CSR matrix over the stacked DOFs of its spaces, in the
layout of :func:`component_offsets`.  ``assemble_law_masses`` turns an
instant material law plus per-component spaces into stacked sparse M0/M1
matrices, including cross-component blocks (as produced by the memory
augmentation).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fields import RegionIndicator
from .spaces import TensorSpace, gram1d, gram2d

_STRUCTURES = ("zero", "periodic-pair", "interface-pair", "div-grad")

_EXAMPLE_STRUCTURE = {
    "EX1": "zero",
    "EX2": "periodic-pair",
    "EX3": "interface-pair",
    "EX4": "div-grad",
    "EX5": "div-grad",
}


def component_offsets(spaces):
    sizes = [s.ndof for s in spaces]
    return np.concatenate([[0], np.cumsum(sizes)]).astype(int)


def _blocks_to_matrix(blocks, offsets):
    n = len(offsets) - 1
    grid = [[None] * n for _ in range(n)]
    for (i, j), b in blocks.items():
        grid[i][j] = b
    for i in range(n):
        if all(grid[i][j] is None for j in range(n)):
            ni = offsets[i + 1] - offsets[i]
            grid[i][i] = sp.csr_matrix((ni, ni))
    return sp.bmat(grid, format="csr")


def assemble_skew_operator(structure, spaces):
    """CSR matrix of the given structure over the stacked DOFs of the spaces.

    ``structure`` is one of the structure names above or an example id
    (EX1..EX5).  Raises for nonconforming space combinations.
    """
    key = str(structure)
    structure = _EXAMPLE_STRUCTURE.get(key.upper(), key.lower())
    if structure not in _STRUCTURES:
        raise ValueError(f"unknown operator structure {structure!r}")
    offsets = component_offsets(spaces)
    blocks = {}

    if structure == "zero":
        pass

    elif structure in ("periodic-pair", "interface-pair"):
        if len(spaces) != 2:
            raise ValueError(f"{structure} needs exactly two component spaces")
        su, sv = spaces
        # the interface pair couples only on the left half of the span
        lo, hi = su.span
        support = RegionIndicator(lo, 0.5 * (lo + hi)) if structure == "interface-pair" else None
        d = gram1d(su, sv, coeff=support, dcol=1)
        blocks[(0, 1)] = d
        blocks[(1, 0)] = (-d.T).tocsr()

    elif structure == "div-grad":
        if len(spaces) != 3:
            raise ValueError("div-grad needs (scalar, flux-x, flux-y) spaces")
        su, svx, svy = spaces
        if not all(isinstance(s, TensorSpace) for s in (su, svx, svy)):
            raise ValueError("div-grad needs tensor-product spaces")
        dx = gram2d(su, svx, dcol=(1, 0))
        dy = gram2d(su, svy, dcol=(0, 1))
        blocks[(0, 1)] = dx
        blocks[(0, 2)] = dy
        blocks[(1, 0)] = (-dx.T).tocsr()
        blocks[(2, 0)] = (-dy.T).tocsr()

    return _blocks_to_matrix(blocks, offsets)


def extend_with_zero_components(op, extra_sizes):
    """Pad the matrix ``op`` with zero blocks for appended components.

    This is the operator half of the memory augmentation: intrinsic
    variables carry no spatial derivatives.  No sizes return ``op`` itself.
    """
    extra = sum(int(s) for s in extra_sizes)
    if not extra:
        return op
    return sp.block_diag([op, sp.csr_matrix((extra, extra))], format="csr")


def _entry_gram(row_space, col_space, coeff):
    if isinstance(row_space, TensorSpace) or isinstance(col_space, TensorSpace):
        return gram2d(row_space, col_space, coeff=coeff)
    return gram1d(row_space, col_space, coeff=coeff)


def assemble_law_masses(spaces, law):
    """Stacked sparse (M0, M1) Galerkin matrices of an instant law.

    ``spaces`` lists one discrete space per law component.  Raises when the
    law still carries memory or series entries (augment first).
    """
    if not law.is_instant:
        raise ValueError("law has z-dependent entries; apply augment_memory first")
    if len(spaces) != law.ncomp:
        raise ValueError("one space per law component is required")
    offsets = component_offsets(spaces)
    m0_blocks, m1_blocks = {}, {}
    for (i, j), f in law.m0.items():
        m0_blocks[(i, j)] = _entry_gram(spaces[i], spaces[j], f)
    for (i, j), f in law.m1.items():
        m1_blocks[(i, j)] = _entry_gram(spaces[i], spaces[j], f)
    return _blocks_to_matrix(m0_blocks, offsets), _blocks_to_matrix(m1_blocks, offsets)


# ---------------------------------------------------------------------------
# Quadratic-form checks (constant skew gradients, complexified accretivity)
# ---------------------------------------------------------------------------


def skew_gradient_form(space, c=1.0):
    """Matrix of <C grad u, grad v> for C = [[0, c], [-c, 0]] on a 2-D space.

    For a zero-trace space this matrix vanishes identically (up to roundoff):
    constant skew-symmetric coefficients drop out of divergence form.
    """
    b_yx = gram2d(space, space, drow=(1, 0), dcol=(0, 1))  # <d_y u, d_x v>
    b_xy = gram2d(space, space, drow=(0, 1), dcol=(1, 0))  # <d_x u, d_y v>
    return (c * (b_yx - b_xy)).tocsr()


def complexified_accretivity_gap(a, ntrials=200, seed=0):
    """min over random complex z of Re<a z, z> - alpha*|z|^2.

    ``alpha`` is the smallest eigenvalue of the symmetric part of the real
    matrix ``a``; a real matrix with symmetric part >= alpha*I keeps the same
    lower bound after complexification, so the gap is nonnegative up to
    roundoff.
    """
    a = np.asarray(a, dtype=float)
    alpha = float(np.linalg.eigvalsh(0.5 * (a + a.T)).min())
    rng = np.random.default_rng(seed)
    d = a.shape[0]
    worst = np.inf
    for _ in range(int(ntrials)):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        val = np.real(np.vdot(z, a @ z)) - alpha * np.vdot(z, z).real
        worst = min(worst, float(val))
    return worst
