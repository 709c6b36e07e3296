"""Closed-form homogenised limits for stratified oscillating media.

Covers four things:

* exact integral means of periodic coefficient fields,
* the stratified (layered-medium) effective tensor given in closed form by
  the classical mean formulas, plus the dual route that inverts pointwise,
  homogenises, and inverts back,
* Schur-type block quantities of a two-part splitting (the four operators
  that characterise block convergence) and a probe metric between two
  operators' quantities,
* the limit material laws of the built-in example families, with memory
  entries in rational form, each posed on its family's frame in
  :mod:`evohom.laws` (components, domain and nu0 are written there).

A brute-force periodic cell-problem FEM solve is included as an
independent numerical oracle for the stratified formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .fields import (
    ANY_PERIOD,
    Constant,
    RegionIndicator,
    StripeIndicator,
    Sum,
    as_field,
)
from .laws import LAYERS, LOW, MemoryTerm, family_law, omega1
from .meshes import as_count, gauss_panels, partition

__all__ = [
    "EffectiveTensor",
    "build_limit_law",
    "cell_problem_fem",
    "cell_problem_oracle",
    "dual_stratified_limit",
    "homogenise_stratified",
    "integral_mean",
    "schur_blocks",
    "schur_distance",
]

_GAUSS_PTS = 12
_POS_TOL = 1e-12


# ---------------------------------------------------------------------------
# Integral means
# ---------------------------------------------------------------------------


def _period_rule(f, ell):
    """Nodes and weights of the rule that integrates ``f`` over [0, ell].

    Piecewise-constant trees get the one-point (midpoint) Gauss rule on
    each piece of the breakpoint partition, which is exact; all other trees
    the _GAUSS_PTS-point rule on pieces subdivided to an eighth of the
    tree's period (absolute accuracy better than 1e-12 for the smooth
    families used here).
    """
    cuts = partition(0.0, ell, f.breakpoints(0.0, ell))
    if f.is_piecewise_constant():
        return gauss_panels(cuts, 1)
    p = f.period()
    max_chunk = (ell if p in (None, ANY_PERIOD) else min(p, ell)) / 8.0
    chunks = np.ceil(np.diff(cuts) / max_chunk).astype(int)
    pieces = zip(cuts, cuts[1:], chunks)
    edges = [np.linspace(a, b, k, endpoint=False) for a, b, k in pieces]
    return gauss_panels(np.append(np.concatenate(edges), ell), _GAUSS_PTS)


def _period(period):
    """``period`` as a float, else ValueError unless positive and finite."""
    ell = float(period)
    if not 0.0 < ell < math.inf:
        raise ValueError(f"period must be positive and finite, got {period!r}")
    return ell


def integral_mean(coeff, period=1.0):
    """Mean value (1/l) * int_0^l coeff of an l-periodic coefficient, by
    the rule of :func:`_period_rule`.  Raises for coefficients that are not
    periodic with the given period.
    """
    f = as_field(coeff)
    ell = _period(period)
    if not f.is_periodic_with(ell):
        raise ValueError(f"coefficient {f!r} is not periodic with period {ell}")
    xs, w = _period_rule(f, ell)
    return float(np.dot(w, f(xs))) / ell


# ---------------------------------------------------------------------------
# Stratified effective tensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectiveTensor:
    """Constant effective tensor."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __repr__(self):
        return f"EffectiveTensor({self.matrix.tolist()})"


def _periodic_matrix(a_hat, period):
    """The entries of a square matrix of periodic coefficients, as fields,
    their sum, which breaks where any entry breaks, and the period as a
    float (:func:`_period`)."""
    ell = _period(period)
    A = [list(row) for row in a_hat]
    if any(len(row) != len(A) for row in A):
        raise ValueError("coefficient matrix must be square")
    A = [[as_field(e) for e in row] for row in A]
    for i, row in enumerate(A):
        for j, entry in enumerate(row):
            if not entry.is_periodic_with(ell):
                raise ValueError(
                    f"entry ({i}, {j}) = {entry!r} is not periodic with period {ell}"
                )
    return A, Sum([e for row in A for e in row]), ell


def _sample(A, xs):
    """The entries of the field matrix ``A`` at the points ``xs``, as an
    array of shape (npts, d, d)."""
    return np.moveaxis(np.array([[e(xs) for e in row] for row in A]), -1, 0)


# Uniform samples per period (on top of the rule's nodes) of the
# positivity and singularity checks.
_NSAMP = 4096


def _period_samples(a_hat, period):
    """Mean weights (npts,) and samples (npts, d, d) of a coefficient matrix.

    The points are the nodes of the :func:`_period_rule` of the sum of all
    entries, which put one inside every piece of every entry and give the
    mean of any pointwise function of the entries, and then _NSAMP uniform
    points of weight 0, which only the positivity and singularity checks
    read.
    """
    A, total, ell = _periodic_matrix(a_hat, period)
    xs, w = _period_rule(total, ell)
    uniform = np.linspace(0.0, ell, _NSAMP, endpoint=False) + ell / (2 * _NSAMP)
    return np.append(w / ell, np.zeros(_NSAMP)), _sample(A, np.append(xs, uniform))


def _mean_formulas(w, a):
    """The mean formulas of :func:`homogenise_stratified` on samples ``a``
    (npts, d, d) with mean weights ``w``."""
    a11 = a[:, 0, 0]
    if float(np.min(a11)) <= _POS_TOL:
        raise ValueError("the 11-entry must be uniformly positive")
    c1 = 1.0 / (w @ (1.0 / a11))
    r_row = w @ (a[:, 0, 1:] / a11[:, None])  # m(a1j/a11)
    r_col = w @ (a[:, 1:, 0] / a11[:, None])  # m(ai1/a11)
    cross = a[:, 1:, 1:] - a[:, 1:, :1] * a[:, None, 0, 1:] / a11[:, None, None]
    mat = np.empty(a.shape[1:])
    mat[0, 0] = c1
    mat[0, 1:] = c1 * r_row
    mat[1:, 0] = c1 * r_col
    mat[1:, 1:] = np.tensordot(w, cross, axes=1) + np.outer(c1 * r_col, r_row)
    return mat


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
    return EffectiveTensor(_mean_formulas(*_period_samples(a_hat, period)))


def dual_stratified_limit(a_hat, period=1.0):
    """Invert pointwise, homogenise the inverse family, and invert back.

    Raises when a sample of a diagonal ``a_hat`` has a diagonal entry, or a
    sample of any other ``a_hat`` its determinant, within _POS_TOL of zero.
    """
    w, a = _period_samples(a_hat, period)
    d = a.shape[-1]
    if not a[:, ~np.eye(d, dtype=bool)].any():
        if float(np.min(np.abs(np.diagonal(a, axis1=1, axis2=2)))) <= _POS_TOL:
            raise ValueError("singular pointwise inverse: zero diagonal entry")
    elif float(np.min(np.abs(np.linalg.det(a)))) <= _POS_TOL:
        raise ValueError("singular pointwise inverse: determinant vanishes on samples")
    return EffectiveTensor(np.linalg.inv(_mean_formulas(w, np.linalg.inv(a))))


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


def cell_problem_oracle(a_hat, period=1.0, ncells=1024):
    """Sample a coefficient matrix on a fine aligned mesh and run the FEM.

    The mesh is uniform with the entries' breakpoints inserted (so layered
    two-phase media are resolved exactly); coefficients are midpoint
    sampled.  The solve is repeated on the doubled mesh and Richardson
    extrapolated, which removes the leading quadrature error for smooth
    coefficients.
    """
    A, total, ell = _periodic_matrix(a_hat, period)
    breaks = total.breakpoints(0.0, ell)

    def solve(nc):
        cuts = partition(0.0, ell, np.append(np.linspace(0.0, ell, nc + 1), breaks))
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        return cell_problem_fem(_sample(A, mids), np.diff(cuts))

    ncells = as_count(ncells, 1, "the oracle needs ncells >= 1")
    t1 = solve(ncells)
    t2 = solve(2 * ncells)
    return (4.0 * t2 - t1) / 3.0


# ---------------------------------------------------------------------------
# Schur-block quantities
# ---------------------------------------------------------------------------


def schur_blocks(a, split):
    """The four block quantities of ``a`` split after its first ``split`` indices.

    Returns (q00, q10, q01, qS) = (inv(a00), a10 inv(a00), inv(a00) a01,
    a11 - a10 inv(a00) a01); together with the split they determine the
    operator uniquely.  Raises for a split outside (0, n) and for a
    singular 00-block.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("operator must be square")
    message = "split size must be an integer strictly between 0 and n"
    k = as_count(split, 1, message)
    if k >= n:
        raise ValueError(message)
    a00, a01, a10, a11 = a[:k, :k], a[:k, k:], a[k:, :k], a[k:, k:]
    try:
        q00 = np.linalg.inv(a00)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular 00-block") from exc
    return q00, a10 @ q00, q00 @ a01, a11 - a10 @ q00 @ a01


def schur_distance(a, b, split, probes):
    """Probe metric between the block quantities of two operators.

    The maximum over the four quantities and probe pairs (u, v) of
    |<u_part, (Q_a - Q_b) v_part>|, where each probe is restricted to the
    index parts matching the quantity's row/column spaces.  Zero iff the
    quantities agree on the probe span.
    """
    k = as_count(split, 1, "the split of a Schur distance must be an integer >= 1")
    p0 = [np.asarray(p)[:k] for p in probes]
    p1 = [np.asarray(p)[k:] for p in probes]
    sides = ((p0, p0), (p1, p0), (p0, p1), (p1, p1))  # (u, v) per quantity
    best = 0.0
    for da, db, (us, vs) in zip(schur_blocks(a, k), schur_blocks(b, k), sides):
        diff = da - db
        for u in us:
            for v in vs:
                best = max(best, abs(float(u @ diff @ v)))
    return best


# ---------------------------------------------------------------------------
# Limit-law registry
# ---------------------------------------------------------------------------


def build_limit_law(example_id):
    """The closed-form limit material law of an oscillating example family.

    The limits are independent of the oscillation index, and all material
    constants of the families are 1.  Each limit is posed on its family's
    frame (:func:`evohom.laws.family_law`).  Memory entries
    are rational (c/(a + b z)); the first family's limit is not rational
    (it is the Bessel-series law of the analytic module) and is rejected
    here.

    A layered family's limit is read from its ``laws.LAYERS`` row: inside
    the oscillation region each M0 entry is the :func:`integral_mean` of its
    phase (:func:`homogenise_stratified` for a harmonic one) and each
    conductive M1 the mean of the stripe; outside it M0 is 1 and M1 is 0.
    """
    example_id = str(example_id).upper()
    label = f"{example_id}-limit"
    one = Constant(1.0)

    if example_id == "EX1":
        raise ValueError(
            "EX1's limit law is the nonrational Bessel-series law; "
            "use the analytic module (series_material_law) instead"
        )

    if example_id == "EX2":
        return family_law(
            example_id, label, {(0, 0): Constant(0.5), (1, 1): one}, {(0, 0): Constant(0.5)}
        )

    if example_id == "EX3":
        bump = RegionIndicator(0.0, 1.0)
        return family_law(
            example_id,
            label,
            {(0, 0): one, (1, 1): one},
            {},
            series={(0, 0): bump, (1, 1): bump},
        )

    if example_id not in LAYERS:
        raise ValueError(f"unknown example id {example_id!r}")
    # The layered families: the two-phase means of the row's phases inside
    # the oscillation region, 1 outside it.
    phases, conductive, harmonic = LAYERS[example_id]
    omega = omega1(example_id)
    ext = 1.0 - omega
    stripe = StripeIndicator(1)
    m0, m1, memory = {}, {}, {}
    for i, phase in enumerate(phases):
        if i in conductive and i in harmonic:
            # The symbol z*(1 - s) + s takes the values z and 1 on the two
            # phases; its harmonic mean 2z/(1 + z) = 2 - 2/(1 + z) has no
            # instant part, M1 = 2 and the memory entry -2/(1 + z).
            if phase is not LOW:
                raise ValueError(f"{example_id}: a harmonic conductive phase must be LOW")
            m0[i, i], m1[i, i] = ext, omega * 2.0
            memory[i, i] = (MemoryTerm(-2.0, 1.0, 1.0, omega),)
            continue
        if i in harmonic:
            mean = float(homogenise_stratified([[phase(1.0, stripe)]]).matrix[0, 0])
        else:
            mean = integral_mean(phase(1.0, stripe))
        m0[i, i] = omega * mean + ext
        if i in conductive:
            m1[i, i] = omega * integral_mean(stripe)
    return family_law(example_id, label, m0, m1, memory=memory)
