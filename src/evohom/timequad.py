"""Time grids, exponentially weighted Gauss-Radau quadrature, dG(1) temporal blocks.

The dG time discretisation works slab by slab on half-open intervals
I_m = (t_{m-1}, t_m].  On each slab, integrals against the weight
exp(-2*rho*(t - t_{m-1})) are evaluated by a 2-point right-sided
Gauss-Radau rule: the right endpoint is always a node, the free node and
both weights are fixed by matching the weighted moments of 1, t, t^2.
Such a rule is exact on polynomials of degree <= 2 against the weight,
which is exactly what the dG(1) bilinear form needs.

The temporal basis on each slab is the shifted Legendre pair
l0(t) = 1, l1(t) = 2*(t - t_{m-1})/h - 1, so l1 = -1 at the left and +1
at the right end of the slab.  This module is the only one that knows it:
:func:`temporal_basis` evaluates the pair at local coordinates in [0, 1],
and a dG(1) function is read slab by slab from its two coefficients (its
values at the slab ends are ``TRACE_LEFT``/``TRACE_RIGHT`` times them).
l0 and l1 are orthogonal on each slab, with squared L2 norms h and h/3
(:meth:`TimeGrid.basis_masses`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meshes import as_count

__all__ = [
    "TimeGrid",
    "temporal_basis",
    "WeightedRadauRule",
    "weighted_moments",
    "build_radau_rule",
    "temporal_matrices",
    "TRACE_LEFT",
    "TRACE_RIGHT",
]


def temporal_basis(tau):
    """Values (l0, l1) of the dG(1) basis at local coordinates tau in [0, 1].

    Returns an array of shape ``(2,) + np.shape(tau)``.
    """
    tau = np.asarray(tau, dtype=float)
    return np.stack([np.ones_like(tau), 2.0 * tau - 1.0])


# Values of (l0, l1) at the slab endpoints.
TRACE_LEFT = temporal_basis(0.0)
TRACE_RIGHT = temporal_basis(1.0)


class TimeGrid:
    """A partition 0 = t_0 < t_1 < ... < t_M = T of the time horizon.

    Slab m (1-based) is the half-open interval (t_{m-1}, t_m].
    """

    def __init__(self, t_points):
        t = np.asarray(t_points, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("time grid needs at least two points")
        if t[0] != 0.0:
            raise ValueError("time grid must start at t = 0")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("time grid must be strictly increasing")
        self.t_points = t

    @classmethod
    def uniform(cls, T, num_slabs):
        """Uniform grid with `num_slabs` slabs on [0, T]."""
        if not 0.0 < T < math.inf:
            raise ValueError("final time must be positive and finite")
        num_slabs = as_count(num_slabs, 1, "need at least one slab")
        return cls(np.linspace(0.0, float(T), num_slabs + 1))

    @property
    def num_slabs(self):
        return self.t_points.size - 1

    @property
    def T(self):
        return float(self.t_points[-1])

    def slab(self, m):
        """Endpoints (t_{m-1}, t_m) of slab m, 1-based."""
        if not 1 <= m <= self.num_slabs:
            raise IndexError(f"slab index {m} out of range 1..{self.num_slabs}")
        return float(self.t_points[m - 1]), float(self.t_points[m])

    def basis_masses(self):
        """Unweighted masses (h_m, h_m / 3) of (l0, l1) on each slab: shape (M, 2).

        l0 and l1 are orthogonal on every slab, so a dG(1) function with
        coefficients (a0, a1) on slab m has squared L2 norm
        h_m * a0^2 + h_m / 3 * a1^2 there.
        """
        return np.diff(self.t_points)[:, None] * np.array([1.0, 1.0 / 3.0])


def weighted_moments(h, rho, k_max):
    """Moments mu_k = int_0^h t^k exp(-2*rho*t) dt for k = 0..k_max.

    Closed forms: with y = 2*rho*h and phi_k(y) = int_0^1 s^k e^{-y s} ds,

        mu_k = h^{k+1} * phi_k(y),

    where phi_k is evaluated by the alternating series
    sum_j (-y)^j / (j! (k+j+1)) for small y (no cancellation) and by the
    downward-stable recurrence phi_k = (k*phi_{k-1} - e^{-y}) / y otherwise.
    For rho = 0 the moments are h^{k+1}/(k+1) exactly.
    """
    if not 0.0 < h < math.inf:
        raise ValueError("slab length h must be positive and finite")
    if not 0.0 <= rho < math.inf:
        raise ValueError("weight rate rho must be finite and nonnegative")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if rho == 0.0:
        return [h ** (k + 1) / (k + 1) for k in range(k_max + 1)]

    y = 2.0 * rho * h
    phis = []
    if y < 1.0:
        # phi_k(y) = sum_{j>=0} (-y)^j / (j! (k+j+1)); terms at j ~ 35 are
        # below 1e-17 for y <= 1, giving full double precision.
        for k in range(k_max + 1):
            term = 1.0 / (k + 1)
            total = term
            factor = 1.0
            for j in range(1, 40):
                factor *= -y / j
                term = factor / (k + j + 1)
                total += term
                if abs(term) < 1e-18 * abs(total):
                    break
            phis.append(total)
    else:
        ey = math.exp(-y)
        phi = -math.expm1(-y) / y  # (1 - e^{-y}) / y without cancellation
        phis.append(phi)
        for k in range(1, k_max + 1):
            phi = (k * phi - ey) / y
            phis.append(phi)
    return [h ** (k + 1) * phis[k] for k in range(k_max + 1)]


@dataclass(frozen=True)
class WeightedRadauRule:
    """2-point right-sided Gauss-Radau rule on a slab, weighted by
    exp(-2*rho*(t - t_left)).

    nodes are global times within the slab, the right endpoint always
    included; both weights are strictly positive.
    """

    t_left: float
    t_right: float
    rho: float
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def h(self):
        return self.t_right - self.t_left

    def integrate(self, f):
        """Apply the rule to a callable f(t)."""
        return float(np.dot(self.weights, [f(t) for t in self.nodes]))


def build_radau_rule(slab, rho):
    """Construct the weighted 2-point right-sided Gauss-Radau rule.

    Fixing the right endpoint as a node leaves three unknowns (one free
    node, two weights), determined by exactness on 1, t, t^2 against the
    weight:  the free node is t1 = (mu2 - h*mu1) / (mu1 - h*mu0) in slab
    coordinates, then the 2x2 Vandermonde system gives the weights.
    """
    t_left, t_right = float(slab[0]), float(slab[1])
    h = t_right - t_left
    if not h > 0.0:
        raise ValueError("slab must have positive length")
    mu0, mu1, mu2 = weighted_moments(h, rho, 2)
    denom = mu1 - h * mu0
    if denom == 0.0:
        raise ArithmeticError("degenerate moment system for the Radau rule")
    t1 = (mu2 - h * mu1) / denom
    if not 0.0 < t1 < h:
        raise ArithmeticError(f"free Radau node {t1} fell outside (0, {h})")
    w2 = (mu1 - t1 * mu0) / (h - t1)
    w1 = mu0 - w2
    if w1 <= 0.0 or w2 <= 0.0:
        raise ArithmeticError("Radau weights must be positive")
    return WeightedRadauRule(
        t_left=t_left,
        t_right=t_right,
        rho=float(rho),
        nodes=np.array([t_left + t1, t_right]),
        weights=np.array([w1, w2]),
    )


def temporal_matrices(rule):
    """dG(1) temporal blocks for one slab under the given Radau rule.

    Returns (T0, T1, J) with

        T0[i, j] = Q( l_j * l_i )        (weighted temporal mass)
        T1[i, j] = Q( l_j' * l_i )       (weighted derivative pairing)
        J[i, j]  = l_i(left) * l_j(left) (upwind jump block)

    where Q is the slab's weighted Radau rule.  The products l_j*l_i are
    quadratic, so Q evaluates them exactly.
    """
    h = rule.h
    taus = (rule.nodes - rule.t_left) / h
    B = temporal_basis(taus).T  # (node, basis)
    dB = np.tile(np.array([0.0, 2.0 / h]), (2, 1))  # l0' = 0, l1' = 2/h
    W = rule.weights
    T0 = np.einsum("q,qj,qi->ij", W, B, B)
    T1 = np.einsum("q,qj,qi->ij", W, dB, B)
    J = np.outer(TRACE_LEFT, TRACE_LEFT)
    return T0, T1, J
