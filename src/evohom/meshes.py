"""Interval and tensor-product meshes, and the package's one 1-D quadrature.

``build_mesh`` guarantees that every discontinuity point ``k/(2n)`` of the
stripe coefficient inside the requested domain lands on a cell boundary.  For
rectangles an optional oscillation region triggers the graded rule used by
the 2-D example families: spacing ``1/(4nr)`` inside the region and ``1/(nr)``
outside for r times the rule's base count, the region endpoints mesh lines.

Every 1-D integral in the package is a composite Gauss rule
(:func:`gauss_panels`) over a partition built by :func:`partition`: the
cells of spaces, the breakpoints of coefficients, the pieces of a period.

Every count the package takes (subdivisions, slabs, degrees, oscillation
indices, worker threads) goes through the one check :func:`as_count`.
"""

from __future__ import annotations

import functools

import numpy as np

_ALIGN_TOL = 1e-12
# Points closer than this (absolute) are one point of a partition.
_NODE_TOL = 1e-10


def as_count(value, low, message):
    """``value`` as an int >= ``low``, else ValueError(message).

    Bools, strings, None, non-integral and non-finite values are refused;
    integral floats such as 2.0 pass.
    """
    try:
        if not isinstance(value, (bool, np.bool_, str)) and int(value) == value and value >= low:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(message)


def partition(lo, hi, points):
    """``[lo, the points strictly inside (lo, hi), hi]``, sorted.

    A point within ``_NODE_TOL`` of an end or of the point before it is
    dropped, so a run of such points keeps only its first.
    """
    pts = np.sort(np.asarray(points, dtype=float).ravel())
    pts = pts[(pts > lo + _NODE_TOL) & (pts < hi - _NODE_TOL)]
    pts = pts[np.diff(pts, prepend=-np.inf) > _NODE_TOL]
    return np.concatenate([[lo], pts, [hi]])


@functools.lru_cache(maxsize=None, typed=True)  # typed: True never hits the entry of 1
def gauss_rule(npts):
    """Gauss–Legendre nodes/weights on the reference cell [0, 1] (read-only)."""
    npts = as_count(npts, 1, "a Gauss rule needs an integer number of points >= 1")
    x, w = np.polynomial.legendre.leggauss(npts)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_panels(cuts, npts):
    """Gauss points/weights of a composite rule over the partition ``cuts``."""
    cuts = np.asarray(cuts, dtype=float)
    ref_x, ref_w = gauss_rule(npts)
    h = np.diff(cuts)[:, None]
    return (cuts[:-1, None] + h * ref_x).ravel(), (h * ref_w).ravel()


class Mesh1D:
    """Cells of an interval, given by strictly increasing boundaries."""

    def __init__(self, boundaries):
        b = np.asarray(boundaries, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("a 1-D mesh needs at least two boundary points")
        if not np.all(np.diff(b) > 0.0):
            raise ValueError("boundaries must be strictly increasing")
        self.boundaries = b

    @property
    def ncells(self):
        return self.boundaries.size - 1

    @property
    def span(self):
        return float(self.boundaries[0]), float(self.boundaries[-1])

    @property
    def widths(self):
        return np.diff(self.boundaries)

    def cell_containing(self, x):
        """Index of the cell containing x (scalar or array).

        Cells are half-open [b_i, b_{i+1}); the last one is closed, and points
        outside the span are clamped to the first or last cell.
        """
        idx = np.searchsorted(self.boundaries, x, side="right") - 1
        idx = np.clip(idx, 0, self.ncells - 1)
        return int(idx) if idx.ndim == 0 else idx

    def __repr__(self):
        a, b = self.span
        return f"Mesh1D({self.ncells} cells on [{a}, {b}])"


class TensorMesh2D:
    """Tensor-product mesh of a rectangle."""

    def __init__(self, x_boundaries, y_boundaries):
        self.x = Mesh1D(x_boundaries)
        self.y = Mesh1D(y_boundaries)

    @property
    def span(self):
        return self.x.span, self.y.span

    def __repr__(self):
        (ax, bx), (ay, by) = self.span
        return (
            f"TensorMesh2D({self.x.ncells}x{self.y.ncells} cells on "
            f"[{ax}, {bx}] x [{ay}, {by}])"
        )


def stripe_points(a, b, n):
    """Stripe discontinuities k/(2n) inside (a, b), farther than 1e-12 from its ends."""
    step = 1.0 / (2.0 * n)
    k_lo = int(np.floor(a / step)) - 1
    k_hi = int(np.ceil(b / step)) + 1
    pts = np.arange(k_lo, k_hi + 1) * step
    return pts[(pts > a + _ALIGN_TOL) & (pts < b - _ALIGN_TOL)]


def _check_alignment(boundaries, a, b, n):
    missing = [
        p
        for p in stripe_points(a, b, n)
        if not np.any(np.abs(boundaries - p) <= _ALIGN_TOL)
    ]
    if missing:
        required = int(round(2 * n * (b - a)))
        raise ValueError(
            f"mesh misaligned with the stripe coefficient (n={n}): the "
            f"subdivision over [{a}, {b}] must be a multiple of {required} "
            f"(first missing discontinuity: {missing[0]})"
        )


def _graded_x_boundaries(a, b, subdivisions, n, osc_region):
    """Graded boundaries: spacing 1/(4nr) inside osc_region, 1/(nr) outside."""
    lo, hi = osc_region
    if not (a <= lo < hi <= b):
        raise ValueError("oscillation region must lie inside the domain")
    inside = int(round((hi - lo) * 4 * n))
    if inside < 1 or abs(inside - (hi - lo) * 4 * n) > _ALIGN_TOL:
        raise ValueError("oscillation region width must be a positive multiple of 1/(4n)")
    left = int(round((lo - a) * n))
    right = int(round((b - hi) * n))
    if abs(left - (lo - a) * n) > _ALIGN_TOL or abs(right - (b - hi) * n) > _ALIGN_TOL:
        raise ValueError("exterior widths must be multiples of 1/n")
    total = inside + left + right
    r = subdivisions // total
    if subdivisions != r * total:
        raise ValueError(
            f"graded mesh over [{a}, {b}] with oscillation region "
            f"[{lo}, {hi}] and n={n} requires a multiple of {total} "
            f"x-subdivisions (got {subdivisions})"
        )
    segments = ((a, lo, left), (lo, hi, inside), (hi, b, right))
    parts = [np.linspace(p, q, r * k + 1) for p, q, k in segments if k]
    return np.concatenate([parts[0]] + [seg[1:] for seg in parts[1:]])


def build_mesh(domain, subdivisions, alignment=0, osc_region=None):
    """Mesh an interval or rectangle, resolving the stripe structure.

    ``domain`` is ``(a, b)`` or ``((ax, bx), (ay, by))``; ``subdivisions`` an
    integer or an ``(nx, ny)`` pair.  With ``alignment`` n > 0 every stripe
    discontinuity ``k/(2n)`` inside the (x-)domain must land on a boundary;
    a misaligned request raises an error naming the required multiple.  With
    ``osc_region`` set on a rectangle, the x-direction uses the graded rule:
    spacing ``1/(4nr)`` inside and ``1/(nr)`` outside for an x count r times
    the rule's base count (any other count raises an error naming it);
    otherwise subdivision is uniform per direction.
    """
    domain = tuple(domain)
    two_d = isinstance(domain[0], (tuple, list, np.ndarray))
    n = as_count(alignment, 0, "alignment must be a nonnegative integer")

    if not two_d:
        a, b = map(float, domain)
        sub = as_count(subdivisions, 1, "subdivisions must be >= 1")
        boundaries = np.linspace(a, b, sub + 1)
        if n > 0:
            _check_alignment(boundaries, a, b, n)
        return Mesh1D(boundaries)

    (ax, bx), (ay, by) = ((float(p), float(q)) for p, q in domain)
    try:
        nx, ny = (as_count(s, 1, "subdivisions must be >= 1") for s in subdivisions)
    except TypeError as exc:
        raise ValueError("a rectangle needs an (nx, ny) subdivision pair") from exc
    if osc_region is not None:
        if n < 1:
            raise ValueError("a graded mesh needs alignment n >= 1")
        xb = _graded_x_boundaries(ax, bx, nx, n, tuple(map(float, osc_region)))
        lo, hi = osc_region
        _check_alignment(xb, lo, hi, n)
    else:
        xb = np.linspace(ax, bx, nx + 1)
        if n > 0:
            _check_alignment(xb, ax, bx, n)
    yb = np.linspace(ay, by, ny + 1)
    return TensorMesh2D(xb, yb)
