"""Material laws M(z) = M0 + z^{-1} M1(z) over coefficient fields.

A :class:`MaterialLaw` stores block entries of a (finite-dimensional,
pointwise-multiplication) material law.  Each entry ``(i, j)`` may carry

* an instant ``M0`` part — a coefficient field,
* an instant ``M1`` part — a coefficient field,
* rational memory terms ``c * (a + b*z)^{-1}`` (``a, b > 0``) confined to an
  indicator region, contributing to ``M1(z)``,
* a "series" region on which ``M1(z)`` carries the nonrational Bessel symbol
  ``z*(sqrt(1 - z^{-2}) - 1)`` (so that ``M(z) = sqrt(1 - z^{-2})`` there when
  the instant part is 1).

Evaluation returns the pointwise block matrices of ``M(z)``;
``material_symbol`` returns the symbol ``z*M(z) = z*M0 + M1(z)``.

The text serialisation used by the CLI extends the 1-D coefficient grammar
(``constants, sin_osc(n), stripe(n), region(a,b), +, -, *``) with

* ``tensor(fx; fy)`` — a separable 2-D factor,
* ``rat(a, b)`` — the rational kernel ``(a + b*z)^{-1}`` (memory entries are
  printed as ``c * rat(a, b) * <region>``),
* ``bessel_series()`` — the series symbol above.

Laws are serialised for display/config output only; they are not parsed back.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .analytic import series_material_law
from .fields import (
    Constant,
    RegionIndicator,
    Separable2D,
    SineOsc,
    StripeIndicator,
    serialize_field,
)

EXAMPLE_IDS = ("EX1", "EX2", "EX3", "EX4", "EX5", "MAXWELL")


@dataclass(frozen=True)
class MemoryTerm:
    """One rational memory entry c*(a + b*z)^{-1}, active where region=1."""

    c: float
    a: float
    b: float
    region: object  # Field (1-D) or Separable2D (2-D) indicator

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError("memory term requires a > 0 and b > 0")
        if self.c == 0.0:
            raise ValueError("memory term requires c != 0")

    def kernel(self, z):
        """The z-dependent scalar factor c/(a + b*z)."""
        return self.c / (self.a + self.b * z)


class MaterialLaw:
    """Immutable block material law M(z) = M0 + z^{-1} M1(z).

    Entries are dictionaries keyed by component index pairs ``(i, j)``.
    ``dim`` is the spatial dimension of the coefficient fields (1 or 2);
    ``domain`` is ``(a, b)`` for dim=1 and ``((ax, bx), (ay, by))`` for dim=2.
    ``formula_level`` marks laws kept for formula work only (no solvable
    spatial realisation in this package).
    """

    def __init__(
        self,
        ncomp,
        m0,
        m1,
        *,
        memory=None,
        series=None,
        nu0=0.0,
        dim=1,
        domain=(0.0, 1.0),
        component_names=None,
        label="",
        formula_level=False,
    ):
        self.ncomp = int(ncomp)
        self.m0 = MappingProxyType(dict(m0))
        self.m1 = MappingProxyType(dict(m1))
        self.memory = MappingProxyType(
            {k: tuple(v) for k, v in (memory or {}).items() if v}
        )
        self.series = MappingProxyType(dict(series or {}))
        self.nu0 = float(nu0)
        self.dim = int(dim)
        self.domain = domain
        if component_names is None:
            component_names = tuple(f"c{i}" for i in range(self.ncomp))
        if len(component_names) != self.ncomp:
            raise ValueError("component_names length must equal ncomp")
        self.component_names = tuple(component_names)
        self.label = label
        self.formula_level = bool(formula_level)
        for key in (*self.m0, *self.m1, *self.memory, *self.series):
            i, j = key
            if not (0 <= i < self.ncomp and 0 <= j < self.ncomp):
                raise ValueError(f"entry index {key} out of range")

    @property
    def is_instant(self):
        """True when M1 does not depend on z (no memory, no series part)."""
        return not self.memory and not self.series

    def __repr__(self):
        kind = "instant" if self.is_instant else "z-dependent"
        return (
            f"MaterialLaw({self.label or 'unnamed'}, ncomp={self.ncomp}, "
            f"dim={self.dim}, {kind}, nu0={self.nu0})"
        )


def _eval_entry_field(f, points, dim):
    if dim == 1:
        return np.asarray(f(points), dtype=float)
    return np.asarray(f(points[:, 0], points[:, 1]), dtype=float)


def _as_points(law, points):
    pts = np.asarray(points, dtype=float)
    if law.dim == 1:
        if pts.ndim != 1:
            raise ValueError("1-D law expects a flat array of sample points")
    else:
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("2-D law expects points of shape (npts, 2)")
    return pts


def eval_material_law(law, z, points):
    """Pointwise block values of M(z) = M0 + z^{-1} M1(z).

    Returns a complex array of shape ``(npts, ncomp, ncomp)``.  Requires a
    finite ``z`` with ``Re z > law.nu0``.
    """
    z = complex(z)
    if not (cmath.isfinite(z) and z.real > law.nu0):
        raise ValueError(f"z = {z}: Re z must exceed nu0 = {law.nu0} and z must be finite")
    pts = _as_points(law, points)
    npts = pts.shape[0]
    out = np.zeros((npts, law.ncomp, law.ncomp), dtype=complex)
    zinv = 1.0 / z
    for (i, j), f in law.m0.items():
        out[:, i, j] += _eval_entry_field(f, pts, law.dim)
    for (i, j), f in law.m1.items():
        out[:, i, j] += zinv * _eval_entry_field(f, pts, law.dim)
    for (i, j), terms in law.memory.items():
        for term in terms:
            out[:, i, j] += (
                zinv * term.kernel(z) * _eval_entry_field(term.region, pts, law.dim)
            )
    if law.series:
        bump = series_material_law(z) - 1.0
        for (i, j), region in law.series.items():
            out[:, i, j] += bump * _eval_entry_field(region, pts, law.dim)
    return out


def material_symbol(law, z, points):
    """Pointwise z*M(z) = z*M0 + M1(z), shape (npts, ncomp, ncomp)."""
    return complex(z) * eval_material_law(law, z, points)


def _axis_samples(a, b, breakpoints, dense):
    cuts = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    mids = [0.5 * (lo + hi) for lo, hi in zip(cuts, cuts[1:])]
    pts = np.unique(np.concatenate([np.linspace(a, b, dense), np.asarray(mids)]))
    return pts


# ---------------------------------------------------------------------------
# Intrinsic-variable augmentation of rational memory entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentedSlot:
    """Bookkeeping for one intrinsic variable added by augment_memory."""

    index: int  # component index in the augmented law


@dataclass(frozen=True)
class MemoryAugmentation:
    """Result of augment_memory: instant hat law + extension bookkeeping.

    The operator extension rule is: A extends by zero blocks on the new
    components (they carry no spatial derivatives).
    """

    law: MaterialLaw
    slots: tuple


def _is_indicator(f, law_dim, domain):
    """Sampled check that a region field only takes the values 0 and 1."""
    if law_dim == 1:
        a, b = domain
        xs = _axis_samples(a, b, f.breakpoints(a, b), 65)
        vals = np.asarray(f(xs), dtype=float)
    else:
        (ax, bx), (ay, by) = domain
        xs = _axis_samples(ax, bx, f.breakpoints_x(ax, bx), 17)
        ys = _axis_samples(ay, by, f.breakpoints_y(ay, by), 17)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        vals = np.asarray(f(gx.ravel(), gy.ravel()), dtype=float)
    return bool(np.all((np.abs(vals) < 1e-12) | (np.abs(vals - 1.0) < 1e-12)))


def augment_memory(law):
    """Remove rational memory entries by adding one intrinsic variable each.

    For a diagonal entry ``c*(a + b*z)^{-1}`` (``c < 0``) on component ``j``
    restricted to an indicator region, the extended instant law gains a
    component ``w`` with::

        M0-hat[w, w] = 2*b*region
        M1-hat[w, w] = 2*a*region + (1 - region)
        M1-hat[j, w] = M1-hat[w, j] = -sqrt(-2*c)*region

    Schur-eliminating ``w`` from ``z*M0-hat + M1-hat`` restores the original
    symbol identically in z.  A law without memory entries is returned
    unchanged (empty extension).  Raises for unsupported rational shapes
    (off-diagonal memory, c > 0, non-indicator regions) and for laws with a
    series part, which is not rational.
    """
    if law.series:
        raise ValueError("unsupported rational shape: law has a series entry")
    if not law.memory:
        return MemoryAugmentation(law=law, slots=())

    m0 = dict(law.m0)
    m1 = dict(law.m1)
    names = list(law.component_names)
    slots = []
    next_index = law.ncomp
    for (i, j), terms in sorted(law.memory.items()):
        if i != j:
            raise ValueError("unsupported rational shape: off-diagonal memory")
        for term in terms:
            if term.c >= 0.0:
                raise ValueError("unsupported rational shape: requires c < 0")
            if not _is_indicator(term.region, law.dim, law.domain):
                raise ValueError("unsupported rational shape: region is not 0/1")
            w = next_index
            next_index += 1
            g = math.sqrt(-2.0 * term.c)
            m0[(w, w)] = term.region * (2.0 * term.b)
            m1[(w, w)] = term.region * (2.0 * term.a) + (1.0 - term.region)
            m1[(j, w)] = term.region * (-g)
            m1[(w, j)] = term.region * (-g)
            names.append(f"w{len(slots)}_{law.component_names[j]}")
            slots.append(AugmentedSlot(index=w))

    hat = MaterialLaw(
        next_index,
        m0,
        m1,
        nu0=law.nu0,
        dim=law.dim,
        domain=law.domain,
        component_names=names,
        label=(law.label + "+mem") if law.label else "augmented",
        formula_level=law.formula_level,
    )
    return MemoryAugmentation(law=hat, slots=tuple(slots))


# ---------------------------------------------------------------------------
# Registry of the oscillating example materials
# ---------------------------------------------------------------------------


def _omega1_2d():
    box = RegionIndicator(-1.0, 1.0)
    return Separable2D([(box, box)])


def example_material(example_id, n=1):
    """The oscillating material law of one of the built-in example families.

    ``n`` is the oscillation index (stripe/sine frequency).  The material
    constants (exterior permittivity and permeability of the 2-D and
    formula-level families, the conductive family's scales) are all 1.
    """
    example_id = str(example_id).upper()
    if example_id not in EXAMPLE_IDS:
        raise ValueError(f"unknown example id {example_id!r}")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("oscillation index n must be a positive integer")
    n = int(n)
    one = Constant(1.0)

    if example_id == "EX1":
        return MaterialLaw(
            1,
            {(0, 0): one},
            {(0, 0): SineOsc(n)},
            nu0=1.0,
            dim=1,
            domain=(0.0, 1.0),
            component_names=("u",),
            label=f"EX1(n={n})",
        )

    if example_id == "EX2":
        stripe = StripeIndicator(n)
        return MaterialLaw(
            2,
            {(0, 0): stripe, (1, 1): one},
            {(0, 0): 1.0 - stripe},
            nu0=0.5,
            dim=1,
            domain=(0.0, 1.0),
            component_names=("u", "v"),
            label=f"EX2(n={n})",
        )

    if example_id == "EX3":
        osc = SineOsc(n)
        return MaterialLaw(
            2,
            {(0, 0): one, (1, 1): one},
            {(0, 0): osc, (1, 1): osc},
            nu0=1.0,
            dim=1,
            domain=(-1.0, 1.0),
            component_names=("u", "v"),
            label=f"EX3(n={n})",
        )

    if example_id == "EX4":
        omega1 = _omega1_2d()
        stripe = Separable2D.of_x(StripeIndicator(n))
        ext = 1.0 - omega1
        return MaterialLaw(
            3,
            {
                (0, 0): omega1 * (1.0 - stripe) + ext,
                (1, 1): omega1 * (1.0 + stripe) + ext,
                (2, 2): omega1 * (1.0 + stripe) + ext,
            },
            {(0, 0): omega1 * stripe},
            nu0=0.0,
            dim=2,
            domain=((-2.0, 2.0), (-2.0, 2.0)),
            component_names=("u", "vx", "vy"),
            label=f"EX4(n={n})",
        )

    if example_id == "EX5":
        omega1 = _omega1_2d()
        stripe = Separable2D.of_x(StripeIndicator(n))
        ext = 1.0 - omega1
        return MaterialLaw(
            3,
            {
                (0, 0): omega1 * (1.0 + stripe) + ext,
                (1, 1): omega1 * (1.0 - stripe) + ext,
                (2, 2): omega1 * (1.0 - stripe) + ext,
            },
            {(1, 1): omega1 * stripe, (2, 2): omega1 * stripe},
            nu0=0.0,
            dim=2,
            domain=((-2.0, 2.0), (-2.0, 2.0)),
            component_names=("u", "vx", "vy"),
            label=f"EX5(n={n})",
        )

    # MAXWELL: conductive stratified medium, kept at formula level (the
    # coefficients depend on the stratification coordinate only).
    omega1 = RegionIndicator(-1.0, 1.0)
    stripe = StripeIndicator(n)
    ext = 1.0 - omega1
    e_coeff = omega1 * (1.0 - stripe) + ext
    h_coeff = omega1 * (1.0 + stripe) + ext
    cond = omega1 * stripe
    return MaterialLaw(
        6,
        {
            (0, 0): e_coeff,
            (1, 1): e_coeff,
            (2, 2): e_coeff,
            (3, 3): h_coeff,
            (4, 4): h_coeff,
            (5, 5): h_coeff,
        },
        {(0, 0): cond, (1, 1): cond, (2, 2): cond},
        nu0=0.0,
        dim=1,
        domain=(-2.0, 2.0),
        component_names=("E1", "E2", "E3", "H1", "H2", "H3"),
        label=f"MAXWELL(n={n})",
        formula_level=True,
    )


# ---------------------------------------------------------------------------
# Text serialisation (display / CLI config output; not parsed back)
# ---------------------------------------------------------------------------


def _fmt_scalar(v):
    if v == int(v):
        return str(int(v))
    return repr(float(v))


def serialize_entry_field(f):
    """Serialise a 1-D field or a separable 2-D field to grammar text."""
    if isinstance(f, Separable2D):
        parts = []
        for fx, fy in f.terms:
            parts.append(f"tensor({serialize_field(fx)}; {serialize_field(fy)})")
        return " + ".join(parts) if parts else "0"
    return serialize_field(f)


def serialize_law(law):
    """Multi-line plain-text rendering of a law in the documented grammar."""
    lines = [
        f"law {law.label or 'unnamed'}",
        f"  dim {law.dim}",
        f"  components {', '.join(law.component_names)}",
        f"  nu0 {_fmt_scalar(law.nu0)}",
    ]
    names = law.component_names

    def _key(i, j):
        return f"[{names[i]},{names[j]}]"

    for (i, j), f in sorted(law.m0.items()):
        lines.append(f"  M0{_key(i, j)} = {serialize_entry_field(f)}")
    for (i, j), f in sorted(law.m1.items()):
        lines.append(f"  M1{_key(i, j)} = {serialize_entry_field(f)}")
    for (i, j), terms in sorted(law.memory.items()):
        for t in terms:
            lines.append(
                f"  M1{_key(i, j)} += {_fmt_scalar(t.c)} * rat({_fmt_scalar(t.a)}, "
                f"{_fmt_scalar(t.b)}) * ({serialize_entry_field(t.region)})"
            )
    for (i, j), region in sorted(law.series.items()):
        lines.append(
            f"  M{_key(i, j)} += (bessel_series() - 1) * ({serialize_entry_field(region)})"
        )
    return "\n".join(lines)
