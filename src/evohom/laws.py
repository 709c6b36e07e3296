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

The built-in families are registered here by their frame (``_FRAMES``):
the component names, domain and abscissa nu0 that a family's oscillating
law (:func:`example_material`) and its homogenised limit
(``homogenise.build_limit_law``) share.  :func:`family_law` builds every law
of a family on its frame, and :func:`omega1` is the indicator of the
family's oscillation region.  Each layered family (EX4, EX5, MAXWELL) also
has one row in ``LAYERS``: the phase of each component's instant entry
inside that region (``LOW`` = 1 - s or ``HIGH`` = 1 + s for the stripe s),
its conductive components (M1 = s there) and its components that average
harmonically.  Its oscillating law and its limit are both read from the row.
"""

from __future__ import annotations

import cmath
import math
import operator
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
from .meshes import as_count, partition


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


def entry_blocks(law, entries, points):
    """Pointwise blocks of ``entries`` (``law.m0`` or ``law.m1``) at points.

    Returns a real array of shape ``(npts, ncomp, ncomp)``; points are a
    flat array for a 1-D law and of shape ``(npts, 2)`` for a 2-D one.
    """
    pts = _as_points(law, points)
    out = np.zeros((pts.shape[0], law.ncomp, law.ncomp))
    for (i, j), f in entries.items():
        out[:, i, j] = _eval_entry_field(f, pts, law.dim)
    return out


def eval_material_law(law, z, points):
    """Pointwise block values of M(z) = M0 + z^{-1} M1(z).

    Returns a complex array of shape ``(npts, ncomp, ncomp)``.  Requires a
    finite ``z`` with ``Re z > law.nu0``.
    """
    z = complex(z)
    if not (cmath.isfinite(z) and z.real > law.nu0):
        raise ValueError(f"z = {z}: Re z must exceed nu0 = {law.nu0} and z must be finite")
    pts = _as_points(law, points)
    zinv = 1.0 / z
    out = entry_blocks(law, law.m0, pts) + zinv * entry_blocks(law, law.m1, pts)
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
    cuts = partition(float(a), float(b), breakpoints)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    return np.unique(np.concatenate([np.linspace(a, b, dense), mids]))


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
# The frames of the built-in families and their oscillating laws
# ---------------------------------------------------------------------------

_SQUARE = ((-2.0, 2.0), (-2.0, 2.0))
# The frame of each family, shared by its oscillating law and its limit law:
# (component names, domain, abscissa nu0).
_FRAMES = {
    "EX1": (("u",), (0.0, 1.0), 1.0),
    "EX2": (("u", "v"), (0.0, 1.0), 0.5),
    "EX3": (("u", "v"), (-1.0, 1.0), 1.0),
    "EX4": (("u", "vx", "vy"), _SQUARE, 0.0),
    "EX5": (("u", "vx", "vy"), _SQUARE, 0.0),
    # the conductive stratified medium, kept at formula level (the
    # coefficients depend on the stratification coordinate only)
    "MAXWELL": (("E1", "E2", "E3", "H1", "H2", "H3"), (-2.0, 2.0), 0.0),
}
EXAMPLE_IDS = tuple(_FRAMES)

# The phases of a layered family's instant entries inside the oscillation
# region: phase(1.0, s) is 1 - s or 1 + s for the stripe indicator s.
LOW, HIGH = operator.sub, operator.add
# One row per layered family: the phases of its components in frame order,
# its conductive components and its harmonic ones (the layers run across x).
LAYERS = {
    "EX4": ((LOW, HIGH, HIGH), (0,), (2,)),  # u, vx, vy
    "EX5": ((HIGH, LOW, LOW), (1, 2), (2,)),
    "MAXWELL": ((LOW,) * 3 + (HIGH,) * 3, (0, 1, 2), (0, 3)),  # E1-E3, H1-H3
}


def family_law(example_id, label, m0, m1, **z_parts):
    """A law with entries ``m0`` and ``m1`` on the frame of a family.

    The frame fixes the components, the domain (and so the dimension) and
    nu0; only MAXWELL's laws are formula level.  ``z_parts`` are the
    ``memory`` and ``series`` entries of :class:`MaterialLaw`.
    """
    names, domain, nu0 = _FRAMES[example_id]
    return MaterialLaw(
        len(names),
        m0,
        m1,
        nu0=nu0,
        dim=np.ndim(domain),
        domain=domain,
        component_names=names,
        label=label,
        formula_level=example_id == "MAXWELL",
        **z_parts,
    )


def omega1(example_id):
    """Indicator of a family's oscillation region (-1, 1), the box
    (-1, 1)^2 on a 2-D frame."""
    box = RegionIndicator(-1.0, 1.0)
    if np.ndim(_FRAMES[example_id][1]) == 2:
        return Separable2D([(box, box)])
    return box


def example_material(example_id, n=1):
    """The oscillating material law of one of the built-in example families.

    ``n`` is the oscillation index (stripe/sine frequency).  The material
    constants (exterior permittivity and permeability of the 2-D and
    formula-level families, the conductive family's scales) are all 1.  A
    layered family's law is built from its ``LAYERS`` row, 1 outside the
    oscillation region.
    """
    example_id = str(example_id).upper()
    if example_id not in EXAMPLE_IDS:
        raise ValueError(f"unknown example id {example_id!r}")
    n = as_count(n, 1, "oscillation index n must be a positive integer")
    label = f"{example_id}(n={n})"
    one = Constant(1.0)

    if example_id == "EX1":
        return family_law(example_id, label, {(0, 0): one}, {(0, 0): SineOsc(n)})

    if example_id == "EX2":
        stripe = StripeIndicator(n)
        return family_law(
            example_id, label, {(0, 0): stripe, (1, 1): one}, {(0, 0): 1.0 - stripe}
        )

    if example_id == "EX3":
        osc = SineOsc(n)
        return family_law(
            example_id, label, {(0, 0): one, (1, 1): one}, {(0, 0): osc, (1, 1): osc}
        )

    # The layered families: stripes across x inside the oscillation region,
    # 1 outside it.
    phases, conductive, _ = LAYERS[example_id]
    omega = omega1(example_id)
    stripe = StripeIndicator(n)
    if isinstance(omega, Separable2D):
        stripe = Separable2D([(stripe, 1.0)])
    ext = 1.0 - omega
    m0 = {(i, i): omega * phase(1.0, stripe) + ext for i, phase in enumerate(phases)}
    return family_law(example_id, label, m0, {(i, i): omega * stripe for i in conductive})


# ---------------------------------------------------------------------------
# Text serialisation (display / CLI config output; not parsed back)
# ---------------------------------------------------------------------------


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
        f"  nu0 {serialize_field(Constant(law.nu0))}",
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
            c, a, b = (serialize_field(Constant(v)) for v in (t.c, t.a, t.b))
            lines.append(
                f"  M1{_key(i, j)} += {c} * rat({a}, {b}) * ({serialize_entry_field(t.region)})"
            )
    for (i, j), region in sorted(law.series.items()):
        lines.append(
            f"  M{_key(i, j)} += (bessel_series() - 1) * ({serialize_entry_field(region)})"
        )
    return "\n".join(lines)
