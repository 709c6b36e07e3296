"""Coefficient fields as small expression trees.

Every coefficient is built from five atoms:

    Constant(c)            the constant c
    SineOsc(n)             sin(2*pi*n*x)
    StripeIndicator(n)     1 on the stripe set O_n = union_k (2k/(2n), (2k+1)/(2n))
                           extended 1/n-periodically over the real line
    RegionIndicator(a, b)  1 on the interval [a, b)
    Function(f)            a plain callable f(x): no breakpoints, no period

combined by +, -, * and scalar multiples.  Every tree can report its
discontinuity points inside an interval (so quadrature panels can be
aligned with them), whether it is piecewise constant (then
breakpoint-aligned midpoint sampling integrates it exactly), and a period
if it has one.  A :class:`Composite` (a :class:`Sum` or a
:class:`Product`) takes all three from its parents; its breakpoints are
theirs, merged by :func:`meshes.partition`, and its period the least
common multiple of theirs.

``serialize_field`` renders a tree as plain text:  numbers, ``sin_osc(n)``,
``stripe(n)``, ``region(a,b)``, ``+``, ``-``, ``*``, parentheses.

Two-dimensional coefficients on tensor-product meshes are sums of
separable terms fx(x)*fy(y); see :class:`Separable2D`.

A caller's coefficient becomes a field here only: :func:`as_field` takes a
Field, a real number (numpy scalars too) or a plain callable, and
:func:`as_separable` a Separable2D or a real number; else TypeError.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .meshes import as_count, partition, stripe_points

__all__ = [
    "Field",
    "Composite",
    "Constant",
    "SineOsc",
    "StripeIndicator",
    "RegionIndicator",
    "Function",
    "Sum",
    "Product",
    "Separable2D",
    "as_field",
    "as_separable",
    "serialize_field",
]

# sentinel period of constants: compatible with every period
ANY_PERIOD = 0.0

_PERIOD_RTOL = 1e-9


def _merge_periods(periods):
    """Combine child periods: constants fit everything; otherwise the least
    common multiple of the others.  An atom's period is 1/n for an integer
    n, and lcm(1/a, 1/b) = 1/gcd(a, b), so every period is 1/k for an
    integer k, and the multiple is 1/gcd of the k."""
    if any(p is None for p in periods):
        return None
    ks = [round(1.0 / p) for p in periods if p != ANY_PERIOD]
    if not ks:
        return ANY_PERIOD
    return 1.0 / math.gcd(*ks)


class Field:
    """Base class: a bounded, measurable coefficient of one variable."""

    def __call__(self, x):
        raise NotImplementedError

    def breakpoints(self, a, b):
        """Sorted discontinuity/kink points strictly inside (a, b)."""
        return np.array([])

    def period(self):
        """A period of the field, ANY_PERIOD for constants, None if aperiodic."""
        return None

    def is_periodic_with(self, ell):
        p = self.period()
        if p is None:
            return False
        if p == ANY_PERIOD:
            return True
        ratio = ell / p
        return abs(ratio - round(ratio)) <= _PERIOD_RTOL and round(ratio) >= 1

    def is_piecewise_constant(self):
        return False

    # -- algebra ---------------------------------------------------------
    def __add__(self, other):
        return Sum([self, as_field(other)])

    def __radd__(self, other):
        return Sum([as_field(other), self])

    def __sub__(self, other):
        return Sum([self, Product(Constant(-1.0), as_field(other))])

    def __rsub__(self, other):
        return Sum([as_field(other), Product(Constant(-1.0), self)])

    def __mul__(self, other):
        return Product(self, as_field(other))

    def __rmul__(self, other):
        return Product(as_field(other), self)

    def __neg__(self):
        return Product(Constant(-1.0), self)


def as_field(obj):
    if isinstance(obj, Field):
        return obj
    if isinstance(obj, numbers.Real):
        return Constant(obj)
    if callable(obj) and not isinstance(obj, Separable2D):
        return Function(obj)
    raise TypeError(f"cannot interpret {obj!r} as a coefficient field")


class Constant(Field):
    def __init__(self, value):
        self.value = float(value)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, self.value)

    def period(self):
        return ANY_PERIOD

    def is_piecewise_constant(self):
        return True

    def __repr__(self):
        return f"Constant({self.value})"


class SineOsc(Field):
    """sin(2*pi*n*x)."""

    def __init__(self, n):
        self.n = as_count(n, 1, "oscillation index n must be a positive integer")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.sin(2.0 * math.pi * self.n * x)

    def period(self):
        return 1.0 / self.n

    def __repr__(self):
        return f"SineOsc({self.n})"


class StripeIndicator(Field):
    """Indicator of O_n = union_k (2k/(2n), (2k+1)/(2n)), 1/n-periodic.

    Equals 1 where floor(2*n*x) is even.  Satisfies the self-similarity
    StripeIndicator(n)(x) = StripeIndicator(1)(n*x) exactly, including
    at the jump points (both sides use the same floor convention).
    """

    def __init__(self, n):
        self.n = as_count(n, 1, "stripe index n must be a positive integer")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        k = np.floor(2.0 * self.n * x)
        return np.where(np.mod(k, 2.0) == 0.0, 1.0, 0.0)

    def breakpoints(self, a, b):
        return stripe_points(a, b, self.n)

    def period(self):
        return 1.0 / self.n

    def is_piecewise_constant(self):
        return True

    def __repr__(self):
        return f"StripeIndicator({self.n})"


class RegionIndicator(Field):
    """Indicator of the interval [a, b)."""

    def __init__(self, a, b):
        if not b > a:
            raise ValueError("region needs a < b")
        self.a = float(a)
        self.b = float(b)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.a) & (x < self.b), 1.0, 0.0)

    def breakpoints(self, a, b):
        return np.array([p for p in (self.a, self.b) if a < p < b])

    def is_piecewise_constant(self):
        return True

    def __repr__(self):
        return f"RegionIndicator({self.a}, {self.b})"


class Function(Field):
    """A plain callable f(x): no breakpoints and no period."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def __repr__(self):
        return f"Function({self.fn!r})"


class Composite(Field):
    """A sum or product of ``parents``: it breaks where any parent breaks,
    has their common period and is piecewise constant if they all are, so
    a quadrature rule fitted to a Sum is fitted to each of its terms."""

    def breakpoints(self, a, b):
        pts = [np.empty(0)] + [np.ravel(p.breakpoints(a, b)) for p in self.parents]
        return partition(a, b, np.concatenate(pts))[1:-1]

    def period(self):
        return _merge_periods([p.period() for p in self.parents])

    def is_piecewise_constant(self):
        return all(p.is_piecewise_constant() for p in self.parents)


class Sum(Composite):
    def __init__(self, terms):
        self.terms = self.parents = [as_field(t) for t in terms]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for t in self.terms:
            out = out + t(x)
        return out

    def __repr__(self):
        return f"Sum({self.terms})"


class Product(Composite):
    def __init__(self, left, right):
        self.left = as_field(left)
        self.right = as_field(right)
        self.parents = [self.left, self.right]

    def __call__(self, x):
        return self.left(x) * self.right(x)

    def __repr__(self):
        return f"Product({self.left!r}, {self.right!r})"


class Separable2D:
    """Sum of separable terms: f(x, y) = sum_k fx_k(x) * fy_k(y).

    All two-dimensional coefficients in the example registry have this
    shape (regions and stripes are products of 1D indicators), which is
    what makes Kronecker-factored assembly on tensor meshes exact.
    """

    def __init__(self, terms):
        self.terms = [(as_field(fx), as_field(fy)) for fx, fy in terms]

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        for fx, fy in self.terms:
            out = out + fx(x) * fy(y)
        return out

    def breakpoints_x(self, a, b):
        return Sum([fx for fx, _ in self.terms]).breakpoints(a, b)

    def breakpoints_y(self, a, b):
        return Sum([fy for _, fy in self.terms]).breakpoints(a, b)

    def __add__(self, other):
        return Separable2D(self.terms + as_separable(other).terms)

    def __radd__(self, other):
        return as_separable(other) + self

    def __sub__(self, other):
        negated = [(Product(Constant(-1.0), fx), fy) for fx, fy in as_separable(other).terms]
        return Separable2D(self.terms + negated)

    def __rsub__(self, other):
        return as_separable(other) - self

    def __mul__(self, other):
        other = as_separable(other)
        terms = []
        for fx1, fy1 in self.terms:
            for fx2, fy2 in other.terms:
                terms.append((Product(fx1, fx2), Product(fy1, fy2)))
        return Separable2D(terms)

    def __rmul__(self, other):
        return as_separable(other) * self

    def __repr__(self):
        return f"Separable2D({self.terms!r})"


def as_separable(obj):
    if isinstance(obj, Separable2D):
        return obj
    if isinstance(obj, numbers.Real):
        return Separable2D([(obj, 1.0)])
    raise TypeError(f"cannot interpret {obj!r} as a 2D coefficient")


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def serialize_field(field):
    """Serialise an expression tree to the plain-text grammar."""
    if isinstance(field, Constant):
        return _fmt_num(field.value)
    if isinstance(field, SineOsc):
        return f"sin_osc({field.n})"
    if isinstance(field, StripeIndicator):
        return f"stripe({field.n})"
    if isinstance(field, RegionIndicator):
        return f"region({_fmt_num(field.a)},{_fmt_num(field.b)})"
    if isinstance(field, Sum):
        return " + ".join(f"({serialize_field(t)})" for t in field.terms)
    if isinstance(field, Product):
        return f"({serialize_field(field.left)})*({serialize_field(field.right)})"
    raise TypeError(f"cannot serialise {field!r}")
