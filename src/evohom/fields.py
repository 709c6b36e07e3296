"""Coefficient fields as small expression trees.

The oscillating-coefficient examples only ever use four atoms:

    Constant(c)            the constant c
    SineOsc(n)             sin(2*pi*n*x)
    StripeIndicator(n)     1 on the stripe set O_n = union_k (2k/(2n), (2k+1)/(2n))
                           extended 1/n-periodically over the real line
    RegionIndicator(a, b)  1 on the interval [a, b)

combined by +, -, * and scalar multiples.  Every tree can report its
discontinuity points inside an interval (so quadrature panels can be
aligned with them), whether it is piecewise constant (then
breakpoint-aligned midpoint sampling integrates it exactly), and a period
if it has one.

``serialize_field`` renders a tree as plain text:  numbers, ``sin_osc(n)``,
``stripe(n)``, ``region(a,b)``, ``+``, ``-``, ``*``, parentheses.

Two-dimensional coefficients on tensor-product meshes are sums of
separable terms fx(x)*fy(y); see :class:`Separable2D`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Field",
    "Constant",
    "SineOsc",
    "StripeIndicator",
    "RegionIndicator",
    "Sum",
    "Product",
    "Separable2D",
    "as_field",
    "serialize_field",
]

# sentinel period of constants: compatible with every period
ANY_PERIOD = 0.0

_PERIOD_RTOL = 1e-9


def _merge_periods(periods):
    """Combine child periods: constants fit everything; otherwise the
    largest child period must be an integer multiple of every other
    (true for all stripe/sine mixes with integer indices)."""
    ps = [p for p in periods if p is not None and p != ANY_PERIOD]
    if any(p is None for p in periods):
        return None
    if not ps:
        return ANY_PERIOD
    cand = max(ps)
    for p in ps:
        ratio = cand / p
        if abs(ratio - round(ratio)) > _PERIOD_RTOL:
            return None
    return cand


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
    if isinstance(obj, (int, float)):
        return Constant(float(obj))
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
        if n < 1 or n != int(n):
            raise ValueError("oscillation index n must be a positive integer")
        self.n = int(n)

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
        if n < 1 or n != int(n):
            raise ValueError("stripe index n must be a positive integer")
        self.n = int(n)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        k = np.floor(2.0 * self.n * x)
        return np.where(np.mod(k, 2.0) == 0.0, 1.0, 0.0)

    def breakpoints(self, a, b):
        step = 1.0 / (2.0 * self.n)
        k0 = math.floor(a / step) + 1
        k1 = math.ceil(b / step) - 1
        pts = np.arange(k0, k1 + 1) * step
        return pts[(pts > a) & (pts < b)]

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


def _union_breakpoints(children, a, b):
    pts = np.concatenate([np.atleast_1d(c.breakpoints(a, b)) for c in children])
    if pts.size == 0:
        return pts
    pts = np.unique(pts)
    # collapse numerically identical points
    keep = [pts[0]]
    for p in pts[1:]:
        if p - keep[-1] > 1e-13 * max(1.0, abs(p)):
            keep.append(p)
    return np.array(keep)


class Sum(Field):
    def __init__(self, terms):
        self.terms = [as_field(t) for t in terms]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for t in self.terms:
            out = out + t(x)
        return out

    def breakpoints(self, a, b):
        return _union_breakpoints(self.terms, a, b)

    def period(self):
        return _merge_periods([t.period() for t in self.terms])

    def is_piecewise_constant(self):
        return all(t.is_piecewise_constant() for t in self.terms)

    def __repr__(self):
        return f"Sum({self.terms})"


class Product(Field):
    def __init__(self, left, right):
        self.left = as_field(left)
        self.right = as_field(right)

    def __call__(self, x):
        return self.left(x) * self.right(x)

    def breakpoints(self, a, b):
        return _union_breakpoints([self.left, self.right], a, b)

    def period(self):
        return _merge_periods([self.left.period(), self.right.period()])

    def is_piecewise_constant(self):
        return self.left.is_piecewise_constant() and self.right.is_piecewise_constant()

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

    @classmethod
    def constant(cls, value):
        return cls([(Constant(value), Constant(1.0))])

    @classmethod
    def of_x(cls, fx):
        return cls([(fx, Constant(1.0))])

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        for fx, fy in self.terms:
            out = out + fx(x) * fy(y)
        return out

    def breakpoints_x(self, a, b):
        return _union_breakpoints([fx for fx, _ in self.terms], a, b)

    def breakpoints_y(self, a, b):
        return _union_breakpoints([fy for _, fy in self.terms], a, b)

    def __add__(self, other):
        other = _as_separable(other)
        return Separable2D(self.terms + other.terms)

    def __radd__(self, other):
        return _as_separable(other) + self

    def __sub__(self, other):
        other = _as_separable(other)
        negated = [(Product(Constant(-1.0), fx), fy) for fx, fy in other.terms]
        return Separable2D(self.terms + negated)

    def __rsub__(self, other):
        return _as_separable(other) - self

    def __mul__(self, other):
        other = _as_separable(other)
        terms = []
        for fx1, fy1 in self.terms:
            for fx2, fy2 in other.terms:
                terms.append((Product(fx1, fx2), Product(fy1, fy2)))
        return Separable2D(terms)

    def __rmul__(self, other):
        return _as_separable(other) * self

    def __repr__(self):
        return f"Separable2D({self.terms!r})"


def _as_separable(obj):
    if isinstance(obj, Separable2D):
        return obj
    if isinstance(obj, (int, float)):
        return Separable2D.constant(float(obj))
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
