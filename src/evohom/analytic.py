"""Closed-form oracles for the oscillating-ODE family and its limit.

The scalar family  d/dt u_n + sin(2*pi*n*x) u_n = f  has the explicit
solution (zero initial datum, unit-step source)

    u_n(t, x) = (1 - exp(-t*s)) / s,    s = sin(2*pi*n*x),

continuously extended by t where s = 0.  Its homogenised limit is the
convolution with the modified Bessel kernel I_0,

    u_hom(t, x) = int_0^t I_0(t - s) f(s, x) ds,

and the limit material law is the double series

    M(z) = 1 + sum_j ( - sum_m (2m)!/((2^m m!)^2) z^{-2m} )^j,

whose closed form is (1 - z^{-2})^{1/2}; the Laplace transform of I_0
is 1/sqrt(z^2 - 1) = (z*M(z))^{-1}, which ties the two together.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .meshes import as_count, gauss_panels

__all__ = [
    "ode_exact",
    "bessel_i0",
    "i0_antiderivative",
    "conv_i0",
    "series_material_law",
    "series_closed_form",
    "laplace_i0",
]


def _check_times(t):
    """Raise unless every time in ``t`` is finite and nonnegative."""
    ts = np.asarray(t, dtype=float)
    if not np.all((ts >= 0.0) & (ts < math.inf)):
        raise ValueError("time must be finite and nonnegative")
    return ts


def ode_exact(n, t, x):
    """Solution of d/dt u + sin(2*pi*n*x) u = 1, u(0) = 0, at (t, x).

    The closed form (1 - e^{-t s})/s for the unit-step source, continuously
    extended by t at s = 0.  Vectorised over x; n is an integer >= 1.
    """
    n = as_count(n, 1, "oscillation index n must be a positive integer")
    _check_times(t)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("positions must be finite")
    s = np.sin(2.0 * math.pi * n * x)
    out = np.where(s == 0.0, t, -np.expm1(-t * np.where(s == 0.0, 1.0, s)) / np.where(s == 0.0, 1.0, s))
    return out if out.ndim else float(out)


def bessel_i0(x):
    """Modified Bessel function I_0 by its power series, for 0 <= x <= 50.

    I_0(x) = sum_m (x/2)^{2m} / (m!)^2, summed to relative tail 1e-15;
    each entry stops at its own first term below that tail.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0):
        raise ValueError("I_0 series oracle defined for nonnegative arguments")
    if not np.all(xs <= 50.0):
        raise ValueError("argument outside the supported range [0, 50]")
    q = 0.25 * xs * xs
    term = np.ones_like(xs)
    total = np.ones_like(xs)
    active = np.ones(xs.shape, dtype=bool)
    m = 0
    while np.any(active):
        m += 1
        term = term * (q / (m * m))
        total = np.where(active, total + term, total)
        active &= term > 1e-15 * total
    return total if total.ndim else float(total)


def i0_antiderivative(t):
    """int_0^t I_0 by termwise integration of the series: the homogenised
    solution u_hom at time t under the unit-step source (no quadrature error).

    int_0^t I_0 = sum_m t^{2m+1} / ((m!)^2 4^m (2m+1)), for 0 <= t <= 700;
    the sum overflows a double near t = 712.
    """
    ts = np.atleast_1d(_check_times(t))
    if not np.all(ts <= 700.0):
        raise ValueError("argument outside the supported range [0, 700]")
    q = 0.25 * ts * ts
    coeff = np.ones_like(ts)  # t^{2m} / ((m!)^2 4^m)
    total = ts.copy()
    active = ts > 0.0
    m = 0
    while np.any(active):
        m += 1
        coeff = coeff * (q / (m * m))
        term = coeff * ts / (2 * m + 1)
        total = np.where(active, total + term, total)
        active &= term > 1e-15 * total
    out = total.reshape(np.shape(t))
    return out if out.ndim else float(out)


# Gauss-Legendre points per unit of time in conv_i0.  On the sweep's source
# sin(2 pi t) over (0, 2] the rule agrees with 30-digit quadrature to 4e-15
# absolute.
_CONV_POINTS = 20


def conv_i0(source, t):
    """Convolution int_0^t I_0(t-s) source(s) ds for all times at once.

    Each integral is mapped to (0, 1) and summed with one fixed composite
    Gauss-Legendre rule: ceil(max t) equal panels of _CONV_POINTS points,
    exact to roundoff for sources smooth on the unit time scale.
    ``source`` is called on scalars.
    """
    ts = _check_times(t)
    panels = max(1, math.ceil(float(np.max(ts, initial=0.0))))
    u, w = gauss_panels(np.linspace(0.0, 1.0, panels + 1), _CONV_POINTS)
    s = ts[..., None] * u
    f = np.array([source(v) for v in s.ravel()], dtype=float).reshape(s.shape)
    out = ts * ((bessel_i0(ts[..., None] - s) * f) @ w)
    return out if out.ndim else float(out)


# Relative truncation tolerance of the series law: the inner series is
# summed to a tenth of it, the outer one to it.
_SERIES_TOL = 1e-12


def series_material_law(z):
    """M(z) = 1 + sum_j (-sum_m (2m)!/((2^m m!)^2) z^{-2m})^j.

    The inner series S(z) = sum_m (2m)!/((2^m m!)^2) z^{-2m} is summed with
    a geometric tail bound in |z^{-2}|, then the outer alternating geometric
    series in (-S) with tail |S|^{J+1}/(1-|S|).  Both bounds are a
    posteriori.  Requires a finite z with |z^{-2}| < 1 and |S(z)| < 1.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"series law needs a finite argument, got z = {z}")
    w = 1.0 / (z * z)
    aw = abs(w)
    if not aw < 1.0:
        raise ValueError("series law evaluated outside its convergence region |z^-2| < 1")
    inner_tol = 0.1 * _SERIES_TOL
    c = 1.0
    wp = 1.0 + 0.0j
    S = 0.0 + 0.0j
    m = 0
    while True:
        m += 1
        c *= (2.0 * m - 1.0) / (2.0 * m)  # c_m = (2m)!/(4^m (m!)^2)
        wp *= w
        term = c * wp
        S += term
        # tail: coefficients decrease, so |tail| <= |term| * aw/(1-aw)
        if abs(term) * aw / (1.0 - aw) <= inner_tol * max(1.0, abs(S)):
            break
        if m > 10_000:
            raise ArithmeticError("inner series failed to converge")
    aS = abs(S)
    if aS >= 1.0:
        raise ValueError("outer series diverges: |S(z)| >= 1 (need Re z > 2)")
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    j = 0
    while True:
        j += 1
        term *= -S
        total += term
        if abs(term) * aS / (1.0 - aS) <= _SERIES_TOL * max(1.0, abs(total)):
            break
        if j > 100_000:
            raise ArithmeticError("outer series failed to converge")
    return total


def series_closed_form(z):
    """Closed form (1 - z^{-2})^{1/2} of the series law (principal branch)."""
    z = complex(z)
    return complex(np.sqrt(1.0 - 1.0 / (z * z)))


# Truncation tail bound of laplace_i0, and its Gauss-Legendre panels per
# unit of time.
_LAPLACE_TOL = 1e-10
_LAPLACE_PANELS = 8


def laplace_i0(z):
    """Truncated Laplace transform int_0^{T*} e^{-z t} I_0(t) dt.

    T* is chosen from the bound I_0(t) <= e^t so the truncation tail
    e^{(1-Re z) T*}/(Re z - 1) stays below _LAPLACE_TOL; the finite
    integral uses composite Gauss-Legendre panels on an analytic integrand.
    """
    z = complex(z)
    if not (cmath.isfinite(z) and z.real > 1.0):
        raise ValueError("Laplace transform of I_0 needs a finite z with Re z > 1")
    T = math.log(1.0 / (_LAPLACE_TOL * (z.real - 1.0))) / (z.real - 1.0)
    T = min(max(T, 1.0), 50.0)
    n_panels = max(8, int(_LAPLACE_PANELS * T))
    ts, w = gauss_panels(np.linspace(0.0, T, n_panels + 1), 12)
    return np.dot(w, np.exp(-z * ts) * bessel_i0(ts))
