"""Tests for the closed-form oracles.

Frozen reference values were computed with independent oracles before
the implementation: mpmath (50-digit besseli/quad) for the Bessel
kernel, its antiderivative and convolutions, and exact arithmetic for
the closed form of the series law.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.special import i0 as scipy_i0

from evohom.analytic import (
    bessel_i0,
    conv_i0,
    i0_antiderivative,
    laplace_i0,
    ode_exact,
    series_closed_form,
    series_material_law,
)

# x -> I_0(x), frozen from mpmath.besseli(0, x) at 50 digits
I0_ORACLE = {
    0.5: 1.0634833707413234,
    1.0: 1.2660658777520082,
    2.0: 2.2795853023360668,
    5.0: 2.7239871823604442e01,
    10.0: 2.8157166284662540e03,
}

# t -> int_0^t I_0, frozen from mpmath.quad
I0_INT_ORACLE = {
    0.5: 5.1051480879740296e-01,
    1.0: 1.0865210970235899e00,
    2.0: 2.7750019054282533e00,
}

# t -> int_0^t I_0(t-s) sin(2 pi s) ds, frozen from mpmath.quad
CONV_SIN_ORACLE = {
    0.5: 3.2426883872187118e-01,
    1.0: 4.1552537979366186e-02,
    2.0: 1.9976728434637731e-01,
}


class TestOdeExact:
    def test_s_zero_gives_t(self):
        assert ode_exact(1, 1.7, 0.0) == pytest.approx(1.7, rel=1e-14)
        assert ode_exact(1, 0.3, 0.5) == pytest.approx(0.3, rel=1e-14)

    def test_closed_form_extremes(self):
        # x = 1/4: s = 1; x = 3/4: s = -1
        assert ode_exact(1, 1.0, 0.25) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        assert ode_exact(1, 1.0, 0.75) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_vectorised(self):
        x = np.array([0.0, 0.25, 0.75])
        vals = ode_exact(2, 0.5, x / 2.0)  # sin(2 pi * 2 * x/2) = sin(2 pi x)
        assert vals == pytest.approx([0.5, -math.expm1(-0.5), math.expm1(0.5)], rel=1e-13)

    def test_against_adaptive_integrator(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = rng.uniform(-1.0, 1.0)
            t_end = rng.uniform(0.1, 2.0)
            x = math.asin(s) / (2.0 * math.pi)  # sin(2 pi x) = s
            sol = solve_ivp(
                lambda t, u: 1.0 - s * u, (0.0, t_end), [0.0], rtol=1e-11, atol=1e-12, dense_output=True
            )
            assert ode_exact(1, t_end, x) == pytest.approx(sol.y[0, -1], abs=1e-9)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ode_exact(1, -0.1, 0.0)


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    @pytest.mark.parametrize("x", sorted(I0_ORACLE))
    def test_frozen_oracle(self, x):
        assert bessel_i0(x) == pytest.approx(I0_ORACLE[x], rel=1e-13)

    def test_against_scipy(self):
        xs = np.linspace(0.0, 30.0, 61)
        assert np.allclose(bessel_i0(xs), scipy_i0(xs), rtol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bessel_i0(-1.0)
        with pytest.raises(ValueError):
            bessel_i0(51.0)

    def test_matches_scalar_series_loop(self):
        # the same series, summed one argument at a time: each entry stops
        # at its own first term below the tail, so the sums are identical
        def series(v):
            q, term, total, m = 0.25 * v * v, 1.0, 1.0, 0
            while True:
                m += 1
                term *= q / (m * m)
                total += term
                if term <= 1e-15 * total:
                    return total

        xs = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 300)])
        assert bessel_i0(xs).tolist() == [series(v) for v in xs]
        assert bessel_i0(xs.reshape(-1, 7)).shape == (43, 7)


class TestOdeHomExact:
    def test_at_zero(self):
        assert i0_antiderivative(0.0) == 0.0

    def test_matches_scalar_series_loop(self):
        # the integrated series, summed one time at a time: each entry
        # stops at its own first term below the tail, so the sums are
        # identical
        def series(v):
            q, coeff, total, m = 0.25 * v * v, 1.0, v, 0
            while True:
                m += 1
                coeff *= q / (m * m)
                term = coeff * v / (2 * m + 1)
                total += term
                if term <= 1e-15 * total:
                    return total

        ts = np.concatenate([[0.0, 1e-300, 700.0], np.linspace(0.0, 700.0, 4007)])
        assert i0_antiderivative(ts).tolist() == [series(v) for v in ts]
        assert i0_antiderivative(ts.reshape(-1, 5)).shape == (802, 5)

    @pytest.mark.parametrize("t", sorted(I0_INT_ORACLE))
    def test_unit_step_frozen(self, t):
        assert i0_antiderivative(t) == pytest.approx(I0_INT_ORACLE[t], rel=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_supported_range(self):
        assert i0_antiderivative(700.0) == pytest.approx(1.530688656412e302, rel=1e-12)
        for t in (700.5, 712.0, 1000.0, [1.0, 1000.0]):
            with pytest.raises(ValueError, match="supported range"):
                i0_antiderivative(t)

    def test_termwise_matches_quadrature(self):
        for t in (0.5, 1.0, 2.0):
            assert i0_antiderivative(t) == pytest.approx(
                conv_i0(lambda s: 1.0, t), rel=1e-9
            )

    def test_conv_i0_matches_adaptive_quadrature(self):
        # times of the EX3 reference and beyond, all at once, against one
        # adaptive quad per time of scipy's I_0
        def source(s):
            return math.sin(2.0 * math.pi * s) + 0.5 * math.cos(math.pi * s)

        ts = np.concatenate([[0.0], np.linspace(0.01, 2.0, 25), [3.7, 7.9]])
        want = [
            quad(lambda s: scipy_i0(t - s) * source(s), 0.0, t, epsrel=1e-12)[0]
            for t in ts
        ]
        got = conv_i0(source, ts)
        assert got.shape == ts.shape
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)
        assert conv_i0(source, 0.0) == 0.0
        assert conv_i0(source, ts[5]) == pytest.approx(got[5], rel=1e-15)

    @pytest.mark.parametrize("t", sorted(CONV_SIN_ORACLE))
    def test_sine_source_frozen(self, t):
        val = conv_i0(lambda s: math.sin(2.0 * math.pi * s), t)
        assert val == pytest.approx(CONV_SIN_ORACLE[t], rel=1e-9)

    def test_zero_source(self):
        assert conv_i0(lambda s: 0.0, 1.0) == 0.0


class TestSeriesLaw:
    def test_large_z_limit(self):
        assert series_material_law(1e6) == pytest.approx(1.0, rel=1e-10)

    def test_closed_form_values(self):
        assert series_material_law(2.0).real == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
        assert series_material_law(3.0).real == pytest.approx(math.sqrt(8.0) / 3.0, rel=1e-12)
        val = series_material_law(2.5 + 1.0j)
        assert val.real == pytest.approx(9.5006585772337149e-01, rel=1e-11)
        assert val.imag == pytest.approx(5.0062240735271747e-02, rel=1e-11)

    def test_matches_closed_form_on_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = complex(rng.uniform(2.5, 12.0), rng.uniform(-4.0, 4.0))
            assert abs(series_material_law(z) - series_closed_form(z)) <= 1e-10

    def test_monotone_inner_partials(self):
        # for real z > 1 the inner partial sums strictly increase in m
        z = 1.5
        w = 1.0 / (z * z)
        c, wp, total = 1.0, 1.0, 0.0
        partials = []
        for m in range(1, 8):
            c *= (2.0 * m - 1.0) / (2.0 * m)
            wp *= w
            total += c * wp
            partials.append(total)
        assert all(b > a for a, b in zip(partials, partials[1:]))
        # and the tolerance-controlled value is consistent with them: the
        # outer series sums to M = 1/(1 + S), so S = 1/M - 1
        assert (1.0 / series_material_law(z) - 1.0).real > partials[-1]

    def test_divergence_region_rejected(self):
        with pytest.raises(ValueError):
            series_material_law(0.9)  # |z^-2| >= 1
        with pytest.raises(ValueError):
            series_material_law(1.05)  # inner sum exceeds 1


class TestLaplaceConsistency:
    @pytest.mark.parametrize("z", [3.0, 4.0, 5.0])
    def test_laplace_matches_symbol(self, z):
        # (z M(z))^{-1} = 1/sqrt(z^2 - 1) = Laplace(I_0)(z)
        lhs = 1.0 / (z * series_material_law(z))
        rhs = laplace_i0(z)
        assert abs(lhs - rhs) <= 1e-9

    def test_rejects_small_abscissa(self):
        with pytest.raises(ValueError):
            laplace_i0(0.5)
