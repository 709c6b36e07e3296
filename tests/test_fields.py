"""Tests for the coefficient expression trees and their text rendering."""

import numpy as np
import pytest

from evohom.fields import (
    ANY_PERIOD,
    Constant,
    Product,
    RegionIndicator,
    Separable2D,
    SineOsc,
    StripeIndicator,
    Sum,
    as_field,
    serialize_field,
)
from evohom.homogenise import integral_mean


class TestAtoms:
    def test_constant(self):
        c = Constant(2.5)
        assert np.allclose(c(np.array([0.0, 1.0, -3.0])), 2.5)
        assert c.period() == ANY_PERIOD
        assert c.is_piecewise_constant()

    def test_sine(self):
        s = SineOsc(3)
        x = np.array([0.0, 1.0 / 12.0])
        assert np.allclose(s(x), [0.0, 1.0])
        assert s.period() == pytest.approx(1.0 / 3.0)
        assert not s.is_piecewise_constant()

    def test_stripe_values(self):
        st = StripeIndicator(1)
        # O_1 = (0, 1/2) union (1, 3/2) ... : 1 on (0, 1/2), 0 on (1/2, 1)
        assert st(0.25) == 1.0
        assert st(0.75) == 0.0
        assert st(1.25) == 1.0  # periodic extension
        assert st(-0.25) == 0.0  # floor(-0.5) = -1, odd
        assert st.period() == 1.0

    def test_stripe_self_similarity(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-3.0, 3.0, size=500)
        for n in (2, 3, 8):
            assert np.array_equal(StripeIndicator(n)(x), StripeIndicator(1)(n * x))

    def test_stripe_breakpoints(self):
        st = StripeIndicator(2)
        assert np.allclose(st.breakpoints(0.0, 1.0), [0.25, 0.5, 0.75])
        assert np.allclose(st.breakpoints(0.2, 0.6), [0.25, 0.5])

    def test_region(self):
        r = RegionIndicator(-1.0, 1.0)
        assert np.allclose(r(np.array([-1.5, 0.0, 0.5, 1.5])), [0.0, 1.0, 1.0, 0.0])
        assert np.allclose(r.breakpoints(-2.0, 2.0), [-1.0, 1.0])
        assert r.period() is None

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            SineOsc(0)
        with pytest.raises(ValueError):
            StripeIndicator(-1)
        with pytest.raises(ValueError):
            RegionIndicator(1.0, 1.0)


class TestAsField:
    def test_numpy_scalars_are_constants(self):
        f = Constant(1.0) + np.int64(2)
        assert f(np.array([0.3]))[0] == 3.0
        assert integral_mean(np.float32(2.0)) == 2.0
        assert as_field(np.float32(2.5)).value == 2.5

    def test_a_plain_callable_has_no_breakpoints_and_no_period(self):
        f = as_field(lambda x: x * x)
        assert np.array_equal(f(np.array([0.5, 2.0])), [0.25, 4.0])
        assert f.breakpoints(0.0, 1.0).size == 0
        assert f.period() is None and not f.is_piecewise_constant()
        with pytest.raises(ValueError, match="not periodic"):
            integral_mean(lambda x: x)

    @pytest.mark.parametrize("obj", ["x", 1j, None, object(), Separable2D([(1.0, 1.0)])])
    def test_anything_else_is_refused(self, obj):
        with pytest.raises(TypeError, match="cannot interpret"):
            as_field(obj)


class TestAlgebra:
    def test_sum_product_values(self):
        f = 1.0 + StripeIndicator(1)  # values in {1, 2}
        assert f(0.25) == 2.0
        assert f(0.75) == 1.0
        g = Product(f, Constant(3.0))
        assert g(0.25) == 6.0

    def test_period_merge(self):
        assert (1.0 + StripeIndicator(2)).period() == pytest.approx(0.5)
        # mixed indices: the coarser period 1 contains two fine periods
        mixed = StripeIndicator(1) + SineOsc(2)
        assert mixed.period() == pytest.approx(1.0)
        assert (StripeIndicator(1) + RegionIndicator(0.0, 1.0)).period() is None
        # periods that do not divide one another: their least common multiple
        assert (SineOsc(2) * SineOsc(3)).period() == 1.0
        assert (StripeIndicator(4) + 2.0 * StripeIndicator(6)).period() == 0.5

    def test_is_periodic_with(self):
        st = StripeIndicator(2)
        assert st.is_periodic_with(1.0)
        assert st.is_periodic_with(0.5)
        assert not st.is_periodic_with(0.3)

    def test_breakpoint_union(self):
        f = StripeIndicator(1) + RegionIndicator(0.3, 2.0)
        assert np.allclose(f.breakpoints(0.0, 1.0), [0.3, 0.5])

    def test_one_union_rule_for_every_composite(self):
        # two breakpoints one ulp apart are one breakpoint, whichever
        # composite (sum or product, however nested) carries them
        a = 1.0 / 3.0
        b = np.nextafter(a, 1.0)
        ra, rb = RegionIndicator(0.0, a), RegionIndicator(0.0, b)
        composites = [
            ra + rb,
            Product(ra, rb),
            ra - rb,
            (1.0 + ra) * (1.0 + rb),
        ]
        for f in composites:
            assert f.breakpoints(-1.0, 1.0).tolist() == [0.0, a]

    def test_piecewise_constant_flag(self):
        assert (1.0 + StripeIndicator(1) * RegionIndicator(0.0, 1.0)).is_piecewise_constant()
        assert not (1.0 + SineOsc(1)).is_piecewise_constant()


def _evaluate_text(text, x):
    """Read serialised text with Python's expression parser, atoms valued at x."""
    atoms = {
        "sin_osc": lambda n: SineOsc(n)(x),
        "stripe": lambda n: StripeIndicator(n)(x),
        "region": lambda a, b: RegionIndicator(a, b)(x),
    }
    return eval(text, {"__builtins__": {}}, atoms)


class TestGrammar:
    @pytest.mark.parametrize(
        "tree",
        [
            Constant(2.0),
            SineOsc(4),
            StripeIndicator(2),
            RegionIndicator(-1.0, 1.0),
            1.0 + 2.0 * StripeIndicator(3),
            Product(SineOsc(1), RegionIndicator(0.0, 1.0)),
            -SineOsc(2),
            Sum([Constant(1.0), Product(Constant(-1.0), RegionIndicator(-1.0, 1.0))]),
        ],
    )
    def test_round_trip(self, tree):
        x = np.linspace(-1.7, 1.9, 211)
        assert np.allclose(tree(x), _evaluate_text(serialize_field(tree), x))

    @pytest.mark.parametrize(
        "tree, text",
        [
            (Constant(2.0), "2"),
            (Constant(0.25), "0.25"),
            (SineOsc(4), "sin_osc(4)"),
            (StripeIndicator(2), "stripe(2)"),
            (RegionIndicator(-1.0, 1.0), "region(-1,1)"),
            (1.0 + 2.0 * StripeIndicator(3), "(1) + ((2)*(stripe(3)))"),
            (Product(SineOsc(1), RegionIndicator(0.0, 1.0)), "(sin_osc(1))*(region(0,1))"),
            (-SineOsc(2), "(-1)*(sin_osc(2))"),
            (
                Sum([Constant(1.0), Product(Constant(-1.0), RegionIndicator(-1.0, 1.0))]),
                "(1) + ((-1)*(region(-1,1)))",
            ),
        ],
    )
    def test_text(self, tree, text):
        assert serialize_field(tree) == text


class TestSeparable2D:
    def test_region_product(self):
        omega1 = Separable2D([(RegionIndicator(-1.0, 1.0), RegionIndicator(-1.0, 1.0))])
        assert omega1(0.0, 0.0) == 1.0
        assert omega1(1.5, 0.0) == 0.0
        assert omega1(0.0, -1.5) == 0.0

    def test_algebra_cross_terms(self):
        r = RegionIndicator(-1.0, 1.0)
        omega1 = Separable2D([(r, r)])
        outside = 1.0 - omega1
        assert outside(0.0, 0.0) == 0.0
        assert outside(1.5, 0.0) == 1.0
        combined = 2.0 * omega1 + 3.0 * outside
        assert combined(0.5, 0.5) == 2.0
        assert combined(1.5, 1.5) == 3.0

    def test_product_of_sums(self):
        r = RegionIndicator(0.0, 1.0)
        a = Separable2D([(StripeIndicator(1), 1.0)]) + Separable2D([(Constant(1.0), r)])
        b = Separable2D([(2.0, 1.0)])
        prod = a * b
        x, y = 0.25, 0.5
        assert prod(x, y) == pytest.approx(2.0 * (1.0 + 1.0))

    def test_breakpoints(self):
        r = RegionIndicator(-1.0, 1.0)
        f = Separable2D([(Product(r, StripeIndicator(1)), r)])
        bx = f.breakpoints_x(-2.0, 2.0)
        assert -1.0 in bx and 1.0 in bx and 0.5 in bx
        assert np.allclose(f.breakpoints_y(-2.0, 2.0), [-1.0, 1.0])

    def test_vectorised_evaluation(self):
        r = RegionIndicator(-1.0, 1.0)
        omega1 = Separable2D([(r, r)])
        x = np.array([0.0, 1.5])
        y = np.array([0.0, 0.0])
        assert np.allclose(omega1(x, y), [1.0, 0.0])
