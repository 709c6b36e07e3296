"""Tests for integral means, stratified limits, Schur quantities, limit laws."""

import math

import numpy as np
import pytest

from evohom.analytic import series_closed_form
from evohom.fields import (
    Constant,
    RegionIndicator,
    SineOsc,
    StripeIndicator,
)
from evohom.homogenise import (
    EffectiveTensor,
    build_limit_law,
    cell_problem_oracle,
    dual_stratified_limit,
    homogenise_stratified,
    integral_mean,
    pointwise_inverse,
    schur_blocks,
    schur_distance,
)
from evohom.laws import augment_memory, eval_material_law, serialize_law


class TestIntegralMean:
    def test_stripe_half(self):
        assert integral_mean(StripeIndicator(1), 1.0) == 0.5

    @pytest.mark.parametrize("n", [1, 3])
    def test_sine_zero(self, n):
        assert abs(integral_mean(SineOsc(n), 1.0)) <= 1e-13

    def test_reciprocal_piecewise(self):
        ((f,),) = pointwise_inverse([[Constant(1.0) + StripeIndicator(1)]], 1.0)
        assert integral_mean(f, 1.0) == pytest.approx(0.75, rel=1e-14)

    def test_constant_any_period(self):
        assert integral_mean(2.5, 0.37) == pytest.approx(2.5, rel=1e-14)

    def test_smooth_jump_mix(self):
        # int_0^{1/2} sin(2 pi x) dx = 1/pi
        f = SineOsc(1) * StripeIndicator(1)
        assert integral_mean(f, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_fine_stripe_same_mean(self):
        assert integral_mean(StripeIndicator(8), 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_nonperiodic_rejected(self):
        with pytest.raises(ValueError, match="not periodic"):
            integral_mean(RegionIndicator(0.0, 0.5), 1.0)
        with pytest.raises(ValueError, match="not periodic"):
            integral_mean(SineOsc(1), 0.7)

    def test_bad_period(self):
        with pytest.raises(ValueError, match="positive"):
            integral_mean(Constant(1.0), 0.0)


class TestStratified:
    def test_two_phase_isotropic(self):
        one_plus = Constant(1.0) + StripeIndicator(1)
        t = homogenise_stratified([[one_plus, 0.0], [0.0, one_plus]], 1.0)
        assert np.allclose(t.matrix, np.diag([4.0 / 3.0, 1.5]), atol=1e-13)
        assert np.linalg.eigvalsh(0.5 * (t.matrix + t.matrix.T)).min() > 1.0

    def test_constant_medium(self):
        c = 2.7
        t = homogenise_stratified(
            [[c if i == j else 0.0 for j in range(3)] for i in range(3)], 1.0
        )
        assert np.allclose(t.matrix, c * np.eye(3), atol=1e-13)

    def test_nearly_degenerate_harmonic(self):
        delta = 1e-3
        a11 = 1.0 - StripeIndicator(1) + delta
        t = homogenise_stratified([[a11, 0.0], [0.0, Constant(1.0)]], 1.0)
        expected = 1.0 / (0.5 / (1.0 + delta) + 0.5 / delta)
        assert t.matrix[0, 0] == pytest.approx(expected, rel=1e-12)
        assert abs(t.matrix[0, 0] - 1.996e-3) <= 5e-6
        assert t.matrix[1, 1] == pytest.approx(1.0, rel=1e-13)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="uniformly positive"):
            homogenise_stratified([[StripeIndicator(1), 0.0], [0.0, 1.0]], 1.0)

    def test_corrector_vanishes_without_coupling(self):
        a_hat = [
            [Constant(2.0) + StripeIndicator(1), 0.0],
            [0.0, Constant(1.0) + 3.0 * StripeIndicator(1)],
        ]
        t = homogenise_stratified(a_hat, 1.0)
        assert t.matrix[1, 1] == pytest.approx(2.5, rel=1e-14)  # plain mean

    def test_mean_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lo, hi = sorted(rng.uniform(0.2, 5.0, size=2))
            f = Constant(lo) + (hi - lo) * StripeIndicator(1)
            harm = homogenise_stratified([[f]], 1.0).matrix[0, 0]
            arith = integral_mean(f, 1.0)
            assert harm <= arith + 1e-13
            if hi - lo > 1e-3:
                assert harm < arith

    def test_matches_fem_oracle_two_phase(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            q = rng.normal(size=(2, 2))
            A = q @ q.T + 2.0 * np.eye(2)
            q = rng.normal(size=(2, 2))
            B = q @ q.T + 2.0 * np.eye(2)
            stripe = StripeIndicator(1)
            a_hat = [
                [
                    Constant(A[i, j]) + (B[i, j] - A[i, j]) * stripe
                    for j in range(2)
                ]
                for i in range(2)
            ]
            closed = homogenise_stratified(a_hat, 1.0).matrix
            fem = cell_problem_oracle(a_hat, 1.0, ncells=256)
            assert np.max(np.abs(closed - fem)) <= 1e-10

    def test_matches_fem_oracle_sine(self):
        a_hat = [
            [Constant(2.0) + SineOsc(1), Constant(0.3) + 0.1 * SineOsc(2)],
            [Constant(0.3) + 0.1 * SineOsc(2), Constant(3.0) + 0.5 * SineOsc(1)],
        ]
        closed = homogenise_stratified(a_hat, 1.0).matrix
        fem = cell_problem_oracle(a_hat, 1.0, ncells=2048)
        assert np.max(np.abs(closed - fem)) <= 1e-9

    def test_periodicity_enforced(self):
        with pytest.raises(ValueError, match="not periodic"):
            homogenise_stratified([[RegionIndicator(0.0, 0.5) + 1.0]], 1.0)


class TestDualLimit:
    def test_two_phase_isotropic_flips(self):
        one_plus = Constant(1.0) + StripeIndicator(1)
        t = dual_stratified_limit([[one_plus, 0.0], [0.0, one_plus]], 1.0)
        assert np.allclose(t.matrix, np.diag([1.5, 4.0 / 3.0]), atol=1e-12)

    def test_constant_identity(self):
        c = 2.7
        t = dual_stratified_limit([[c, 0.0], [0.0, c]], 1.0)
        assert np.allclose(t.matrix, c * np.eye(2), atol=1e-12)

    def test_componentwise_means(self):
        p = Constant(1.0) + StripeIndicator(1)  # values {1, 2}
        q = Constant(1.0) + StripeIndicator(1)
        t = dual_stratified_limit([[p, 0.0], [0.0, q]], 1.0)
        assert t.matrix[0, 0] == pytest.approx(1.5, rel=1e-12)  # m(p)
        assert t.matrix[1, 1] == pytest.approx(4.0 / 3.0, rel=1e-12)  # 1/m(1/q)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular pointwise inverse"):
            dual_stratified_limit([[StripeIndicator(1), 0.0], [0.0, 1.0]], 1.0)

    def test_unsupported_shape(self):
        a = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ValueError, match="diagonal matrices and full 2x2"):
            pointwise_inverse(a, 1.0)

    def test_pointwise_inverse_correct(self):
        a = [
            [Constant(2.0) + StripeIndicator(1), Constant(0.5)],
            [Constant(0.5), Constant(3.0) + SineOsc(1)],
        ]
        inv = pointwise_inverse(a, 1.0)
        xs = np.array([0.13, 0.42, 0.68, 0.97])
        for x in xs:
            amat = np.array([[a[i][j](np.array([x]))[0] for j in range(2)] for i in range(2)])
            imat = np.array(
                [[inv[i][j](np.array([x]))[0] for j in range(2)] for i in range(2)]
            )
            assert np.allclose(imat @ amat, np.eye(2), atol=1e-13)


class TestSchurQuantities:
    def test_two_by_two(self):
        q00, q10, q01, qS = schur_blocks(np.array([[2.0, 1.0], [1.0, 2.0]]), 1)
        assert q00[0, 0] == pytest.approx(0.5)
        assert q10[0, 0] == pytest.approx(0.5)
        assert q01[0, 0] == pytest.approx(0.5)
        assert qS[0, 0] == pytest.approx(1.5)

    def test_identity(self):
        q00, q10, q01, qS = schur_blocks(np.eye(4), 2)
        assert np.allclose(q00, np.eye(2))
        assert np.max(np.abs(q10)) == 0.0
        assert np.max(np.abs(q01)) == 0.0
        assert np.allclose(qS, np.eye(2))

    def test_reconstruction(self):
        # q00 a00 = I, q10 a00 = a10, a00 q01 = a01, qS + a10 q01 = a11
        rng = np.random.default_rng(11)
        q = rng.normal(size=(6, 6))
        a = q @ q.T + 6.0 * np.eye(6)
        q00, q10, q01, qS = schur_blocks(a, 3)
        a00, a01, a10, a11 = a[:3, :3], a[:3, 3:], a[3:, :3], a[3:, 3:]
        assert np.max(np.abs(q00 @ a00 - np.eye(3))) <= 1e-12
        assert np.max(np.abs(q10 @ a00 - a10)) <= 1e-12
        assert np.max(np.abs(a00 @ q01 - a01)) <= 1e-12
        assert np.max(np.abs(qS + a10 @ q01 - a11)) <= 1e-12

    def test_singular_00_rejected(self):
        with pytest.raises(ValueError, match="singular 00-block"):
            schur_blocks(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)

    def test_bad_split(self):
        for split in (0, 4):
            with pytest.raises(ValueError, match="strictly between 0 and n"):
                schur_blocks(np.eye(4), split)


def _dct_basis(n):
    k = np.arange(n)
    v = np.cos(np.pi * np.outer(k, (np.arange(n) + 0.5)) / n).T
    v[:, 0] *= np.sqrt(1.0 / n)
    v[:, 1:] *= np.sqrt(2.0 / n)
    return v


def _unit_probes(n):
    """Constants, x, x^2 and the first four Fourier modes on n midpoints."""
    x = (np.arange(n) + 0.5) / n
    probes = [np.ones(n), x, x**2]
    for k in range(1, 5):
        probes += [np.sin(2.0 * np.pi * k * x), np.cos(2.0 * np.pi * k * x)]
    return [p / np.linalg.norm(p) for p in probes]


def _stripe_vs_mean_distance(n_osc, nfull=256, k_low=4):
    """Distance between multiplication by the stripe and by its mean 1/2,

    compressed onto a fixed low-frequency/high-frequency splitting."""
    xc = (np.arange(nfull) + 0.5) / nfull
    stripe = ((np.floor(2 * n_osc * xc).astype(int) % 2) == 0).astype(float)
    v = _dct_basis(nfull)
    a = v.T @ np.diag(stripe) @ v
    b = 0.5 * np.eye(nfull)
    probes = [
        np.ones(nfull),
        xc,
        xc**2,
        np.sin(2 * np.pi * xc),
        np.cos(2 * np.pi * xc),
        np.sin(4 * np.pi * xc),
        np.cos(4 * np.pi * xc),
    ]
    probes = [v.T @ (p / np.linalg.norm(p)) for p in probes]
    return schur_distance(a, b, k_low, probes)


class TestSchurDistance:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(8, 8))
        a = q @ q.T + 8.0 * np.eye(8)
        assert schur_distance(a, a, 4, _unit_probes(8)) == 0.0

    def test_stripe_mean_convergence(self):
        d4 = _stripe_vs_mean_distance(4)
        d64 = _stripe_vs_mean_distance(64)
        assert d4 / d64 >= 4.0
        assert abs(d4 - 1.006) <= 5e-3
        assert abs(d64 - 0.0334) <= 5e-4

    def test_continuity(self):
        rng = np.random.default_rng(9)
        q = rng.normal(size=(16, 16))
        a = q @ q.T + 16.0 * np.eye(16)
        d = schur_distance(a, a * (1.0 + 1e-9), 8, _unit_probes(16))
        assert d <= 1e-7


class TestLimitLaws:
    def test_ex2_matrices(self):
        law = build_limit_law("EX2")
        m = eval_material_law(law, 2.0, np.array([0.3]))[0]
        assert np.allclose(m, np.diag([0.75, 1.0]), atol=1e-14)

    def test_ex3_series_halves(self):
        law = build_limit_law("EX3")
        z = 2.0
        m = eval_material_law(law, z, np.array([-0.5, 0.5]))
        assert np.allclose(m[0], np.eye(2), atol=1e-12)
        expected = series_closed_form(z)
        assert np.allclose(m[1], expected * np.eye(2), atol=1e-12)

    def test_ex4_display(self):
        law = build_limit_law("EX4")
        pts = np.array([[0.1, 0.3], [1.5, 0.0]])
        m = eval_material_law(law, 5.0, pts)
        inside = np.diag([0.5 + 0.5 / 5.0, 1.5, 4.0 / 3.0])
        assert np.allclose(m[0], inside, atol=1e-14)
        assert np.allclose(m[1], np.eye(3), atol=1e-14)
        assert not law.memory and not law.series

    def test_ex5_memory_entry(self):
        law = build_limit_law("EX5")
        pts = np.array([[0.1, 0.3]])
        # vy entry at z = 1: (1/z) * (2 - 2/(1+z)) = 1
        m = eval_material_law(law, 1.0, pts)[0]
        assert m[2, 2] == pytest.approx(1.0, abs=1e-14)
        assert m[0, 0] == pytest.approx(1.5, abs=1e-14)
        assert m[1, 1] == pytest.approx(0.5 + 0.5, abs=1e-14)
        # the memory entry sits on the second flux slot over the inner box
        (term,) = law.memory[(2, 2)]
        assert (term.c, term.a, term.b) == (-2.0, 1.0, 1.0)

    def test_ex5_augmentable(self):
        law = build_limit_law("EX5")
        aug = augment_memory(law)
        assert aug.law.ncomp == 4
        assert aug.law.is_instant

    def test_maxwell_entries(self):
        law = build_limit_law("MAXWELL")
        assert law.formula_level
        pts = np.array([0.2])
        m = eval_material_law(law, 1.0, pts)[0]
        # E1 entry at z = 1, sigma = eps = 1: (2 - 2/(1+1)) / 1 = 1
        assert m[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert m[1, 1] == pytest.approx(0.5 + 0.5, abs=1e-14)
        assert m[3, 3] == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert m[4, 4] == pytest.approx(1.5, abs=1e-14)
        out = eval_material_law(law, 1.0, np.array([1.7]))[0]
        assert np.allclose(out, np.eye(6), atol=1e-14)

    def test_maxwell_augmentable(self):
        aug = augment_memory(build_limit_law("MAXWELL"))
        assert aug.law.ncomp == 7
        assert aug.law.is_instant

    @pytest.mark.parametrize(
        "example, text",
        [
            (
                "EX2",
                "law EX2-limit\n  dim 1\n  components u, v\n  nu0 0.5\n"
                "  M0[u,u] = 0.5\n  M0[v,v] = 1\n  M1[u,u] = 0.5",
            ),
            (
                "EX3",
                "law EX3-limit\n  dim 1\n  components u, v\n  nu0 1\n"
                "  M0[u,u] = 1\n  M0[v,v] = 1\n"
                "  M[u,u] += (bessel_series() - 1) * (region(0,1))\n"
                "  M[v,v] += (bessel_series() - 1) * (region(0,1))",
            ),
        ],
    )
    def test_text(self, example, text):
        # the law as `evohom limits` prints it
        assert serialize_law(build_limit_law(example)) == text

    def test_ex1_rejected(self):
        with pytest.raises(ValueError, match="series law"):
            build_limit_law("EX1")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown example id"):
            build_limit_law("EX7")

    def test_limits_oscillation_free(self):
        # limit matrices contain no stripe/sine factors: evaluating at two
        # inside points gives identical values
        law = build_limit_law("EX4")
        pts = np.array([[0.13, 0.2], [0.48, -0.7]])
        m = eval_material_law(law, 3.0, pts)
        assert np.allclose(m[0], m[1], atol=1e-14)


class TestEffectiveTensorType:
    def test_read_only(self):
        t = EffectiveTensor(np.eye(2))
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 2.0
