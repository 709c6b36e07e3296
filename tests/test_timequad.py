"""Tests for time grids and the weighted Gauss-Radau rule.

Reference values were frozen from an independent adaptive-quadrature
oracle (mpmath.quad at 50 digits) evaluating mu_k = int_0^h t^k e^{-2 rho t} dt
and from solving the 3 moment equations in exact arithmetic.
"""

import math

import numpy as np
import pytest

from evohom.timequad import (
    TRACE_LEFT,
    TRACE_RIGHT,
    TimeGrid,
    build_radau_rule,
    temporal_basis,
    temporal_matrices,
    weighted_moments,
)


# (h, rho) -> [mu_0, mu_1, mu_2], frozen from the mpmath oracle
MOMENT_ORACLE = {
    (1.0, 0.5): [6.3212055882855767e-01, 2.6424111765711539e-01, 1.6060279414278839e-01],
    (2.0, 1.0): [4.9084218055563295e-01, 2.2710545138908228e-01, 1.9047417361161390e-01],
    (0.5, 2.0): [2.1616617919084680e-01, 3.7124634393135118e-02, 1.0103861994279267e-02],
}

# (h, rho) -> (free node t1 in slab coords, w1, w2), frozen from the oracle
RULE_ORACLE = {
    (1.0, 0.0): (1.0 / 3.0, 3.0 / 4.0, 1.0 / 4.0),
    (1.0, 1.0): (0.23840584404423511, 0.37268382194051248, 0.059648536441181175),
    (0.5, 2.0): (0.11920292202211756, 0.18634191097025624, 0.029824268220590588),
    (2.0, 1.0): (0.34951510805364502, 0.45718619625311257, 0.033655984302520337),
}


class TestTimeGrid:
    def test_uniform_grid(self):
        g = TimeGrid.uniform(2.0, 4)
        assert g.num_slabs == 4
        assert g.T == 2.0
        assert g.slab(1) == (0.0, 0.5)
        assert g.slab(4) == (1.5, 2.0)
        assert not g.length_classes().any()

    def test_length_classes(self):
        # lengths 0.1, 0.2, 0.1 (to roundoff), 0.3, 0.2 (1e-9 off), 0.3
        points = np.cumsum([0.0, 0.1, 0.2, 0.1, 0.3, 0.2 * (1.0 + 1e-9), 0.3])
        grid = TimeGrid(points)
        assert grid.length_classes().tolist() == [0, 1, 0, 2, 3, 2]
        assert TimeGrid.uniform(2.0, 7).length_classes().tolist() == [0] * 7

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid([0.1, 1.0])  # must start at 0
        with pytest.raises(ValueError):
            TimeGrid([0.0, 1.0, 0.5])  # not increasing
        with pytest.raises(ValueError):
            TimeGrid.uniform(-1.0, 4)
        with pytest.raises(ValueError):
            TimeGrid.uniform(1.0, 0)


class TestTemporalBasis:
    def test_values(self):
        tau = np.array([0.0, 0.25, 1.0])
        assert np.array_equal(temporal_basis(tau), [[1.0, 1.0, 1.0], [-1.0, -0.5, 1.0]])
        assert temporal_basis(0.5).shape == (2,)

    def test_basis_masses_are_the_slab_gram_matrix(self):
        # l0 l1 integrates to 0, l0^2 to h and l1^2 to h/3 on every slab
        grid = TimeGrid([0.0, 0.1, 0.35, 0.4, 1.2, 2.0])
        h = np.diff(grid.t_points)
        tau, w = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)]), 0.5
        basis = temporal_basis(tau)
        gram = np.einsum("iq,jq->ij", basis, basis) * w
        assert np.allclose(gram, np.diag([1.0, 1.0 / 3.0]), rtol=0.0, atol=1e-15)
        assert np.allclose(
            grid.basis_masses(), h[:, None] * np.diag(gram), rtol=1e-15, atol=0.0
        )


class TestWeightedMoments:
    def test_unweighted(self):
        assert weighted_moments(1.0, 0.0, 2) == pytest.approx([1.0, 0.5, 1.0 / 3.0], rel=1e-15)

    def test_single_exponential(self):
        (mu0,) = weighted_moments(1.0, 0.5, 0)
        assert mu0 == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("key", sorted(MOMENT_ORACLE))
    def test_oracle_values(self, key):
        h, rho = key
        mus = weighted_moments(h, rho, 2)
        assert mus == pytest.approx(MOMENT_ORACLE[key], rel=1e-13)

    def test_series_recurrence_agree_at_branch_point(self):
        # y = 2*rho*h straddling the internal branch at y = 1
        for y_lo, y_hi in [(0.999999, 1.000001)]:
            m_lo = weighted_moments(1.0, y_lo / 2.0, 2)
            m_hi = weighted_moments(1.0, y_hi / 2.0, 2)
            assert np.allclose(m_lo, m_hi, rtol=1e-5)

    def test_tiny_rho_matches_unweighted(self):
        mus = weighted_moments(1.0, 1e-14, 2)
        assert mus == pytest.approx([1.0, 0.5, 1.0 / 3.0], rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            weighted_moments(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            weighted_moments(1.0, -1.0, 2)


class TestRadauRule:
    def test_unweighted_unit_slab(self):
        rule = build_radau_rule((0.0, 1.0), 0.0)
        assert rule.nodes == pytest.approx([1.0 / 3.0, 1.0], rel=1e-14)
        assert rule.weights == pytest.approx([0.75, 0.25], rel=1e-14)
        # exactness on t^2: 3/4*(1/9) + 1/4*1 = 1/3
        assert rule.integrate(lambda t: t * t) == pytest.approx(1.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("key", sorted(RULE_ORACLE))
    def test_oracle_rules(self, key):
        h, rho = key
        t1, w1, w2 = RULE_ORACLE[key]
        rule = build_radau_rule((0.0, h), rho)
        assert rule.nodes == pytest.approx([t1, h], rel=1e-13)
        assert rule.weights == pytest.approx([w1, w2], rel=1e-13)

    def test_weighted_constant(self):
        # Q(1) must equal mu_0 = (1 - e^{-2})/2 for rho = 1, h = 1
        rule = build_radau_rule((0.0, 1.0), 1.0)
        assert rule.integrate(lambda t: 1.0) == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-14)

    def test_exactness_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rho = rng.uniform(0.0, 4.0)
            h = rng.uniform(1e-3, 10.0)
            a = rng.uniform(-5.0, 5.0)
            rule = build_radau_rule((a, a + h), rho)
            mus = weighted_moments(h, rho, 2)
            for k in range(3):
                q = rule.integrate(lambda t, k=k: (t - a) ** k)
                assert abs(q - mus[k]) <= 1e-12 * max(1.0, abs(mus[k]))

    def test_positivity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = rng.uniform(0.0, 4.0)
            h = rng.uniform(1e-3, 10.0)
            rule = build_radau_rule((0.0, h), rho)
            assert rule.weights[0] > 0 and rule.weights[1] > 0
            assert 0.0 < rule.nodes[0] < h

    def test_affine_covariance(self):
        # scaling the slab by s and rho by 1/s rescales nodes and weights by s
        base = build_radau_rule((0.0, 1.0), 1.0)
        for s in [0.5, 2.0, 3.7]:
            scaled = build_radau_rule((0.0, s), 1.0 / s)
            assert scaled.nodes == pytest.approx(s * base.nodes, rel=1e-12)
            assert scaled.weights == pytest.approx(s * base.weights, rel=1e-12)

    def test_offset_slab(self):
        rule = build_radau_rule((3.0, 4.0), 0.0)
        assert rule.nodes == pytest.approx([3.0 + 1.0 / 3.0, 4.0], rel=1e-14)


class TestTemporalMatrices:
    def test_unweighted_blocks(self):
        rule = build_radau_rule((0.0, 2.0), 0.0)
        T0, T1, J = temporal_matrices(rule)
        h = 2.0
        # T0 = integral of l_j l_i = h * diag(1, 1/3)
        assert np.allclose(T0, np.diag([h, h / 3.0]), atol=1e-14)
        # T1[i, j] = integral of l_j' l_i: only (i=0, j=1) entry = 2
        assert np.allclose(T1, np.array([[0.0, 2.0], [0.0, 0.0]]), atol=1e-14)
        assert np.allclose(J, np.outer(TRACE_LEFT, TRACE_LEFT), atol=1e-15)

    def test_traces(self):
        assert list(TRACE_LEFT) == [1.0, -1.0]
        assert list(TRACE_RIGHT) == [1.0, 1.0]

    def test_discrete_integration_by_parts(self):
        # For rho = 0 the blocks satisfy T1 + T1^T = R - L with
        # R = outer(l(right), l(right)), L = outer(l(left), l(left)).
        rule = build_radau_rule((0.0, 1.5), 0.0)
        T0, T1, J = temporal_matrices(rule)
        R = np.outer(TRACE_RIGHT, TRACE_RIGHT)
        L = np.outer(TRACE_LEFT, TRACE_LEFT)
        assert np.allclose(T1 + T1.T, R - L, atol=1e-13)
