"""Tests for skew spatial operators, law masses, and quadratic-form checks."""

import numpy as np
import pytest

from evohom.fields import Constant, RegionIndicator
from evohom.laws import MaterialLaw, MemoryTerm, example_material
from evohom.meshes import build_mesh
from evohom.operators import (
    assemble_law_masses,
    assemble_skew_operator,
    complexified_accretivity_gap,
    component_offsets,
    extend_with_zero_components,
    skew_gradient_form,
)
from evohom.spaces import NodalLineSpace, build_space


def _assert_skew(a, tol):
    """max |A + A^T| within tol of max |A|."""
    assert abs(a + a.T).max() <= tol * abs(a).max()


def _block(op, spaces, i, j):
    """The (i-row, j-column) component block of an operator over ``spaces``."""
    o = component_offsets(spaces)
    return op[o[i] : o[i + 1], o[j] : o[j + 1]]


def _kept_positions(space):
    return space.P.T @ space.node_positions


class TestPeriodicPair:
    def _op(self, ncells=4):
        mesh = build_mesh((0.0, 1.0), ncells)
        su = build_space(mesh, "cg", 1, periodic=True)
        sv = build_space(mesh, "cg", 1, periodic=True)
        return assemble_skew_operator("EX2", (su, sv)), su, sv

    def test_shape_and_skewness(self):
        op, su, sv = self._op()
        assert op.shape == (8, 8)
        _assert_skew(op, 1e-14)

    def test_constants_in_kernel(self):
        op, su, sv = self._op()
        ones = np.ones(op.shape[0])
        assert np.max(np.abs(op @ ones)) <= 1e-14

    def test_structure_name_equivalent(self):
        mesh = build_mesh((0.0, 1.0), 4)
        su = build_space(mesh, "cg", 1, periodic=True)
        sv = build_space(mesh, "cg", 1, periodic=True)
        a = assemble_skew_operator("periodic-pair", (su, sv))
        b = assemble_skew_operator("EX2", (su, sv))
        assert (a != b).nnz == 0

    def test_wrong_arity(self):
        mesh = build_mesh((0.0, 1.0), 4)
        s = build_space(mesh, "cg", 1, periodic=True)
        with pytest.raises(ValueError, match="two component"):
            assemble_skew_operator("periodic-pair", (s,))

    def test_unknown_structure(self):
        mesh = build_mesh((0.0, 1.0), 4)
        s = build_space(mesh, "cg", 1, periodic=True)
        with pytest.raises(ValueError, match="unknown operator structure"):
            assemble_skew_operator("EX9", (s, s))


class TestInterfacePair:
    def _op(self, ncells=8):
        mesh = build_mesh((-1.0, 1.0), ncells)
        su = NodalLineSpace(mesh, 1, constraints=(0.0,))
        sv = NodalLineSpace(mesh, 1, constraints=(-1.0,))
        return assemble_skew_operator("EX3", (su, sv)), su, sv

    def test_skewness_exact(self):
        op, su, sv = self._op()
        _assert_skew(op, 1e-13)

    def test_vanishes_on_positive_half(self):
        op, su, sv = self._op()
        d = _block(op, (su, sv), 0, 1).toarray()
        pos_v = _kept_positions(sv)
        pos_u = _kept_positions(su)
        h = 2.0 / 8
        # columns for v-nodes with support inside (0, 1): derivative zero on (-1, 0)
        cols = np.nonzero(pos_v >= h - 1e-12)[0]
        assert np.max(np.abs(d[:, cols])) == 0.0
        # rows for u-nodes supported inside (0, 1)
        rows = np.nonzero(pos_u >= h - 1e-12)[0]
        assert np.max(np.abs(d[rows, :])) == 0.0
        assert np.max(np.abs(d)) > 0.0

    def test_integration_by_parts_identity(self):
        # <u, v'>_(-1,0) = -<u', v>_(-1,0) for u(0)=0, v(-1)=0
        op, su, sv = self._op()
        d = _block(op, (su, sv), 0, 1).toarray()
        pos_u = _kept_positions(su)
        pos_v = _kept_positions(sv)
        u = np.maximum(0.0, -pos_u)  # u(x) = max(0, -x): zero at 0 and beyond
        v = pos_v + 1.0  # v(x) = x + 1: zero at -1
        lhs = u @ d @ v  # int_{-1}^{0} u v' = int_{-1}^0 (-x) dx = 1/2
        assert lhs == pytest.approx(0.5, rel=1e-13)


class TestDivGrad:
    def _spaces(self, ncells=2):
        mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (ncells, ncells))
        su = build_space(mesh, "q", 1, zero_trace=True)
        return (su, *build_space(mesh, "rt", 0))

    def test_shapes_and_skewness(self):
        su, svx, svy = self._spaces()
        op = assemble_skew_operator("EX4", (su, svx, svy))
        assert op.shape[0] == su.ndof + svx.ndof + svy.ndof == 13
        _assert_skew(op, 1e-14)
        assert _block(op, (su, svx, svy), 0, 1).shape == (1, 6)
        assert _block(op, (su, svx, svy), 0, 2).shape == (1, 6)

    def test_gradient_pairing_value(self):
        # <u, d_x vx> for u the single interior Q1 hat and vx = x (exactly
        # representable in CG1 x DG0): int u * 1 = (1/2)^2 a tent-volume.
        su, svx, svy = self._spaces()
        op = assemble_skew_operator("div-grad", (su, svx, svy))
        dx = _block(op, (su, svx, svy), 0, 1).toarray()
        nodes_x = svx.sx.node_positions  # CG1 nodes in x
        coeff = np.repeat(nodes_x, svx.sy.ndof)  # vx(x, y) = x, x-major
        val = (dx @ coeff)[0]
        # int of the 2-D hat over (0,1)^2 = (integral of 1-D hat)^2 = (1/2)^2
        assert val == pytest.approx(0.25, rel=1e-13)

    def test_requires_tensor_spaces(self):
        mesh1 = build_mesh((0.0, 1.0), 2)
        s1 = build_space(mesh1, "cg", 1)
        with pytest.raises(ValueError, match="tensor-product"):
            assemble_skew_operator("div-grad", (s1, s1, s1))


class TestExtension:
    def test_zero_extension(self):
        mesh = build_mesh((0.0, 1.0), 4)
        su = build_space(mesh, "cg", 1, periodic=True)
        sv = build_space(mesh, "cg", 1, periodic=True)
        op = assemble_skew_operator("EX2", (su, sv))
        ext = extend_with_zero_components(op, [3, 2])
        n = op.shape[0]
        assert ext.shape == (n + 5, n + 5)
        assert (ext[:n, :n] != op).nnz == 0
        assert abs(ext[:, n:]).max() == 0.0
        assert abs(ext[n:, :]).max() == 0.0
        _assert_skew(ext, 1e-14)
        assert extend_with_zero_components(op, []) is op


class TestLawMasses:
    def test_ex2_values(self):
        law = example_material("EX2", n=1)
        mesh = build_mesh((0.0, 1.0), 4, alignment=1)
        spaces = [build_space(mesh, "cg", 1, periodic=True) for _ in range(2)]
        m0, m1 = assemble_law_masses(spaces, law)
        ones = np.ones(8)
        assert ones @ (m0 @ ones) == pytest.approx(1.5, rel=1e-13)
        assert ones @ (m1 @ ones) == pytest.approx(0.5, rel=1e-13)
        # block structure: no cross-component coupling
        assert abs(m0[:4, 4:]).max() == 0.0
        assert abs(m1[4:, :4]).max() == 0.0

    def test_memory_law_rejected(self):
        law = MaterialLaw(
            1,
            {(0, 0): Constant(1.0)},
            {},
            memory={(0, 0): (MemoryTerm(-2.0, 1.0, 1.0, RegionIndicator(0.0, 1.0)),)},
        )
        mesh = build_mesh((0.0, 1.0), 4)
        space = build_space(mesh, "cg", 1)
        with pytest.raises(ValueError, match="augment_memory"):
            assemble_law_masses([space], law)

    def test_component_count_checked(self):
        law = example_material("EX2", n=1)
        mesh = build_mesh((0.0, 1.0), 4)
        space = build_space(mesh, "cg", 1)
        with pytest.raises(ValueError, match="one space per law component"):
            assemble_law_masses([space], law)


class TestQuadraticForms:
    def test_skew_gradient_vanishes_zero_trace(self):
        mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (8, 8))
        space = build_space(mesh, "q", 1, zero_trace=True)
        b = skew_gradient_form(space, c=2.0)
        assert abs(b).max() <= 1e-13

    def test_skew_gradient_nonzero_without_trace(self):
        mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (4, 4))
        space = build_space(mesh, "q", 1)
        b = skew_gradient_form(space)
        assert abs(b).max() > 1e-3

    def test_accretivity_gap_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.standard_normal((4, 4))
            assert complexified_accretivity_gap(a, ntrials=100) >= -1e-12
