"""Tests for meshes, line/tensor spaces, and Gram/load assembly."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from evohom.fields import Constant, RegionIndicator, Separable2D, SineOsc, StripeIndicator
from evohom.meshes import (
    Mesh1D,
    TensorMesh2D,
    build_mesh,
    gauss_panels,
    gauss_rule,
    partition,
)
from evohom.spaces import (
    GaussLineSpace,
    NodalLineSpace,
    TensorSpace,
    build_space,
    collocated_mass,
    eval_matrix_1d,
    gram1d,
    gram2d,
    point_evaluator,
    product_load,
    reflection,
    restricted_load,
)


class TestBuildMesh:
    def test_aligned_interval(self):
        mesh = build_mesh((0.0, 1.0), 20, alignment=2)
        assert mesh.ncells == 20
        for p in (0.25, 0.5, 0.75):
            assert np.abs(mesh.boundaries - p).min() <= 1e-12

    def test_misaligned_interval_names_multiple(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            build_mesh((0.0, 1.0), 3, alignment=2)

    def test_graded_rectangle(self):
        mesh = build_mesh(
            ((-2.0, 2.0), (-2.0, 2.0)), (10, 80), alignment=1, osc_region=(-1.0, 1.0)
        )
        assert isinstance(mesh, TensorMesh2D)
        assert (mesh.x.ncells, mesh.y.ncells) == (10, 80)
        inner = mesh.x.boundaries[(mesh.x.boundaries > -1 - 1e-12) & (mesh.x.boundaries < 1 + 1e-12)]
        assert np.allclose(np.diff(inner), 0.25)
        for p in (-1.0, 1.0):
            assert np.abs(mesh.x.boundaries - p).min() <= 1e-12
        assert np.allclose(np.diff(mesh.x.boundaries[:2]), 1.0)  # exterior spacing 1/n
        assert np.allclose(np.diff(mesh.y.boundaries), 4.0 / 80)

    def test_graded_rectangle_wrong_count(self):
        with pytest.raises(ValueError, match="requires exactly 20"):
            build_mesh(
                ((-2.0, 2.0), (-2.0, 2.0)), (16, 40), alignment=2, osc_region=(-1.0, 1.0)
            )

    def test_cell_containing_array(self):
        mesh = Mesh1D([0.0, 0.5, 1.0, 2.0])
        xs = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
        cells = mesh.cell_containing(xs)
        # right-closed: a boundary belongs to the cell on its right, the
        # right end to the last cell; outside points are clamped
        assert cells.tolist() == [0, 0, 0, 1, 2, 2, 2, 2]
        assert cells.tolist() == [mesh.cell_containing(float(x)) for x in xs]
        assert isinstance(mesh.cell_containing(0.75), int)

    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh1D([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            build_mesh((0.0, 1.0), 0)


class TestPartition:
    def test_ends_and_inner_points(self):
        # unsorted input; points at, beyond or within the tolerance of an end
        # are dropped, and of two points closer than it the first is kept
        pts = [0.5, 1.0 + 1e-12, -0.3, 0.25, 0.0, 0.5 + 1e-11, 2.0, 1e-11]
        assert partition(0.0, 1.0, pts).tolist() == [0.0, 0.25, 0.5, 1.0]
        assert partition(-1.0, 1.0, []).tolist() == [-1.0, 1.0]

    def test_one_point_rule_is_width_times_midpoint(self):
        cuts = np.array([0.0, 0.25, 0.5, 1.0])
        xs, w = gauss_panels(cuts, 1)
        assert w.tolist() == np.diff(cuts).tolist()
        assert np.allclose(xs, [0.125, 0.375, 0.75], rtol=0.0, atol=1e-16)

    def test_gauss_rule_is_shared_and_read_only(self):
        x, w = gauss_rule(2)
        assert gauss_rule(2)[0] is x and gauss_rule(2)[1] is w
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        half = 0.5 / np.sqrt(3.0)
        assert np.allclose(x, [0.5 - half, 0.5 + half], rtol=0.0, atol=1e-16)
        assert np.allclose(w, [0.5, 0.5], rtol=0.0, atol=1e-16)


class TestLineSpaces:
    def test_periodic_p1_dof_count(self):
        mesh = build_mesh((0.0, 1.0), 4)
        space = build_space(mesh, "cg", 1, periodic=True)
        assert space.ndof == 4

    def test_endpoint_constrained_p1_dof_count(self):
        mesh = build_mesh((-1.0, 0.0), 4)
        space = build_space(mesh, "cg", 1, constraints=(0.0,))
        assert space.ndof == 4

    def test_constraint_must_hit_node(self):
        mesh = build_mesh((0.0, 1.0), 4)
        with pytest.raises(ValueError, match="not a node"):
            NodalLineSpace(mesh, 1, constraints=(0.33,))

    def test_cg_mass_total(self):
        mesh = build_mesh((0.0, 1.0), 8)
        for k in (1, 2):
            space = NodalLineSpace(mesh, k)
            m = gram1d(space, space)
            ones = np.ones(space.ndof)
            assert ones @ (m @ ones) == pytest.approx(1.0, rel=1e-13)

    def test_dg_mass_diagonal(self):
        mesh = build_mesh((0.0, 1.0), 5)
        for k in (0, 1, 2):
            space = GaussLineSpace(mesh, k)
            m = gram1d(space, space).toarray()
            assert np.allclose(m, np.diag(space.weights_global))

    def test_stripe_weighted_mass_exact(self):
        mesh = build_mesh((0.0, 1.0), 8, alignment=2)
        space = NodalLineSpace(mesh, 1)
        m = gram1d(space, space, coeff=StripeIndicator(2))
        ones = np.ones(space.ndof)
        assert ones @ (m @ ones) == pytest.approx(0.5, rel=1e-13)

    def test_unaligned_stripe_still_exact(self):
        # the Gram integrator splits cells at coefficient breakpoints
        mesh = build_mesh((0.0, 1.0), 3)
        space = NodalLineSpace(mesh, 1)
        m = gram1d(space, space, coeff=StripeIndicator(1))
        ones = np.ones(space.ndof)
        assert ones @ (m @ ones) == pytest.approx(0.5, rel=1e-13)

    def test_periodic_derivative_skew(self):
        mesh = build_mesh((0.0, 1.0), 6)
        space = NodalLineSpace(mesh, 1, periodic=True)
        d = gram1d(space, space, dcol=1).toarray()
        assert np.max(np.abs(d + d.T)) <= 1e-14

    def test_load_partition_of_unity(self):
        mesh = build_mesh((0.0, 1.0), 10)
        space = NodalLineSpace(mesh, 1)
        b = restricted_load(space, SineOsc(1).__call__)
        # sum of loads = integral of sin(2 pi x) = 0
        assert np.sum(b) == pytest.approx(0.0, abs=1e-12)
        b2 = restricted_load(space, lambda x: np.sin(np.pi * x))
        assert np.sum(b2) == pytest.approx(2.0 / np.pi, rel=1e-9)

    def test_evaluate_linear_exact(self):
        mesh = build_mesh((0.0, 2.0), 4)
        space = NodalLineSpace(mesh, 1)
        coeffs = space.node_positions.copy()  # interpolates f(x) = x
        xs = np.array([0.1, 0.77, 1.5, 2.0])
        assert np.allclose(eval_matrix_1d(space, xs) @ coeffs, xs)
        cells = mesh.cell_containing(xs)
        slopes = np.einsum(
            "li,il->i", space.eval_cell(cells, xs, 1), coeffs[space.cell_full_dofs(cells)]
        )
        assert np.allclose(slopes, 1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda m: NodalLineSpace(m, 2),
            lambda m: GaussLineSpace(m, 1),
            lambda m: NodalLineSpace(m, 1, periodic=True),
            lambda m: NodalLineSpace(m, 1, constraints=(0.0,)),
        ],
        ids=["nodal-p2", "gauss-p1", "periodic", "constrained"],
    )
    @pytest.mark.parametrize("deriv", [0, 1])
    def test_eval_matrix_at_cell_boundaries(self, make, deriv):
        # at every mesh boundary (interior ones and both ends) and at random
        # interior points, the value is that of the polynomial of the cell
        # Mesh1D.cell_containing picks, rebuilt per point by interpolating
        # the cell's nodal values; values are read through eval_matrix_1d,
        # derivatives through eval_cell (as gram1d reads them)
        mesh = Mesh1D([0.0, 0.2, 0.5, 0.6, 1.0])
        space = make(mesh)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(space.ndof)
        full = space.P @ coeffs
        nodes = getattr(space, "node_positions", None)
        if nodes is None:
            nodes = space.nodes_global
        xs = np.concatenate([mesh.boundaries, rng.uniform(0.0, 1.0, 5)])
        if deriv == 0:
            got = eval_matrix_1d(space, xs) @ coeffs
        else:
            cells = mesh.cell_containing(xs)
            got = np.einsum(
                "li,il->i", space.eval_cell(cells, xs, deriv), full[space.cell_full_dofs(cells)]
            )
        for x, value in zip(xs, got):
            dofs = space.cell_full_dofs(mesh.cell_containing(x))
            poly = np.polynomial.Polynomial.fit(nodes[dofs], full[dofs], len(dofs) - 1)
            assert value == pytest.approx(poly.deriv(deriv)(x), rel=1e-11, abs=1e-11)

    def test_restricted_load_unaligned_stripe_exact(self):
        # the load builder splits cells at the stripe's breakpoints inside a
        # sub-interval that is itself not aligned with the mesh
        space = NodalLineSpace(build_mesh((0.0, 1.0), 3), 1)
        b = restricted_load(space, StripeIndicator(2), 0.1, 0.9)
        # the stripe is 1 on [0, 1/4) and [1/2, 3/4)
        assert np.sum(b) == pytest.approx(0.15 + 0.25, rel=1e-13)
        moment = (0.25**2 - 0.1**2) / 2 + (0.75**2 - 0.5**2) / 2
        assert b @ space.node_positions == pytest.approx(moment, rel=1e-13)

    def test_region_weighted_gram_vanishes_off_region(self):
        space = NodalLineSpace(build_mesh((-1.0, 1.0), 8), 1)
        g = gram1d(space, space, coeff=RegionIndicator(-1.0, 0.0)).toarray()
        # the hat functions of the nodes 0.25 .. 1 live in [0, 1], off [-1, 0)
        assert np.max(np.abs(g[5:, :])) == 0.0
        assert np.max(np.abs(g[:, 5:])) == 0.0
        assert g[:5, :5].sum() == pytest.approx(1.0, rel=1e-13)

    def test_collocated_mass_samples_nodes(self):
        mesh = build_mesh((0.0, 1.0), 10)
        space = GaussLineSpace(mesh, 0)
        m = collocated_mass(space, SineOsc(1).__call__).toarray()
        mids = 0.5 * (mesh.boundaries[:-1] + mesh.boundaries[1:])
        assert np.allclose(np.diag(m), 0.1 * np.sin(2 * np.pi * mids))
        with pytest.raises(TypeError):
            collocated_mass(NodalLineSpace(mesh, 1))

    def test_mass_spd(self):
        mesh = build_mesh((0.0, 1.0), 6)
        for space in (
            NodalLineSpace(mesh, 1),
            NodalLineSpace(mesh, 2),
            NodalLineSpace(mesh, 1, periodic=True),
            NodalLineSpace(mesh, 1, constraints=(0.0, 1.0)),
            GaussLineSpace(mesh, 1),
        ):
            m = gram1d(space, space).tocsc()
            splu(m)  # factorises only if nonsingular
            eigs = np.linalg.eigvalsh(m.toarray())
            assert eigs.min() > 0.0


class TestTensorSpaces:
    def test_rt0_dof_count(self):
        mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (2, 2))
        vx, vy = build_space(mesh, "rt", 0)
        assert isinstance(vx, TensorSpace) and isinstance(vy, TensorSpace)
        assert vx.ndof == 6 and vy.ndof == 6

    def test_rt1_dof_count(self):
        mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (2, 2))
        vx, vy = build_space(mesh, "rt", 1)
        assert vx.ndof == 5 * 4 and vy.ndof == 4 * 5

    def test_rt_rejects_negative_degree(self):
        mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (2, 2))
        with pytest.raises(ValueError, match="degree >= 0"):
            build_space(mesh, "rt", -1)

    def test_zero_trace_q1(self):
        mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (2, 2))
        q = build_space(mesh, "q", 1, zero_trace=True)
        assert q.ndof == 1
        m = gram2d(q, q).toarray()
        assert m[0, 0] == pytest.approx(1.0 / 9.0, rel=1e-13)

    def test_q1_mass_total_area(self):
        mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), (4, 4))
        q = build_space(mesh, "q", 1)
        ones = np.ones(q.ndof)
        assert ones @ (gram2d(q, q) @ ones) == pytest.approx(16.0, rel=1e-13)

    def test_separable_weighted_mass(self):
        mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), (4, 4))
        q = build_space(mesh, "q", 1)
        box = RegionIndicator(-1.0, 1.0)
        omega1 = Separable2D([(box, box)])
        m = gram2d(q, q, coeff=omega1)
        ones = np.ones(q.ndof)
        assert ones @ (m @ ones) == pytest.approx(4.0, rel=1e-13)

    def test_load2d_total(self):
        mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), (3, 3))
        q = build_space(mesh, "q", 1)
        b = np.kron(
            restricted_load(q.sx, Constant(2.0)), restricted_load(q.sy, Constant(1.0))
        )
        assert np.sum(b) == pytest.approx(2.0, rel=1e-13)

    def test_evaluate2d_bilinear_exact(self):
        mesh = build_mesh(((0.0, 1.0), (0.0, 2.0)), (2, 3))
        q = build_space(mesh, "q", 1)
        nx = q.sx.node_positions
        ny = q.sy.node_positions
        coeffs = (nx[:, None] * (2.0 + ny[None, :])).ravel()
        xs = np.array([0.3, 0.5, 0.9])
        ys = np.array([0.4, 1.7, 2.0])
        emat = sp.kron(eval_matrix_1d(q.sx, xs), eval_matrix_1d(q.sy, ys))
        expected = np.kron(xs, 2.0 + ys)
        assert np.allclose(emat @ coeffs, expected)

    def test_unsupported_families(self):
        mesh1 = build_mesh((0.0, 1.0), 2)
        mesh2 = build_mesh(((0.0, 1.0), (0.0, 1.0)), (2, 2))
        with pytest.raises(ValueError):
            build_space(mesh1, "rt", 0)
        with pytest.raises(ValueError):
            build_space(mesh2, "cg", 1)



def _layout_spaces():
    """Line and tensor spaces of every kind, on graded and periodic meshes."""
    line = build_mesh((-1.0, 1.0), 5)
    mesh = build_mesh(((-2.0, 2.0), (-1.0, 3.0)), (4, 3))
    graded = Mesh1D([0.0, 0.1, 0.45, 0.5, 1.0])
    return {
        "cg2": build_space(line, "cg", 2),
        "cg1-periodic": build_space(graded, "cg", 1, periodic=True),
        "dg1": build_space(line, "dg", 1),
        "q1-zero-trace": build_space(mesh, "q", 1, zero_trace=True),
        "q2": build_space(mesh, "q", 2),
        "rt1-x": build_space(mesh, "rt", 1)[0],
        "rt0-y": build_space(mesh, "rt", 0)[1],
        "dgq1": build_space(mesh, "dgq", 1),
    }


LAYOUT_SPACES = _layout_spaces()


@pytest.mark.parametrize("name", LAYOUT_SPACES)
class TestTensorLayout:
    """point_evaluator, product_load and reflection repeat the x-major
    formulas they replace, bit for bit, on line and tensor spaces."""

    def test_lines(self, name):
        space = LAYOUT_SPACES[name]
        if isinstance(space, TensorSpace):
            assert space.lines == (space.sx, space.sy)
        else:
            assert space.lines == (space,)

    def test_point_evaluator(self, name):
        space = LAYOUT_SPACES[name]
        rng = np.random.default_rng(3)
        nodes = [np.sort(rng.uniform(*s.span, 7 + i)) for i, s in enumerate(space.lines)]
        # a component slice of stacked slab coefficients: not contiguous
        c = rng.standard_normal((2, space.ndof + 3))[:, 1:-2]
        got = point_evaluator(space, nodes)(c)
        if isinstance(space, TensorSpace):
            ex, ey = eval_matrix_1d(space.sx, nodes[0]), eval_matrix_1d(space.sy, nodes[1])
            nx, ny = space.sx.ndof, space.sy.ndof
            a = ex @ c.reshape(2, nx, ny).transpose(1, 0, 2).reshape(nx, -1)
            a = a.reshape(-1, 2, ny).transpose(2, 0, 1).reshape(ny, -1)
            expected = (ey @ a).reshape(-1, 2)
            # the points are x fastest
            dense = sp.kron(eval_matrix_1d(space.sy, nodes[1]), eval_matrix_1d(space.sx, nodes[0]))
            perm = np.arange(space.ndof).reshape(nx, ny).T.ravel()
            assert np.allclose(got, dense @ c[:, perm].T, rtol=1e-13, atol=1e-13)
        else:
            expected = eval_matrix_1d(space, nodes[0]) @ c.T
        assert got.shape == (math.prod(map(len, nodes)), 2)
        assert np.array_equal(got, expected)

    def test_product_load(self, name):
        space = LAYOUT_SPACES[name]
        factors = [lambda x: np.cos(x) + 2.0, lambda y: y * y][: len(space.lines)]
        for bounds in [(None, None), ((-1.3, 0.7), None), (None, (0.2, 2.5))]:
            got = product_load(space, factors, bounds[: len(space.lines)])
            loads = [
                restricted_load(s, f, *(b or (None, None)))
                for s, f, b in zip(space.lines, factors, bounds)
            ]
            if isinstance(space, TensorSpace):
                assert np.array_equal(got, np.kron(*loads))
            else:
                assert np.array_equal(got, loads[0])

    def test_reflection(self, name):
        space = LAYOUT_SPACES[name]
        for axis in (0, 1):
            if isinstance(space, TensorSpace):
                shape = (space.sx.ndof, space.sy.ndof)
            else:
                shape = (-1, 1)
            expected = np.flip(np.arange(space.ndof).reshape(shape), axis).ravel()
            assert np.array_equal(reflection(space, axis), expected)


class TestCrossSpaceGram:
    def test_projection_between_meshes(self):
        coarse = NodalLineSpace(build_mesh((0.0, 1.0), 4), 1)
        fine = NodalLineSpace(build_mesh((0.0, 1.0), 6), 1)
        cross = gram1d(coarse, fine)
        ones_f = np.ones(fine.ndof)
        ones_c = np.ones(coarse.ndof)
        # <1, 1> across meshes equals the interval length
        assert ones_c @ (cross @ ones_f) == pytest.approx(1.0, rel=1e-13)
        # linear function represented on both meshes: cross-Gram pairing
        xc = coarse.node_positions
        xf = fine.node_positions
        val = xc @ (cross @ xf)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-13)


# The coefficient contract of the assembly sites: each takes its
# coefficient through fields.as_field (1-D) or fields.as_separable (2-D),
# so every accepted spelling assembles exactly as the field it spells, and
# anything else is a TypeError.
_LINE = build_space(build_mesh((0.0, 1.0), 4), "cg", 2)
_DG = build_space(build_mesh((0.0, 1.0), 4), "dg", 1)
_Q = build_space(build_mesh(((0.0, 1.0), (0.0, 1.0)), (2, 2)), "q", 1)
_NUMBERS = {
    "int": (2, 2.0),
    "float": (2.5, 2.5),
    "bool": (True, 1.0),
    "np.int64": (np.int64(2), 2.0),
    "np.float32": (np.float32(2.5), 2.5),
}
_SPELLINGS_1D = {
    **{name: (c, Constant(v)) for name, (c, v) in _NUMBERS.items()},
    "field": (StripeIndicator(2), StripeIndicator(2)),
    "callable": (lambda x: np.sin(2.0 * math.pi * x), SineOsc(1)),
    "bound method": (SineOsc(2).__call__, SineOsc(2)),
}
_SPELLINGS_2D = {
    **{name: (c, Separable2D([(Constant(v), Constant(1.0))])) for name, (c, v) in _NUMBERS.items()},
    "separable with a callable factor": (
        Separable2D([(lambda x: np.sin(2.0 * math.pi * x), 2)]),
        Separable2D([(SineOsc(1), Constant(2.0))]),
    ),
}
_REFUSED = {"str": "x", "complex": 1j, "None": None, "object": object()}
_SITES = {
    "gram1d": (lambda c: gram1d(_LINE, _LINE, c, dcol=1), _SPELLINGS_1D),
    "restricted_load": (lambda c: restricted_load(_LINE, c, 0.1, 0.9), _SPELLINGS_1D),
    "collocated_mass": (lambda c: collocated_mass(_DG, c), _SPELLINGS_1D),
    "gram2d": (lambda c: gram2d(_Q, _Q, c, drow=(1, 0)), _SPELLINGS_2D),
}
_CASES = [
    (site, name)
    for site, (_, spellings) in _SITES.items()
    for name in [*spellings, *_REFUSED]
]


@pytest.mark.parametrize("site, spelling", _CASES, ids=[f"{s}-{n}" for s, n in _CASES])
def test_a_coefficient_assembles_as_the_field_it_spells(site, spelling):
    assemble, spellings = _SITES[site]
    if spelling in _REFUSED:
        with pytest.raises(TypeError):
            assemble(_REFUSED[spelling])
        return
    coeff, field = spellings[spelling]

    def parts(m):
        return (m.data, m.indices, m.indptr) if sp.issparse(m) else (m,)

    for a, b in zip(parts(assemble(coeff)), parts(assemble(field)), strict=True):
        assert np.array_equal(a, b)
