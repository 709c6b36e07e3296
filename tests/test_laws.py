"""Tests for material laws, their positivity and memory augmentation."""

import numpy as np
import pytest

from evohom.fields import Constant, RegionIndicator, Separable2D, StripeIndicator
from evohom.laws import (
    EXAMPLE_IDS,
    MaterialLaw,
    MemoryTerm,
    augment_memory,
    entry_blocks,
    eval_material_law,
    example_material,
    material_symbol,
    serialize_law,
)


def _omega1_2d():
    box = RegionIndicator(-1.0, 1.0)
    return Separable2D([(box, box)])


def _ex5_limit_like():
    """Hand-built copy of the memory-bearing 2-D limit law (for unit tests)."""
    omega1 = _omega1_2d()
    ext = 1.0 - omega1
    return MaterialLaw(
        3,
        {
            (0, 0): omega1 * 1.5 + ext,
            (1, 1): omega1 * 0.5 + ext,
            (2, 2): ext,
        },
        {(1, 1): omega1 * 0.5, (2, 2): omega1 * 2.0},
        memory={(2, 2): [MemoryTerm(-2.0, 1.0, 1.0, omega1)]},
        nu0=0.0,
        dim=2,
        domain=((-2.0, 2.0), (-2.0, 2.0)),
        component_names=("u", "vx", "vy"),
        label="ex5-limit-like",
    )


def _eliminate(aug, z, points):
    """Schur complement of the augmented symbol onto the original components."""
    s = material_symbol(aug.law, z, points)
    slots = [slot.index for slot in aug.slots]
    orig = [i for i in range(aug.law.ncomp) if i not in slots]
    return s[:, orig][:, :, orig] - s[:, orig][:, :, slots] @ np.linalg.solve(
        s[:, slots][:, :, slots], s[:, slots][:, :, orig]
    )


def _maxwell_limit_like():
    """Hand-built copy of the conductive limit law (stratified coordinate)."""
    omega1 = RegionIndicator(-1.0, 1.0)
    ext = 1.0 - omega1
    e_tan = omega1 * 0.5 + ext
    h_tan = omega1 * 1.5 + ext
    return MaterialLaw(
        6,
        {
            (0, 0): ext,
            (1, 1): e_tan,
            (2, 2): e_tan,
            (3, 3): omega1 * (4.0 / 3.0) + ext,
            (4, 4): h_tan,
            (5, 5): h_tan,
        },
        {
            (0, 0): omega1 * 2.0,
            (1, 1): omega1 * 0.5,
            (2, 2): omega1 * 0.5,
        },
        memory={(0, 0): [MemoryTerm(-2.0, 1.0, 1.0, omega1)]},
        nu0=0.0,
        dim=1,
        domain=(-2.0, 2.0),
        component_names=("E1", "E2", "E3", "H1", "H2", "H3"),
        label="maxwell-limit-like",
        formula_level=True,
    )


class TestEval:
    def test_ex1_at_sine_peak(self):
        law = example_material("EX1", n=1)
        vals = eval_material_law(law, 2.0, np.array([0.25]))
        assert vals[0, 0, 0] == pytest.approx(1.5, abs=1e-14)

    def test_ex2_phases(self):
        law = example_material("EX2", n=1)
        # on the stripe (x=0.1): M00 = 1, off the stripe (x=0.7): M00 = 1/z
        vals = eval_material_law(law, 2.0, np.array([0.1, 0.7]))
        assert vals[0, 0, 0] == pytest.approx(1.0)
        assert vals[1, 0, 0] == pytest.approx(0.5)
        assert vals[:, 1, 1] == pytest.approx([1.0, 1.0])

    def test_instant_law_is_its_entry_blocks(self):
        # M(z) = M0 + M1/z for a 2-D instant law, block by block
        law = example_material("EX5", n=2)
        pts = np.array([[0.1, 0.2], [0.3, 0.2], [1.5, -1.5]])
        m0, m1 = entry_blocks(law, law.m0, pts), entry_blocks(law, law.m1, pts)
        assert m0.shape == m1.shape == (3, 3, 3)
        assert np.array_equal(eval_material_law(law, 2.0, pts), m0 + m1 / 2.0)

    def test_ex4_regions(self):
        law = example_material("EX4", n=1)
        pts = np.array([[0.1, 0.3], [-0.3, 0.2], [1.5, 0.0]])
        vals = eval_material_law(law, 2.0, pts)
        # on-stripe inside the inclusion: z*0 + stripe -> diag(1/2, 2, 2)
        assert np.allclose(np.diag(vals[0].real), [0.5, 2.0, 2.0])
        # off-stripe inside: diag(1, 1, 1)
        assert np.allclose(vals[1], np.eye(3))
        # exterior: the identity
        assert np.allclose(vals[2], np.eye(3))

    def test_memory_entry_value(self):
        law = _ex5_limit_like()
        vals = eval_material_law(law, 1.0, np.array([[0.2, 0.2]]))
        # the memory diagonal entry: 2 - 2*(1+z)^{-1} = 1 at z=1
        assert vals[0, 2, 2] == pytest.approx(1.0, abs=1e-14)

    def test_maxwell_memory_entry_value(self):
        law = _maxwell_limit_like()
        vals = eval_material_law(law, 1.0, np.array([0.2]))
        # (1/z) * 2*(1 - (1 + z)^{-1}) = 1 at z=1
        assert vals[0, 0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_rejects_z_at_or_below_nu0(self):
        law = example_material("EX1", n=2)
        with pytest.raises(ValueError):
            eval_material_law(law, 1.0, np.array([0.1]))
        with pytest.raises(ValueError):
            eval_material_law(law, 0.5 + 3.0j, np.array([0.1]))

    def test_registry_validation(self):
        with pytest.raises(ValueError):
            example_material("EX9")
        with pytest.raises(ValueError):
            example_material("EX1", n=0)
        with pytest.raises(ValueError):
            example_material("EX1", n=1.5)

    def test_maxwell_is_formula_level(self):
        law = example_material("MAXWELL", n=2)
        assert law.formula_level
        assert law.ncomp == 6
        vals = eval_material_law(law, 2.0, np.array([0.1, 1.5]))
        # inside, on-stripe: E entries 0 + 1/z, H entries 2
        assert vals[0, 0, 0] == pytest.approx(0.5)
        assert vals[0, 3, 3] == pytest.approx(2.0)
        # exterior: the identity
        assert np.allclose(vals[1], np.eye(6))


def _symbol_floor(law, zs, points):
    """Smallest eigenvalue of the Hermitian part of z M(z) over the samples."""
    s = np.stack([material_symbol(law, z, points) for z in zs])
    herm = 0.5 * (s + np.conj(np.swapaxes(s, -1, -2)))
    return float(np.linalg.eigvalsh(herm).min())


def _z_samples(nu0):
    """12 log-spaced real offsets above nu0 crossed with 8 imaginary ones."""
    re = nu0 + np.logspace(-2.0, 1.0, 12)
    im = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    return (re[:, None] + 1j * im[None, :]).ravel()


def _square_points(half_width=2.0, num=33):
    xs = np.linspace(-half_width, half_width, num)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


class TestWellposedness:
    """Positivity of the Hermitian part of z M(z) on sampled z and x."""

    def test_ex1_paper_bound(self):
        law = example_material("EX1", n=3)
        c = _symbol_floor(law, _z_samples(2.0), np.linspace(0.0, 1.0, 257))
        assert c >= 1.0
        assert c <= 1.02

    def test_ex2_paper_bound(self):
        law = example_material("EX2", n=4)
        c = _symbol_floor(law, _z_samples(0.5), np.linspace(0.0, 1.0, 257))
        assert c >= 0.5
        assert c == pytest.approx(0.51, abs=1e-12)

    def test_trivial_law_leftmost_abscissa(self):
        law = MaterialLaw(1, {(0, 0): Constant(1.0)}, {}, nu0=0.0, domain=(0.0, 1.0))
        c = _symbol_floor(law, _z_samples(0.7), np.array([0.5]))
        assert c == pytest.approx(0.71, abs=1e-12)

    def test_ex4_positive(self):
        law = example_material("EX4", n=2)
        c = _symbol_floor(law, [0.3, 0.3 + 2.0j, 2.0 + 8.0j], _square_points())
        assert c > 0.0

    def test_memory_law_positive(self):
        c = _symbol_floor(_ex5_limit_like(), [0.2, 1.0 + 4.0j], _square_points())
        assert c > 0.0


class TestAugmentation:
    def test_hat_matrices_of_memory_limit(self):
        law = _ex5_limit_like()
        aug = augment_memory(law)
        assert aug.law.ncomp == 4
        assert aug.law.is_instant
        (slot,) = aug.slots
        assert slot.index == 3
        inside, outside = (0.0, 0.0), (1.5, 1.5)
        assert aug.law.m0[(3, 3)](*inside) == pytest.approx(2.0)
        assert aug.law.m0[(3, 3)](*outside) == pytest.approx(0.0)
        assert aug.law.m1[(3, 3)](*inside) == pytest.approx(2.0)
        assert aug.law.m1[(3, 3)](*outside) == pytest.approx(1.0)
        assert aug.law.m1[(2, 3)](*inside) == pytest.approx(-2.0)
        assert aug.law.m1[(3, 2)](*inside) == pytest.approx(-2.0)

    def test_elimination_identity_at_z3(self):
        law = _ex5_limit_like()
        aug = augment_memory(law)
        pts = np.array([[0.2, 0.2], [0.9, -0.4], [1.5, 0.0], [-1.2, 1.7]])
        s = _eliminate(aug, 3.0, pts)
        ref = material_symbol(law, 3.0, pts)
        assert np.max(np.abs(s - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_maxwell_elimination_at_z2(self):
        law = _maxwell_limit_like()
        aug = augment_memory(law)
        assert aug.law.ncomp == 7
        (slot,) = aug.slots
        # the slot couples to E1 with -sqrt(-2c) = -2 inside the region
        assert slot.index == 6
        assert aug.law.m1[(0, 6)](np.array([0.3]))[0] == pytest.approx(-2.0)
        assert aug.law.m1[(6, 0)](np.array([0.3]))[0] == pytest.approx(-2.0)
        pts = np.array([0.3, -0.7, 1.6])
        s = _eliminate(aug, 2.0, pts)
        ref = material_symbol(law, 2.0, pts)
        assert np.max(np.abs(s - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_elimination_identity_random_z(self):
        law = _ex5_limit_like()
        aug = augment_memory(law)
        pts = np.array([[0.2, 0.2], [-0.6, 0.8], [1.4, -1.9]])
        rng = np.random.default_rng(17)
        for _ in range(20):
            z = complex(law.nu0 + rng.uniform(0.01, 10.0), rng.uniform(-5.0, 5.0))
            s = _eliminate(aug, z, pts)
            ref = material_symbol(law, z, pts)
            assert np.max(np.abs(s - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_two_slot_augmentation(self):
        region = RegionIndicator(0.0, 0.5)
        law = MaterialLaw(
            2,
            {(0, 0): Constant(1.0), (1, 1): Constant(2.0)},
            {},
            memory={
                (0, 0): [MemoryTerm(-1.0, 1.0, 2.0, Constant(1.0))],
                (1, 1): [MemoryTerm(-3.0, 2.0, 1.0, region)],
            },
            nu0=0.0,
            domain=(0.0, 1.0),
        )
        aug = augment_memory(law)
        assert aug.law.ncomp == 4
        pts = np.array([0.1, 0.3, 0.8])
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = complex(rng.uniform(0.01, 10.0), rng.uniform(-5.0, 5.0))
            s = _eliminate(aug, z, pts)
            ref = material_symbol(law, z, pts)
            assert np.max(np.abs(s - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_no_memory_returned_unchanged(self):
        law = example_material("EX2", n=2)
        aug = augment_memory(law)
        assert aug.law is law
        assert aug.slots == ()
        pts = np.array([0.2, 0.6])
        assert np.allclose(_eliminate(aug, 2.0, pts), material_symbol(law, 2.0, pts))

    def test_unsupported_shapes_rejected(self):
        good = MemoryTerm(-1.0, 1.0, 1.0, Constant(1.0))
        base = {(0, 0): Constant(1.0)}
        with pytest.raises(ValueError):
            MemoryTerm(1.0, 0.0, 1.0, Constant(1.0))  # a must be positive
        with pytest.raises(ValueError):
            MemoryTerm(0.0, 1.0, 1.0, Constant(1.0))  # c must be nonzero
        law = MaterialLaw(
            2, base, {}, memory={(0, 1): [good]}, nu0=0.0, domain=(0.0, 1.0)
        )
        with pytest.raises(ValueError, match="off-diagonal"):
            augment_memory(law)
        law = MaterialLaw(
            1,
            base,
            {},
            memory={(0, 0): [MemoryTerm(1.0, 1.0, 1.0, Constant(1.0))]},
            nu0=0.0,
            domain=(0.0, 1.0),
        )
        with pytest.raises(ValueError, match="c < 0"):
            augment_memory(law)
        law = MaterialLaw(
            1,
            base,
            {},
            memory={(0, 0): [MemoryTerm(-1.0, 1.0, 1.0, Constant(0.5))]},
            nu0=0.0,
            domain=(0.0, 1.0),
        )
        with pytest.raises(ValueError, match="0/1"):
            augment_memory(law)
        law = MaterialLaw(
            1,
            base,
            {},
            series={(0, 0): RegionIndicator(0.0, 1.0)},
            nu0=1.0,
            domain=(-1.0, 1.0),
        )
        with pytest.raises(ValueError, match="series"):
            augment_memory(law)


class TestSeriesEntry:
    def test_series_law_eval(self):
        region = RegionIndicator(0.0, 1.0)
        law = MaterialLaw(
            2,
            {(0, 0): Constant(1.0), (1, 1): Constant(1.0)},
            {},
            series={(0, 0): region, (1, 1): region},
            nu0=1.0,
            domain=(-1.0, 1.0),
        )
        vals = eval_material_law(law, 2.0, np.array([-0.5, 0.5]))
        assert np.allclose(vals[0], np.eye(2))
        assert vals[1, 0, 0] == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-12)
        assert vals[1, 1, 1] == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-12)


class TestSerialisation:
    def test_ex1_text(self):
        text = serialize_law(example_material("EX1", n=2))
        assert "law EX1(n=2)" in text
        assert "components u" in text
        assert "sin_osc(2)" in text

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("example", EXAMPLE_IDS)
    def test_example_text(self, example, n, golden_text):
        # every oscillating law, exactly as recorded
        text = serialize_law(example_material(example, n))
        assert text == golden_text(f"law_{example}_n{n}")

    def test_memory_text(self):
        text = serialize_law(_ex5_limit_like())
        assert "rat(1, 1)" in text
        assert "tensor(" in text
        assert "-2 * rat" in text

    def test_series_text(self):
        law = MaterialLaw(
            1,
            {(0, 0): Constant(1.0)},
            {},
            series={(0, 0): RegionIndicator(0.0, 1.0)},
            nu0=1.0,
            domain=(-1.0, 1.0),
        )
        assert "bessel_series()" in serialize_law(law)


class TestLawValidation:
    def test_out_of_range_entry(self):
        with pytest.raises(ValueError):
            MaterialLaw(1, {(0, 1): Constant(1.0)}, {}, domain=(0.0, 1.0))

    def test_component_names_length(self):
        with pytest.raises(ValueError):
            MaterialLaw(
                2,
                {(0, 0): Constant(1.0)},
                {},
                component_names=("u",),
                domain=(0.0, 1.0),
            )
