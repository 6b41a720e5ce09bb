import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from gravdicke.errors import LinearizationError, PhysicsDomainError
from gravdicke.metric import PhysicalConstants, WeakFieldMetric
from gravdicke.modes import (
    ModeIndex,
    PerturbedMode,
    _cross,
    flat_polarization_basis,
    gauss_law_constant,
    local_wavevector,
    mode_amplitude,
    mode_field_first_order,
    mode_phase,
    polarization_E,
    polarization_H,
)

CST = PhysicalConstants.scaled()


def make_mode(k, s=2, a=1e-3, volume=1.0):
    return PerturbedMode.build(ModeIndex(np.asarray(k, float), s), WeakFieldMetric(a=a), CST, volume)


def first_order_products(mode, z):
    """f0_j M_j for each component j at height z, read off the first-order field at
    t = 0 and r = (0, 0, z), where it is the flat carrier times f0_j (1 + a M_j)."""
    field = mode_field_first_order(mode, 0.0, np.array([0.0, 0.0, z]))
    carrier = mode.flat_amplitude * np.exp(1j * -(mode.k[2] * z))
    return (field / carrier - mode.f0) / mode.metric.a


unit_vectors = st.tuples(
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)
).filter(lambda v: np.linalg.norm(v) > 1e-3)


class TestFlatBasis:
    def test_axis_convention(self):
        f1, f2 = flat_polarization_basis([0.0, 0.0, 1.0])
        np.testing.assert_allclose(f1, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(f2, [0.0, 1.0, 0.0])

    @given(k=unit_vectors)
    def test_orthonormal_and_transverse(self, k):
        f1, f2 = flat_polarization_basis(k)
        k = np.asarray(k)
        assert abs(np.dot(f1, k)) < 1e-12 * np.linalg.norm(k)
        assert abs(np.dot(f2, k)) < 1e-12 * np.linalg.norm(k)
        assert abs(np.dot(f1, f2)) < 1e-12
        assert np.linalg.norm(f1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(f2) == pytest.approx(1.0, abs=1e-12)

    def test_gram_check_diagonal_k(self):
        k = np.ones(3) / np.sqrt(3.0)
        f1, f2 = flat_polarization_basis(k)
        gram = np.array([[f1 @ f1, f1 @ f2, f1 @ k], [f2 @ f1, f2 @ f2, f2 @ k]])
        np.testing.assert_allclose(gram, [[1, 0, 0], [0, 1, 0]], atol=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(PhysicsDomainError):
            flat_polarization_basis([0.0, 0.0, 0.0])


class TestCross:
    def test_bit_identical_to_np_cross(self):
        rng = np.random.default_rng(7)
        pairs = [(rng.normal(size=3) * 10.0 ** rng.integers(-8, 8), rng.normal(size=3))
                 for _ in range(2000)]
        basis = list(np.eye(3)) + list(-np.eye(3))
        pairs += [(u, v) for u in basis for v in basis]
        for u, v in pairs:
            assert _cross(u, v).tobytes() == np.cross(u, v).tobytes()


class TestModeIndex:
    def test_grazing_guard(self):
        with pytest.raises(PhysicsDomainError):
            ModeIndex(np.array([1.0, 0.0, 1e-8]), 1)

    def test_bad_label(self):
        with pytest.raises(PhysicsDomainError):
            ModeIndex(np.array([0.0, 0.0, 1.0]), 3)


class TestAmplitude:
    def test_vertical_mode_uncorrected(self):
        mode = make_mode([0.0, 0.0, 1.3], a=1e-2)
        flat = mode.flat_amplitude
        for z in (-0.7, 0.0, 0.9):
            assert mode_amplitude(mode, z) == flat

    def test_flat_space(self):
        mode = make_mode([1.0, -0.4, 0.8], a=0.0)
        assert mode_amplitude(mode, 12.3) == mode.flat_amplitude

    def test_direct_formula_and_m_real_part(self):
        # k = (1,1,1): transverse fraction (kx^2+ky^2)/(4 kz^2) = 1/2
        mode = make_mode([1.0, 1.0, 1.0], s=2, a=1e-2)
        z = 1.0  # a dz = 0.01
        assert mode_amplitude(mode, z) == pytest.approx(mode.flat_amplitude * 1.005, rel=1e-12)
        m3 = oracles.component_perturbations(mode, z)[2]
        assert mode_amplitude(mode, z) == pytest.approx(
            mode.flat_amplitude * (1.0 + mode.metric.a * m3.real), rel=1e-12
        )

    def test_linearization_guard(self):
        mode = make_mode([1.0, 1.0, 1.0], a=0.5)
        with pytest.raises(LinearizationError):
            mode_amplitude(mode, 3.0)

    @pytest.mark.parametrize("constants", [CST, PhysicalConstants()], ids=["scaled", "si"])
    def test_overflowing_amplitude_rejected(self, constants):
        # sqrt(hbar w / 2 eps0 V) overflows for a subnormal volume; in SI 2 eps0 V is 0
        with pytest.raises(PhysicsDomainError, match="not finite"):
            PerturbedMode.build(ModeIndex(np.ones(3), 2), WeakFieldMetric(a=1e-3), constants,
                                5e-324)


class TestPhaseAndWavevector:
    def test_flat_plane_wave_at_reference(self):
        mode = make_mode([0.4, -0.2, 1.1], a=5e-3)
        r = np.array([0.3, 0.7, 0.0])
        expected = mode.omega * 2.0 - mode.k @ r
        assert mode_phase(mode, 2.0, r) == pytest.approx(expected, rel=1e-14)

    def test_zero_gradient(self):
        mode = make_mode([0.4, -0.2, 1.1], a=0.0)
        r = np.array([0.3, 0.7, -4.0])
        expected = mode.omega * 2.0 - mode.k @ r
        assert mode_phase(mode, 2.0, r) == pytest.approx(expected, rel=1e-14)

    def test_reference_height_wavevector(self):
        mode = make_mode([0.4, -0.2, 1.1], a=5e-3)
        np.testing.assert_allclose(
            local_wavevector(mode, 0.0), [mode.omega, -0.4, 0.2, -1.1], atol=1e-15
        )

    def test_phase_gradient_matches_wavevector(self, rng):
        # 100 random modes and heights; FD of a quadratic is exact up to roundoff
        h = 1e-4
        for _ in range(100):
            k = rng.normal(size=3)
            while abs(k[2]) < 0.1 * np.linalg.norm(k):
                k = rng.normal(size=3)
            mode = make_mode(k, s=int(rng.integers(1, 3)), a=10 ** rng.uniform(-4, -2))
            z = rng.uniform(-0.5, 0.5) / max(mode.metric.a * 100, 1.0)
            r0 = np.array([0.1, -0.2, z])
            up = mode_phase(mode, 0.0, r0 + [0.0, 0.0, h])
            dn = mode_phase(mode, 0.0, r0 - [0.0, 0.0, h])
            fd = (up - dn) / (2.0 * h)
            ktz = local_wavevector(mode, z)[3]
            assert abs(fd - ktz) <= 1e-8 * abs(ktz)


class TestPerturbationM:
    """The per-component corrections M_j of mode_field_first_order, against the
    literal formulas of oracles.component_perturbations."""

    def test_m3_reference_height_is_divergence_constant(self):
        mode = make_mode([0.7, -0.3, 0.9])
        kx, ky, kz = mode.k
        expected = -1j * (kx**2 + ky**2) / (4.0 * kz**3)
        m3 = first_order_products(mode, 0.0)[2] / mode.f0[2]
        assert m3 == pytest.approx(expected, rel=1e-9)
        assert gauss_law_constant(mode) == pytest.approx(expected)

    def test_m1_vanishes_when_unmixed(self):
        # s = 1 polarization is horizontal: no vertical component to mix in
        mode = make_mode([0.7, -0.3, 0.9], s=1)
        assert mode.f0[0] != 0.0
        assert first_order_products(mode, 0.0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_against_literal_component_formulas(self, rng):
        for _ in range(25):
            k = rng.normal(size=3)
            while abs(k[2]) < 0.1 * np.linalg.norm(k):
                k = rng.normal(size=3)
            mode = make_mode(k, s=2, a=10 ** rng.uniform(-4, -2))
            z = rng.uniform(-0.5, 0.5)
            literal = oracles.component_perturbations(mode, z)
            products = first_order_products(mode, z)
            for j, m in enumerate(literal):
                if m is not None:
                    assert products[j] / mode.f0[j] == pytest.approx(m, rel=1e-9, abs=1e-9)
            m1, _, m3 = literal
            # shared structure: transverse corrections differ from the vertical
            # one only by the real mixing ratio and the constant
            if m1 is not None:
                pol = (k[0] / (2.0 * k[2])) * z * mode.f0[2] / mode.f0[0]
                assert m1 - (m3 - gauss_law_constant(mode)) == pytest.approx(pol, abs=1e-12)

    def test_product_form_fallback(self):
        # k in the x-z plane puts the s=1 polarization along y: f0_x = 0
        mode = make_mode([1.0, 0.0, 1.0], s=1)
        assert mode.f0[0] == pytest.approx(0.0, abs=1e-15)
        # only the product f0_1 * M_1 is physical; here it is the pure mixing term
        kx, _, kz = mode.k
        assert first_order_products(mode, 0.3)[0] == pytest.approx(kx * 0.3 * mode.f0[2] / (2.0 * kz))


class TestPolarizations:
    def test_horizontal_polarization_never_tilts(self):
        mode = make_mode([0.6, 0.2, 1.0], s=1, a=1e-2)
        assert mode.f0[2] == pytest.approx(0.0, abs=1e-15)
        for z in (-0.8, 0.0, 0.9):
            np.testing.assert_array_equal(polarization_E(mode, z), mode.f0.astype(complex))

    def test_reference_height(self):
        mode = make_mode([0.6, 0.2, 1.0], s=2, a=1e-2)
        np.testing.assert_allclose(polarization_E(mode, 0.0), mode.f0, atol=1e-15)

    def test_tilt_formula(self):
        mode = make_mode([1.0, 0.0, 1.0], s=2, a=1e-2)
        z = 1.0
        f = polarization_E(mode, z)
        tilt = 1e-2 * z / (2.0 * mode.k[2]) * mode.f0[2]
        np.testing.assert_allclose(f, mode.f0 + tilt * np.array([1.0, 0.0, 0.0]), atol=1e-15)

    def test_flat_h_polarization_is_cross_product(self):
        mode = make_mode([0.6, 0.2, 1.0], s=2, a=0.0)
        khat = mode.k / np.linalg.norm(mode.k)
        np.testing.assert_allclose(polarization_H(mode, 3.7), np.cross(khat, mode.f0), atol=1e-15)

    def test_against_literal_component_formulas(self, rng):
        # vector construction vs per-component transcription: both first order,
        # so they may differ only at O(a^2)
        for _ in range(20):
            k = rng.normal(size=3)
            while abs(k[2]) < 0.1 * np.linalg.norm(k):
                k = rng.normal(size=3)
            z = rng.uniform(-0.5, 0.5)
            for s in (1, 2):
                diffs = []
                for a in (1e-2, 5e-3):
                    mode = make_mode(k, s=s, a=a)
                    oracle = oracles.component_polarization_H(
                        mode, z, local_wavevector(mode, z), polarization_E(mode, z))
                    diffs.append(np.max(np.abs(polarization_H(mode, z) - oracle)))
                assert diffs[0] <= 10.0 * (1e-2) ** 2
                if diffs[0] > 1e-13:
                    assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.2)


class TestFieldEvaluators:
    def test_first_order_form_matches_product_form_to_second_order(self):
        k, r, t = np.array([0.8, -0.5, 0.9]), np.array([0.2, -0.15, 0.35]), 0.3
        devs = []
        for a in (1e-2, 5e-3):
            mode = make_mode(k, s=2, a=a)
            # geometrical-optics product form: amplitude(z) * polarization(z) * e^{i phase}
            z = r[2]
            prod = mode_amplitude(mode, z) * polarization_E(mode, z)
            prod = prod * np.exp(1j * mode_phase(mode, t, r))
            first = mode_field_first_order(mode, t, r, include_gauss_constant=False)
            devs.append(np.linalg.norm(prod - first) / np.linalg.norm(first))
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.15)

    def test_gauss_constant_toggle(self):
        mode = make_mode([0.8, -0.5, 0.9], s=2, a=1e-3)
        r, t = np.array([0.2, -0.15, 0.35]), 0.3
        with_c = mode_field_first_order(mode, t, r, include_gauss_constant=True)
        without = mode_field_first_order(mode, t, r, include_gauss_constant=False)
        assert with_c[2] != without[2]
        np.testing.assert_allclose(with_c[:2], without[:2])
