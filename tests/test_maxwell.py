import numpy as np
import pytest

from gravdicke.errors import PhysicsDomainError
from gravdicke.maxwell import (
    ScalingStudy,
    StencilSpec,
    fit_loglog_slope,
    residual_slope_study,
    transversality_check,
    wave_residual,
)
from gravdicke.metric import PhysicalConstants, WeakFieldMetric
from gravdicke.modes import ModeIndex, PerturbedMode, mode_field_first_order

CST = PhysicalConstants.scaled()
K_GENERIC = np.array([0.8, -0.5, 0.9])
POINT_T = 0.3
POINT_R = np.array([0.2, -0.15, 0.35])
A_SWEEP = [1e-4, 1e-3, 1e-2]


def make_mode(k=K_GENERIC, s=2, a=1e-3, z0=0.0):
    return PerturbedMode.build(ModeIndex(np.asarray(k, float), s), WeakFieldMetric(a=a, z0=z0), CST, 1.0)


class TestStencil:
    def test_for_mode_scaling(self):
        mode = make_mode()
        st = StencilSpec.for_mode(mode, rel=0.02)
        assert st.h_x == pytest.approx(0.02 / mode.index.knorm)
        assert st.h_t == pytest.approx(st.h_x / CST.c)

    def test_validation(self):
        with pytest.raises(PhysicsDomainError):
            StencilSpec(1e-2, 1e-2, 1e-2, 1e-2, order=3)
        with pytest.raises(PhysicsDomainError):
            StencilSpec(0.0, 1e-2, 1e-2, 1e-2)


class TestWaveResidual:
    def test_flat_space_exact_solution(self):
        mode = make_mode(a=0.0)
        rep = wave_residual(mode, POINT_T, POINT_R)
        # plane wave solves the flat equations: only FD noise remains
        assert rep.residual_norm < 1e-10 * mode.index.knorm**2 * mode.flat_amplitude
        assert abs(rep.gauss_residual) < 1e-10

    def test_halving_a_quarters_residual(self):
        norms = []
        for a in (1e-2, 5e-3):
            rep = wave_residual(make_mode(a=a), POINT_T, POINT_R)
            assert not rep.inconclusive
            norms.append(rep.residual_norm)
        assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.1)

    def test_residual_at_reference_height_still_second_order(self):
        # corrections vanish at z0 but their derivatives do not
        study = residual_slope_study(
            K_GENERIC, 2, CST, 0.0, 1.0, A_SWEEP, POINT_T, np.array([0.2, -0.15, 0.0])
        )
        assert study.wave_slope == pytest.approx(2.0, abs=0.1)
        fitted_c = max(n / a**2 for n, a in zip(study.wave_norms, A_SWEEP))
        assert all(n <= 1.01 * fitted_c * a**2 for n, a in zip(study.wave_norms, A_SWEEP))

    def test_coarse_stencil_flagged_inconclusive(self):
        mode = make_mode(a=1e-4)
        coarse = StencilSpec(h_t=0.9, h_x=0.9, h_y=0.9, h_z=0.9, order=2)
        rep = wave_residual(mode, POINT_T, POINT_R, coarse)
        assert rep.inconclusive

    def test_far_point_drowned_in_rounding_is_inconclusive(self):
        # at t = 1e6 the rounded carrier phase swamps the O(a^2) residual at a = 1e-4
        assert not wave_residual(make_mode(a=1e-4), POINT_T, POINT_R).inconclusive
        assert wave_residual(make_mode(a=1e-4), 1e6, POINT_R).inconclusive

    def test_report_carries_point(self):
        rep = wave_residual(make_mode(), POINT_T, POINT_R)
        assert rep.t == POINT_T
        np.testing.assert_array_equal(rep.r, POINT_R)


class TestGaussResidual:
    def test_flat_space(self):
        assert abs(wave_residual(make_mode(a=0.0), POINT_T, POINT_R).gauss_residual) < 1e-10

    def test_divergence_constant_ablation_degrades_to_first_order(self):
        # with the constant: O(a^2); without: O(a).  Regression proving it matters.
        with_c = residual_slope_study(
            K_GENERIC, 2, CST, 0.0, 1.0, A_SWEEP, POINT_T, POINT_R
        )
        without = residual_slope_study(
            K_GENERIC, 2, CST, 0.0, 1.0, A_SWEEP, POINT_T, POINT_R,
            include_gauss_constant=False,
        )
        assert with_c.gauss_slope == pytest.approx(2.0, abs=0.1)
        assert without.gauss_slope == pytest.approx(1.0, abs=0.1)
        assert without.gauss_norms[0] > 50.0 * with_c.gauss_norms[0]

    def test_component_ablation_degrades_wave_slope(self):
        # one component without its O(a) correction: that component taken
        # from the same mode at a = 0
        flat = make_mode(a=0.0)
        for axis in range(3):
            norms = []
            for a in A_SWEEP:
                mode = make_mode(a=a)

                def ablated(ts, rs, mode=mode):
                    field = mode_field_first_order(mode, ts, rs)
                    field[:, axis] = mode_field_first_order(flat, ts, rs)[:, axis]
                    return field

                norms.append(wave_residual(mode, POINT_T, POINT_R, field=ablated).residual_norm)
            assert fit_loglog_slope(A_SWEEP, norms) == pytest.approx(1.0, abs=0.1)

    def test_field_override(self):
        mode = make_mode(a=1e-3)
        bare = lambda ts, rs: mode_field_first_order(  # noqa: E731
            mode, ts, rs, include_gauss_constant=False
        )
        assert abs(wave_residual(mode, POINT_T, POINT_R, field=bare).gauss_residual) > 10.0 * abs(
            wave_residual(mode, POINT_T, POINT_R).gauss_residual
        )


class TestTransversality:
    def test_flat_space_machine_zero(self):
        tr = transversality_check(make_mode(a=0.0), 0.45)
        assert max(tr) < 1e-14

    def test_reference_height_machine_zero(self):
        tr = transversality_check(make_mode(a=1e-2), 0.0)
        assert max(tr) < 1e-14

    def test_second_order_scaling(self, rng):
        floor = 1e-12
        for _ in range(10):
            k = rng.normal(size=3)
            while abs(k[2]) < 0.1 * np.linalg.norm(k):
                k = rng.normal(size=3)
            z = rng.uniform(-0.5, 0.5)
            hi = transversality_check(make_mode(k, a=1e-2), z)
            lo = transversality_check(make_mode(k, a=5e-3), z)
            fitted_c = max(v / 1e-4 for v in hi)
            for vh, vl in zip(hi, lo):
                assert vh <= max(fitted_c * 1e-4, floor)
                assert vl <= max(fitted_c * 0.25e-4 * 1.2, floor)
                if vh > floor:
                    # genuine O(a^2) contraction: quarters under halving
                    assert vh / vl == pytest.approx(4.0, rel=0.2)


class TestSlopeStudy:
    def test_generic_mode_slopes(self):
        study = residual_slope_study(
            K_GENERIC, 2, CST, 0.0, 1.0, A_SWEEP, POINT_T, POINT_R
        )
        assert isinstance(study, ScalingStudy)
        assert study.conclusive
        assert study.wave_slope == pytest.approx(2.0, abs=0.05)
        assert study.gauss_slope == pytest.approx(2.0, abs=0.05)

    def test_underflowed_residuals_are_inconclusive(self):
        # at a mode volume of 1e308 the field is so small that every residual is zero:
        # the study flags the reports instead of handing log(0) to the slope fit
        study = residual_slope_study(
            K_GENERIC, 2, CST, 0.0, 1e308, A_SWEEP, POINT_T, POINT_R
        )
        assert study.wave_norms == (0.0, 0.0, 0.0)
        assert all(rep.inconclusive for rep in study.reports)
        assert not study.conclusive
        assert np.isnan(study.wave_slope) and np.isnan(study.gauss_slope)

    def test_fit_loglog_slope_requires_positive(self):
        with pytest.raises(PhysicsDomainError):
            fit_loglog_slope([1.0, 2.0], [0.0, 1.0])
        assert fit_loglog_slope([1.0, 10.0], [2.0, 200.0]) == pytest.approx(2.0)
