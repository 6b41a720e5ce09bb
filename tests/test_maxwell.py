import re

import numpy as np
import pytest

from gravdicke import maxwell
from gravdicke.errors import PhysicsDomainError
from gravdicke.maxwell import (
    ScalingStudy,
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


def make_mode(k=K_GENERIC, s=2, a=1e-3):
    return PerturbedMode(ModeIndex(np.asarray(k, float), s), WeakFieldMetric(a=a), CST)


class TestStencil:
    def test_time_step_is_space_step_over_c(self):
        # in SI units c is 3e8, so a time step of h in place of h / c shows; at c = 1
        # (every other test here) the two are the same
        k = 1e7 * np.array([0.8, -0.5, 0.9])
        mode = PerturbedMode(ModeIndex(k, 2), WeakFieldMetric(a=0.0), PhysicalConstants())
        rep = wave_residual(mode, 1e-16, 1e-8 * np.array([2.0, -1.5, 3.5]))
        assert rep.residual_norm < 1e-9 * mode.index.knorm**2 * mode.flat_amplitude


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
        # corrections vanish at height 0 but their derivatives do not
        study = residual_slope_study(
            K_GENERIC, 2, CST, POINT_T, np.array([0.2, -0.15, 0.0]), A_SWEEP
        )
        assert study.wave_slope == pytest.approx(2.0, abs=0.1)
        norms = [rep.residual_norm for rep in study.reports]
        fitted_c = max(n / a**2 for n, a in zip(norms, A_SWEEP))
        assert all(n <= 1.01 * fitted_c * a**2 for n, a in zip(norms, A_SWEEP))

    def test_coarse_stencil_flagged_inconclusive(self, monkeypatch):
        mode = make_mode(a=1e-4)
        # h = 0.9, as the step is a fraction of 1 / |k|
        monkeypatch.setattr(maxwell, "_REL_STEP", 0.9 * mode.index.knorm)
        rep = wave_residual(mode, POINT_T, POINT_R)
        assert rep.inconclusive

    def test_far_point_drowned_in_rounding_is_inconclusive(self):
        # at t = 1e6 the rounded carrier phase swamps the O(a^2) residual at a = 1e-4
        assert not wave_residual(make_mode(a=1e-4), POINT_T, POINT_R).inconclusive
        assert wave_residual(make_mode(a=1e-4), 1e6, POINT_R).inconclusive

    def test_rounding_floor_covers_the_extrapolated_residual(self):
        # at t = 1e3 the a = 1e-4 residual reads 2.07e-8 against the 8.60e-9 it reads at
        # t = 0.3.  That is rounding: one difference's noise at step h is only 0.79 of it,
        # but the h/2 stencil's, Richardson-weighted over four axes, is 13 times it
        mode = make_mode(k=(0.4, -0.7, 0.9), a=1e-4)
        near = wave_residual(mode, POINT_T, POINT_R)
        far = wave_residual(mode, 1e3, POINT_R)
        assert not near.inconclusive
        assert far.residual_norm > 2.0 * near.residual_norm
        assert far.inconclusive

    def test_non_finite_residual_is_inconclusive(self):
        # every comparison with a NaN is False: without its own test a NaN residual and a
        # NaN estimate would read as conclusive
        def nan_field(ts, rs):
            return np.full((len(ts), 3), complex(np.nan, np.nan))

        rep = wave_residual(make_mode(a=1e-4), POINT_T, POINT_R, field=nan_field)
        assert np.isnan(rep.residual_norm) and np.isnan(rep.discretization_estimate)
        assert rep.inconclusive

    @pytest.mark.parametrize("c, knorm", [
        (5e-324, 1e4),   # the time step h / c overflows: the derivatives would be NaN
        (5e-324, 1e16),  # h / c is finite and its square overflows
        (1e300, 1.0),    # c^2 overflows
    ], ids=["infinite-step", "unsquarable-step", "unsquarable-c"])
    def test_unsquarable_time_stencil_is_a_domain_error(self, c, knorm):
        # each once ended in a NaN report judged conclusive or a bare OverflowError
        k = knorm * np.array([0.3, -0.4, 0.866])
        mode = PerturbedMode(ModeIndex(k, 2), WeakFieldMetric(a=1e-4), PhysicalConstants(c=c))
        with pytest.raises(PhysicsDomainError, match=re.escape(f"c = {c!r} and |k| = ")):
            wave_residual(mode, POINT_T, POINT_R)


class TestGaussResidual:
    def test_flat_space(self):
        assert abs(wave_residual(make_mode(a=0.0), POINT_T, POINT_R).gauss_residual) < 1e-10

    def test_divergence_constant_ablation_degrades_to_first_order(self):
        # with the constant: O(a^2); without: O(a).  Regression proving it matters.
        with_c = residual_slope_study(
            K_GENERIC, 2, CST, POINT_T, POINT_R, A_SWEEP
        )
        without = residual_slope_study(
            K_GENERIC, 2, CST, POINT_T, POINT_R, A_SWEEP,
            include_gauss_constant=False,
        )
        assert with_c.gauss_slope == pytest.approx(2.0, abs=0.1)
        assert without.gauss_slope == pytest.approx(1.0, abs=0.1)
        assert (abs(without.reports[0].gauss_residual)
                > 50.0 * abs(with_c.reports[0].gauss_residual))

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
            K_GENERIC, 2, CST, POINT_T, POINT_R, A_SWEEP
        )
        assert isinstance(study, ScalingStudy)
        assert not any(rep.inconclusive for rep in study.reports)
        assert study.wave_slope == pytest.approx(2.0, abs=0.05)
        assert study.gauss_slope == pytest.approx(2.0, abs=0.05)

    def test_zero_residuals_are_inconclusive(self):
        # an axial mode's field is transverse and varies along z alone, so its Gauss
        # residual is exactly zero: the study flags the reports instead of handing log(0)
        # to the slope fit, and its wave residual still scales as a^2
        axial = np.array([0.0, 0.0, 1.0])
        study = residual_slope_study(axial, 2, CST, POINT_T, POINT_R, A_SWEEP)
        assert [rep.gauss_residual for rep in study.reports] == [0j, 0j, 0j]
        assert all(rep.inconclusive for rep in study.reports)
        assert np.isnan(study.gauss_slope)
        assert study.wave_slope == pytest.approx(2.0, abs=0.05)

    def test_fit_loglog_slope_requires_positive(self):
        with pytest.raises(PhysicsDomainError):
            fit_loglog_slope([1.0, 2.0], [0.0, 1.0])
        assert fit_loglog_slope([1.0, 10.0], [2.0, 200.0]) == pytest.approx(2.0)
