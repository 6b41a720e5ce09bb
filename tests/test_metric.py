import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gravdicke.errors import LinearizationError, PhysicsDomainError
from gravdicke.metric import (
    PhysicalConstants,
    WeakFieldMetric,
    momentum_measure_factor,
    proper_time_shift,
    quantization_volume,
    redshift,
    surface_param_a,
)


class TestConstants:
    def test_si_defaults(self):
        c = PhysicalConstants()
        assert c.c == 299_792_458.0
        assert c.hbar == pytest.approx(1.054571817e-34)
        assert c.eps0 == pytest.approx(8.8541878128e-12)

    def test_scaled_regime(self):
        c = PhysicalConstants.scaled()
        assert (c.c, c.hbar, c.eps0) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["c", "hbar", "eps0"])
    def test_positivity_enforced(self, field):
        with pytest.raises(PhysicsDomainError):
            PhysicalConstants(**{field: 0.0})


class TestSurfaceParam:
    def test_earth_value(self):
        # order 2e-16 1/m near the Earth surface
        a = surface_param_a(9.81, PhysicalConstants(c=2.998e8))
        assert a == pytest.approx(2.18e-16, rel=0.02)
        assert 1e-16 < a < 3e-16

    def test_zero_gravity(self):
        assert surface_param_a(0.0, PhysicalConstants.scaled()) == 0.0

    def test_identity_scaling(self):
        cst = PhysicalConstants.scaled()
        assert surface_param_a(cst.c**2 / 2.0, cst) == pytest.approx(1.0)

    def test_negative_g_rejected(self):
        with pytest.raises(PhysicsDomainError):
            surface_param_a(-1.0, PhysicalConstants.scaled())


class TestRedshift:
    def test_reference_height(self):
        assert redshift(1.0e15, 0.0, 2e-16) == 1.0e15

    def test_flat_space(self):
        assert redshift(123.456, 9.9e4, 0.0) == 123.456

    def test_small_shift_no_cancellation(self):
        # a z / 2 = 1e-12; shift of 1e15 is exactly 1e3 in extended precision
        x = redshift(1e15, 1e4, 2e-16)
        assert x == pytest.approx(1.000000000001e15, rel=1e-15)
        assert x - 1e15 == pytest.approx(1000.0, rel=1e-3)

    @given(
        x=st.floats(1e-3, 1e6),
        z=st.floats(-100.0, 100.0),
        a=st.floats(0.0, 1e-3),
    )
    def test_linear_in_x_and_exact_at_origin(self, x, z, a):
        assert redshift(3.0 * x, z, a) == pytest.approx(3.0 * redshift(x, z, a), rel=1e-12)
        assert redshift(x, 0.0, a) == x


class TestVolumeAndMeasure:
    def test_flat_volume(self):
        m = WeakFieldMetric(a=0.0, z0=0.0)
        assert quantization_volume(2.0, 17.0, m) == 8.0

    def test_reference_height_volume(self):
        m = WeakFieldMetric(a=1e-3, z0=5.0)
        assert quantization_volume(2.0, 5.0, m) == 8.0

    def test_direct_substitution(self):
        m = WeakFieldMetric(a=0.1, z0=0.0)
        assert quantization_volume(1.0, 1.0, m) == pytest.approx(0.95)

    def test_measure_factor_trivia(self):
        assert momentum_measure_factor(5.0, WeakFieldMetric(a=1e-3, z0=5.0)) == 1.0
        assert momentum_measure_factor(42.0, WeakFieldMetric(a=0.0, z0=0.0)) == 1.0

    @given(a=st.floats(1e-6, 0.05), dz=st.floats(-5.0, 5.0))
    def test_product_deviates_at_second_order_only(self, a, dz):
        m = WeakFieldMetric(a=a, z0=0.0)
        prod = quantization_volume(1.0, dz, m) * momentum_measure_factor(dz, m)
        # (1 - x/2)(1 + x/2) = 1 - x^2/4
        assert abs(prod - 1.0) <= 0.26 * (a * dz) ** 2 + 1e-15

    def test_linearization_guard(self):
        m = WeakFieldMetric(a=0.5, z0=0.0)
        with pytest.raises(LinearizationError):
            quantization_volume(1.0, 3.0, m)
        with pytest.raises(LinearizationError):
            momentum_measure_factor(3.0, m)


class TestProperTimeShift:
    def test_same_height(self):
        assert proper_time_shift(7.0, 3.0, 3.0, 1e-3) == 7.0

    def test_flat(self):
        assert proper_time_shift(7.0, 1.0, 9.0, 0.0) == 7.0

    @given(a=st.floats(0.0, 1e-2), z1=st.floats(-5, 5), z2=st.floats(-5, 5))
    def test_round_trip_second_order(self, a, z1, z2):
        t = 1.0
        back = proper_time_shift(proper_time_shift(t, z1, z2, a), z2, z1, a)
        assert abs(back - t) <= 0.26 * (a * (z1 - z2)) ** 2 + 1e-15


def test_metric_validation():
    with pytest.raises(PhysicsDomainError):
        WeakFieldMetric(a=-1e-3)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(PhysicsDomainError):
            WeakFieldMetric(a=bad)
        with pytest.raises(PhysicsDomainError):
            WeakFieldMetric(a=0.0, z0=bad)
