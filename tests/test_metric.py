import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gravdicke.errors import LinearizationError, PhysicsDomainError
from gravdicke.metric import (
    PhysicalConstants,
    WeakFieldMetric,
    check_linearization,
    surface_param_a,
)


class TestConstants:
    def test_si_defaults(self):
        assert PhysicalConstants() == (299_792_458.0,)

    def test_scaled_regime(self):
        assert PhysicalConstants.scaled() == (1.0,)

    @pytest.mark.parametrize("field", PhysicalConstants._fields)
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

    def test_finite_where_two_g_overflows(self):
        # 2 g overflows above about 9e307; in SI, 2 (g / c^2) is about 2.2e291
        cst = PhysicalConstants()
        a = surface_param_a(1e308, cst)
        assert math.isfinite(a)
        assert a / 1e308 == pytest.approx(2.0 / cst.c**2, rel=1e-15)

    @pytest.mark.parametrize("cst", [PhysicalConstants(), PhysicalConstants.scaled()],
                             ids=["si", "scaled"])
    def test_same_bits_as_two_g_over_c_squared(self, cst):
        # scaling by 2 is exact for normal results, so the order of the operations moves no bit
        for g in (9.81, 1e-290, 8e307):
            assert surface_param_a(g, cst) == 2.0 * g / cst.c**2


class TestVolumeAndMeasure:
    # The proper-volume measure sqrt(1 - a dz) is defined only while |a dz| < 1.
    def test_linearization_guard(self):
        check_linearization(0.5, np.array([-1.9, 0.0, 1.9]))
        check_linearization(0.0, 1e300)
        for dz in (2.0, -2.0, np.array([0.1, 3.0])):
            with pytest.raises(LinearizationError):
                check_linearization(0.5, dz)

    def test_overflow_and_nan_fail_the_guard_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, dz in ((1e300, 1e300), (0.0, float("inf")), (0.5, float("nan"))):
                with pytest.raises(LinearizationError):
                    check_linearization(a, dz)


def _elementwise_verdict(a, dz) -> bool:
    """The guard as it was written before it read only min(dz) and max(dz)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.all(np.abs(a * np.asarray(dz, dtype=float)) < 1.0))


EXTREMES = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 5e-324, 0.0, -0.0, 1.0,
            -1.0]
VALUES = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=True, allow_infinity=True))


class TestGuardFromExtremes:
    @given(a=st.one_of(st.sampled_from([0.0, 1e-300, 0.5, 1.0, 1e308, float("nan"),
                                        float("inf")]), st.floats(min_value=0.0)),
           dz=st.one_of(VALUES, st.lists(VALUES, max_size=12)))
    def test_same_verdict_as_elementwise(self, a, dz):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                check_linearization(a, dz)
                passed = True
            except LinearizationError:
                passed = False
        assert passed == _elementwise_verdict(a, dz)

    def test_empty_passes_and_extremes_fail(self):
        check_linearization(1e308, np.array([]))
        check_linearization(float("nan"), [])
        for dz in ([0.0, float("nan")], [float("-inf"), 0.0], [1e308, 1.0], [-1e308]):
            with pytest.raises(LinearizationError):
                check_linearization(1e-3, dz)


def test_metric_validation():
    with pytest.raises(PhysicsDomainError):
        WeakFieldMetric(a=-1e-3)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(PhysicsDomainError):
            WeakFieldMetric(a=bad)
