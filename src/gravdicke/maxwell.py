"""Finite-difference verification of the perturbed eigenmodes.

The constructed modes are closed forms; this module checks them against the
linearized field equations without reusing any of the construction algebra:
every derivative is taken numerically by central differences, and every
report carries a step-halving Richardson estimate of the discretization
error so that truncation is never mistaken for physics.

Checks provided:

* the three coupled second-order wave equations (per-component residual),
* the divergence (Gauss-law) constraint,
* transversality of the E/H polarizations against the local wavevector,
* scaling studies fitting the residual's log-log slope against the gravity
  gradient a (a correct first-order mode leaves an O(a^2) residual).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import PhysicsDomainError
from .metric import PhysicalConstants, WeakFieldMetric
from .modes import (
    ModeIndex,
    PerturbedMode,
    local_wavevector,
    mode_field_first_order,
    polarization_E,
    polarization_H,
)

__all__ = [
    "ResidualReport",
    "TransversalityReport",
    "ScalingStudy",
    "wave_residual",
    "transversality_check",
    "residual_slope_study",
    "fit_loglog_slope",
]


class ResidualReport(NamedTuple):
    """Richardson-extrapolated residuals of one mode at one spacetime point."""

    residual_vector: np.ndarray      # (3,) complex, per wave equation
    gauss_residual: complex
    discretization_estimate: float   # leftover FD error bound on |residual_vector|
    gauss_discretization: float
    inconclusive: bool               # True when FD or rounding error exceeds the residual

    @property
    def residual_norm(self) -> float:
        return float(np.linalg.norm(self.residual_vector))


class TransversalityReport(NamedTuple):
    """Magnitudes of the three polarization/wavevector contractions."""

    p_dot_f: float
    k_dot_f: float
    p_dot_k: float


_EPS = np.finfo(float).eps
# the fourth-order central-difference stencil: its offsets in steps, and the first-
# and second-derivative weights in the same order
_OFFSETS = (1, -1, 2, -2)
_D1_WEIGHTS = (2.0 / 3.0, -2.0 / 3.0, -1.0 / 12.0, 1.0 / 12.0)
_D2_WEIGHTS = (4.0 / 3.0, 4.0 / 3.0, -1.0 / 12.0, -1.0 / 12.0)
_D2_CENTER = -5.0 / 2.0
_D1_ABS_SUM = sum(map(abs, _D1_WEIGHTS))
_D2_ABS_SUM = sum(map(abs, _D2_WEIGHTS)) + abs(_D2_CENTER)
# the spatial step in units of 1 / |k|.  At 1e-7 the h/2 stencil's rounding floor, eps x
# its weight sum (16/3) over (step / 2)^2, is half the whole second derivative |k|^2 |f|,
# and the O(a^2) residual the slope gate needs far less.  At 1 the step spans a radian
# of the carrier phase: 1 and 2 read as inconclusive, but 5 and 10 alias the wave and
# fit a slope of about 0
_REL_STEP = 0.01


def _derivatives(field: Callable, t: float, r: np.ndarray, steps: tuple):
    """First and second derivatives of the vector field along t, x, y, z, and its value."""
    ts = [t]
    rs = [r]
    for axis in range(4):
        for o in _OFFSETS:
            if axis == 0:
                ts.append(t + o * steps[0])
                rs.append(r)
            else:
                shifted = r.copy()
                shifted[axis - 1] += o * steps[axis]
                ts.append(t)
                rs.append(shifted)
    values = field(np.array(ts), np.array(rs))  # (n_pts, 3) complex

    center = values[0]
    d1 = np.empty((4, 3), dtype=complex)
    d2 = np.empty((4, 3), dtype=complex)
    block = len(_OFFSETS)
    for axis in range(4):
        vals = values[1 + axis * block : 1 + (axis + 1) * block]
        h = steps[axis]
        d1[axis] = sum(w * v for w, v in zip(_D1_WEIGHTS, vals)) / h
        d2[axis] = (sum(w * v for w, v in zip(_D2_WEIGHTS, vals)) + _D2_CENTER * center) / h**2
    return d1, d2, center


def _raw_residuals(mode: PerturbedMode, field: Callable, t: float, r: np.ndarray, h: float):
    a = mode.metric.a
    z = r[2]
    c = mode.constants.c
    # time step h / c: the same fraction of a period as h is of a wavelength
    d1, d2, center = _derivatives(field, t, r, (h / c, h, h, h))
    dtt, dxx, dyy, dzz = d2
    dx1, dy1, dz1 = d1[1], d1[2], d1[3]

    res = np.empty(3, dtype=complex)
    res[0] = ((1.0 - a * z) * dtt[0] / c**2 - dxx[0] - dyy[0]
              - (1.0 + a * z) * dzz[0] - a * dz1[0] + a * dx1[2])
    res[1] = ((1.0 - a * z) * dtt[1] / c**2 - dxx[1] - dyy[1]
              - (1.0 + a * z) * dzz[1] - a * dz1[1] + a * dy1[2])
    res[2] = (dtt[2] / c**2 - (1.0 + a * z) * (dxx[2] + dyy[2])
              - (1.0 + 2.0 * a * z) * dzz[2] - a * dz1[2])
    gauss = dx1[0] + dy1[1] + (1.0 + a * z) * dz1[2]
    return res, gauss, float(np.linalg.norm(center))


def wave_residual(
    mode: PerturbedMode,
    t: float,
    r,
    *,
    field: Callable | None = None,
) -> ResidualReport:
    """Residual of the three linearized wave equations at one point.

    Fourth-order central differences take the spatial step h = 0.01 / |k|
    (``_REL_STEP``), a fixed fraction of the mode's wavelength scale, and
    the time step h / c.  The field (by default the first-order form with the
    Gauss-law constant; ``field`` substitutes another) is differenced at h and
    at h/2 and Richardson-extrapolated, so the returned residual is the physics
    residual and ``discretization_estimate`` bounds what finite differencing
    left behind.  A report is flagged inconclusive, never silently passed, when
    that estimate exceeds the wave residual, or when a rounding floor exceeds
    the wave or Gauss residual.  The floor is the phase's rounding error
    eps (1 + |phase|) |f| as the extrapolated residual carries it: through the
    h/2 stencil, sum|w| / (h/2)^n, at the Richardson weight 16 / 15, once
    for each differenced axis (four second derivatives in a wave equation,
    three first derivatives in Gauss's law).
    Far from the origin that floor swamps the differences.  A residual of
    exactly zero is inconclusive too: it means the field underflowed, as at a
    huge mode volume.
    """
    r = np.asarray(r, dtype=float).reshape(3)
    if field is None:
        field = lambda ts, rs: mode_field_first_order(mode, ts, rs)  # noqa: E731
    h = _REL_STEP / mode.index.knorm

    res_h, gauss_h, field_norm = _raw_residuals(mode, field, t, r, h)
    res_h2, gauss_h2, _ = _raw_residuals(mode, field, t, r, h / 2)

    factor = 16  # the stencil's error at h/2 is 2^-4 of its error at h
    res = (factor * res_h2 - res_h) / (factor - 1)
    gauss = (factor * gauss_h2 - gauss_h) / (factor - 1)
    disc = float(np.linalg.norm(res_h2 - res_h)) / (factor - 1)
    gauss_disc = abs(gauss_h2 - gauss_h) / (factor - 1)
    res_norm = float(np.linalg.norm(res))
    # the carrier phase c|k| t - k . r is rounded to eps times the size of its terms
    noise = _EPS * (1.0 + abs(mode.omega * t) + float(np.abs(mode.k) @ np.abs(r))) * field_norm
    noise *= factor / (factor - 1)
    drowned = (4 * noise * _D2_ABS_SUM / (h / 2) ** 2 > res_norm
               or 3 * noise * _D1_ABS_SUM / (h / 2) > abs(gauss))
    return ResidualReport(
        residual_vector=res,
        gauss_residual=complex(gauss),
        discretization_estimate=disc,
        gauss_discretization=float(gauss_disc),
        inconclusive=bool(disc > res_norm or drowned or res_norm == 0.0 or gauss == 0.0),
    )


def transversality_check(mode: PerturbedMode, z: float) -> TransversalityReport:
    """Contractions |p.f|, |ktilde.f|, |p.ktilde| at height z.

    p is contravariant and f, ktilde covariant, so p.f and p.ktilde are plain
    component sums; ktilde.f needs the inverse spatial metric on the z index
    (the Euclidean contraction would be only O(a), the proper one is O(a^2)).
    """
    f = polarization_E(mode, z)
    p = polarization_H(mode, z)
    kt = local_wavevector(mode, z)[1:]
    gzz_inv = 1.0 / (1.0 - mode.metric.a * z)
    p_dot_f = abs(np.dot(p, f))
    k_dot_f = abs(kt[0] * f[0] + kt[1] * f[1] + gzz_inv * kt[2] * f[2])
    p_dot_k = abs(np.dot(p, kt))
    return TransversalityReport(float(p_dot_f), float(k_dot_f), float(p_dot_k))


def fit_loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log10(y) against log10(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise PhysicsDomainError("log-log slope fit requires positive data")
    return float(np.polyfit(np.log10(x), np.log10(y), 1)[0])


class ScalingStudy(NamedTuple):
    """One mode family's residual reports across a sweep of gravity gradients.

    ``wave_slope`` and ``gauss_slope`` are the log-log slopes of the reports'
    ``residual_norm`` and ``abs(gauss_residual)`` against a.
    """

    wave_slope: float
    gauss_slope: float
    reports: tuple[ResidualReport, ...]


def residual_slope_study(
    k,
    s: int,
    constants: PhysicalConstants,
    t: float,
    r,
    a_values: Sequence[float],
    *,
    volume: float,
    include_gauss_constant: bool = True,
) -> ScalingStudy:
    """Sweep the gravity gradient over ``a_values`` and fit the wave/Gauss residual
    scaling slopes of mode (k, s), of quantization volume ``volume``, at (t, r).

    With all first-order terms in place both slopes sit at 2; ablating the
    Gauss-law constant pulls the Gauss slope down to ~1.  Every report takes
    :func:`wave_residual`'s one stencil.
    """
    r = np.asarray(r, dtype=float).reshape(3)
    reports = []
    for a in a_values:
        mode = PerturbedMode.build(ModeIndex(k, s), WeakFieldMetric(a=a), constants, volume)
        field = lambda ts, rs, m=mode: mode_field_first_order(  # noqa: E731
            m, ts, rs, include_gauss_constant=include_gauss_constant,
        )
        reports.append(wave_residual(mode, t, r, field=field))

    def slope(norms: list[float]) -> float:
        # a zero norm has no logarithm; its report is inconclusive, so the slope is NaN
        return fit_loglog_slope(a_values, norms) if all(norms) else np.nan

    return ScalingStudy(
        wave_slope=slope([rep.residual_norm for rep in reports]),
        gauss_slope=slope([abs(rep.gauss_residual) for rep in reports]),
        reports=tuple(reports),
    )
