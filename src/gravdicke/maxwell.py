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

from dataclasses import dataclass
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
    "StencilSpec",
    "ResidualReport",
    "TransversalityReport",
    "ScalingStudy",
    "wave_residual",
    "transversality_check",
    "residual_slope_study",
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class StencilSpec:
    """Central-difference steps (h_t in time, h on each spatial axis) and order (2 or 4)."""

    h_t: float
    h: float
    order: int = 4

    def __post_init__(self) -> None:
        if self.order not in (2, 4):
            raise PhysicsDomainError("stencil order must be 2 or 4")
        for name in ("h_t", "h"):
            if not getattr(self, name) > 0.0:
                raise PhysicsDomainError(f"stencil step {name} must be positive")

    @classmethod
    def for_mode(cls, mode: PerturbedMode, rel: float = 0.01, order: int = 4) -> "StencilSpec":
        """Steps at a fixed fraction of the mode's wavelength scale 1/|k|."""
        scale = rel / mode.index.knorm
        return cls(h_t=scale / mode.constants.c, h=scale, order=order)

    def halved(self) -> "StencilSpec":
        return StencilSpec(self.h_t / 2, self.h / 2, self.order)


@dataclass(frozen=True)
class ResidualReport:
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
_OFFSETS = {2: (1, -1), 4: (1, -1, 2, -2)}

# central-difference weights, indexed in the same order as _OFFSETS
_D1_WEIGHTS = {2: (0.5, -0.5), 4: (2.0 / 3.0, -2.0 / 3.0, -1.0 / 12.0, 1.0 / 12.0)}
_D2_WEIGHTS = {2: (1.0, 1.0), 4: (4.0 / 3.0, 4.0 / 3.0, -1.0 / 12.0, -1.0 / 12.0)}
_D2_CENTER = {2: -2.0, 4: -5.0 / 2.0}
_D1_ABS_SUM = {order: sum(map(abs, w)) for order, w in _D1_WEIGHTS.items()}
_D2_ABS_SUM = {order: sum(map(abs, w)) + abs(_D2_CENTER[order]) for order, w in _D2_WEIGHTS.items()}


def _derivatives(field: Callable, t: float, r: np.ndarray, stencil: StencilSpec):
    """First and second derivatives of the vector field along t, x, y, z, and its value."""
    offs = _OFFSETS[stencil.order]
    steps = (stencil.h_t, stencil.h, stencil.h, stencil.h)

    ts = [t]
    rs = [r]
    for axis in range(4):
        for o in offs:
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
    w1 = _D1_WEIGHTS[stencil.order]
    w2 = _D2_WEIGHTS[stencil.order]
    block = len(offs)
    for axis in range(4):
        vals = values[1 + axis * block : 1 + (axis + 1) * block]
        h = steps[axis]
        d1[axis] = sum(w * v for w, v in zip(w1, vals)) / h
        d2[axis] = (sum(w * v for w, v in zip(w2, vals)) + _D2_CENTER[stencil.order] * center) / h**2
    return d1, d2, center


def _raw_residuals(mode: PerturbedMode, field: Callable, t: float, r: np.ndarray,
                   stencil: StencilSpec):
    a = mode.metric.a
    dz = r[2] - mode.metric.z0
    c = mode.constants.c
    d1, d2, center = _derivatives(field, t, r, stencil)
    dtt, dxx, dyy, dzz = d2
    dx1, dy1, dz1 = d1[1], d1[2], d1[3]

    res = np.empty(3, dtype=complex)
    res[0] = ((1.0 - a * dz) * dtt[0] / c**2 - dxx[0] - dyy[0]
              - (1.0 + a * dz) * dzz[0] - a * dz1[0] + a * dx1[2])
    res[1] = ((1.0 - a * dz) * dtt[1] / c**2 - dxx[1] - dyy[1]
              - (1.0 + a * dz) * dzz[1] - a * dz1[1] + a * dy1[2])
    res[2] = (dtt[2] / c**2 - (1.0 + a * dz) * (dxx[2] + dyy[2])
              - (1.0 + 2.0 * a * dz) * dzz[2] - a * dz1[2])
    gauss = dx1[0] + dy1[1] + (1.0 + a * dz) * dz1[2]
    return res, gauss, float(np.linalg.norm(center))


def wave_residual(
    mode: PerturbedMode,
    t: float,
    r,
    stencil: StencilSpec | None = None,
    *,
    field: Callable | None = None,
) -> ResidualReport:
    """Residual of the three linearized wave equations at one point.

    Evaluates the field (by default the first-order form with the Gauss-law
    constant) on two stencils (h and h/2) and Richardson-extrapolates, so the
    returned residual is the physics residual and ``discretization_estimate``
    bounds what finite differencing left behind.  A report is flagged
    inconclusive, never silently passed, when that estimate exceeds the wave
    residual, or when a rounding floor exceeds the wave or Gauss residual: the
    phase's rounding error magnified by one central difference at step h,
    eps (1 + |phase|) |f| sum|w| / h^n.  Far from the origin that floor swamps
    the differences.  A residual of exactly zero is inconclusive too: it means
    the field underflowed, as at a huge mode volume.
    """
    r = np.asarray(r, dtype=float).reshape(3)
    if stencil is None:
        stencil = StencilSpec.for_mode(mode)
    if field is None:
        field = lambda ts, rs: mode_field_first_order(mode, ts, rs)  # noqa: E731

    res_h, gauss_h, field_norm = _raw_residuals(mode, field, t, r, stencil)
    res_h2, gauss_h2, _ = _raw_residuals(mode, field, t, r, stencil.halved())

    factor = 2**stencil.order
    res = (factor * res_h2 - res_h) / (factor - 1)
    gauss = (factor * gauss_h2 - gauss_h) / (factor - 1)
    disc = float(np.linalg.norm(res_h2 - res_h)) / (factor - 1)
    gauss_disc = abs(gauss_h2 - gauss_h) / (factor - 1)
    res_norm = float(np.linalg.norm(res))
    # the carrier phase c|k| t - k . r is rounded to eps times the size of its terms
    noise = _EPS * (1.0 + abs(mode.omega * t) + float(np.abs(mode.k) @ np.abs(r))) * field_norm
    h = min(mode.constants.c * stencil.h_t, stencil.h)
    drowned = (noise * _D2_ABS_SUM[stencil.order] / h**2 > res_norm
               or noise * _D1_ABS_SUM[stencil.order] / h > abs(gauss))
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
    a_dz = mode.metric.a * (z - mode.metric.z0)
    gzz_inv = 1.0 / (1.0 - a_dz)
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


@dataclass(frozen=True)
class ScalingStudy:
    """Residual norms of one mode family across a sweep of gravity gradients."""

    wave_norms: tuple[float, ...]
    gauss_norms: tuple[float, ...]
    wave_slope: float
    gauss_slope: float
    reports: tuple[ResidualReport, ...]

    @property
    def conclusive(self) -> bool:
        return not any(rep.inconclusive for rep in self.reports)


def residual_slope_study(
    k,
    s: int,
    constants: PhysicalConstants,
    z0: float,
    volume: float,
    a_values: Sequence[float],
    t: float,
    r,
    *,
    rel_step: float = 0.01,
    order: int = 4,
    include_gauss_constant: bool = True,
) -> ScalingStudy:
    """Sweep the gravity gradient and fit the wave/Gauss residual scaling slopes.

    With all first-order terms in place both slopes sit at 2; ablating the
    Gauss-law constant pulls the Gauss slope down to ~1.
    """
    r = np.asarray(r, dtype=float).reshape(3)
    wave_norms = []
    gauss_norms = []
    reports = []
    for a in a_values:
        mode = PerturbedMode.build(
            ModeIndex(k, s), WeakFieldMetric(a=a, z0=z0), constants, volume
        )
        stencil = StencilSpec.for_mode(mode, rel=rel_step, order=order)
        field = lambda ts, rs, m=mode: mode_field_first_order(  # noqa: E731
            m, ts, rs, include_gauss_constant=include_gauss_constant,
        )
        rep = wave_residual(mode, t, r, stencil, field=field)
        reports.append(rep)
        wave_norms.append(rep.residual_norm)
        gauss_norms.append(abs(rep.gauss_residual))

    def slope(norms: list[float]) -> float:
        # a zero norm has no logarithm; its report is inconclusive, so the slope is NaN
        return fit_loglog_slope(a_values, norms) if all(norms) else np.nan

    return ScalingStudy(
        wave_norms=tuple(wave_norms),
        gauss_norms=tuple(gauss_norms),
        wave_slope=slope(wave_norms),
        gauss_slope=slope(gauss_norms),
        reports=tuple(reports),
    )
