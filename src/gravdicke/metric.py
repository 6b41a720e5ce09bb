"""Weak-field background: constants, the linearized metric and its linearization guard.

The background is a static gravity gradient along z, written with a single
parameter ``a = 2 g / c^2`` so that clock rates and mode frequencies scale as
``x -> x * (1 + a * dz / 2)`` between heights.  Only height differences
enter, so the package has no reference height: the metric is Minkowskian at
z = 0 and every height is taken above that point.  All operations are pure
functions of value inputs and are safe for concurrent use.

Two unit regimes run through the same code paths: the SI speed of light (the
default) and an order-unity "scaled" regime with c = 1, in which the
Earth-like ``a ~ 2e-16 1/m`` is replaced by something whose square is
resolvable in double precision.  c is the only constant: the field's
normalisation takes ħ = ε0 = 1 in either regime.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import LinearizationError, PhysicsDomainError

__all__ = [
    "KZ_GUARD",
    "CheckedRecord",
    "PhysicalConstants",
    "WeakFieldMetric",
    "surface_param_a",
    "check_linearization",
]

# Grazing guard: |k_z| must exceed this fraction of |k|.  Every first-order
# correction carries a 1/k_z pole, so modes and emission directions closer to
# horizontal are rejected rather than extrapolated.
KZ_GUARD = 1e-6


class CheckedRecord:
    """Base of a named-tuple record whose fields are exactly its constructor's arguments:
    ``_make``, and so ``_replace``, build the record through the constructor's checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class PhysicalConstants(CheckedRecord, namedtuple("PhysicalConstants", "c")):
    """The speed of light, the one constant the physics reads: SI by default.

    The field's overall scale is a unit choice (ħ = ε0 = 1 at unit volume,
    see ``PerturbedMode.flat_amplitude``), since no check depends on it.
    """

    __slots__ = ()

    def __new__(cls, c: float = 299_792_458.0) -> "PhysicalConstants":  # m/s
        if not (math.isfinite(c) and c > 0.0):
            raise PhysicsDomainError(f"the speed of light c must be finite and > 0, got {c!r}")
        return super().__new__(cls, c)

    @classmethod
    def scaled(cls) -> "PhysicalConstants":
        """Order-unity regime (c = 1) used by numerical checks."""
        return cls(c=1.0)


class WeakFieldMetric(CheckedRecord, namedtuple("WeakFieldMetric", "a")):
    """Linearized static metric g_00 = 1 + a z, g_zz = -(1 - a z).

    ``a`` is the gravity-gradient parameter (1/m).  The metric is exactly
    Minkowskian at z = 0: it depends on height only through the height above
    that point, so every z the package takes is measured from there.
    """

    __slots__ = ()

    def __new__(cls, a: float = 0.0) -> "WeakFieldMetric":
        if not (math.isfinite(a) and a >= 0.0):
            raise PhysicsDomainError(
                f"gravity-gradient parameter a must be finite and >= 0, got {a!r}"
            )
        return super().__new__(cls, a)


def check_linearization(a: float, dz) -> None:
    """Raise unless |a * dz| < 1 everywhere; silent extrapolation is never allowed.

    A rounded |a * dz| grows with |dz|, so the extremes of dz decide: only
    a * min(dz) and a * max(dz) are formed.  A NaN in dz is its min and max.
    """
    dz = np.asarray(dz, dtype=float)
    if dz.size == 0:
        return
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow or a NaN fails the test
        inside = abs(a * dz.min()) < 1.0 and abs(a * dz.max()) < 1.0
    if not inside:
        raise LinearizationError(
            f"|a * dz| >= 1 leaves the linearized-metric domain (a={a!r})"
        )


def surface_param_a(g: float, constants: PhysicalConstants) -> float:
    """Gravity-gradient parameter 2 g / c^2 for free-fall acceleration g.

    g / c^2 is formed first, so that 2 g cannot overflow where a is finite; where
    2 g does not overflow, the bits are those of 2 g / c^2.
    """
    if g < 0.0:
        raise PhysicsDomainError("free-fall acceleration g must be >= 0")
    return 2.0 * (g / constants.c**2)

