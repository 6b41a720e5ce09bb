"""Gravitationally perturbed plane-wave eigenmodes of the electromagnetic field.

Each mode is a flat-space plane wave (wavevector k, one of two transverse
polarizations) corrected to first order in the gravity gradient a:

* amplitude picks up a height-linear factor,
* the phase acquires a term quadratic in height,
* the local wavevector tilts with height,
* the E polarization mixes its transverse components with the vertical one,
* the H polarization follows from the local wavevector by a metric-weighted
  cross product.

Every correction carries a 1/k_z pole, so grazing modes (|k_z| below a small
guard fraction of |k|) are rejected outright rather than extrapolated.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple

import numpy as np

from .errors import PhysicsDomainError
from .metric import (
    KZ_GUARD,
    CheckedRecord,
    PhysicalConstants,
    WeakFieldMetric,
    check_linearization,
)

__all__ = [
    "ModeIndex",
    "PerturbedMode",
    "flat_polarization_basis",
    "mode_amplitude",
    "mode_phase",
    "local_wavevector",
    "gauss_law_constant",
    "polarization_E",
    "polarization_H",
    "mode_field_first_order",
    "dump_mode_vectors",
]

_ZHAT = np.array([0.0, 0.0, 1.0])


def _cross(u, v) -> np.ndarray:
    """u x v for real 3-vectors: np.cross's own products and differences, bit for bit,
    without the shape handling that makes np.cross some 30 us a call."""
    return np.array([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


class ModeIndex(CheckedRecord, namedtuple("ModeIndex", "k s")):
    """Wavevector plus polarization label, with the grazing-mode guard baked in."""

    __slots__ = ()

    def __new__(cls, k, s: int) -> "ModeIndex":
        k = np.array(k, dtype=float).reshape(3)
        if s not in (1, 2):
            raise PhysicsDomainError("polarization label s must be 1 or 2")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(k))
        if not 0.0 < norm < math.inf:  # also rejects NaN, and a norm that under- or overflows
            raise PhysicsDomainError(f"wavevector k = {k.tolist()!r} needs a positive, finite "
                                     f"norm, got |k| = {norm!r}")
        if abs(k[2]) <= KZ_GUARD * norm:
            raise PhysicsDomainError(f"grazing mode rejected: |k_z| <= {KZ_GUARD:g} |k|")
        return super().__new__(cls, k, s)

    @property
    def knorm(self) -> float:
        return float(np.linalg.norm(self.k))


def flat_polarization_basis(k) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal transverse pair for wavevector k.

    Convention: f1 along z x k when that is nondegenerate, else f1 = x;
    f2 = khat x f1.
    """
    k = np.asarray(k, dtype=float).reshape(3)
    norm = np.linalg.norm(k)
    if norm == 0.0:
        raise PhysicsDomainError("zero wavevector has no transverse basis")
    khat = k / norm
    zxk = _cross(_ZHAT, khat)
    cross_norm = np.linalg.norm(zxk)
    if cross_norm < 1e-12:
        f1 = np.array([1.0, 0.0, 0.0])
    else:
        f1 = zxk / cross_norm
    f2 = _cross(khat, f1)
    return f1, f2


class PerturbedMode(namedtuple("PerturbedMode", "index metric constants basis")):
    """A field eigenmode bound to a metric and constants, at unit quantization volume.

    The flat polarization basis is derived from ``index.k``.  The volume is
    fixed at 1: every residual scales as 1/sqrt(V), and its slope in a does not.
    """

    __slots__ = ()

    def __new__(cls, index: ModeIndex, metric: WeakFieldMetric,
                constants: PhysicalConstants) -> "PerturbedMode":
        self = super().__new__(cls, index, metric, constants, flat_polarization_basis(index.k))
        if not math.isfinite(self.flat_amplitude):
            raise PhysicsDomainError(f"field amplitude sqrt(hbar w / 2 eps0) of |k| = "
                                     f"{index.knorm!r} is not finite")
        return self

    @classmethod
    def _make(cls, iterable):
        # and so _replace: a record built from fields would take a basis of its own
        raise PhysicsDomainError("a PerturbedMode derives its basis from index.k: build a "
                                 "changed one with PerturbedMode(index, metric, constants)")

    @property
    def k(self) -> np.ndarray:
        return self.index.k

    @property
    def omega(self) -> float:
        """Flat dispersion c |k|."""
        return self.constants.c * self.index.knorm

    @property
    def f0(self) -> np.ndarray:
        """Flat polarization vector selected by the label s."""
        return self.basis[self.index.s - 1]

    @property
    def flat_amplitude(self) -> float:
        """Single-photon field normalization sqrt(hbar w / 2 eps0) at unit volume."""
        cst = self.constants
        return math.sqrt(cst.hbar * self.omega / (2.0 * cst.eps0))


def _height(mode: PerturbedMode, z) -> float:
    z = float(z)
    check_linearization(mode.metric.a, z)
    return z


def gauss_law_constant(mode: PerturbedMode) -> complex:
    """Constant phase offset -i (kx^2+ky^2)/(4 kz^3) on the vertical E component.

    Fixed by the curved-space divergence constraint; dropping it degrades the
    Gauss-law residual from O(a^2) to O(a).
    """
    kx, ky, kz = mode.k
    return -1j * (kx * kx + ky * ky) / (4.0 * kz**3)


def _first_order_terms(mode: PerturbedMode, z):
    """Per-unit-a corrections at heights z: (common, (mix_x, mix_y), kappa, gauss).

    ``common`` is shared by all three components: its real part is the
    amplitude correction, its imaginary part the quadratic phase.  The mixing
    terms tilt the transverse components toward the vertical one, ``kappa``
    = (kx^2+ky^2+2kz^2) z / (2 kz) tilts the wavevector's vertical component
    (the z-derivative of the quadratic phase), and ``gauss`` is the constant on
    the vertical component.
    """
    kx, ky, kz = mode.k
    ksq_t = kx * kx + ky * ky
    ksq_phase = ksq_t + 2.0 * kz * kz
    common = z * ksq_t / (4.0 * kz * kz) + 1j * z * z * ksq_phase / (4.0 * kz)
    tilt = z * mode.f0[2] / (2.0 * kz)
    kappa = z * ksq_phase / (2.0 * kz)
    return common, (tilt * kx, tilt * ky), kappa, gauss_law_constant(mode)


def mode_amplitude(mode: PerturbedMode, z: float) -> float:
    """Amplitude at height z: flat value times (1 + a z (kx^2+ky^2)/(4 kz^2))."""
    common, _, _, _ = _first_order_terms(mode, _height(mode, z))
    return float(mode.flat_amplitude * (1.0 + mode.metric.a * common.real))


def mode_phase(mode: PerturbedMode, t: float, r) -> float:
    """Eigenmode phase at one point: plane wave plus a (kx^2+ky^2+2kz^2)/(4 kz) z^2."""
    x, y, z = np.asarray(r, dtype=float).reshape(3)
    kx, ky, kz = mode.k
    common, _, _, _ = _first_order_terms(mode, _height(mode, z))
    return float(mode.omega * float(t) - kx * x - ky * y - kz * z + mode.metric.a * common.imag)


def local_wavevector(mode: PerturbedMode, z: float) -> np.ndarray:
    """Local wave 4-vector (c|k|, -kx, -ky, -kz + a (kx^2+ky^2+2kz^2) z / (2 kz)).

    The spatial entries are the covariant components, i.e. the gradient of the
    eigenmode phase.
    """
    kx, ky, kz = mode.k
    _, _, kappa, _ = _first_order_terms(mode, _height(mode, z))
    return np.array([mode.omega, -kx, -ky, -kz + mode.metric.a * kappa])


def polarization_E(mode: PerturbedMode, z: float) -> np.ndarray:
    """Covariant E polarization: transverse components tilt toward the vertical one.

    Reduces to the flat basis vector exactly whenever its vertical component
    vanishes, and at height 0 for any mode.
    """
    _, (mix_x, mix_y), _, _ = _first_order_terms(mode, _height(mode, z))
    a = mode.metric.a
    f0 = mode.f0
    return np.array([f0[0] + a * mix_x, f0[1] + a * mix_y, f0[2]], dtype=complex)


def polarization_H(mode: PerturbedMode, z: float) -> np.ndarray:
    """Contravariant H polarization to first order in a.

    Equals the metric-weighted cross product of the local wavevector with the
    E polarization, normalized by the invariant wavevector magnitude, with
    wavelength-proportional (post-geometrical-optics) terms dropped.  Flat
    limit: khat x f0 exactly.
    """
    z = _height(mode, z)
    a = mode.metric.a
    kvec = mode.k
    knorm = mode.index.knorm
    f0 = mode.f0
    p0 = _cross(kvec, f0) / knorm
    # polarization tilt and wavevector tilt, each per unit a
    _, (mix_x, mix_y), kappa, _ = _first_order_terms(mode, z)
    df = np.array([mix_x, mix_y, 0.0])
    corr = z * _cross(kvec, f0) + _cross(kvec, df) - kappa * _cross(_ZHAT, f0)
    return (p0 + (a / knorm) * corr).astype(complex)


def mode_field_first_order(
    mode: PerturbedMode,
    t,
    r,
    *,
    include_gauss_constant: bool = True,
) -> np.ndarray:
    """Eigenmode in the explicit first-order form: flat carrier times (1 + a M_j).

    This is the form the residual verifier consumes: it keeps the constant
    phase offset on the vertical component (``include_gauss_constant``) that
    the geometrical-optics product form drops.  Agrees to O(a^2) with the
    product form ``mode_amplitude * polarization_E * e^{i mode_phase}`` plus
    the Gauss constant.
    """
    r = np.asarray(r, dtype=float)
    single = r.ndim == 1
    pts = np.atleast_2d(r)
    z = pts[:, 2]
    a = mode.metric.a
    kx, ky, kz = mode.k
    f0 = mode.f0

    check_linearization(a, z)
    common, (mix1, mix2), _, gauss = _first_order_terms(mode, z)
    c3 = gauss if include_gauss_constant else 0.0

    comp = np.empty((len(z), 3), dtype=complex)
    comp[:, 0] = f0[0] * (1.0 + a * common) + a * mix1
    comp[:, 1] = f0[1] * (1.0 + a * common) + a * mix2
    comp[:, 2] = f0[2] * (1.0 + a * (common + c3))

    flat_phase = (
        mode.omega * np.asarray(t, dtype=float)
        - kx * pts[:, 0]
        - ky * pts[:, 1]
        - kz * pts[:, 2]
    )
    carrier = mode.flat_amplitude * np.exp(1j * flat_phase)
    field = np.asarray(carrier).reshape(-1, 1) * comp
    return field[0] if single else field


def dump_mode_vectors(path, modes, z_values) -> None:
    """Serialize reference mode values to CSV for cross-implementation comparison."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "kx", "ky", "kz", "s", "z",
                "amplitude",
                "f_re_x", "f_re_y", "f_re_z",
                "p_re_x", "p_re_y", "p_re_z",
                "ktilde_z",
            ]
        )
        for mode in modes:
            for z in z_values:
                f = polarization_E(mode, z)
                p = polarization_H(mode, z)
                kt = local_wavevector(mode, z)
                writer.writerow(
                    [repr(float(v)) for v in mode.k]
                    + [mode.index.s, repr(float(z)), repr(float(mode_amplitude(mode, z)))]
                    + [repr(float(v.real)) for v in f]
                    + [repr(float(v.real)) for v in p]
                    + [repr(float(kt[3]))]
                )
