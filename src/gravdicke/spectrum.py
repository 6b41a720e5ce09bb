"""Angular/spectral distribution of the re-emitted photon, three independent ways.

The directional structure lives entirely in k_z (the transverse components are
pinned to the absorbed photon's).  This module computes the k_z distribution

* analytically: a one-sided exponential kernel with a hard cutoff at the
  incoming k0z and decay constant Gamma/(a nu),
* by direct numerical quadrature of the height integral the kernel came from,
* by Monte Carlo over explicit random atom ensembles,

plus the closed-form spread measures and the flat-space structure factor.
Each route is an oracle for the others; nothing here reuses another route's
algebra.  The atom sums work from the tan half-angle t = tan(theta / 2): the
Monte Carlo sum takes its phasors from :func:`gravdicke.emission.cis`, and the
structure factor sums cos and sin from t without forming phasors.  The
quadrature and the closed forms keep np.exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .emission import (
    GAMMA_NU_MAX,
    Box,
    Ensemble,
    TimedDickeState,
    cis,
    curved_timed_dicke,
    ensemble_stream,
    sample_ensemble,
)
from .errors import PhysicsDomainError, QuadratureError
from .metric import KZ_GUARD, PhysicalConstants, WeakFieldMetric
from .quadrature import gauss_legendre, panel_count

# no package code reads it: a plain attribute, for bench/tracer.py to rebind
# until the benchmark counts the panel rule's evaluations
integrate = None

__all__ = [
    "SpectrumParams",
    "AngularSpectrum",
    "g_kernel",
    "kernel_area",
    "kernel_decay_constant",
    "wavevector_spread",
    "frequency_spread",
    "z_integral_oracle",
    "quadrature_spectrum",
    "analytic_spectrum",
    "monte_carlo_spectrum",
    "run_replicas",
    "mean_stderr",
    "replicated_mc_spectrum",
    "structure_factor",
    "structure_factor_expectation",
    "flat_delta_limit",
]


@dataclass(frozen=True)
class SpectrumParams:
    """Emission geometry: absorbed wavevector, atomic line, metric, mode reference height."""

    k0: np.ndarray
    nu: float
    gamma: float
    metric: WeakFieldMetric
    Z: float
    constants: PhysicalConstants = field(default_factory=PhysicalConstants.scaled)

    def __post_init__(self) -> None:
        k0 = np.array(self.k0, dtype=float).reshape(3)
        object.__setattr__(self, "k0", k0)
        if not (np.all(np.isfinite(k0)) and all(map(math.isfinite, (self.nu, self.gamma, self.Z)))):
            raise PhysicsDomainError("k0, nu, gamma and Z must be finite")
        knorm = math.hypot(*k0)  # scaled, so it cannot overflow where |k0|^2 does
        if not math.isfinite(knorm * knorm):  # every k_z route squares k
            raise PhysicsDomainError(f"|k0|^2 overflows (|k0|={knorm!r})")
        target = self.nu / self.constants.c
        if abs(knorm - target) > 1e-8 * target:
            raise PhysicsDomainError(
                "absorbed photon must be resonant: |k0| = nu / c "
                f"(got |k0|={knorm!r}, nu/c={target!r})"
            )
        if not 0.0 < self.gamma < GAMMA_NU_MAX * self.nu:
            raise PhysicsDomainError(
                f"need 0 < gamma << nu (weak-coupling guard at {GAMMA_NU_MAX:g})"
            )

    def require_directional(self) -> None:
        """Guard for the k_z-resolved operations: grazing k0 is excluded there.

        The spread formulas themselves are fine at theta0 = pi/2 (they return
        zero); only the directional kernel and the atom sums, which sample
        modes around k0z, need cos(theta0) bounded away from zero.
        """
        if abs(self.cos_theta0) <= KZ_GUARD:
            raise PhysicsDomainError("k0 too close to horizontal: cos(theta0) under guard")

    @classmethod
    def from_angles(
        cls,
        nu: float,
        gamma: float,
        metric: WeakFieldMetric,
        Z: float,
        theta0: float,
        phi: float = 0.0,
        constants: PhysicalConstants | None = None,
    ) -> "SpectrumParams":
        if not (math.isfinite(theta0) and math.isfinite(phi)):
            raise PhysicsDomainError("theta0 and phi must be finite")
        constants = constants or PhysicalConstants.scaled()
        knorm = nu / constants.c
        # Python floats, so a non-finite nu reaches the finiteness check without
        # a numpy warning on stderr
        direction = (math.sin(theta0) * math.cos(phi), math.sin(theta0) * math.sin(phi),
                     math.cos(theta0))
        k0 = np.array([knorm * u for u in direction])
        return cls(k0, nu, gamma, metric, Z, constants)

    @property
    def k0z(self) -> float:
        return float(self.k0[2])

    @property
    def cos_theta0(self) -> float:
        return self.k0z / math.hypot(*self.k0)  # np.linalg.norm underflows for tiny |k0|

    @property
    def theta0(self) -> float:
        return math.acos(self.cos_theta0)


@dataclass
class AngularSpectrum:
    """Emitted-photon amplitude sampled on a k_z grid, with run details in ``meta``."""

    kz_grid: np.ndarray
    amplitude: np.ndarray
    method: str
    mc_stderr: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.kz_grid = np.asarray(self.kz_grid, dtype=float)
        self.amplitude = np.asarray(self.amplitude, dtype=complex)
        if self.method not in ("analytic", "quadrature", "montecarlo"):
            raise PhysicsDomainError(f"unknown spectrum method {self.method!r}")
        if self.kz_grid.ndim != 1 or np.any(np.diff(self.kz_grid) <= 0.0):
            raise PhysicsDomainError("kz grid must be 1-D and strictly increasing")
        if self.amplitude.shape != self.kz_grid.shape:
            raise PhysicsDomainError("amplitude array must match the grid")
        if self.mc_stderr is not None and np.asarray(self.mc_stderr).shape != self.kz_grid.shape:
            raise PhysicsDomainError("stderr array must match the grid")


# ---------------------------------------------------------------------------
# closed-form kernel and spread measures
# ---------------------------------------------------------------------------

def g_kernel(k_z, params: SpectrumParams):
    """One-sided emission kernel (-i/(a nu)) exp(-(k0z - kz) Gamma/(a nu)) theta(k0z - kz).

    The step function takes the value 1 at the cutoff itself, so the kernel
    attains its peak on-grid.  Raises in flat space, where the distribution
    collapses to a delta spike: use :func:`flat_delta_limit` for that regime.
    """
    params.require_directional()
    a = params.metric.a
    if a <= 0.0:
        raise PhysicsDomainError("kernel undefined at a = 0; use flat_delta_limit")
    q = params.k0z - np.asarray(k_z, dtype=float)
    scale = a * params.nu
    out = np.where(q >= 0.0, (-1j / scale) * np.exp(-np.clip(q, 0.0, None) * params.gamma / scale), 0.0j)
    return complex(out) if out.ndim == 0 else out


def kernel_area(params: SpectrumParams, *, tol: float = 1e-12, full_output: bool = False):
    """Integral of the kernel over kz <= k0z (expected: -i/Gamma, any a).

    The composite Gauss-Legendre rule of :mod:`gravdicke.quadrature` integrates
    :func:`g_kernel` over the 300 decay lengths a nu / Gamma below k0z, on
    panels no wider than two decay lengths.  Raises QuadratureError unless the
    rule's error estimate is below 100 tol / Gamma.  With ``full_output`` it
    returns (area, error estimate over 100 tol / Gamma, integrand evaluations)
    instead of the area alone.
    """
    a = params.metric.a
    if a <= 0.0:
        raise PhysicsDomainError("kernel undefined at a = 0")
    decay = a * params.nu / params.gamma  # e-folding scale in kz
    length = 300.0 * decay                # truncation error ~ e^-300
    # integrated from k0z down, so that the nodes near the peak are placed
    # relative to k0z and not to the far end, which rounds them by ~300 eps
    downward, err, evals = gauss_legendre(lambda kz: g_kernel(kz, params), params.k0z,
                                          params.k0z - length, panel_count(length, 2.0 * decay))
    area = 0.0 - downward  # not -downward, whose zero real part would print as -0
    bound = 100.0 * tol / params.gamma
    if not err < bound:  # a zero tolerance is never met; also catches NaN
        raise QuadratureError(f"kernel area quadrature error {err!r} above tolerance {bound!r}")
    return (area, err / bound, evals) if full_output else area


def kernel_decay_constant(params: SpectrumParams) -> float:
    """Literal e-folding scale a nu / Gamma of |kernel| in (k0z - kz)."""
    return params.metric.a * params.nu / params.gamma


def wavevector_spread(params: SpectrumParams) -> float:
    """Quoted wavevector spread (a nu / Gamma) cos(theta0).

    This is the radial (|k|, hence frequency) spread; the kernel's own decay
    scale in k_z carries no angle factor, see :func:`kernel_decay_constant`.
    Neither quantity substitutes for the other.
    """
    return kernel_decay_constant(params) * params.cos_theta0


def frequency_spread(params: SpectrumParams) -> float:
    """Frequency width a c nu cos(theta0) / Gamma of the emitted wave-packet mix."""
    return (
        params.metric.a * params.constants.c * params.nu * params.cos_theta0 / params.gamma
    )


# ---------------------------------------------------------------------------
# direct quadrature of the height integral
# ---------------------------------------------------------------------------

def _omega_for(params: SpectrumParams, kz: float, dispersion: str) -> float:
    if dispersion == "resonant":
        return params.nu
    if dispersion == "exact":
        return params.constants.c * math.hypot(params.k0[0], params.k0[1], kz)
    raise PhysicsDomainError(f"unknown dispersion {dispersion!r}")


def _distance(point: complex, start: complex, end: complex) -> float:
    """Distance in the complex plane from a point to the segment [start, end]."""
    step = end - start
    along = min(max(((point - start) / step).real, 0.0), 1.0)
    offset = point - (start + along * step)
    return math.hypot(offset.real, offset.imag)  # abs() of a complex raises on overflow


# the rotated tails stop where e^{i q z} has decayed by e^-40, about 4e-18
_TAIL_DECAYS = 40.0


def z_integral_oracle(
    k_z: float,
    params: SpectrumParams,
    z_range: tuple[float, float],
    quadrature_tol: float = 1e-9,
    *,
    dispersion: str = "resonant",
    tails: str = "rotated",
    include_volume_weight: bool = False,
) -> complex:
    """Numerically integrate dz e^{i (k0z - kz) z} / [(w - nu + i G/2) + (a/2) w (Z - z)].

    This is the height integral the emission kernel was extracted from, and it
    is evaluated without using that extraction: the denominator is never
    factored, only integration paths are chosen.

    tails="rotated" evaluates the infinite-extent integral: outside [z_lo, z_hi]
    the path is turned into the complex half-plane where the oscillatory factor
    decays (legitimate because the integrand's only pole lies inside the window
    strip), which removes hard-window ringing entirely; the result is then
    window independent.  tails="none" integrates the literal finite window,
    which is what a finite atom slab physically produces.

    dispersion picks the mode frequency entering the denominator: "resonant"
    locks it to nu (the regime in which the closed-form kernel is derived),
    "exact" uses c |k| with the transverse components pinned to k0's (matching
    the Monte Carlo sum).

    Each path is integrated by the composite Gauss-Legendre rule of
    :mod:`gravdicke.quadrature`, with panels no wider than the pole's distance
    from the path and, along the window, half an oscillation period pi/|q|;
    along the tails, which reach 40/|q| into the half-plane, no wider than 1/|q|.

    The returned value omits the common modal prefactor, like the kernel it is
    compared against.
    """
    return _height_integral(k_z, params, z_range, quadrature_tol, dispersion=dispersion,
                            tails=tails, include_volume_weight=include_volume_weight)[0]


def _height_integral(
    k_z: float,
    params: SpectrumParams,
    z_range: tuple[float, float],
    quadrature_tol: float,
    *,
    dispersion: str = "resonant",
    tails: str = "rotated",
    include_volume_weight: bool = False,
) -> tuple[complex, float, int]:
    """z_integral_oracle's value, its error over quadrature_tol x peak scale, and its evaluations."""
    params.require_directional()
    z_lo, z_hi = float(z_range[0]), float(z_range[1])
    if not z_hi > z_lo:
        raise PhysicsDomainError("z_range must be increasing")
    a = params.metric.a
    if a <= 0.0:
        raise PhysicsDomainError("height integral degenerates at a = 0")
    if tails not in ("rotated", "none"):
        raise PhysicsDomainError(f"unknown tails mode {tails!r}")

    q = params.k0z - float(k_z)
    omega = _omega_for(params, float(k_z), dispersion)
    b = 0.5 * a * omega
    c0 = (omega - params.nu) + 0.5j * params.gamma + b * params.Z  # denominator = c0 - b z
    z0_ref = params.metric.z0

    if include_volume_weight:
        def f(z):
            return (1.0 - 0.5 * a * (z - z0_ref)) / (c0 - b * z)
    else:
        def f(z):
            return 1.0 / (c0 - b * z)

    peak_scale = 2.0 * math.pi / b
    pole = c0 / b  # where the integrand is singular; it sets the panel widths
    if tails == "rotated" and q > 0.0 and not z_lo < pole.real < z_hi:
        raise QuadratureError(
            "window must horizontally contain the resonance pole "
            f"(pole at z={pole.real!r}, window=({z_lo!r}, {z_hi!r}))"
        )

    # every panel count is checked against the cap before anything is evaluated
    width = _distance(pole, z_lo, z_hi)
    if q != 0.0:
        width = min(width, math.pi / abs(q))
    paths = [(lambda z: np.exp(1j * q * z) * f(z), z_lo, z_hi, panel_count(z_hi - z_lo, width))]
    if tails == "rotated" and q != 0.0:
        up = math.copysign(1.0, q) * 1j  # the half-plane where e^{i q z} decays
        reach = _TAIL_DECAYS / abs(q)
        width = min(1.0 / abs(q), _distance(pole, z_lo, z_lo + up * reach),
                    _distance(pole, z_hi, z_hi + up * reach))

        def vertical(tau):
            zr, zl = z_hi + up * tau, z_lo + up * tau
            return up * (np.exp(1j * q * zr) * f(zr) - np.exp(1j * q * zl) * f(zl))

        paths.append((vertical, 0.0, reach, panel_count(reach, width)))

    total, err, evals = 0j, 0.0, 0
    for integrand, lo, hi, panels in paths:
        value, value_err, n = gauss_legendre(integrand, lo, hi, panels)
        total += value
        err += value_err
        evals += n
    if tails == "rotated" and q == 0.0:
        # exact tail pair: the antiderivative's log arguments stay in the
        # upper half-plane for all real z, so principal branches are safe
        total -= (1j * math.pi + np.log(c0 - b * z_lo) - np.log(c0 - b * z_hi)) / b

    if err > quadrature_tol * peak_scale:
        raise QuadratureError(
            f"height-integral quadrature error {err!r} exceeds tolerance "
            f"{quadrature_tol!r} x peak scale {peak_scale!r}"
        )
    return complex(total), err / (quadrature_tol * peak_scale), evals


def quadrature_spectrum(
    kz_grid,
    params: SpectrumParams,
    z_range: tuple[float, float],
    quadrature_tol: float = 1e-9,
    **oracle_kwargs,
) -> AngularSpectrum:
    """Height-integral oracle evaluated over a whole grid.

    ``meta`` records the worst error estimate over quadrature_tol x peak scale
    (``worst_error_ratio``, at most 1) and the integrand evaluations.
    """
    kz = np.asarray(kz_grid, dtype=float)
    points = [_height_integral(k, params, z_range, quadrature_tol, **oracle_kwargs) for k in kz]
    return AngularSpectrum(kz, [value for value, _, _ in points], "quadrature", meta={
        "worst_error_ratio": max((ratio for _, ratio, _ in points), default=0.0),
        "integrand_evals": sum(n for _, _, n in points),
    })


def analytic_spectrum(kz_grid, params: SpectrumParams) -> AngularSpectrum:
    """Closed-form kernel sampled over a grid."""
    kz = np.asarray(kz_grid, dtype=float)
    return AngularSpectrum(kz, g_kernel(kz, params), "analytic", meta={"a": params.metric.a})


# ---------------------------------------------------------------------------
# Monte Carlo over explicit ensembles
# ---------------------------------------------------------------------------

# The atom sum advances e^{-i kz z} along the grid by the trigonometric
# recurrence (Numerical Recipes sec. 5.4).  It restarts from an exact phasor every
# _RESEED_EVERY steps, and wherever the grid leaves the current uniform spacing
# by more than _PHASE_TOL radians at the farthest atom.
_RESEED_EVERY = 16
_PHASE_TOL = 1e-12

# Atoms per batch of a replica (see replicated_mc_spectrum): the atom sum's
# arrays for a batch take about 2 MB, one core's L2 cache, and each numpy call
# on them runs long enough between GIL handoffs for replicas on two threads to
# overlap.  A replica's allocations peak at about 4.4 MB, whatever its atom count.
_BATCH_ATOMS = 25_000


def _exact_phase_points(kz: np.ndarray, z_max: float) -> np.ndarray:
    """Mask of the grid points whose phase is computed afresh, not carried by the recurrence."""
    exact = np.ones(kz.size, dtype=bool)
    seed = 0
    for i in range(1, kz.size):
        m = i - seed
        drift = z_max * abs(kz[i] - (kz[seed] + m * (kz[seed + 1] - kz[seed])))
        if m < _RESEED_EVERY and drift <= _PHASE_TOL:
            exact[i] = False
        else:
            seed = i
    return exact


def _reciprocal(u: np.ndarray, g_sq: float, neg_g: float, w: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """out = 1 / (u + i g) = (u - i g) / w, w = u^2 + g^2, in real arithmetic into buffers.

    Takes g^2 and -g, which the caller forms once per grid point.  Real u needs
    neither a promotion to complex nor a complex division.  Each part is one
    division by w, a pass and a rounding fewer than a product with 1 / w.
    np.square rounds u^2 as u * u does, in a loop that reads one array.
    """
    np.square(u, out=w)
    w += g_sq
    np.divide(u, w, out=out.real)
    np.divide(neg_g, w, out=out.imag)
    return out


def monte_carlo_spectrum(
    ensemble: Ensemble,
    state: TimedDickeState,
    kz_grid,
    params: SpectrumParams,
) -> AngularSpectrum:
    """Coherent atom sum amplitude(kz) = sum_j c_j w_j e^{-i k . r_j} / D_j(kz).

    D_j is the detuning denominator with the mode frequency shifted to the
    atom's height; k keeps k0's transverse components, so a global x/y
    translation of the ensemble cancels exactly.  The whole ensemble is summed
    in one pass per grid point, in atom order, with working arrays of its size:
    :func:`replicated_mc_spectrum` hands it one batch of a replica at a time.
    The phase e^{-i k . r_j} is computed whole by :func:`cis` at a few grid
    points and carried between them by a complex multiply per step (see
    _exact_phase_points), and 1/D_j is built in real arithmetic (see
    _reciprocal).  It carries no error estimate: the spread over independent
    ensembles gives that, see :func:`replicated_mc_spectrum`.
    """
    params.require_directional()
    if state.n != ensemble.n:
        raise PhysicsDomainError("state and ensemble must share atom ordering")
    kz = np.asarray(kz_grid, dtype=float)
    if kz.ndim != 1 or kz.size == 0:
        raise PhysicsDomainError("kz grid must be a nonempty 1-D array")
    kx, ky = params.k0[0], params.k0[1]
    c = params.constants.c
    a = params.metric.a
    xs, ys, zs = ensemble.positions.T
    z = zs.copy()  # contiguous: every pass below reads it
    z_lo, z_hi = float(z.min()), float(z.max())
    exact = _exact_phase_points(kz, max(-z_lo, z_hi))

    # D_j(kz) = x_j + i Gamma/2 with x_j = (omega - nu) + slope (Z - z_j).  Each grid
    # point divides D by a scale s >= Gamma/2 and >= |x_j| / 2 for every atom, so
    # u_j = x_j / s and g = Gamma / (2 s) are at most 2 and 1: u^2 + g^2 cannot
    # overflow, and it underflows only for a grid some 1e154 linewidths wide
    omega = c * np.sqrt(kx * kx + ky * ky + kz * kz)
    detuning = omega - params.nu
    slope = 0.5 * a * omega
    height_max = max(abs(params.Z - z_lo), abs(params.Z - z_hi))
    scale = np.maximum(np.maximum(np.abs(detuning), slope * height_max), 0.5 * params.gamma)
    detuning /= scale
    slope /= scale
    g = 0.5 * params.gamma / scale
    # Python floats: a numpy scalar operand costs more per call than the call's work
    kz_list, detuning, slope, g = kz.tolist(), detuning.tolist(), slope.tolist(), g.tolist()
    g_sq, neg_g = [x * x for x in g], [-x for x in g]

    amps = state.amplitudes * ensemble.weights
    # with -k_perp . r_j formed once, the phase at an exact point takes two
    # contiguous passes, bit for bit -(k_perp . r_j + kz z_j)
    neg_lateral = -(kx * xs + ky * ys)
    height = params.Z - z
    u, w = np.empty(z.size), np.empty(z.size)
    inv = np.empty(z.size, dtype=complex)
    sums = np.empty(kz.size, dtype=complex)
    step_dkz = None
    for i, kzi in enumerate(kz_list):
        if exact[i]:
            # the whole phase -k . r_j in one cis
            theta = np.multiply(z, kzi)
            np.subtract(neg_lateral, theta, out=theta)
            phased = cis(theta)
            phased *= amps
            # a uniform stretch keeps its step across the periodic reseeds
            if i + 1 < kz.size and not exact[i + 1] and kz_list[i + 1] - kzi != step_dkz:
                step_dkz = kz_list[i + 1] - kzi
                step = cis(-step_dkz * z)
        else:
            phased *= step
        np.multiply(height, slope[i], out=u)
        u += detuning[i]
        _reciprocal(u, g_sq[i], neg_g[i], w, inv)
        inv *= phased
        sums[i] = np.add.reduce(inv)  # np.sum's reduction, without its wrapper

    return AngularSpectrum(kz, sums / scale, "montecarlo")


def run_replicas(one, n: int, base_seed: int, threads: int = 1) -> np.ndarray:
    """Stack one((base_seed, r)) for r < n in replica order: bit-identical at any ``threads``."""
    seeds = [(base_seed, r) for r in range(n)]
    if threads == 1:  # in this thread: a worker's own malloc arena adds ~8 MB of peak RSS
        return np.array([one(seed) for seed in seeds])
    from concurrent.futures import ThreadPoolExecutor  # some 6 ms of import, for threads only

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.array(list(pool.map(one, seeds)))


def mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over axis 0 and its standard error sqrt(sum |dev|^2 / (n - 1) / n), n >= 2."""
    n = len(samples)
    if n < 2:
        raise PhysicsDomainError("a standard error needs at least two samples")
    mean = samples.mean(axis=0)
    dev = samples - mean
    var = np.sum(dev.real**2 + dev.imag**2, axis=0) / (n - 1)
    return mean, np.sqrt(var / n)


def replicated_mc_spectrum(
    params: SpectrumParams,
    kz_grid,
    n_atoms: int,
    box: Box,
    n_replicas: int,
    base_seed: int,
    *,
    threads: int = 1,
) -> AngularSpectrum:
    """Monte Carlo spectrum averaged over independent seeded ensembles.

    Replica r draws its n_atoms atoms from the one stream
    ensemble_stream((base_seed, r)), in consecutive batches of at most
    _BATCH_ATOMS: the batches are the atoms one draw of n_atoms would give (see
    :func:`gravdicke.emission.sample_ensemble`), and no more than one batch is
    held at a time.  Each batch of m atoms gets its own timed Dicke state and
    atom sum, weighted by sqrt(m / n_atoms) and added in batch order.  That is
    the whole ensemble's sum: its state e^{i k0 . r_j} / sqrt(N), restricted to
    the batch, is sqrt(m / N) times the batch's own state e^{i k0 . r_j} / sqrt(m).
    The two differ only in rounding, since each state is normalized by its
    computed norm, and |cis| is 1 to about 3e-16.  ``mc_stderr`` is the
    replica-to-replica standard error of the mean amplitude.
    """
    if n_atoms < 1:
        raise PhysicsDomainError("need at least one atom")
    kz = np.asarray(kz_grid, dtype=float)

    def one(seed) -> np.ndarray:
        rng = ensemble_stream(seed)
        total = np.zeros(kz.size, dtype=complex)
        for start in range(0, n_atoms, _BATCH_ATOMS):
            m = min(_BATCH_ATOMS, n_atoms - start)
            # module globals, and n, ensemble and grid passed by position, so that
            # bench/tracer.py can wrap each batch's calls and count their atoms
            ens = sample_ensemble(m, box, rng, params.nu, params.gamma, metric=params.metric)
            state = curved_timed_dicke(ens, params.k0, params.metric)
            total += math.sqrt(m / n_atoms) * monte_carlo_spectrum(ens, state, kz, params).amplitude
        return total

    reps = run_replicas(one, n_replicas, base_seed, threads)  # (R, n_kz)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean_amp, amp_stderr = mean_stderr(reps)
        probability = (np.abs(reps) ** 2).mean(axis=0)
    if not all(np.all(np.isfinite(x)) for x in (mean_amp, amp_stderr, probability)):
        raise PhysicsDomainError(
            "Monte Carlo amplitudes, of order sqrt(n_atoms) / gamma, are too large to square "
            f"in floating point (gamma={params.gamma!r})"
        )
    return AngularSpectrum(kz, mean_amp, "montecarlo", mc_stderr=amp_stderr,
                           meta={"probability_mean": probability})


# ---------------------------------------------------------------------------
# flat-space structure factor and the delta limit
# ---------------------------------------------------------------------------

def structure_factor(positions, delta_k) -> float:
    """Normalized random-phasor power |mean_j e^{i dk . r_j}|^2, in [0, 1].

    No phasor is formed: with t = tan(theta / 2), taken as
    :func:`gravdicke.emission.cis` takes it, and w = 1 / (1 + t^2), the sums
    are sum cos theta = 2 sum w - N and sum sin theta = 2 sum t w, so the work
    is one tan and a few real passes over N floats.  At dk = 0, t = 0 and
    w = 1, so the result is exactly 1.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    dk = np.asarray(delta_k, dtype=float).reshape(3)
    t = pos @ dk
    t *= 0.5
    np.tan(t, out=t)
    w = t * t
    w += 1.0
    np.reciprocal(w, out=w)
    n = t.size
    cos_sum = 2.0 * w.sum() - n
    t *= w
    sin_sum = 2.0 * t.sum()
    return float((cos_sum * cos_sum + sin_sum * sin_sum) / (n * n))


def structure_factor_expectation(n: int, box_size, delta_k) -> float:
    """Ensemble expectation 1/N + (1 - 1/N) prod_i sinc^2(dk_i L_i / 2) for a uniform box."""
    size = np.asarray(box_size, dtype=float).reshape(3)
    dk = np.asarray(delta_k, dtype=float).reshape(3)
    arg = 0.5 * dk * size
    sinc = np.sinc(arg / np.pi)  # sin(x)/x; numpy's sinc is the normalized one
    coherent = float(np.prod(sinc) ** 2)
    return 1.0 / n + (1.0 - 1.0 / n) * coherent


_TINY = np.finfo(float).tiny  # smallest normal double


def flat_delta_limit(kz_grid, params: SpectrumParams, halvings: int) -> list[AngularSpectrum]:
    """Kernel sampled at a * 0.5**i for i < halvings, starting from a = params.metric.a.

    Demonstrates the flat limit: the measured decay scale halves with a, the
    peak doubles, and the quadrature area stays -i/Gamma throughout, i.e. the
    distribution contracts to a delta spike at k0z of fixed weight.  The decay
    scale is a log-linear fit over the samples below k0z where |kernel| is a
    normal float: past that it underflows to subnormals, whose few significant
    bits skew the fit, and then to zero.  An a with fewer than two such samples
    is rejected.  Each spectrum's ``meta`` records a, the peak, the decay
    scale, and the kernel area with its error ratio and integrand evaluations
    (see :func:`kernel_area`).
    """
    base = params.metric.a
    if base <= 0.0 or halvings < 1:
        raise PhysicsDomainError("the delta-limit sweep needs a starting a > 0 and halvings >= 1")
    kz = np.asarray(kz_grid, dtype=float)
    out = []
    for i in range(halvings):
        a = base * 0.5**i
        p = SpectrumParams(
            params.k0, params.nu, params.gamma,
            WeakFieldMetric(a=a, z0=params.metric.z0),
            params.Z, params.constants,
        )
        spec = analytic_spectrum(kz, p)
        mag = np.abs(spec.amplitude)
        mask = ((params.k0z - kz) > 0.0) & (mag >= _TINY)
        if np.count_nonzero(mask) < 2:
            raise PhysicsDomainError(
                f"at a={a!r} fewer than two grid points below k0z have a kernel above "
                "underflow, so its decay scale cannot be fitted: use fewer halvings"
            )
        # the fit's abscissa is scaled to at most 1, so that its sum of squares cannot overflow
        depth = params.k0z - kz[mask]
        reach = float(np.max(depth))
        slope = np.polyfit(depth / reach, np.log(mag[mask]), 1)[0]  # = -reach Gamma/(a nu)
        area, area_error_ratio, area_evals = kernel_area(p, full_output=True)
        spec.meta.update(
            a=a,
            area=area,
            area_error_ratio=area_error_ratio,
            area_integrand_evals=area_evals,
            peak=float(np.max(mag)),
            decay_scale=float(-reach / slope),
        )
        out.append(spec)
    return out
