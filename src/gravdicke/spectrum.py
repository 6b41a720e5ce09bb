"""Angular/spectral distribution of the re-emitted photon, three independent ways.

The directional structure lives entirely in k_z: the transverse components are
pinned to the absorbed photon's, and their phases cancel atom by atom.  This
module computes the k_z distribution

* analytically: a one-sided exponential kernel in the offset q = k0z - k_z,
  with a hard cutoff at q = 0 and decay constant Gamma/(a nu),
* by direct numerical quadrature of the height integral the kernel came from,
* by Monte Carlo over explicit random atom ensembles,

plus the closed-form spread measures and the flat-space structure factor.
The closed forms take q itself, so that no kernel value carries the rounding
of k0z; the quadrature and the Monte Carlo take k_z, which their mode
frequency c|k| needs.  Each route is an oracle for the others; nothing here
reuses another route's algebra.  The atom sums work from the tan half-angle
t = tan(theta / 2): the Monte Carlo sum takes its phasors from
:func:`gravdicke.emission.cis`, and the structure factor sums cos and sin from
t without forming phasors.  The quadrature and the closed forms keep np.exp.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple

import numpy as np

from .emission import (
    Box,
    Ensemble,
    cis,
    curved_timed_dicke,
    ensemble_stream,
    sample_ensemble,
)
from .errors import PhysicsDomainError, QuadratureError
from .metric import KZ_GUARD, PhysicalConstants, WeakFieldMetric
from .quadrature import gauss_legendre, panel_count

# Weak-coupling guard on Gamma/nu.  The order-unity test regime runs at
# Gamma/nu = 1e-2, so the bound sits just above it.
GAMMA_NU_MAX = 2e-2

# no package code reads it: a plain attribute, for bench/tracer.py to rebind
# until the benchmark counts the panel rule's evaluations
integrate = None

__all__ = [
    "SpectrumParams",
    "g_kernel",
    "kernel_area",
    "kernel_decay_constant",
    "wavevector_spread",
    "frequency_spread",
    "frequency_spread_over_gamma",
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


class SpectrumParams(namedtuple("SpectrumParams", "nu gamma metric Z theta0 constants")):
    """Emission geometry: atomic line, metric, mode reference height, absorbed photon's angle.

    The absorbed wavevector is k0 = (nu / c) (sin theta0, 0, cos theta0): no
    route depends on its azimuth.  ``constants`` left out is the scaled regime,
    PhysicalConstants.scaled().
    """

    __slots__ = ()

    def __new__(
        cls,
        nu: float,
        gamma: float,
        metric: WeakFieldMetric,
        Z: float,
        theta0: float,
        constants: PhysicalConstants | None = None,
    ) -> "SpectrumParams":
        if constants is None:
            constants = PhysicalConstants.scaled()
        if not all(map(math.isfinite, (nu, gamma, Z, theta0))):
            raise PhysicsDomainError("nu, gamma, Z and theta0 must be finite")
        self = super().__new__(cls, nu, gamma, metric, Z, theta0, constants)
        knorm = math.hypot(*self.k0)  # scaled, so it cannot overflow where |k0|^2 does
        if not math.isfinite(knorm * knorm):  # every k_z route squares k
            raise PhysicsDomainError(f"|k0|^2 overflows (|k0|={knorm!r})")
        if not 0.0 < gamma < GAMMA_NU_MAX * nu:
            raise PhysicsDomainError(
                f"need 0 < gamma << nu (weak-coupling guard at {GAMMA_NU_MAX:g})"
            )
        return self

    def require_directional(self) -> None:
        """Guard for the k_z-resolved operations: grazing k0 is excluded there.

        The spread formulas themselves are fine at theta0 = pi/2 (they return
        zero); only the directional kernel and the atom sums, which sample
        modes around k0z, need cos(theta0) bounded away from zero.
        """
        if abs(self.cos_theta0) <= KZ_GUARD:
            raise PhysicsDomainError("k0 too close to horizontal: cos(theta0) under guard")

    @property
    def k0(self) -> np.ndarray:
        """The absorbed photon's wavevector (nu / c) (sin theta0, 0, cos theta0)."""
        knorm = self.nu / self.constants.c
        return np.array([knorm * u for u in (math.sin(self.theta0), 0.0, math.cos(self.theta0))])

    @property
    def k0z(self) -> float:
        return float(self.k0[2])

    @property
    def cos_theta0(self) -> float:
        return self.k0z / math.hypot(*self.k0)  # np.linalg.norm underflows for tiny |k0|


# ---------------------------------------------------------------------------
# closed-form kernel and spread measures
# ---------------------------------------------------------------------------

def g_kernel(q, params: SpectrumParams):
    """One-sided emission kernel (-i/(a nu)) exp(-q Gamma/(a nu)) theta(q), q = k0z - k_z.

    The step function takes the value 1 at q = 0 itself, so the kernel attains
    its peak on-grid.  Raises in flat space, where the distribution collapses
    to a delta spike: use :func:`flat_delta_limit` for that regime.
    """
    params.require_directional()
    a = params.metric.a
    if a <= 0.0:
        raise PhysicsDomainError("kernel undefined at a = 0; use flat_delta_limit")
    q = np.asarray(q, dtype=float)
    scale = a * params.nu
    out = np.where(q >= 0.0, (-1j / scale) * np.exp(-np.clip(q, 0.0, None) * params.gamma / scale), 0.0j)
    return complex(out) if out.ndim == 0 else out


def kernel_area(params: SpectrumParams, *, tol: float = 1e-12) -> tuple[complex, float, int]:
    """Integral of the kernel over q >= 0, i.e. k_z <= k0z (expected: -i/Gamma, any a).

    The composite Gauss-Legendre rule of :mod:`gravdicke.quadrature` integrates
    :func:`g_kernel` over q in [0, 300 a nu / Gamma], on panels no wider than
    two decay lengths.  Raises QuadratureError unless the rule's error estimate
    is below 100 tol / Gamma.  Returns (area, error estimate over 100 tol /
    Gamma, integrand evaluations).
    """
    a = params.metric.a
    if a <= 0.0:
        raise PhysicsDomainError("kernel undefined at a = 0")
    decay = a * params.nu / params.gamma  # e-folding scale in q
    length = 300.0 * decay                # truncation error ~ e^-300
    area, err, evals = gauss_legendre(lambda q: g_kernel(q, params), 0.0, length,
                                      panel_count(length, 2.0 * decay))
    bound = 100.0 * tol / params.gamma
    if not err < bound:  # a zero tolerance is never met; also catches NaN
        raise QuadratureError(f"kernel area quadrature error {err!r} above tolerance {bound!r}")
    return area, err / bound, evals


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


def frequency_spread_over_gamma(params: SpectrumParams) -> float | None:
    """:func:`frequency_spread` over Gamma (None past the largest float): the
    closed-form kernel, derived with the mode frequency locked to nu, needs it small."""
    ratio = frequency_spread(params) / params.gamma
    return ratio if math.isfinite(ratio) else None


# ---------------------------------------------------------------------------
# direct quadrature of the height integral
# ---------------------------------------------------------------------------

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
    model: str = "kernel",
) -> tuple[complex, float, int]:
    """Numerically integrate dz rho(z) e^{i (k0z - kz) z} / [(w - nu + i G/2) + (a/2) w (Z - z)].

    This is the height integral the emission kernel was extracted from, and it
    is evaluated without using that extraction: the denominator is never
    factored, only integration paths are chosen.  ``model`` picks the physics.
    "kernel", the closed form's regime, locks the mode frequency w to nu, takes
    rho = 1 and fills all heights: outside [z_lo, z_hi] the path turns into the
    half-plane where e^{i q z} decays (legitimate because the integrand's only
    pole lies inside the window strip), so the value is window independent.
    "slab", what the Monte Carlo sums, fills [z_lo, z_hi] alone, with w = c |k|
    (k's transverse components pinned to k0's) and the curved volume element
    rho = 1 - (a/2) z.  Their shapes part once
    :func:`frequency_spread_over_gamma` is not small.

    Each path is integrated by the composite Gauss-Legendre rule of
    :mod:`gravdicke.quadrature`, with panels no wider than the pole's distance
    from the path and, along the window, half an oscillation period pi/|q|;
    along the kernel's tails, which reach 40/|q| into the half-plane, no wider
    than 1/|q|.

    Returns (value, error estimate over quadrature_tol x peak scale
    4 pi / (a w), integrand evaluations); a ratio above 1 raises
    QuadratureError.  The value omits the common modal prefactor, like the
    kernel it is compared against.
    """
    params.require_directional()
    if model not in ("kernel", "slab"):
        raise PhysicsDomainError(f"unknown height-integral model {model!r}")
    z_lo, z_hi = float(z_range[0]), float(z_range[1])
    if not z_hi > z_lo:
        raise PhysicsDomainError("z_range must be increasing")
    a = params.metric.a
    if a <= 0.0:
        raise PhysicsDomainError("height integral degenerates at a = 0")

    slab = model == "slab"
    q = params.k0z - float(k_z)
    omega = params.constants.c * math.hypot(*params.k0[:2], k_z) if slab else params.nu
    b = 0.5 * a * omega
    c0 = (omega - params.nu) + 0.5j * params.gamma + b * params.Z  # denominator = c0 - b z

    if slab:
        def f(z):
            return (1.0 - 0.5 * a * z) / (c0 - b * z)
    else:
        def f(z):
            return 1.0 / (c0 - b * z)

    peak_scale = 2.0 * math.pi / b
    pole = c0 / b  # where the integrand is singular; it sets the panel widths
    if not slab and q > 0.0 and not z_lo < pole.real < z_hi:
        raise QuadratureError(
            "window must horizontally contain the resonance pole "
            f"(pole at z={pole.real!r}, window=({z_lo!r}, {z_hi!r}))"
        )

    # every panel count is checked against the cap before anything is evaluated
    width = _distance(pole, z_lo, z_hi)
    if q != 0.0:
        width = min(width, math.pi / abs(q))
    paths = [(lambda z: np.exp(1j * q * z) * f(z), z_lo, z_hi, panel_count(z_hi - z_lo, width))]
    if not slab and q != 0.0:
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
    if not slab and q == 0.0:
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
) -> tuple[np.ndarray, float, int]:
    """:func:`z_integral_oracle`'s "slab" model, the Monte Carlo's, over a grid.

    Returns (amplitudes, worst error ratio, integrand evaluations): the largest
    of the points' error estimates over quadrature_tol x peak scale (at most 1),
    and the evaluations summed over the grid.
    """
    points = [z_integral_oracle(k, params, z_range, quadrature_tol, model="slab")
              for k in np.asarray(kz_grid, dtype=float)]
    return (np.array([value for value, _, _ in points], dtype=complex),
            max((ratio for _, ratio, _ in points), default=0.0),
            sum(n for _, _, n in points))


def analytic_spectrum(q_grid, params: SpectrumParams) -> np.ndarray:
    """Closed-form kernel amplitudes over a grid of offsets q = k0z - k_z."""
    return g_kernel(np.asarray(q_grid, dtype=float), params)


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
# overlap.  Each thread reuses one workspace of batch-sized arrays, 2.4 MB at
# this size, whatever the replicas' atom count: glibc would hand arrays this
# large back to the kernel after each batch and fault them in again.
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


def _sum_work(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Working arrays of :func:`monte_carlo_spectrum` for n atoms: four real rows (no x or y
    enters the sum), four complex."""
    return np.empty((4, n)), np.empty((4, n), dtype=complex)


def _batch_work(n: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One thread's workspace for batches of up to n atoms: (positions, weights, sum work).

    The (n, 3) positions and n weights are the float view of the atom sum's last
    two complex rows, step and 1/D, which its grid loop writes only after it
    has read them (see :func:`monte_carlo_spectrum`).  Of the positions, the state
    and the sum read only the heights.
    """
    work = _sum_work(n)
    spare = work[1][2:].view(float).reshape(-1)  # 4 n floats
    return spare[:3 * n].reshape(n, 3), spare[3 * n:], work


def monte_carlo_spectrum(
    ensemble: Ensemble,
    amplitudes: np.ndarray,
    kz_grid,
    params: SpectrumParams,
    *,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Coherent atom sum amplitude(kz) = sum_j c_j w_j e^{-i kz z_j} / D_j(kz), over the grid.

    c_j are the state's ``amplitudes``, one per atom in the ensemble's order,
    as :func:`gravdicke.emission.curved_timed_dicke` returns them.  D_j is the
    detuning denominator with the mode frequency shifted to the atom's height.
    k keeps k0's transverse components, so its x and y phases cancel the
    state's atom by atom: they are never formed, and k_x and k_y enter only
    c|k|.  The whole ensemble is summed in one pass per grid point, in atom
    order, with working arrays of its size: fresh ones, or the first ensemble.n
    columns of ``work``, a pair of C-contiguous arrays as _sum_work makes them
    for at least that many atoms.  ``amplitudes`` may be the first ensemble.n
    entries of the first complex row of ``work``: the weights then multiply
    them in place.  The ensemble's positions and weights may live in the float
    view of the last two complex rows of ``work``: they are read into the real
    rows and the weighted amplitudes before the grid loop first writes those
    two rows.
    :func:`replicated_mc_spectrum` hands it one batch of a replica at a time.
    The phase e^{-i kz z_j} is computed whole by :func:`cis` at a few grid
    points and carried between them by a complex multiply per step (see
    _exact_phase_points), and 1/D_j is built in real arithmetic (see
    _reciprocal).  It carries no error estimate: the spread over independent
    ensembles gives that, see :func:`replicated_mc_spectrum`.
    """
    params.require_directional()
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (ensemble.n,):
        raise PhysicsDomainError("amplitudes must have one entry per atom of the ensemble")
    kz = np.asarray(kz_grid, dtype=float)
    if kz.ndim != 1 or kz.size == 0:
        raise PhysicsDomainError("kz grid must be a nonempty 1-D array")
    real, cplx = _sum_work(ensemble.n) if work is None else work
    z, height, u, w = real[:, :ensemble.n]
    amps, phased, step, inv = cplx[:, :ensemble.n]
    kx, ky = params.k0[0], params.k0[1]
    c = params.constants.c
    a = params.metric.a
    np.copyto(z, ensemble.positions[:, 2])  # contiguous: every pass below reads it
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

    np.multiply(amplitudes, ensemble.weights, out=amps)
    np.subtract(params.Z, z, out=height)
    sums = np.empty(kz.size, dtype=complex)
    step_dkz = None
    for i, kzi in enumerate(kz_list):
        if exact[i]:
            # the whole phase -kz z_j in one cis, its angle in u until u's own pass
            cis(np.multiply(z, -kzi, out=u), out=phased, work=u)
            phased *= amps
            # a uniform stretch keeps its step across the periodic reseeds
            if i + 1 < kz.size and not exact[i + 1] and kz_list[i + 1] - kzi != step_dkz:
                step_dkz = kz_list[i + 1] - kzi
                cis(np.multiply(z, -step_dkz, out=u), out=step, work=u)
        else:
            phased *= step
        np.multiply(height, slope[i], out=u)
        u += detuning[i]
        _reciprocal(u, g_sq[i], neg_g[i], w, inv)
        inv *= phased
        sums[i] = np.add.reduce(inv)  # np.sum's reduction, without its wrapper

    return sums / scale


def run_replicas(one, n: int, base_seed: int, threads: int = 1) -> np.ndarray:
    """Stack one((base_seed, r)) for r < n in replica order: bit-identical at any ``threads``."""
    seeds = [(base_seed, r) for r in range(n)]
    if threads == 1:  # in this thread: a one-worker pool adds about 1 MB of peak RSS
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monte Carlo spectrum averaged over independent seeded ensembles.

    Replica r draws its n_atoms atoms from the one stream
    ensemble_stream((base_seed, r)), in consecutive batches of at most
    _BATCH_ATOMS: the batches are the atoms one draw of n_atoms would give (see
    :func:`gravdicke.emission.sample_ensemble`), and no more than one batch is
    held at a time.  Each batch of m atoms gets its own timed Dicke state and
    atom sum, weighted by sqrt(m / n_atoms) and added in batch order.  That is
    the whole ensemble's sum: its state e^{i k0z z_j} / sqrt(N), restricted to
    the batch, is sqrt(m / N) times the batch's own state e^{i k0z z_j} / sqrt(m).
    The two differ only in rounding, since each state is normalized by its
    computed norm, and |cis| is 1 to about 3e-16.  Every batch a thread runs,
    in all of its replicas, is drawn, phased and summed in that thread's one
    workspace of batch-sized arrays (see _batch_work), passed down as out=
    and work= buffers; the values are those the allocating calls give, bit
    for bit.  Returns (mean, stderr, probability): the replicas' mean
    amplitude, its replica-to-replica standard error, and the replicas' mean
    |amplitude|^2.
    """
    if n_atoms < 1:
        raise PhysicsDomainError("need at least one atom")
    kz = np.asarray(kz_grid, dtype=float)
    local = threading.local()  # each thread's workspace, made for its first replica

    def one(seed) -> np.ndarray:
        if not hasattr(local, "work"):
            local.work = _batch_work(min(_BATCH_ATOMS, n_atoms))
        positions, weights, sum_work = local.work
        rng = ensemble_stream(seed)
        total = np.zeros(kz.size, dtype=complex)
        for start in range(0, n_atoms, _BATCH_ATOMS):
            m = min(_BATCH_ATOMS, n_atoms - start)
            # module globals, and n, ensemble and grid passed by position, so that
            # bench/tracer.py can wrap each batch's calls and count their atoms
            ens = sample_ensemble(m, box, rng, metric=params.metric,
                                  out=(positions[:m], weights[:m]))
            # the state is built in the sum's first rows, which the sum weights in place
            amps = curved_timed_dicke(ens, params.k0z, out=sum_work[1][0, :m],
                                      work=sum_work[0][0, :m])
            total += math.sqrt(m / n_atoms) * monte_carlo_spectrum(ens, amps, kz, params,
                                                                   work=sum_work)
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
    return mean_amp, amp_stderr, probability


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


def flat_delta_limit(q_grid, params: SpectrumParams,
                     halvings: int) -> list[tuple[np.ndarray, dict]]:
    """Kernel sampled on offsets q = k0z - k_z at a * 0.5**i for i < halvings,
    starting from a = params.metric.a.

    Demonstrates the flat limit: the measured decay scale halves with a, the
    peak doubles, and the quadrature area stays -i/Gamma throughout, i.e. the
    distribution contracts to a delta spike at k0z of fixed weight.  The decay
    scale is a log-linear fit over the samples at q > 0 where |kernel| is a
    normal float: past that it underflows to subnormals, whose few significant
    bits skew the fit, and then to zero.  An a with fewer than two such samples
    is rejected.  Returns one (amplitudes, entry) pair per a.  The entry holds
    a, the peak, the decay scale, the kernel area with its error ratio and
    integrand evaluations (see :func:`kernel_area`), and
    :func:`frequency_spread_over_gamma`.
    """
    base = params.metric.a
    if base <= 0.0 or halvings < 1:
        raise PhysicsDomainError("the delta-limit sweep needs a starting a > 0 and halvings >= 1")
    q = np.asarray(q_grid, dtype=float)
    out = []
    for i in range(halvings):
        a = base * 0.5**i
        # built anew, so that the constructor's checks run on the new record
        p = SpectrumParams(params.nu, params.gamma, WeakFieldMetric(a=a), params.Z,
                           params.theta0, params.constants)
        amps = analytic_spectrum(q, p)
        mag = np.abs(amps)
        mask = (q > 0.0) & (mag >= _TINY)
        if np.count_nonzero(mask) < 2:
            raise PhysicsDomainError(
                f"at a={a!r} fewer than two grid points below k0z have a kernel above "
                "underflow, so its decay scale cannot be fitted: use fewer halvings"
            )
        # the fit's abscissa is scaled to at most 1, so that its sum of squares cannot overflow
        depth = q[mask]
        reach = float(np.max(depth))
        slope = np.polyfit(depth / reach, np.log(mag[mask]), 1)[0]  # = -reach Gamma/(a nu)
        area, area_error_ratio, area_evals = kernel_area(p)
        out.append((amps, {
            "a": a,
            "peak": float(np.max(mag)),
            "decay_scale": float(-reach / slope),
            "area": area,
            # the area quadrature's error estimate over its tolerance (< 1), and its work
            "area_error_ratio": area_error_ratio,
            "area_integrand_evals": area_evals,
            "frequency_spread_over_gamma": frequency_spread_over_gamma(p),
        }))
    return out
