"""Angular/spectral distribution of the re-emitted photon, three independent ways.

The directional structure lives entirely in k_z: the transverse components are
pinned to the absorbed photon's, and their phases cancel atom by atom.  This
module computes the k_z distribution

* analytically: a one-sided exponential kernel in the offset q = k0z - k_z,
  with a hard cutoff at q = 0 and decay constant Gamma/(a nu),
* by direct numerical quadrature of the height integral the kernel came from,
* by Monte Carlo over explicit random atom ensembles, whose atom sum is taken
  by local Taylor expansions about the centres of height cells on a lattice
  anchored at the origin, with an a-priori bound on the truncation of each
  term: every batch of a replica builds its state in the cells' frame, groups
  its atoms by their integer cell keys, and adds their moments into the same
  cells, and the cells are contracted against the grid once per replica,

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
import time
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
from .metric import (
    KZ_GUARD,
    CheckedRecord,
    PhysicalConstants,
    WeakFieldMetric,
    check_linearization,
)
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


class SpectrumParams(CheckedRecord,
                     namedtuple("SpectrumParams", "nu gamma metric theta0 constants")):
    """Emission geometry: atomic line, metric, absorbed photon's angle, unit regime.

    The absorbed wavevector is k0 = (nu / c) (sin theta0, 0, cos theta0): no
    route depends on its azimuth.
    """

    __slots__ = ()

    def __new__(
        cls,
        nu: float,
        gamma: float,
        metric: WeakFieldMetric,
        theta0: float,
        constants: PhysicalConstants,
    ) -> "SpectrumParams":
        if not all(map(math.isfinite, (nu, gamma, theta0))):
            raise PhysicsDomainError("nu, gamma and theta0 must be finite")
        self = super().__new__(cls, nu, gamma, metric, theta0, constants)
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
    """Numerically integrate dz rho(z) e^{i (k0z - kz) z} / [(w - nu + i G/2) - (a/2) w z].

    This is the height integral the emission kernel was extracted from, and it
    is evaluated without using that extraction: the denominator is never
    factored, only integration paths are chosen.  Heights z are measured from
    the box centre, where the metric is flat and the mode frequency w is
    unshifted.  ``model`` picks the physics.
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
    c0 = (omega - params.nu) + 0.5j * params.gamma  # denominator = c0 - b z

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

# The atom sum expands each atom's term about the centre c of its cell of heights,
# the one-level form of the fast multipole method (Greengard & Rokhlin, J. Comput.
# Phys. 73, 325, 1987).  With z = c + h tau, |tau| <= 1 in a cell of half-width h,
# a middle wavenumber k_c, q = k_c - k_z and D(z) = D(c) - slope (z - c),
#     e^{-i k_z z} / D(z) = e^{-i k_c z} (e^{i q c} / D(c)) e^{i q h tau} / (1 - rho tau),
# with rho = slope h / D(c).  |D| >= Gamma / 2, so r = |rho| <= a omega h / Gamma.  The
# product of the geometric and the exponential series, cut at total order P, leaves
# of each term at most the fraction
#     sum_{n + l >= P} r^n b^l / l!  <=  (r^P e^{b/r} + e^b b^P / P!) / (1 - r),
# b = |q| h.  Cells with r <= 0.1 and b <= 0.5 and P = 15 make that 1.65e-13: the
# geometric tail, weighted by e^{b/r} = e^5, is all of it.
_CELL_RHO = 0.1
_CELL_Q = 0.5
_TERMS = 15
TRUNCATION_BOUND = (
    _CELL_RHO**_TERMS * math.exp(_CELL_Q / _CELL_RHO)
    + math.exp(_CELL_Q) * _CELL_Q**_TERMS / math.factorial(_TERMS)
) / (1.0 - _CELL_RHO)

# Atoms per batch of a replica (see replicated_mc_spectrum): the atom sum's
# arrays for a batch take under 2 MB, one core's L2 cache, and each numpy call
# on them runs long enough between GIL handoffs for replicas on two threads to
# overlap.  Each thread reuses one workspace of batch-sized arrays, 1.8 MB at
# this size, whatever the replicas' atom count: glibc would hand arrays this
# large back to the kernel after each batch and fault them in again.
_BATCH_ATOMS = 25_000


def _sum_work(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Working arrays of :func:`monte_carlo_spectrum` for n atoms: three real rows (no x or y
    enters the sum), three complex."""
    return np.empty((3, n)), np.empty((3, n), dtype=complex)


def _batch_work(n: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One thread's workspace for batches of up to n atoms: (positions, sum work).

    The (n, 3) positions are the float view of the atom sum's last two complex
    rows, which it writes only after it has read them (see
    :func:`monte_carlo_spectrum`).  Of the positions, the state and the sum read
    only the heights.
    """
    work = _sum_work(n)
    spare = work[1][1:].view(float).reshape(-1)  # 4 n floats, n of them unused
    return spare[:3 * n].reshape(n, 3), work


def _mode_frequency(kz: np.ndarray, params: SpectrumParams) -> np.ndarray:
    """c |k| with k's transverse components pinned to k0's."""
    kx, ky = params.k0[0], params.k0[1]
    return params.constants.c * np.sqrt(kx * kx + ky * ky + kz * kz)


def _cell_half_width(kz: np.ndarray, params: SpectrumParams, reach: float) -> tuple[float, float]:
    """(k_c, h): the grid's middle wavenumber and the widest cell half-width with
    |rho| h <= _CELL_RHO and |k_c - k_z| h <= _CELL_Q at every grid point.

    h is at most the heights' reach max |z| (1 if every height is 0, where any h
    serves).  Heights up to the reach must have a lattice index |z| / 2h under
    2^52: past it a double keeps no fraction of a cell, and the offsets tau
    within a cell would be lost.
    """
    lo, hi = float(kz.min()), float(kz.max())
    k_c = 0.5 * lo + 0.5 * hi
    rho_max = params.metric.a * float(_mode_frequency(kz, params).max()) / params.gamma
    q_max = max(k_c - lo, hi - k_c)
    h = min(_CELL_RHO / rho_max if rho_max > 0.0 else math.inf,
            _CELL_Q / q_max if q_max > 0.0 else math.inf,
            reach if reach > 0.0 else 1.0)
    if not (h > 0.0 and reach < 2.0**53 * h):
        raise PhysicsDomainError(
            f"atom-sum cells of half-width {h!r} cannot resolve heights reaching {reach!r}"
        )
    return k_c, h


class _Cells:
    """Cell moments on the height lattice of centres 2 h m, keyed by the integer m.

    ``keys`` holds the occupied cells' m in ascending order, as doubles, and
    ``moments[p]`` their moments mu_p, in the first ``size`` of ``capacity``
    columns.  The moments are sums over B_j = c_j w_j e^{-i k_c z_j} with the
    c_j of a whole ensemble of ``n_atoms`` atoms: a batch of m of them adds the
    moments of its own state weighted by sqrt(m / n_atoms) (see
    :func:`replicated_mc_spectrum`).
    """

    def __init__(self, k_c: float, h: float, capacity: int, n_atoms: int) -> None:
        self.k_c, self.h, self.n_atoms = k_c, h, n_atoms
        self.keys = np.empty(capacity)
        self.moments = np.empty((_TERMS, capacity), dtype=complex)
        self.size = 0

    @property
    def capacity(self) -> int:
        return self.keys.size

    def add(self, keys: np.ndarray, b: np.ndarray, tau: np.ndarray, starts: np.ndarray) -> None:
        """Add the cells of a batch of m atoms grouped cell by cell: its ascending keys,
        the (2, m) real and imaginary parts b of its B_j (weighted and then overwritten
        in place), their offsets tau and each cell's first atom.  A cell already held
        sums the moments it held and the batch's, in that order; a new cell takes its
        place among the held ones, which move up past it."""
        old, new = self.size, self.size + keys.size
        share = math.sqrt(b.shape[1] / self.n_atoms)
        if share != 1.0:
            b *= share
        for p, row in enumerate(self.moments[:, old:new]):  # mu_p = sum of B_j tau_j^p
            np.add.reduceat(b, starts, axis=1, out=row.view(float).reshape(-1, 2).T)
            if p + 1 < _TERMS:
                b *= tau
        if not old:  # nothing held: the batch's cells, in key order, are the cells
            self.keys[:new] = keys
            self.size = new
            return
        # each batch cell's place among the held ones, at most old < capacity (no batch
        # is added unless old + keys.size <= capacity), so it indexes the arrays
        at = np.searchsorted(self.keys[:old], keys)
        fresh = (at == old) | (self.keys[at] != keys)
        held, added = np.flatnonzero(~fresh), np.flatnonzero(fresh)
        into = at[held]
        # a held cell moves up past the new cells below it: none below the first new one
        first = int(at[added].min(initial=old))
        moved = np.arange(first, old) + np.searchsorted(keys[added], self.keys[first:old])
        place = at[added] + np.arange(added.size)
        for row in self.moments:  # a row at a time: each copy below takes one row's cells
            batch = row[old:new]
            row[into] += batch[held]
            cells = batch[added]  # before the moves overwrite the batch's columns
            row[moved] = row[first:old]
            row[place] = cells
        self.keys[moved] = self.keys[first:old]
        self.keys[place] = keys[added]
        self.size = old + added.size


def monte_carlo_spectrum(
    ensemble: Ensemble,
    amplitudes: np.ndarray,
    kz_grid,
    params: SpectrumParams,
    cells: _Cells,
    *,
    work: tuple[np.ndarray, np.ndarray],
) -> None:
    """Add one batch's atom sum, amplitude(kz) = sum_j c_j w_j e^{-i kz z_j} / D_j(kz), into
    a replica's ``cells``, as :func:`replicated_mc_spectrum` hands it each batch.

    c_j are the batch's state, one per atom in the ensemble's order.  The model
    is the first-order one, both of its parts stated here: D_j is the detuning
    denominator with the mode frequency shifted to the atom's height, and w_j =
    sqrt(1 - a z_j) is the curved volume element, an importance weight on the
    uniformly drawn heights, which the caller keeps at |a z| < 1.  k keeps k0's
    transverse components, so its x and y phases cancel the state's atom by
    atom: they are never formed, and k_x and k_y enter only c|k|.

    The sum is taken cell by cell (see TRUNCATION_BOUND), in the frame of the
    cells' wavenumber k_c, the grid's middle: it sums B_j = c_j w_j e^{-i k_c
    z_j}.  ``amplitudes`` are the state in that frame, c_j e^{-i k_c z_j}, as
    curved_timed_dicke(ensemble, k0z - cells.k_c) builds them, so B_j is
    amplitude_j w_j and the call forms no phasor.  The cells have half-width h
    and lie on a lattice anchored at the origin, where the metric is flat: cell
    m is centred at c_m = 2 h m and holds the heights with m = rint(z / 2h).
    The atoms are grouped by the integer key m - min m, in the narrowest
    unsigned type that holds the span, with one stable argsort (a radix sort
    for a span under 65 536 lattice steps), so the atoms of a cell keep their
    order.  Each occupied cell keeps the moments mu_p = sum_j B_j tau_j^p, p <
    P, of its atoms' offsets tau_j = (z_j - c_m) / h, taken as 2 (z_j / 2h -
    m): |tau_j| <= 1 exactly, for heights moved by at most one rounding of z_j
    / 2h.  The call adds them into the cells and returns None: the caller
    contracts the cells (_contract) once they hold every batch it wants summed
    together.  ``kz_grid`` is not read, since the cells carry its k_c and h;
    bench/tracer.py counts each call's atoms x points from it.

    The atoms use the first ensemble.n columns of ``work``, a pair of
    C-contiguous arrays as _sum_work makes them for at least that many atoms.
    ``amplitudes`` may be the first ensemble.n entries of the first complex row
    of ``work``: the weights then multiply them in place.  The ensemble's
    positions may live in the float view of the last two complex rows of
    ``work``: they are read before those rows are first written.  The sum
    carries no error estimate: the spread over independent ensembles gives
    that, see :func:`replicated_mc_spectrum`.
    """
    n = ensemble.n
    real, cplx = work
    z, u, tau = real[:, :n]
    b, spare, moment_work = cplx[:, :n]
    np.copyto(z, ensemble.positions[:, 2])  # contiguous: every pass below reads it
    # the positions are read: the last two complex rows are free.
    # B_j = c_j w_j, with the volume weight w = sqrt(1 - a z)
    weight = np.multiply(z, params.metric.a, out=u)
    np.subtract(1.0, weight, out=weight)
    np.multiply(amplitudes, np.sqrt(weight, out=weight), out=b)

    # each atom's cell m = rint(z / 2h), exact below 2^52 (see _cell_half_width), and
    # its offset tau = 2 (z / 2h - m), exact since |z / 2h - m| <= 1/2
    scaled = np.divide(z, 2.0 * cells.h, out=tau)
    index = np.rint(scaled, out=u)
    np.subtract(scaled, index, out=tau)
    tau *= 2.0
    # the atoms grouped by the key m - min m, stored in the narrowest unsigned type
    # that holds the batch's span, in the first half of the free complex row: numpy's
    # stable argsort of 8- and 16-bit keys is a radix sort, and a cell's atoms keep
    # their order.  The keys in that order go to the row's second half, the run
    # flags to the real row of m, tau to the real row of z, and B's real and
    # imaginary parts to two contiguous rows; take's default mode would copy
    # through a temporary of the batch's size
    low = float(index.min())
    key_type = np.min_scalar_type(int(float(index.max()) - low))
    keys, grouped = spare.view(key_type).reshape(2, -1)[:, :n]
    np.subtract(index, low, out=keys, casting="unsafe")
    order = np.argsort(keys, kind="stable")
    np.take(keys, order, out=grouped, mode="clip")
    flags = u.view(np.bool_)[:n]
    flags[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=flags[1:])
    starts = np.flatnonzero(flags)
    np.take(tau, order, out=z, mode="clip")
    moments = moment_work.view(float).reshape(2, n)
    np.take(b.real, order, out=moments[0], mode="clip")
    np.take(b.imag, order, out=moments[1], mode="clip")
    cells.add(grouped[starts] + low, moments, z, starts)  # each cell's m, as a double


def _contract(cells: _Cells, kz: np.ndarray, params: SpectrumParams,
              work: tuple[np.ndarray, np.ndarray], stats: dict) -> np.ndarray:
    """Every grid point's sum over the occupied cells' expansions; the cells are left empty.

    Each grid point takes every occupied cell's moments with the Taylor
    coefficients of e^{i q h tau} / (1 - rho tau), nested as in Horner's rule,
    and the cell's leading factor e^{i q c_m} / D(c_m): O(n P + K M P) work, with
    :func:`monte_carlo_spectrum`'s, for n atoms, K grid points and M <= n
    occupied cells, against O(n K) atom by atom.  Each term is cut off within
    TRUNCATION_BOUND of its size.  Blocks of grid points take at most one row
    of ``work`` per array.  ``stats`` adds the cells to "occupied_cells", one
    to "contractions" and the cells x grid points to "cell_kz".
    """
    n_cells, h = cells.size, cells.h
    mu = cells.moments[:, :n_cells]
    centres = cells.keys[:n_cells] * (2.0 * h)
    a = params.metric.a
    omega = _mode_frequency(kz, params)

    # D(c_m) = x + i Gamma/2 with x = (omega - nu) - slope c_m.  Each grid point
    # divides D by a scale s >= Gamma/2, >= |omega - nu| and >= slope |c_m| for every
    # centre, so u = x / s and g = Gamma / (2 s) are at most 2 and 1: u^2 + g^2 cannot
    # overflow, and it underflows only for a grid some 1e154 linewidths wide
    detuning = omega - params.nu
    slope = 0.5 * a * omega
    scale = np.maximum(np.maximum(np.abs(detuning), slope * float(np.max(np.abs(centres)))),
                       0.5 * params.gamma)
    detuning /= scale
    slope /= scale
    g = 0.5 * params.gamma / scale
    g_sq, neg_g = g * g, -g
    rho_scale = slope * h                       # rho = slope h / D
    q = cells.k_c - kz
    # the nested exponential series' factors i q h / (l + 1), l < P - 1
    nest = (1j * h / np.arange(1.0, _TERMS))[:, None] * q

    # grid points in blocks of at most a row's worth of cells, in the workspace: three
    # complex rows, a fourth from the first two real rows, 1/D's denominator in
    # that fourth's place until it is needed, and the third real row
    real, cplx = work
    block = max(1, real.shape[1] // n_cells)
    pair = real[:2].reshape(-1)
    sums = np.empty(kz.size, dtype=complex)
    for k0 in range(0, kz.size, block):
        ks = slice(k0, min(k0 + block, kz.size))
        size = (ks.stop - k0) * n_cells
        inv, rho, acc = (row[:size].reshape(-1, n_cells) for row in cplx)
        nested = pair.view(complex)[:size].reshape(-1, n_cells)
        w = pair[:size].reshape(-1, n_cells)
        x = real[2, :size].reshape(-1, n_cells)
        np.multiply.outer(slope[ks], centres, out=x)
        np.subtract(detuning[ks, None], x, out=x)
        # 1 / (u + i g) = (u - i g) / (u^2 + g^2), each part one division
        np.square(x, out=w)
        w += g_sq[ks, None]
        np.divide(x, w, out=inv.real)
        np.divide(neg_g[ks, None], w, out=inv.imag)
        np.multiply(inv, rho_scale[ks, None], out=rho)
        # S_l = mu_l + rho S_{l+1} and R_l = S_l + (i q h / (l + 1)) R_{l+1}, down to R_0
        np.copyto(acc, mu[-1])
        np.copyto(nested, acc)
        for p in range(_TERMS - 2, -1, -1):
            acc *= rho
            acc += mu[p]
            nested *= nest[p, ks, None]
            nested += acc
        nested *= inv
        cis(np.multiply.outer(q[ks], centres, out=x), out=rho, work=x)
        nested *= rho
        np.add.reduce(nested, axis=1, out=sums[ks])

    cells.size = 0
    for key, count in (("occupied_cells", n_cells), ("contractions", 1),
                       ("cell_kz", n_cells * kz.size)):
        stats[key] = stats.get(key, 0) + count
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


# the wall time of each part of a replica, in seconds summed over batches and replicas
_STAGE_TIMES = ("sampling_s", "timed_dicke_s", "mc_sum_s", "contraction_s")


def _timed(tally: dict, key: str, call, *args, **kwargs):
    """call(*args, **kwargs), its wall time added to tally[key]."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    tally[key] += time.perf_counter() - start
    return result


def replicated_mc_spectrum(
    params: SpectrumParams,
    kz_grid,
    n_atoms: int,
    box: Box,
    n_replicas: int,
    base_seed: int,
    *,
    threads: int = 1,
    stats: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monte Carlo spectrum averaged over independent seeded ensembles.

    Checked once, before any replica: the grid is a nonempty 1-D array of
    finite k_z values, k0 does not graze, and the box's z faces keep |a z| < 1
    (LinearizationError), which bounds every height drawn in the box.

    Replica r draws its n_atoms atoms from the one stream
    ensemble_stream((base_seed, r)), in consecutive batches of at most
    _BATCH_ATOMS: the batches are the atoms one draw of n_atoms would give (see
    :func:`gravdicke.emission.sample_ensemble`), and no more than one batch is
    held at a time.  Each batch of m atoms gets its own timed Dicke state, and
    its cell moments, weighted by sqrt(m / n_atoms), are added into the
    replica's cells.  That is the whole ensemble's sum: its state e^{i k0z z_j}
    / sqrt(N), restricted to the batch, is sqrt(m / N) times the batch's own
    state e^{i k0z z_j} / sqrt(m).  The two differ only in rounding, since each
    state is normalized by its computed norm, and |cis| is 1 to about 3e-16.
    The state is built in the cells' frame, curved_timed_dicke(batch, k0z -
    k_c) = e^{i (k0z - k_c) z_j} / sqrt(m), which is what
    :func:`monte_carlo_spectrum` takes: each atom gets one
    phasor, whose phase is the small difference left once the sum's own e^{-i
    k_c z_j} cancels most of k0z, the cancellation that makes a timed Dicke
    state emit along k0.

    Every batch has the same cells, on the lattice of :func:`monte_carlo_spectrum`
    with k_c and h from the grid and the box, so the batches' moments add
    before any grid point is touched, and the contraction against the grid
    runs once per replica, after its last batch.  A thread has room for twice
    the box's lattice points, or for one cell per atom of a batch if that is
    fewer.  The contraction runs early, before a batch, when the cells held
    plus those the batch may add (no more than its atoms, nor than the box's
    lattice points) could outgrow that room: on a grid wide enough, or a line
    narrow enough, for the box to hold more lattice points than a batch has
    atoms, that is before every batch but the first.

    Every batch a thread runs, in all of its replicas, is drawn, phased,
    weighted and summed in that thread's one workspace of batch-sized arrays
    (see _batch_work), passed down as out= and work= buffers, and its cells
    live there too; the values are those the allocating calls give, bit for
    bit.  Returns (mean, stderr, probability): the replicas' mean
    amplitude, its replica-to-replica standard error, and the replicas' mean
    |amplitude|^2.  A ``stats`` dict receives, summed over replicas, the
    contractions ("contractions"), the occupied cells they took
    ("occupied_cells") and their cells x grid points ("cell_kz"), with the
    Taylor order ("order") and the bound on each term's truncation relative to
    the term ("truncation_bound"; see TRUNCATION_BOUND), and the wall time in
    seconds, summed over batches, replicas and threads, of the draws
    ("sampling_s"), the states ("timed_dicke_s"), the batches' moments
    ("mc_sum_s") and the contractions ("contraction_s").
    """
    if n_atoms < 1:
        raise PhysicsDomainError("need at least one atom")
    params.require_directional()
    kz = np.asarray(kz_grid, dtype=float)
    if kz.ndim != 1 or kz.size == 0 or not np.all(np.isfinite(kz)):
        raise PhysicsDomainError(f"kz grid must be a nonempty 1-D array of finite values, "
                                 f"got shape {kz.shape}")
    check_linearization(params.metric.a, (box.low, box.high))
    k_c, h = _cell_half_width(kz, params, box.high)
    # no batch occupies more cells than it has atoms, nor than the box has lattice
    # points |m| <= rint(box.high / 2h): room for twice the latter holds a replica's
    # cells and the next batch's
    lattice = 2 * round(box.high / (2.0 * h)) + 1
    local = threading.local()  # each thread's workspace, made for its first replica
    counts = []  # each replica's contraction counts and times

    def one(seed) -> np.ndarray:
        if not hasattr(local, "work"):
            width = min(_BATCH_ATOMS, n_atoms)
            local.work = (_batch_work(width),
                          _Cells(k_c, h, min(width, 2 * lattice), n_atoms))
        (positions, sum_work), cells = local.work
        rng = ensemble_stream(seed)
        total = np.zeros(kz.size, dtype=complex)
        tally = dict.fromkeys(_STAGE_TIMES, 0.0)
        for start in range(0, n_atoms, _BATCH_ATOMS):
            m = min(_BATCH_ATOMS, n_atoms - start)
            if cells.size + min(m, lattice) > cells.capacity:
                total += _timed(tally, "contraction_s", _contract, cells, kz, params, sum_work,
                                tally)
            # module globals, and n, ensemble and grid passed by position, so that
            # bench/tracer.py can wrap each batch's calls and count their atoms
            ens = _timed(tally, "sampling_s", sample_ensemble, m, box, rng, out=positions[:m])
            # the state, in the cells' frame, is built in the sum's first rows, which the
            # sum weights in place
            amps = _timed(tally, "timed_dicke_s", curved_timed_dicke, ens, params.k0z - k_c,
                          out=sum_work[1][0, :m], work=sum_work[0][0, :m])
            _timed(tally, "mc_sum_s", monte_carlo_spectrum, ens, amps, kz, params, cells,
                   work=sum_work)
        total += _timed(tally, "contraction_s", _contract, cells, kz, params, sum_work, tally)
        counts.append(tally)
        return total

    reps = run_replicas(one, n_replicas, base_seed, threads)  # (R, n_kz)
    if stats is not None:
        stats.update({key: sum(tally[key] for tally in counts)
                      for key in ("occupied_cells", "contractions", "cell_kz", *_STAGE_TIMES)},
                     order=_TERMS, truncation_bound=TRUNCATION_BOUND)
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


def structure_factor_expectation(n: int, edge: float, delta_k) -> float:
    """Ensemble expectation 1/N + (1 - 1/N) prod_i sinc^2(dk_i L / 2) for N atoms uniform
    in a cube of edge L."""
    dk = np.asarray(delta_k, dtype=float).reshape(3)
    arg = 0.5 * dk * edge
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
        p = SpectrumParams(params.nu, params.gamma, WeakFieldMetric(a=a), params.theta0,
                           params.constants)
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
