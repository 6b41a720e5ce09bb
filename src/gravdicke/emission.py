"""Random atom ensembles, timed collective states and single-atom decay.

Only the single-excitation amplitude sector is represented: states are complex
amplitude arrays over atoms, never operator matrices.  Ensembles are sampled
uniformly in coordinate volume with a seeded counter-based generator, and the
curved-space volume element enters as a per-atom importance weight rather than
by rejection, so runs are bit-reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhysicsDomainError
from .metric import WeakFieldMetric, check_linearization

__all__ = [
    "GAMMA_NU_MAX",
    "Box",
    "Ensemble",
    "TimedDickeState",
    "ensemble_stream",
    "sample_ensemble",
    "cis",
    "curved_timed_dicke",
    "single_atom_survival",
]

# Weak-coupling guard on Gamma/nu.  The order-unity test regime runs at
# Gamma/nu = 1e-2, so the bound sits just above it.
GAMMA_NU_MAX = 2e-2


@dataclass(frozen=True)
class Box:
    """Axis-aligned sampling volume."""

    center: np.ndarray
    size: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.array(self.center, dtype=float).reshape(3))
        object.__setattr__(self, "size", np.array(self.size, dtype=float).reshape(3))
        if not np.all((self.size > 0.0) & np.isfinite(self.size)):
            raise PhysicsDomainError(f"box edge lengths must be positive and finite, got "
                                     f"{self.size.tolist()!r}")

    @property
    def low(self) -> np.ndarray:
        return self.center - 0.5 * self.size

    @property
    def high(self) -> np.ndarray:
        return self.center + 0.5 * self.size


@dataclass(frozen=True)
class Ensemble:
    """Identical two-level atoms at positions inside a box.

    ``weights`` carries the curved-volume importance weight sqrt(1 - a dz) per
    atom (all ones in flat space).  The record may alias the arrays it is given:
    float64 positions and weights are taken with np.asarray, not copied, so a
    caller that writes to them afterwards writes to the record.
    """

    positions: np.ndarray
    box: Box
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise PhysicsDomainError("positions must be a (N, 3) array with N >= 1")
        object.__setattr__(self, "positions", pos)
        # a column's min and max decide (a NaN is both, and fails both tests)
        for col, low, high in zip(pos.T, self.box.low, self.box.high):
            if not (col.min() >= low and col.max() <= high):
                raise PhysicsDomainError("all atoms must lie inside the box")
        if self.weights is None:
            object.__setattr__(self, "weights", np.ones(len(pos)))
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (len(pos),):
                raise PhysicsDomainError("weights must have one entry per atom")
            object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def _volume_weights(z: np.ndarray, metric: WeakFieldMetric | None) -> np.ndarray:
    if metric is None or metric.a == 0.0:
        return np.ones(len(z))
    dz = z - metric.z0
    check_linearization(metric.a, dz)
    return np.sqrt(1.0 - metric.a * dz)


def ensemble_stream(seed: int | tuple[int, ...]) -> np.random.Generator:
    """The Philox stream that ensembles with this seed are drawn from.

    An int seed s and the tuple (s,) give the same stream.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sample_ensemble(
    n: int,
    box: Box,
    seed: int | tuple[int, ...] | np.random.Generator,
    nu: float,
    gamma: float,
    metric: WeakFieldMetric | None = None,
) -> Ensemble:
    """Draw N atom positions uniformly in the box with a Philox stream.

    An int or tuple ``seed`` starts the stream ensemble_stream(seed); a
    Generator is drawn from where its stream stands, and advanced.  Each atom
    takes three consecutive doubles of the stream, so ensembles of n_1, n_2, ...
    atoms drawn in turn from one Generator are, concatenated, bit for bit the
    ensemble of n_1 + n_2 + ... atoms drawn at once from its seed, weights
    included.  The atomic line (nu, gamma) is checked against the
    weak-coupling guard and not stored, since no atom sum reads it.
    """
    if n < 1:
        raise PhysicsDomainError("need at least one atom")
    if not 0.0 < gamma < GAMMA_NU_MAX * nu:
        raise PhysicsDomainError(f"need 0 < gamma < {GAMMA_NU_MAX:g} nu (weak-coupling guard)")
    rng = seed if isinstance(seed, np.random.Generator) else ensemble_stream(seed)
    pos = rng.random((n, 3))
    for k, (low, size) in enumerate(zip(box.low, box.size)):  # in place, column by column
        col = pos[:, k]
        col *= size
        col += low
    return Ensemble(pos, box, _volume_weights(pos[:, 2], metric))


@dataclass(frozen=True)
class TimedDickeState:
    """Normalized single-excitation amplitudes over atoms.

    The record may alias the array it is given: complex128 amplitudes are taken
    with np.asarray, not copied, so a caller that writes to them afterwards
    writes to the record.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise PhysicsDomainError(f"state norm {norm!r} deviates from 1 beyond 1e-12")

    @property
    def n(self) -> int:
        return len(self.amplitudes)


def cis(theta) -> np.ndarray:
    """exp(i theta) for real theta, in an array of theta's shape, from t = tan(theta / 2).

    cos theta = (1 - t^2) / (1 + t^2) and sin theta = 2 t / (1 + t^2), within
    about 3e-16 of np.exp(1j * theta).  On x86-64 CPUs with AVX-512 numpy runs
    float64 tan as a SIMD loop, at 2-3 ns per element against some 50 ns for
    its complex exp (float64 sin and cos are scalar loops too).  Elsewhere it
    calls the scalar libm tan, so the last bit can differ between machines, but
    never between reruns or thread counts.  For finite theta |t| stays below
    about 2e18, so 1 + t^2 cannot overflow; a non-finite theta gives NaN, as
    np.exp does.  Only t is allocated besides the result, whose real and
    imaginary views are written in place.  The Monte Carlo sum and the timed
    Dicke state use it; the structure factor, which only averages the phasors,
    sums cos and sin from the same t without forming them.  The oracles keep
    np.exp.
    """
    t = np.multiply(theta, 0.5, out=np.empty(np.shape(theta)))  # out=: stays an array at 0-d
    np.tan(t, out=t)  # contiguous: a strided view would run tan 2-3x slower
    out = np.empty(t.shape, dtype=complex)
    cos, sin = out.real, out.imag
    np.multiply(t, t, out=cos)
    np.add(cos, 1.0, out=sin)
    np.reciprocal(sin, out=sin)        # w = 1 / (1 + t^2)
    np.subtract(1.0, cos, out=cos)
    cos *= sin                         # (1 - t^2) w
    sin *= t
    sin += sin                         # 2 t w
    return out


def curved_timed_dicke(ensemble: Ensemble, k0, metric: WeakFieldMetric) -> TimedDickeState:
    """Absorption-conditioned state c_j ~ exp(i k0 . r_j), renormalized to unit norm.

    The phases are the flat plane-wave phases k0 . r_j, so at a = 0 this is the
    flat timed Dicke state exp(i k0 . r_j) / sqrt(N); the metric enters only
    through the linearization guard on the atom heights.  The phasors come
    from :func:`cis`.
    """
    k0 = np.asarray(k0, dtype=float).reshape(3)
    dz = ensemble.positions[:, 2] - metric.z0
    check_linearization(metric.a, dz)
    raw = cis(ensemble.positions @ k0)
    # a real product with 1 / norm: numpy's complex division by a real scalar
    # multiplies by the same reciprocal, at some three times the cost
    raw.view(float)[:] *= 1.0 / np.sqrt(np.sum(np.abs(raw) ** 2))
    return TimedDickeState(raw)


def single_atom_survival(t, gamma: float):
    """Excited-state amplitude exp(-Gamma t / 2) after the memory kernel collapses."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise PhysicsDomainError("survival amplitude is defined for t >= 0")
    out = np.exp(-0.5 * gamma * t)
    return float(out) if out.ndim == 0 else out

