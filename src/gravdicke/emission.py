"""Random atom ensembles, timed collective states and single-atom decay.

Only the single-excitation amplitude sector is represented: states are complex
amplitude arrays over atoms, never operator matrices.  Ensembles are sampled
uniformly in coordinate volume from a seeded Philox stream and carry no
physics: the curved-space volume element is the Monte Carlo atom sum's
importance weight (see :func:`gravdicke.spectrum.monte_carlo_spectrum`), not a
rejection step, so every atom takes exactly three doubles of the stream.  Runs
are byte-identical across reruns and thread counts on one machine; another
machine can differ in the last bit of a phasor (see :func:`cis`).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import PhysicsDomainError
# check_linearization is unread here: bench/tracer.py rebinds the name, so it stays
# until the tracer goes
from .metric import CheckedRecord, check_linearization

__all__ = [
    "Box",
    "Ensemble",
    "ensemble_stream",
    "sample_ensemble",
    "cis",
    "curved_timed_dicke",
    "single_atom_survival",
]


class Box(CheckedRecord, namedtuple("Box", "edge")):
    """Cube of a positive finite edge centred on the origin, where the metric is Minkowskian:
    every coordinate in it lies in [low, high] = [-edge / 2, edge / 2]."""

    __slots__ = ()

    def __new__(cls, edge: float) -> "Box":
        edge = float(edge)
        if not 0.0 < edge < np.inf:  # also rejects NaN
            raise PhysicsDomainError(f"box edge must be positive and finite, got {edge!r}")
        return super().__new__(cls, edge)

    @property
    def low(self) -> float:
        return -0.5 * self.edge

    @property
    def high(self) -> float:
        return 0.5 * self.edge


class Ensemble(namedtuple("Ensemble", "positions")):
    """Identical two-level atoms, every coordinate in a box's [low, high]; the box is
    checked and not kept.

    The record may alias the array it is given: float64 positions are taken
    with np.asarray, not copied, so a caller that writes to them afterwards
    writes to the record.
    """

    __slots__ = ()

    def __new__(cls, positions, box: Box) -> "Ensemble":
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise PhysicsDomainError("positions must be a (N, 3) array with N >= 1")
        # the min and max over all coordinates decide (a NaN is both, and fails both tests)
        if not (pos.min() >= box.low and pos.max() <= box.high):
            raise PhysicsDomainError("all atoms must lie inside the box")
        return super().__new__(cls, pos)

    @classmethod
    def _make(cls, iterable):
        # and so _replace: a record built from fields would skip the box check
        raise PhysicsDomainError("an Ensemble is checked against a box it does not keep: "
                                 "build a changed one with Ensemble(positions, box)")

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def ensemble_stream(seed: int | tuple[int, ...]) -> np.random.Generator:
    """The Philox stream that ensembles with this seed are drawn from.

    An int seed s and the tuple (s,) give the same stream.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sample_ensemble(
    n: int,
    box: Box,
    seed: int | tuple[int, ...] | np.random.Generator,
    *,
    out: np.ndarray | None = None,
) -> Ensemble:
    """Draw N atom positions uniformly in the cube with a Philox stream.

    An int or tuple ``seed`` starts the stream ensemble_stream(seed); a
    Generator is drawn from where its stream stands, and advanced.  Each atom
    takes three consecutive doubles of the stream, so ensembles of n_1, n_2, ...
    atoms drawn in turn from one Generator are, concatenated, bit for bit the
    ensemble of n_1 + n_2 + ... atoms drawn at once from its seed.  The draw is
    the same in flat and curved space: each double u becomes u edge + low.
    ``out``, a C-contiguous (n, 3) float array, receives the positions in
    place of a fresh array, with the same bits, and the Ensemble returned
    aliases it.
    """
    if n < 1:
        raise PhysicsDomainError("need at least one atom")
    rng = seed if isinstance(seed, np.random.Generator) else ensemble_stream(seed)
    pos = np.empty((n, 3)) if out is None else out
    rng.random((n, 3), out=pos)
    pos *= box.edge
    pos += box.low
    return Ensemble(pos, box)


def cis(theta, out: np.ndarray | None = None, *, work: np.ndarray | None = None) -> np.ndarray:
    """exp(i theta) for real theta, in an array of theta's shape, from t = tan(theta / 2).

    cos theta = (1 - t^2) / (1 + t^2) and sin theta = 2 t / (1 + t^2), within
    about 3e-16 of np.exp(1j * theta).  On x86-64 CPUs with AVX-512 numpy runs
    float64 tan as a SIMD loop, at 2-3 ns per element against some 50 ns for
    its complex exp (float64 sin and cos are scalar loops too).  Elsewhere it
    calls the scalar libm tan, so the last bit can differ between machines, but
    never between reruns or thread counts.  For finite theta |t| stays below
    about 2e18, so 1 + t^2 cannot overflow; a non-finite theta gives NaN, as
    np.exp does.  As with a ufunc, ``out`` (a C-contiguous complex array of
    theta's shape) receives the result, whose real and imaginary views are
    written in place, and ``work`` (a C-contiguous float array of theta's
    shape, theta's own array allowed, which is then overwritten) receives t;
    each left out is allocated.  The Monte Carlo sum and the timed Dicke state
    use it; the structure factor, which only averages the phasors, sums cos
    and sin from the same t without forming them.  The oracles keep np.exp.
    """
    if work is None:
        work = np.empty(np.shape(theta))  # out=: stays an array at 0-d
    t = np.multiply(theta, 0.5, out=work)
    np.tan(t, out=t)  # contiguous: a strided view would run tan 2-3x slower
    if out is None:
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


def curved_timed_dicke(ensemble: Ensemble, k0z: float, *, out: np.ndarray | None = None,
                       work: np.ndarray | None = None) -> np.ndarray:
    """Absorption-conditioned amplitudes c_j = exp(i k0z z_j), renormalized to unit norm.

    This is the timed Dicke state exp(i k0 . r_j) / sqrt(N) restricted to the
    heights, which is exact for the emission: every mode the atom sum runs over
    keeps k0's transverse components, so in exp(i k0 . r_j) exp(-i k . r_j) =
    exp(i (k0z - k_z) z_j) the x and y phases cancel atom by atom.  Returns the
    state itself, one amplitude per atom in the ensemble's order, written into
    ``out`` when that is given (a C-contiguous complex array of ensemble.n
    entries); the phases and |c_j|^2 pass through ``work`` (a C-contiguous
    float array of as many).  Each left out is allocated.  The phases are flat
    at any a: the metric enters through the atom sum's volume weights and its
    linearization guard (see :func:`gravdicke.spectrum.monte_carlo_spectrum`).
    The phasors come from :func:`cis`.  Given k0z - k_c in place of k0z, it
    returns the state in the frame of a wavenumber k_c, c_j e^{-i k_c z_j} up
    to rounding, as the Monte Carlo replicas build it.
    """
    theta = np.multiply(ensemble.positions[:, 2], k0z, out=work)
    raw = cis(theta, out=out, work=theta)
    norm_sq = np.sum(np.square(np.abs(raw, out=theta), out=theta))
    # a real product with 1 / norm: numpy's complex division by a real scalar
    # multiplies by the same reciprocal, at some three times the cost
    raw.view(float)[:] *= 1.0 / np.sqrt(norm_sq)
    return raw


def single_atom_survival(t, gamma: float):
    """Excited-state amplitude exp(-Gamma t / 2) after the memory kernel collapses."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise PhysicsDomainError("survival amplitude is defined for t >= 0")
    out = np.exp(-0.5 * gamma * t)
    return float(out) if out.ndim == 0 else out

