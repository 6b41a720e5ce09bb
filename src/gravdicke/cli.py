"""Batch front-end: named scenarios, strict JSON config, deterministic CSV/JSON output.

Every run echoes its fully-resolved configuration next to the data so results
are reproducible from the output directory alone.  CSV bodies are byte-stable
across reruns and thread counts for a fixed config and seed; only the metadata
sidecar carries a timestamp.

Exit codes: 0 success, 2 invalid config, 3 physics-domain error (for example a
linearization guard), 4 oracle disagreement or non-converged quadrature in a
verification scenario, 1 anything unexpected.  A config under which a
scenario's gate cannot be decided (one replica, one distinct a value, no
off-peak probes, residuals drowned in finite-difference or rounding error) is
an invalid config, not an oracle disagreement.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import json
import math
import os
import platform
import sys
import time
import typing
from pathlib import Path

# Two settings for a process that starts here, before numpy loads; a process that
# loaded numpy first keeps its own set-up.  numpy's OpenBLAS starts a worker thread
# per core at import, but a run's only BLAS product over atoms is one (N, 3) @ 3
# matvec, pos @ dk in structure_factor, and --threads is its only parallelism, so
# OpenBLAS runs single-threaded unless the user's own value says otherwise.  And
# numpy.random imports secrets, hmac and hashlib, whose _hashlib maps OpenSSL's
# libcrypto, some 3 MB resident, for hashes no run takes: a None entry blocks that
# import, hashlib falls back to CPython's built-in md5, sha and blake2, and an
# _hashlib already loaded stays.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.modules.setdefault("_hashlib", None)

import numpy as np

from . import __version__
from .emission import Box, ensemble_stream, sample_ensemble
from .errors import (
    ConfigError,
    GravDickeError,
    LinearizationError,
    OracleMismatchError,
    PhysicsDomainError,
    QuadratureError,
)
from .metric import PhysicalConstants, WeakFieldMetric, check_linearization, surface_param_a
from .spectrum import (
    SpectrumParams,
    analytic_spectrum,
    flat_delta_limit,
    frequency_spread,
    frequency_spread_over_gamma,
    kernel_decay_constant,
    mean_stderr,
    quadrature_spectrum,
    replicated_mc_spectrum,
    run_replicas,
    structure_factor,
    structure_factor_expectation,
    wavevector_spread,
)

if typing.TYPE_CHECKING:  # bound on first use, by _import_verify_modes
    from .maxwell import residual_slope_study, transversality_check
    from .modes import ModeIndex, PerturbedMode, dump_mode_vectors

SCENARIOS = ("verify-modes", "flat-dicke", "curved-spectrum", "spreads", "delta-limit")

MAX_ATOMS = 10**7  # per ensemble; the positions alone take 24 bytes per atom
# replicas, grid points, off-peak probes, modes and a values: every count of work a run
# loops over
MAX_COUNT = 10**5
# each replica worker is an OS thread with its own stack and malloc arena; far past any core count
MAX_THREADS = 256


def _require_positive(section, prefix: str, names: tuple[str, ...], high: float = math.inf) -> None:
    for name in names:
        value = getattr(section, name)
        if not 0 < value < math.inf:  # also rejects NaN; exact for huge ints
            raise ConfigError(f"{prefix}.{name} must be finite and > 0, got {value!r}")
        if value > high:
            raise ConfigError(f"{prefix}.{name} must be <= {high}, got {value!r}")


class MetricConfig(typing.NamedTuple):
    a: float = 1e-3
    g: float | None = None          # free-fall acceleration; overrides a when set


class GridConfig(typing.NamedTuple):
    lo: float = -8.0                # offsets in units of a nu / Gamma
    hi: float = 3.0
    points: int = 45

    def check(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)
                and self.lo < 0.0 < self.hi and 3 <= self.points <= MAX_COUNT):
            raise ConfigError(f"spectrum.grid needs finite lo < 0 < hi and 3 <= points <= "
                              f"{MAX_COUNT}, got lo={self.lo!r}, hi={self.hi!r}, "
                              f"points={self.points!r}")


class SpectrumConfig(typing.NamedTuple):
    nu: float = 1.0
    gamma: float = 1e-2
    theta0: float = 0.5235987755982988   # pi/6
    grid: GridConfig = GridConfig()


class EnsembleConfig(typing.NamedTuple):
    n_atoms: int = 20000
    replicas: int = 8
    box_heights: float = 80.0       # z extent in decay lengths Gamma/(a nu)

    def check(self) -> None:
        if self.replicas < 2:
            raise ConfigError("ensemble.replicas must be >= 2: the Monte Carlo gate needs "
                              "a replica spread")
        _require_positive(self, "ensemble", ("n_atoms",), MAX_ATOMS)
        _require_positive(self, "ensemble", ("replicas",), MAX_COUNT)
        _require_positive(self, "ensemble", ("box_heights",))


class DickeConfig(typing.NamedTuple):
    n_atoms: int = 10000
    box_wavelengths: float = 100.0  # cube side in units of 2 pi / |k0|
    n_offpeak: int = 50
    replicas: int = 50

    def check(self) -> None:
        if self.n_offpeak < 1:
            raise ConfigError("dicke.n_offpeak must be >= 1: the off-peak check needs probes")
        if self.replicas < 2:
            raise ConfigError("dicke.replicas must be >= 2, for a replica spread")
        _require_positive(self, "dicke", ("n_atoms",), MAX_ATOMS)
        _require_positive(self, "dicke", ("n_offpeak", "replicas"), MAX_COUNT)
        _require_positive(self, "dicke", ("box_wavelengths",))


class DeltaConfig(typing.NamedTuple):
    halvings: int = 4
    grid_points: int = 161

    def check(self) -> None:
        if self.halvings < 1:
            raise ConfigError("delta-limit needs at least one a value: delta.halvings >= 1")
        # the decay fit needs two offsets below k0z: 3 points put one there
        if not 4 <= self.grid_points <= MAX_COUNT:
            raise ConfigError(f"delta.grid_points must be in [4, {MAX_COUNT}], "
                              f"got {self.grid_points!r}")


class VerifyConfig(typing.NamedTuple):
    n_modes: int = 6
    a_values: tuple[float, ...] = (1e-4, 1e-3, 1e-2)

    def check(self) -> None:
        if len(self.a_values) > MAX_COUNT:
            raise ConfigError(f"verify.a_values must hold at most {MAX_COUNT} values, "
                              f"got {len(self.a_values)}")
        if len(set(self.a_values)) < 2 or self.n_modes < 1:
            raise ConfigError("verify-modes needs verify.n_modes >= 1 and at least 2 distinct "
                              "verify.a_values to fit a slope")
        if not all(a > 0.0 for a in self.a_values):
            raise ConfigError(f"verify.a_values must all be > 0: a log-log slope needs positive "
                              f"a, got {self.a_values!r}")
        _require_positive(self, "verify", ("n_modes",), MAX_COUNT)


class Tolerances(typing.NamedTuple):
    slope: float = 0.1
    mc_sigma: float = 3.0
    mc_fraction: float = 0.95

    def check(self) -> None:
        _require_positive(self, "tolerances", ("slope", "mc_sigma"))
        if not 0.0 < self.mc_fraction <= 1.0:
            raise ConfigError(f"tolerances.mc_fraction must be in (0, 1], got {self.mc_fraction!r}")


class Config(typing.NamedTuple):
    scenario: str = ""
    seed: int = 12345
    output_dir: str = "out"
    unit_regime: str = "scaled"     # scaled | si
    threads: int = 1
    metric: MetricConfig = MetricConfig()
    spectrum: SpectrumConfig = SpectrumConfig()
    ensemble: EnsembleConfig = EnsembleConfig()
    dicke: DickeConfig = DickeConfig()
    delta: DeltaConfig = DeltaConfig()
    verify: VerifyConfig = VerifyConfig()
    tolerances: Tolerances = Tolerances()

    def check(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.unit_regime not in ("si", "scaled"):
            raise ConfigError("unit_regime must be 'si' or 'scaled'")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ConfigError(f"threads must be an integer in [1, {MAX_THREADS}], "
                              f"got {self.threads!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")


def _parse(tp, value, key: str):
    """Check a JSON value against a config field type: the one place config types are known.

    A section (a named tuple) is checked as soon as it is built, so its
    sections are checked before it; defaults are valid by construction.
    """
    if hasattr(tp, "_fields"):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {key} must be a table")
        hints = typing.get_type_hints(tp)
        prefix = f"{key}." if key else ""
        for name in value:
            if name not in hints:
                raise ConfigError(f"unknown config key: {prefix}{name}")
        section = tp(**{name: _parse(hints[name], v, prefix + name) for name, v in value.items()})
        if hasattr(section, "check"):
            section.check()
        return section
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"config key {key} must be a list, got {value!r}")
        items = tuple(_parse(args[0], v, key) for v in value)
        if args[0] is float and not all(map(math.isfinite, items)):
            raise ConfigError(f"config key {key} must hold finite numbers, got {value!r}")
        return items
    if args:  # X | None
        return None if value is None else _parse(args[0], value, key)
    if isinstance(value, bool) or not isinstance(value, (int, float) if tp is float else tp):
        raise ConfigError(f"config key {key} must be {tp.__name__}, got {value!r}")
    if tp is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"config key {key} is out of float range")
    return float(value) if tp is float else value


def _unique_keys(pairs: list) -> dict:
    """A JSON object's table, rejecting a repeated key, which json.loads would keep the last of."""
    table = {}
    for key, value in pairs:
        if key in table:
            raise ConfigError(f"config key {key!r} is repeated in one table")
        table[key] = value
    return table


def load_config(path: str | None, overrides: dict) -> Config:
    user: dict = {}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must contain a JSON object")
    user.update({key: val for key, val in overrides.items() if val is not None})
    return _parse(Config, user, "")


def _constants(cfg: Config) -> PhysicalConstants:
    return PhysicalConstants() if cfg.unit_regime == "si" else PhysicalConstants.scaled()


def _a_key(m: MetricConfig) -> str:
    """The config key that sets a, with its value: metric.g overrides metric.a."""
    return f"metric.a = {m.a!r}" if m.g is None else f"metric.g = {m.g!r}"


def _kernel_keys(cfg: Config) -> str:
    """The config keys that set the kernel width a nu / gamma, with their values."""
    s = cfg.spectrum
    return f"{_a_key(cfg.metric)}, spectrum.nu = {s.nu!r}, spectrum.gamma = {s.gamma!r}"


def _spectrum_params(cfg: Config) -> SpectrumParams:
    constants = _constants(cfg)
    m, s = cfg.metric, cfg.spectrum
    try:
        metric = WeakFieldMetric(m.a if m.g is None else surface_param_a(m.g, constants))
    except PhysicsDomainError as exc:
        raise PhysicsDomainError(f"{_a_key(m)}: {exc}") from None
    try:
        return SpectrumParams(nu=s.nu, gamma=s.gamma, metric=metric, theta0=s.theta0,
                              constants=constants)
    except PhysicsDomainError as exc:
        raise PhysicsDomainError(f"spectrum.nu = {s.nu!r}, spectrum.gamma = {s.gamma!r}, "
                                 f"spectrum.theta0 = {s.theta0!r}: {exc}") from None


def _kernel_params(cfg: Config) -> SpectrumParams:
    """_spectrum_params for a scenario that samples the kernel: its grid is spaced in
    the kernel width a nu / gamma, which a = 0 makes zero and which must be finite."""
    params = _spectrum_params(cfg)
    if params.metric.a == 0.0:
        raise ConfigError(f"{cfg.scenario} needs a gravity gradient a > 0, which sets the "
                          f"kernel width a nu / gamma of its grid: {_a_key(cfg.metric)} gives "
                          "a = 0")
    if not math.isfinite(kernel_decay_constant(params)):
        raise ConfigError(f"the kernel width a nu / gamma overflows: {_kernel_keys(cfg)}")
    return params


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _offset_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """Strictly increasing grid of ``points`` offsets over [lo, hi], with an exact 0.0.

    The kernel's step convention puts its peak at offset zero, so grids must
    hit that point exactly rather than to within float rounding.  The caller
    guarantees finite lo < 0 < hi and points >= 3 (see GridConfig, DeltaConfig).
    """
    # the fraction comes first, so that no product overflows for lo near -max float
    n_neg = min(points - 2, max(1, round((points - 1) * (-lo / (hi - lo)))))
    n_pos = points - 1 - n_neg  # >= 1, as n_neg <= points - 2
    return np.concatenate([
        np.linspace(lo, 0.0, n_neg, endpoint=False),
        [0.0],
        np.linspace(0.0, hi, n_pos + 1)[1:],
    ])


def _kz_grid(cfg: Config, params: SpectrumParams, offsets: np.ndarray,
             where: str) -> tuple[np.ndarray, np.ndarray]:
    """(k0z + dk, q = -dk), dk = offsets x the kernel decay constant: the k_z grid and its
    offsets below the cutoff.  Rejects a grid whose c|k| overflows, or one so narrow that
    neighbouring k_z values, which the CSV's k_z column prints, round to the same float."""
    # the decay constant is finite (_kernel_params), but an offset times it may not be
    with np.errstate(over="ignore"):
        dk = offsets * kernel_decay_constant(params)
        kz = params.k0z + dk
        omega = params.constants.c * np.sqrt(np.sum(params.k0[:2] ** 2) + kz * kz)
    if not (np.all(np.isfinite(kz)) and np.all(np.isfinite(omega))):
        raise ConfigError(f"{where} reaches k_z values whose c|k| is not finite")
    if not np.all(np.diff(kz) > 0.0):
        raise ConfigError(f"{where} collapses in the CSV's k_z column: the kernel width "
                          f"a nu / gamma = {kernel_decay_constant(params):.3g} "
                          f"({_kernel_keys(cfg)}) is too small to resolve around "
                          f"k0z = {params.k0z:.6g}")
    return kz, -dk


@contextlib.contextmanager
def _stage(stages: dict, name: str):
    """Add the block's wall time to stages[name]["s"]; the block adds its work counts.

    stages[name] is the dict the block receives.  A stage entered twice sums.
    """
    entry = stages.setdefault(name, {"s": 0.0})
    start = time.perf_counter()
    try:
        yield entry
    finally:
        entry["s"] += time.perf_counter() - start


def _write_csv(path: Path, header: list[str], rows: list[list], stages: dict) -> None:
    with _stage(stages, "write_csv") as work:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        work["bytes"] = work.get("bytes", 0) + path.stat().st_size


def _vm_hwm_kib() -> int | None:
    """Peak resident size of this process's own address space, in KiB (Linux VmHWM); else None.

    Linux's ru_maxrss also counts the image that exec replaced, so a process
    started by a larger one reports its parent's size.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _resource_use() -> dict:
    """The process's peak RSS (MB of 2**20 bytes) and minor page faults so far; None without resource."""
    try:
        import resource
    except ImportError:  # Windows
        return {"peak_rss_mb": None, "minor_faults": None}
    use = resource.getrusage(resource.RUSAGE_SELF)
    hwm = _vm_hwm_kib()
    # ru_maxrss is in bytes on macOS, KiB elsewhere
    peak = (hwm / 2.0**10 if hwm is not None
            else use.ru_maxrss / (2.0**20 if sys.platform == "darwin" else 2.0**10))
    return {"peak_rss_mb": peak, "minor_faults": use.ru_minflt}


def _write_metadata(outdir: Path, cfg: Config, summary: dict, stages: dict) -> None:
    meta = {
        "package_version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": cfg.seed,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "threads": cfg.threads,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            # when true, each process compiles the package's source again at import
            "dont_write_bytecode": sys.dont_write_bytecode,
            **_resource_use(),
        },
        "config": _asdict(cfg),
        "summary": summary,
        # wall time in seconds and the work count of each timed stage
        "stages": stages,
    }
    (outdir / "metadata.json").write_text(json.dumps(meta, indent=2, default=_json_default))
    (outdir / "resolved_config.json").write_text(json.dumps(meta["config"], indent=2))


def _asdict(section) -> dict:
    """A config section as a dict, its sections as nested dicts and an unread non-finite
    number, which JSON cannot hold, as null."""
    return {name: _asdict(value) if hasattr(value, "_fields")
            else None if isinstance(value, float) and not math.isfinite(value) else value
            for name, value in zip(section._fields, section)}


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _run_spreads(cfg: Config, outdir: Path, stages: dict) -> dict:
    params = _spectrum_params(cfg)
    decay = kernel_decay_constant(params)
    if not math.isfinite(decay):
        raise PhysicsDomainError(f"the kernel width a nu / gamma overflows: {_kernel_keys(cfg)}")
    summary = {"frequency_spread": frequency_spread(params),
               "wavevector_spread": wavevector_spread(params),
               "kernel_decay_constant": decay}
    # before the CSV, which would otherwise hold an inf that the run then rejects
    bad = next((key for key, value in summary.items() if not math.isfinite(value)), None)
    if bad is not None:
        raise PhysicsDomainError(f"spreads gave a non-finite {bad}: {json.dumps(summary)}")
    dw, wv, dec = summary.values()
    _write_csv(
        outdir / "spreads.csv",
        ["a", "nu", "gamma", "theta0", "wavevector_spread", "kernel_decay_constant",
         "frequency_spread"],
        [[params.metric.a, params.nu, params.gamma, params.theta0, wv, dec, dw]],
        stages,
    )
    print(f"frequency spread: {dw:.4g} 1/s")
    print(f"wavevector spread (quoted, with cos theta0): {wv:.4g} 1/m")
    print(f"kernel decay constant (no angle factor):     {dec:.4g} 1/m")
    return summary


# the named flat-dicke probes in units of 2 / box side, so that each component is
# the argument dk_i L / 2 of its sinc^2 factor in the expectation
_NAMED_PROBES_U = ((1.0, 0.0, 0.0), (2.5, 0.0, 0.0), (1.0, 1.5, 0.7))


def _run_flat_dicke(cfg: Config, outdir: Path, stages: dict) -> dict:
    # of the metric and spectrum sections only nu is read: it sets the box's wavelength
    nu = cfg.spectrum.nu
    knorm = nu / _constants(cfg).c
    if not 0.0 < knorm < math.inf:  # also rejects NaN, and an SI nu / c that underflows to 0
        raise PhysicsDomainError(f"spectrum.nu must be finite and > 0, with nu / c > 0, "
                                 f"got {nu!r}")
    d = cfg.dicke
    n = d.n_atoms
    wavelength = 2.0 * math.pi / knorm
    side = d.box_wavelengths * wavelength
    if not math.isfinite(side):
        raise ConfigError(f"dicke.box_wavelengths = {d.box_wavelengths!r} wavelengths "
                          f"2 pi c / nu at spectrum.nu = {nu!r} give a box side {side!r}")
    box = Box(side)
    rng = ensemble_stream((cfg.seed, 977))

    # the zero probe comes first unconditionally: its value must be exactly 1
    probes = [np.zeros(3)]
    with np.errstate(over="ignore"):  # checked below
        probes += [np.asarray(u, dtype=float) * 2.0 / side for u in _NAMED_PROBES_U]
        n_named = len(probes)
        # random far-off-peak probes with |dk| L >= 20 pi
        for _ in range(d.n_offpeak):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            mag = (20.0 * math.pi / side) * rng.uniform(1.0, 3.0)
            probes.append(direction * mag)
    # |dk . r| <= (|dk_x| + |dk_y| + |dk_z|) L / 2 over the box, in Python floats,
    # which overflow to inf without a warning
    for dk in probes:
        if not math.isfinite(sum(abs(float(x)) for x in dk) * (0.5 * side)):
            raise ConfigError(f"a flat-dicke probe wavevector {dk.tolist()!r} gives phases over "
                              f"the box that are not finite: dicke.box_wavelengths too small")

    def one(seed) -> list[float]:
        ens = sample_ensemble(n, box, seed)
        return [structure_factor(ens.positions, dk) for dk in probes]

    with _stage(stages, "structure_factor") as work:
        samples = run_replicas(one, d.replicas, cfg.seed, cfg.threads)
        work["atom_probe"] = n * len(probes) * d.replicas
    mean, stderr = mean_stderr(samples)
    expected = np.array([structure_factor_expectation(n, box.edge, dk) for dk in probes])

    rows = [
        [dk[0], dk[1], dk[2], mean[i], stderr[i], expected[i]]
        for i, dk in enumerate(probes)
    ]
    _write_csv(outdir / "structure_factor.csv",
               ["dk_x", "dk_y", "dk_z", "s_mean", "s_stderr", "s_expected"], rows, stages)
    off = mean[n_named:]
    # recorded, not gated: with few replicas a pull is heavy-tailed (t-distributed),
    # and at 4 replicas a 3 sigma gate on three probes fails about one seed in six.
    # The zero probe has no spread and reads 0: there S = 1 = expected exactly
    pulls = np.abs(mean - expected) / np.maximum(stderr, 1e-300)
    summary = {
        "n_atoms": n,
        "s_at_zero": float(mean[0]),
        "offpeak_mean": float(off.mean()),
        "offpeak_bound_2_over_n": 2.0 / n,
        "max_named_probe_pull": float(np.max(pulls[1:n_named], initial=0.0)),
        # one per CSV row, in its order
        "probe_pulls": pulls.tolist(),
    }
    print(f"S(dk=0) = {float(mean[0])!r}; off-peak mean = {summary['offpeak_mean']:.3e} "
          f"(2/N = {2.0 / n:.3e})")
    if mean[0] != 1.0 or not off.mean() <= 2.0 / n:
        raise OracleMismatchError(
            f"structure factor needs S(0) = 1 exactly and an off-peak mean <= 2/N, got "
            f"S(0) = {float(mean[0])!r} and off-peak mean {summary['offpeak_mean']!r}",
            summary,
        )
    return summary


def _run_delta_limit(cfg: Config, outdir: Path, stages: dict) -> dict:
    params = _kernel_params(cfg)
    # the grid spans the widest kernel, the one at the starting a
    kz, q = _kz_grid(cfg, params, _offset_grid(-8.0, 1.0, cfg.delta.grid_points),
                     "the delta-limit grid (8 decay constants a nu / gamma below k0z)")
    with _stage(stages, "delta_sweep") as work:
        sweep = flat_delta_limit(q, params, cfg.delta.halvings)
        work["kernel_area_calls"] = len(sweep)
        work["integrand_evals"] = sum(entry["area_integrand_evals"] for _, entry in sweep)
    rows = []
    table = []
    for amps, entry in sweep:
        for k, amp in zip(kz, amps):
            rows.append(["analytic", entry["a"], k, amp.real, amp.imag, abs(amp) ** 2, ""])
        table.append(entry)
        print(f"a={entry['a']:.3e}: peak={entry['peak']:.4e} "
              f"decay_scale={entry['decay_scale']:.4e} "
              f"area={entry['area']:.6e}")
    _write_csv(outdir / "delta_limit.csv",
               ["method", "a", "k_z", "re_amp", "im_amp", "prob", "stderr"], rows, stages)
    return {"sweep": table}


# the peak-normalized Monte Carlo and quadrature amplitudes each round by about
# eps = 2.2e-16, so a replica spread under a few eps of the peak cannot decide
# the gate; the spread shrinks in proportion to ensemble.box_heights
_MIN_RELATIVE_SIGMA = 1e-15
# the phases a replica forms, its state's (k0z - k_c) z_j and its cells' (k_c - k_z) c_m,
# with k_c the grid's middle wavenumber and k0z on the grid, are about max|k_z| max|z|
# at most, and round to at most ulp(max(|k0z|, max|k_z|) max|z|); no sum forms k_c z_j.
# The bound was set when the sum still formed the lateral phases k . r_j and cancelled
# them in floating point: a sweep of their size (200 atoms x 2 replicas and 2e4 x 10)
# left every pull unmoved up to an ulp of 0.12 rad, moved them at 1 rad and failed the
# gate at 8 rad.  It is kept for the height phases, a hundredfold below the first
# visible effect
_MAX_PHASE_ULP = 1e-2


def _quantile(values: np.ndarray, q: float) -> float:
    """np.quantile(values, q) by numpy's default "linear" rule, bit for bit, with no
    np.unique: that imports numpy.ma, some 8-9 ms of a run."""
    x = np.sort(values, axis=None)  # a NaN sorts last, and makes every quantile NaN
    index = (x.size - 1) * q
    lo = math.floor(index)
    below, above = x[lo], x[min(lo + 1, x.size - 1)]
    t = index - lo
    step = above - below
    # numpy's _lerp, which interpolates from the nearer end
    return float("nan") if math.isnan(x[-1]) else float(
        above - step * (1.0 - t) if t >= 0.5 else below + step * t)


def _noise_only_chi2_per_dof(replicas: int) -> float | None:
    """Expected mean squared pull of R replicas of circular complex Gaussian noise.

    A pull squared is the squared deviation of the replica mean over its
    estimated variance: an F(2, 2(R - 1)) variate, whose mean (R - 1)/(R - 2)
    is infinite at R = 2 (None).
    """
    return (replicas - 1) / (replicas - 2) if replicas > 2 else None


def _noise_only_false_alarm(replicas: int, sigma: float) -> float:
    """Chance that noise alone puts one point's pull above sigma: the F(2, 2(R - 1))
    tail (1 + sigma^2 / (R - 1))^-(R - 1) at sigma^2."""
    return (1.0 + sigma * sigma / (replicas - 1)) ** (1 - replicas)


def _run_curved_spectrum(cfg: Config, outdir: Path, stages: dict) -> dict:
    params = _kernel_params(cfg)
    a = params.metric.a
    e = cfg.ensemble
    tol = cfg.tolerances

    # before the box, whose height a kernel too narrow for the grid can overflow
    g = cfg.spectrum.grid
    kz, q = _kz_grid(cfg, params, _offset_grid(g.lo, g.hi, g.points), "spectrum.grid")
    decay_length = params.gamma / (a * params.nu)
    height = e.box_heights * decay_length
    if not math.isfinite(height):
        raise PhysicsDomainError(
            f"ensemble.box_heights = {e.box_heights!r} decay lengths gamma / (a nu) = "
            f"{decay_length!r} ({_kernel_keys(cfg)}) overflow the box height: lower "
            "ensemble.box_heights"
        )
    box = Box(height)  # a cube: the Monte Carlo reads only heights
    # before any replica runs: the replicas' height guard on the box's z faces, where a
    # too tall box exits 3 naming the keys of |a z| = box_heights gamma / (2 nu) ...
    try:
        check_linearization(a, [box.low, box.high])
    except LinearizationError as exc:
        raise LinearizationError(
            f"ensemble.box_heights = {e.box_heights!r}, spectrum.nu = {params.nu!r}, "
            f"spectrum.gamma = {params.gamma!r} give |a z| = box_heights gamma / (2 nu) = "
            f"{a * box.high:.3g} at the box's z faces: {exc}") from None
    # ... and then the rounding of the atom phases over the box
    reach = box.high  # max |z| in the box
    phase_ulp = math.ulp(max(abs(params.k0z), float(np.max(np.abs(kz)))) * reach)
    if not phase_ulp <= _MAX_PHASE_ULP:
        raise ConfigError(
            f"the ensemble box reaches |z| = {reach:.3g}, where the atom phases |k_z| |z| "
            f"round to {phase_ulp:.3g} rad, above the {_MAX_PHASE_ULP:g} rad at which rounding "
            "starts to decide the Monte Carlo gate: lower ensemble.box_heights = "
            f"{e.box_heights!r} or narrow spectrum.grid.lo = {g.lo!r}, spectrum.grid.hi = "
            f"{g.hi!r}"
        )
    with _stage(stages, "replicas") as work:
        mc, mc_stderr, prob = replicated_mc_spectrum(params, kz, e.n_atoms, box, e.replicas,
                                                     cfg.seed, threads=cfg.threads, stats=work)
        work["atoms"] = e.n_atoms * e.replicas
        work["atom_kz"] = work["atoms"] * kz.size
    with _stage(stages, "quadrature") as work:
        quad, quad_error_ratio, quad_evals = quadrature_spectrum(
            kz, params, (box.low, box.high))
        work["integrand_evals"] = quad_evals

    rows = []
    for method, amps in (("analytic", analytic_spectrum(q, params)), ("quadrature", quad)):
        for k, amp in zip(kz, amps):
            rows.append([method, a, k, amp.real, amp.imag, abs(amp) ** 2, ""])
    for k, amp, prob_k, err in zip(kz, mc, prob, mc_stderr):
        rows.append(["montecarlo", a, k, amp.real, amp.imag, prob_k, err])
    _write_csv(outdir / "spectrum.csv",
               ["method", "a", "k_z", "re_amp", "im_amp", "prob", "stderr"], rows, stages)

    # peak-normalized amplitude comparison, MC against the height-integral oracle
    mc_scale = float(np.max(np.abs(mc)))
    sigma = mc_stderr / mc_scale
    # before the quadrature is scaled: a box too thin for this check can leave its
    # peak zero or subnormal, and the division by it would overflow
    if not np.min(sigma) >= _MIN_RELATIVE_SIGMA:
        raise ConfigError(
            f"ensemble.box_heights={e.box_heights!r} gives a replica spread down to "
            f"{float(np.min(sigma)):.3g} of the peak amplitude, under the "
            f"{_MIN_RELATIVE_SIGMA:g} below which rounding decides the Monte Carlo gate: "
            "use a taller box"
        )
    signed_dev = mc / mc_scale - quad / float(np.max(np.abs(quad)))
    dev = np.abs(signed_dev)
    pulls = dev / sigma
    within = dev <= tol.mc_sigma * sigma
    frac = float(within.mean())
    up = float(prob[q < 0.0].sum() / prob.sum())
    # a bias shows as a signed mean pull that grows with the replica count
    thirds = [signed_dev[part] / sigma[part] for part in np.array_split(np.arange(kz.size), 3)]
    summary = {
        "mc_vs_quadrature_fraction_within_sigma": frac,
        "sigma": tol.mc_sigma,
        "max_deviation_over_sigma": float(np.max(pulls)),
        "pull_p50": _quantile(pulls, 0.5),
        "pull_p90": _quantile(pulls, 0.9),
        "pulls_beyond_2_sigma": int(np.count_nonzero(pulls > 2.0)),
        "pulls_beyond_3_sigma": int(np.count_nonzero(pulls > 3.0)),
        # over the low, middle and high third of the grid, in k_z order
        "signed_pull_mean_re": [float(np.mean(t.real)) for t in thirds],
        "signed_pull_mean_im": [float(np.mean(t.imag)) for t in thirds],
        "pull_chi2_per_dof": float(np.mean(pulls**2)),
        "pull_chi2_per_dof_noise_only": _noise_only_chi2_per_dof(e.replicas),
        "pull_false_alarm_per_point_noise_only": _noise_only_false_alarm(e.replicas, tol.mc_sigma),
        "upward_probability_fraction": up,
        # small where the analytic rows, the kernel model, meet the gated slab model
        "frequency_spread_over_gamma": frequency_spread_over_gamma(params),
        # the quadrature's worst error estimate over its tolerance (<= 1), and its work
        "quadrature_worst_error_ratio": quad_error_ratio,
        "quadrature_integrand_evals": quad_evals,
        "n_atoms": e.n_atoms,
        "replicas": e.replicas,
    }
    print(f"MC vs quadrature: {within.sum()}/{len(kz)} points within "
          f"{tol.mc_sigma} sigma (max dev {summary['max_deviation_over_sigma']:.2f} sigma, "
          f"chi2/dof {summary['pull_chi2_per_dof']:.2f})")
    print(f"probability at k_z > k0z: {up:.3%} of total")
    if frac < tol.mc_fraction:
        raise OracleMismatchError(
            f"only {frac:.1%} of grid points within {tol.mc_sigma} sigma "
            f"(needed {tol.mc_fraction:.0%})",
            summary,
        )
    return summary


def _ratio(num: float, den: float) -> float:
    return num / den if den else math.inf


# a mode's least |k_z| / |k|, so that its vertical polarization component, and with it
# the divergence test, is nontrivial.  An isotropic k meets it with probability 0.9
_MIN_KZ_FRACTION = 0.1
# (t, x, y, z) of every check.  A mode is the carrier e^{i(omega t - k . r)} times an
# envelope in z, so a residual's size depends on the height alone: other t, x and y
# only add rounding to the phase.  z is a height above the origin, where the library's
# metric is Minkowskian
_CARRIER_POINT = (0.3, 0.2, -0.15, 0.35)


# Only verify-modes needs maxwell and modes, some 15 ms of import that the other
# scenarios skip.  Their names still read as attributes of this module (PEP 562),
# so that a caller can rebind one before a run, as bench/tracer.py does.
_VERIFY_MODES_NAMES = ("residual_slope_study", "transversality_check", "ModeIndex",
                       "PerturbedMode", "dump_mode_vectors")


def _import_verify_modes() -> None:
    """Bind verify-modes' names in this module, keeping any that a caller rebound."""
    from .maxwell import residual_slope_study, transversality_check
    from .modes import ModeIndex, PerturbedMode, dump_mode_vectors

    for value in (residual_slope_study, transversality_check, ModeIndex, PerturbedMode,
                  dump_mode_vectors):
        globals().setdefault(value.__name__, value)


def __getattr__(name: str):
    if name not in _VERIFY_MODES_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _import_verify_modes()
    return globals()[name]


def _run_verify_modes(cfg: Config, outdir: Path, stages: dict) -> dict:
    _import_verify_modes()
    constants = _constants(cfg)
    v = cfg.verify
    tol = cfg.tolerances
    t, x, y, z = _CARRIER_POINT
    r = np.array([x, y, z])

    rng = ensemble_stream((cfg.seed, 31))
    rows = []
    studies = []
    modes_for_dump = []
    contractions = []
    a_max = max(v.a_values)
    for m in range(v.n_modes):
        k = rng.normal(size=3)
        while abs(k[2]) < _MIN_KZ_FRACTION * np.linalg.norm(k):
            k = rng.normal(size=3)
        with _stage(stages, "fd_residuals") as work:
            try:
                study = residual_slope_study(k, 2, constants, t, r, v.a_values)
            except LinearizationError as exc:  # its message gives the a that fails
                raise LinearizationError(f"verify.a_values = {list(v.a_values)!r} at heights "
                                         f"near the check point's z = {z!r}: {exc}") from None
            work["mode_a"] = work.get("mode_a", 0) + len(v.a_values)
        studies.append(study)
        for a, rep in zip(v.a_values, study.reports):
            rows.append([
                k[0], k[1], k[2], 2, a, t, r[0], r[1], r[2],
                rep.residual_vector[0].real, rep.residual_vector[0].imag,
                rep.residual_vector[1].real, rep.residual_vector[1].imag,
                rep.residual_vector[2].real, rep.residual_vector[2].imag,
                rep.gauss_residual.real, rep.gauss_residual.imag,
                rep.discretization_estimate, rep.gauss_discretization,
                study.wave_slope, study.gauss_slope,
            ])
        mode = PerturbedMode(ModeIndex(k, 2), WeakFieldMetric(a=a_max), constants)
        modes_for_dump.append(mode)
        tr = transversality_check(mode, z)
        contractions.append(tr)
        print(f"mode {m}: wave slope {study.wave_slope:.3f}, gauss slope "
              f"{study.gauss_slope:.3f}, transversality "
              f"(|p.f|={tr.p_dot_f:.1e}, |k.f|={tr.k_dot_f:.1e}, |p.k|={tr.p_dot_k:.1e})")

    _write_csv(
        outdir / "residuals.csv",
        ["kx", "ky", "kz", "s", "a", "t", "x", "y", "z",
         "res_x_re", "res_x_im", "res_y_re", "res_y_im", "res_z_re", "res_z_im",
         "gauss_re", "gauss_im", "disc_estimate", "gauss_disc_estimate",
         "wave_slope", "gauss_slope"],
        rows,
        stages,
    )
    with _stage(stages, "write_csv") as work:
        dump_mode_vectors(outdir / "mode_vectors.csv", modes_for_dump, [-0.25, 0.0, 0.25])
        work["bytes"] += (outdir / "mode_vectors.csv").stat().st_size

    reports = [rep for s in studies for rep in s.reports]
    inconclusive = sum(rep.inconclusive for rep in reports)
    if inconclusive:
        raise ConfigError(f"{inconclusive} of {len(rows)} residual reports are inconclusive "
                          "(finite-difference or rounding error above the residual, or a "
                          "residual of exactly zero), so the slope gate cannot be decided")
    worst_wave = max(abs(s.wave_slope - 2.0) for s in studies)
    worst_gauss = max(abs(s.gauss_slope - 2.0) for s in studies)
    summary = {"worst_wave_slope_dev": worst_wave, "worst_gauss_slope_dev": worst_gauss,
               # share of each residual that is finite-difference error, at worst
               "max_discretization_ratio": max(
                   _ratio(rep.discretization_estimate, rep.residual_norm) for rep in reports),
               "max_gauss_discretization_ratio": max(
                   _ratio(rep.gauss_discretization, abs(rep.gauss_residual)) for rep in reports),
               # the largest transversality contractions, at the largest a
               "max_p_dot_f": max(tr.p_dot_f for tr in contractions),
               "max_k_dot_f": max(tr.k_dot_f for tr in contractions),
               "max_p_dot_k": max(tr.p_dot_k for tr in contractions),
               "n_modes": v.n_modes, "a_values": v.a_values}
    if worst_wave > tol.slope or worst_gauss > tol.slope:
        raise OracleMismatchError(
            f"residual scaling slope off by {max(worst_wave, worst_gauss):.3f} "
            f"(tolerance {tol.slope})",
            summary,
        )
    return summary


_RUNNERS = {
    "spreads": _run_spreads,
    "flat-dicke": _run_flat_dicke,
    "delta-limit": _run_delta_limit,
    "curved-spectrum": _run_curved_spectrum,
    "verify-modes": _run_verify_modes,
}


# first match wins; every package error ends in one of these codes
_EXIT_CODES = ((ConfigError, 2), (PhysicsDomainError, 3), (QuadratureError, 4),
               (OracleMismatchError, 4), (GravDickeError, 1))


def _is_finite(summary: dict) -> bool:
    try:
        json.dumps(summary, allow_nan=False, default=_json_default)
    except ValueError:
        return False
    return True


def _report_error(outdir: Path | None, exc: Exception) -> None:
    report = {"error": type(exc).__name__, "message": str(exc)}
    if outdir is not None:
        try:
            (outdir / "error.json").write_text(json.dumps(report, indent=2))
        except OSError:
            pass
    print(json.dumps(report), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gravdicke",
        description="Collective emission under a weak gravity gradient: "
                    "batch scenarios with CSV/JSON output.",
    )
    parser.add_argument("--config", help="JSON config file (strict keys)")
    parser.add_argument("--scenario", choices=SCENARIOS, help="override config scenario")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--output", help="override output directory")
    parser.add_argument("--threads", type=int, help="worker thread cap")
    args = parser.parse_args(argv)

    outdir = None
    stages: dict = {}
    try:
        cfg = load_config(args.config, {
            "scenario": args.scenario,
            "seed": args.seed,
            "output_dir": args.output,
            "threads": args.threads,
        })
        try:
            Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {cfg.output_dir}: {exc}") from exc
        outdir = Path(cfg.output_dir)
        summary = _RUNNERS[cfg.scenario](cfg, outdir, stages)
        if not _is_finite(summary):
            raise PhysicsDomainError(f"{cfg.scenario} gave a non-finite result: "
                                     f"{json.dumps(summary, default=_json_default)}")
    except GravDickeError as exc:
        # a failed gate's summary is the record of what failed: it is written too
        failed = getattr(exc, "summary", None)
        if failed is not None and _is_finite(failed):
            _write_metadata(outdir, cfg, failed, stages)
        _report_error(outdir, exc)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    _write_metadata(outdir, cfg, summary, stages)
    return 0


if __name__ == "__main__":
    sys.exit(main())
