"""Batch front-end: named scenarios, strict JSON config, deterministic CSV/JSON output.

Every run echoes its fully-resolved configuration next to the data so results
are reproducible from the output directory alone.  CSV bodies are byte-stable
across reruns and thread counts for a fixed config and seed; only the metadata
sidecar carries a timestamp.

Exit codes: 0 success, 2 invalid config, 3 physics-domain error (for example a
linearization guard), 4 oracle disagreement or non-converged quadrature in a
verification scenario, 1 anything unexpected.  A config under which a
scenario's gate cannot be decided (one replica, one distinct a value, no
off-peak probes) is an invalid config, not an oracle disagreement.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .emission import Box, sample_ensemble
from .errors import (
    ConfigError,
    GravDickeError,
    OracleMismatchError,
    PhysicsDomainError,
    QuadratureError,
)
from .maxwell import residual_slope_study, transversality_check
from .metric import PhysicalConstants, WeakFieldMetric, surface_param_a
from .modes import ModeIndex, PerturbedMode, dump_mode_vectors
from .spectrum import (
    SpectrumParams,
    analytic_spectrum,
    flat_delta_limit,
    frequency_spread,
    kernel_decay_constant,
    quadrature_spectrum,
    replicated_mc_spectrum,
    structure_factor,
    structure_factor_expectation,
    wavevector_spread,
)

SCENARIOS = ("verify-modes", "flat-dicke", "curved-spectrum", "spreads", "delta-limit")

_DEFAULTS: dict = {
    "scenario": None,
    "seed": 12345,
    "output_dir": "out",
    "unit_regime": "scaled",        # scaled | si
    "threads": 1,
    "constants": {"c": None, "hbar": None, "eps0": None},
    "metric": {"a": 1e-3, "g": None, "z0": 0.0},
    "spectrum": {
        "nu": 1.0,
        "gamma": 1e-2,
        "theta0": 0.5235987755982988,   # pi/6
        "phi": 0.0,
        "Z": 0.0,
        "grid": {"lo": -8.0, "hi": 3.0, "points": 45},  # offsets in units of a nu / Gamma
    },
    "ensemble": {
        "n_atoms": 20000,
        "replicas": 8,
        "box_heights": 80.0,            # z extent in decay lengths Gamma/(a nu)
        "box_aspect": 0.1,              # transverse edge / z extent
    },
    "dicke": {
        "beta": 0.0,
        "gamma_coef": 0.0,
        "n_atoms": 10000,
        "box_wavelengths": 100.0,       # cube side in units of 2 pi / |k0|
        "n_offpeak": 50,
        "replicas": 50,
        "probes_u": [[1.0, 0.0, 0.0], [2.5, 0.0, 0.0], [1.0, 1.5, 0.7]],
    },
    "delta": {"a_values": None, "halvings": 4, "grid_points": 161},
    "verify": {
        "n_modes": 6,
        "a_values": [1e-4, 1e-3, 1e-2],
        "min_kz_fraction": 0.1,
        "volume": 1.0,
        "point": {"t": 0.3, "x": 0.2, "y": -0.15, "z": 0.35},
        "rel_step": 0.01,
        "order": 4,
    },
    "tolerances": {
        "slope": 0.1,
        "mc_sigma": 3.0,
        "mc_fraction": 0.95,
        "quadrature": 1e-9,
    },
}


def _merge_strict(defaults: dict, user: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, val in user.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key: {path}{key}")
        if isinstance(defaults[key], dict) and isinstance(val, dict):
            out[key] = _merge_strict(defaults[key], val, f"{path}{key}.")
        elif isinstance(defaults[key], dict):
            raise ConfigError(f"config key {path}{key} must be a table")
        else:
            out[key] = val
    return out


def load_config(path: str | None, overrides: dict) -> dict:
    user: dict = {}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must contain a JSON object")
    cfg = _merge_strict(_DEFAULTS, user)
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    if cfg["scenario"] not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {cfg['scenario']!r}")
    if cfg["unit_regime"] not in ("si", "scaled"):
        raise ConfigError("unit_regime must be 'si' or 'scaled'")
    try:
        threads = int(cfg["threads"])
    except (TypeError, ValueError):
        threads = 0
    if threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {cfg['threads']!r}")
    return cfg


def _constants(cfg: dict) -> PhysicalConstants:
    base = PhysicalConstants() if cfg["unit_regime"] == "si" else PhysicalConstants.scaled()
    over = {k: v for k, v in cfg["constants"].items() if v is not None}
    return dataclasses.replace(base, **over)


def _metric(cfg: dict, constants: PhysicalConstants) -> WeakFieldMetric:
    mcfg = cfg["metric"]
    a = mcfg["a"]
    if mcfg["g"] is not None:
        a = surface_param_a(float(mcfg["g"]), constants)
    return WeakFieldMetric(a=float(a), z0=float(mcfg["z0"]))


def _spectrum_params(cfg: dict, constants: PhysicalConstants, metric: WeakFieldMetric) -> SpectrumParams:
    s = cfg["spectrum"]
    return SpectrumParams.from_angles(
        nu=float(s["nu"]), gamma=float(s["gamma"]), metric=metric, Z=float(s["Z"]),
        theta0=float(s["theta0"]), phi=float(s["phi"]), constants=constants,
    )


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _offset_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """Strictly increasing offset grid over [lo, hi] containing an exact 0.0.

    The kernel's step convention puts its peak at offset zero, so grids must
    hit that point exactly rather than to within float rounding.
    """
    if not (lo < 0.0 < hi) or points < 3:
        raise ConfigError("grid must straddle zero offset with at least 3 points")
    n_neg = max(1, round((points - 1) * (-lo) / (hi - lo)))
    n_pos = max(1, points - 1 - n_neg)
    return np.concatenate([
        np.linspace(lo, 0.0, n_neg, endpoint=False),
        [0.0],
        np.linspace(0.0, hi, n_pos + 1)[1:],
    ])


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_metadata(outdir: Path, cfg: dict, summary: dict) -> None:
    meta = {
        "package_version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": cfg["seed"],
        "config": cfg,
        "summary": summary,
    }
    (outdir / "metadata.json").write_text(json.dumps(meta, indent=2, default=_json_default))
    (outdir / "resolved_config.json").write_text(json.dumps(cfg, indent=2))


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

def _run_spreads(cfg: dict, outdir: Path) -> dict:
    constants = _constants(cfg)
    metric = _metric(cfg, constants)
    params = _spectrum_params(cfg, constants, metric)
    dw = frequency_spread(params)
    wv = wavevector_spread(params)
    dec = kernel_decay_constant(params)
    _write_csv(
        outdir / "spreads.csv",
        ["a", "nu", "gamma", "theta0", "wavevector_spread", "kernel_decay_constant",
         "frequency_spread"],
        [[metric.a, params.nu, params.gamma, params.theta0, wv, dec, dw]],
    )
    print(f"frequency spread: {dw:.4g} 1/s")
    print(f"wavevector spread (quoted, with cos theta0): {wv:.4g} 1/m")
    print(f"kernel decay constant (no angle factor):     {dec:.4g} 1/m")
    return {"frequency_spread": dw, "wavevector_spread": wv, "kernel_decay_constant": dec}


def _run_flat_dicke(cfg: dict, outdir: Path) -> dict:
    constants = _constants(cfg)
    d = cfg["dicke"]
    if int(d["n_offpeak"]) < 1:
        raise ConfigError("dicke.n_offpeak must be >= 1: the off-peak check needs probes")
    n = int(d["n_atoms"])
    s = cfg["spectrum"]
    knorm = float(s["nu"]) / constants.c
    wavelength = 2.0 * math.pi / knorm
    side = float(d["box_wavelengths"]) * wavelength
    box = Box(center=(0.0, 0.0, 0.0), size=(side, side, side))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(cfg["seed"]), 977))))

    # the zero probe comes first unconditionally: its value must be exactly 1
    probes = [np.zeros(3)]
    probes += [np.asarray(u, dtype=float) * 2.0 / side for u in d["probes_u"]]
    n_named = len(probes)
    # random far-off-peak probes with |dk| L >= 20 pi
    for _ in range(int(d["n_offpeak"])):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        mag = (20.0 * math.pi / side) * rng.uniform(1.0, 3.0)
        probes.append(direction * mag)

    n_rep = int(d["replicas"])
    values = np.empty((n_rep, len(probes)))
    for rep in range(n_rep):
        ens = sample_ensemble(n, box, (int(cfg["seed"]), rep), float(s["nu"]),
                              float(s["gamma"]), (1.0, 0.0, 0.0))
        for i, dk in enumerate(probes):
            values[rep, i] = structure_factor(ens.positions, dk)
    mean = values.mean(axis=0)
    stderr = values.std(axis=0, ddof=1) / math.sqrt(n_rep) if n_rep > 1 else np.zeros(len(probes))
    expected = np.array([structure_factor_expectation(n, box.size, dk) for dk in probes])

    rows = [
        [dk[0], dk[1], dk[2], mean[i], stderr[i], expected[i]]
        for i, dk in enumerate(probes)
    ]
    _write_csv(outdir / "structure_factor.csv",
               ["dk_x", "dk_y", "dk_z", "s_mean", "s_stderr", "s_expected"], rows)
    off = mean[n_named:]
    summary = {
        "n_atoms": n,
        "s_at_zero": float(mean[0]),
        "offpeak_mean": float(off.mean()),
        "offpeak_bound_2_over_n": 2.0 / n,
    }
    print(f"S(dk=0) = {float(mean[0])!r}; off-peak mean = {summary['offpeak_mean']:.3e} "
          f"(2/N = {2.0 / n:.3e})")
    return summary


def _run_delta_limit(cfg: dict, outdir: Path) -> dict:
    constants = _constants(cfg)
    metric = _metric(cfg, constants)
    params = _spectrum_params(cfg, constants, metric)
    dcfg = cfg["delta"]
    if dcfg["a_values"] is not None:
        a_values = [float(a) for a in dcfg["a_values"]]
    else:
        a_values = [metric.a / 2**i for i in range(int(dcfg["halvings"]))]
    if not a_values:
        raise ConfigError("delta-limit needs at least one a value: delta.halvings >= 1 "
                          "or a nonempty delta.a_values")
    width_max = max(a_values) * params.nu / params.gamma
    kz = params.k0z + width_max * _offset_grid(-8.0, 1.0, int(dcfg["grid_points"]))
    sweep = flat_delta_limit(kz, params, a_values)
    rows = []
    table = []
    for sp in sweep:
        for k, amp in zip(sp.kz_grid, sp.amplitude):
            rows.append(["analytic", sp.meta["a"], k, amp.real, amp.imag, abs(amp) ** 2, ""])
        table.append({
            "a": sp.meta["a"],
            "peak": sp.meta["peak"],
            "decay_scale": sp.meta["decay_scale"],
            "area": sp.meta["area"],
        })
        print(f"a={sp.meta['a']:.3e}: peak={sp.meta['peak']:.4e} "
              f"decay_scale={sp.meta['decay_scale']:.4e} "
              f"area={sp.meta['area']:.6e}")
    _write_csv(outdir / "delta_limit.csv",
               ["method", "a", "k_z", "re_amp", "im_amp", "prob", "stderr"], rows)
    return {"sweep": table}


def _run_curved_spectrum(cfg: dict, outdir: Path) -> dict:
    constants = _constants(cfg)
    metric = _metric(cfg, constants)
    if metric.a <= 0.0:
        raise ConfigError("curved-spectrum needs a > 0; use delta-limit for the flat case")
    params = _spectrum_params(cfg, constants, metric)
    e = cfg["ensemble"]
    tol = cfg["tolerances"]
    if int(e["replicas"]) < 2:
        raise ConfigError("ensemble.replicas must be >= 2: the Monte Carlo gate needs "
                          "a replica spread")

    ell = params.gamma / (metric.a * params.nu)
    height = float(e["box_heights"]) * ell
    side = float(e["box_aspect"]) * height
    box = Box(center=(0.0, 0.0, metric.z0), size=(side, side, height))

    g = cfg["spectrum"]["grid"]
    dk = kernel_decay_constant(params)
    offsets = _offset_grid(float(g["lo"]), float(g["hi"]), int(g["points"]))
    kz = params.k0z + offsets * dk

    mc = replicated_mc_spectrum(
        params, kz, int(e["n_atoms"]), box, int(e["replicas"]), int(cfg["seed"]),
        threads=int(cfg["threads"]),
    )
    quad = quadrature_spectrum(
        kz, params, (box.low[2], box.high[2]), float(tol["quadrature"]),
        dispersion="exact", tails="none", include_volume_weight=True,
    )
    ana = analytic_spectrum(kz, params)

    rows = []
    for sp in (ana, quad):
        for k, amp in zip(sp.kz_grid, sp.amplitude):
            rows.append([sp.method, metric.a, k, amp.real, amp.imag, abs(amp) ** 2, ""])
    prob = mc.meta["probability_mean"]
    for i, k in enumerate(mc.kz_grid):
        rows.append(["montecarlo", metric.a, k, mc.amplitude[i].real, mc.amplitude[i].imag,
                     prob[i], mc.mc_stderr[i]])
    _write_csv(outdir / "spectrum.csv",
               ["method", "a", "k_z", "re_amp", "im_amp", "prob", "stderr"], rows)

    # peak-normalized amplitude comparison, MC against the height-integral oracle
    mc_scale = float(np.max(np.abs(mc.amplitude)))
    q_scale = float(np.max(np.abs(quad.amplitude)))
    dev = np.abs(mc.amplitude / mc_scale - quad.amplitude / q_scale)
    sigma = np.maximum(mc.mc_stderr / mc_scale, 1e-300)
    within = dev <= float(tol["mc_sigma"]) * sigma
    frac = float(within.mean())
    up = float(prob[kz > params.k0z].sum() / prob.sum())
    summary = {
        "mc_vs_quadrature_fraction_within_sigma": frac,
        "sigma": float(tol["mc_sigma"]),
        "max_deviation_over_sigma": float(np.max(dev / sigma)),
        "upward_probability_fraction": up,
        "n_atoms": int(e["n_atoms"]),
        "replicas": int(e["replicas"]),
    }
    print(f"MC vs quadrature: {within.sum()}/{len(kz)} points within "
          f"{tol['mc_sigma']} sigma (max dev {summary['max_deviation_over_sigma']:.2f} sigma)")
    print(f"probability at k_z > k0z: {up:.3%} of total")
    if frac < float(tol["mc_fraction"]):
        raise OracleMismatchError(
            f"only {frac:.1%} of grid points within {tol['mc_sigma']} sigma "
            f"(needed {tol['mc_fraction']:.0%})"
        )
    return summary


def _run_verify_modes(cfg: dict, outdir: Path) -> dict:
    constants = _constants(cfg)
    v = cfg["verify"]
    tol = cfg["tolerances"]
    z0 = float(cfg["metric"]["z0"])
    a_values = [float(a) for a in v["a_values"]]
    if len(set(a_values)) < 2 or int(v["n_modes"]) < 1:
        raise ConfigError("verify-modes needs verify.n_modes >= 1 and at least 2 distinct "
                          "verify.a_values to fit a slope")
    point = v["point"]
    t, r = float(point["t"]), np.array([point["x"], point["y"], point["z"]])

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(cfg["seed"]), 31))))
    rows = []
    slopes = []
    modes_for_dump = []
    for m in range(int(v["n_modes"])):
        k = rng.normal(size=3)
        while abs(k[2]) < float(v["min_kz_fraction"]) * np.linalg.norm(k):
            k = rng.normal(size=3)
        # vertical polarization component present, so the divergence test is nontrivial
        study = residual_slope_study(
            k, 2, constants, z0, float(v["volume"]), a_values, t, r,
            rel_step=float(v["rel_step"]), order=int(v["order"]),
        )
        slopes.append((study.wave_slope, study.gauss_slope))
        for a, rep in zip(a_values, study.reports):
            rows.append([
                k[0], k[1], k[2], 2, a, t, r[0], r[1], r[2],
                rep.residual_vector[0].real, rep.residual_vector[0].imag,
                rep.residual_vector[1].real, rep.residual_vector[1].imag,
                rep.residual_vector[2].real, rep.residual_vector[2].imag,
                rep.gauss_residual.real, rep.gauss_residual.imag,
                rep.discretization_estimate, rep.gauss_discretization,
                study.wave_slope, study.gauss_slope,
            ])
        mode = PerturbedMode.build(
            ModeIndex(k, 2), WeakFieldMetric(a=a_values[-1], z0=z0), constants,
            float(v["volume"]),
        )
        modes_for_dump.append(mode)
        tr = transversality_check(mode, z0 + float(point["z"]))
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
    )
    dump_mode_vectors(outdir / "mode_vectors.csv", modes_for_dump,
                      [z0 - 0.25, z0, z0 + 0.25])

    worst_wave = max(abs(s[0] - 2.0) for s in slopes)
    worst_gauss = max(abs(s[1] - 2.0) for s in slopes)
    summary = {"worst_wave_slope_dev": worst_wave, "worst_gauss_slope_dev": worst_gauss,
               "n_modes": int(v["n_modes"]), "a_values": a_values}
    if worst_wave > float(tol["slope"]) or worst_gauss > float(tol["slope"]):
        raise OracleMismatchError(
            f"residual scaling slope off by {max(worst_wave, worst_gauss):.3f} "
            f"(tolerance {tol['slope']})"
        )
    return summary


_RUNNERS = {
    "spreads": _run_spreads,
    "flat-dicke": _run_flat_dicke,
    "delta-limit": _run_delta_limit,
    "curved-spectrum": _run_curved_spectrum,
    "verify-modes": _run_verify_modes,
}


def run(cfg: dict) -> int:
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        summary = _RUNNERS[cfg["scenario"]](cfg, outdir)
    except ConfigError as exc:
        _report_error(outdir, exc)
        return 2
    except (QuadratureError, OracleMismatchError) as exc:
        _report_error(outdir, exc)
        return 4
    except PhysicsDomainError as exc:
        _report_error(outdir, exc)
        return 3
    _write_metadata(outdir, cfg, summary)
    return 0


def _report_error(outdir: Path, exc: Exception) -> None:
    report = {"error": type(exc).__name__, "message": str(exc)}
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

    try:
        cfg = load_config(args.config, {
            "scenario": args.scenario,
            "seed": args.seed,
            "output_dir": args.output,
            "threads": args.threads,
        })
    except ConfigError as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)}), file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except GravDickeError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3 if isinstance(exc, PhysicsDomainError) else 1


if __name__ == "__main__":
    sys.exit(main())
