"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are pinned here; nothing is deferred to calibration.
Criteria 3-5 run in the order-unity regime (c = nu = 1, Gamma = 1e-2,
a in [1e-4, 1e-2]) where second-order-in-a effects are resolvable in double
precision; criterion 1 uses SI values.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from gravdicke.cli import main as cli_main
from gravdicke.emission import Box, single_atom_survival, sample_ensemble
from gravdicke.maxwell import residual_slope_study, transversality_check
from gravdicke.metric import PhysicalConstants, WeakFieldMetric
from gravdicke.modes import ModeIndex, PerturbedMode, local_wavevector, mode_phase
from gravdicke.spectrum import (
    SpectrumParams,
    frequency_spread,
    g_kernel,
    kernel_area,
    kernel_decay_constant,
    quadrature_spectrum,
    replicated_mc_spectrum,
    structure_factor,
    structure_factor_expectation,
    z_integral_oracle,
)

CST = PhysicalConstants.scaled()


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def scaled_params(a: float, theta0: float = math.pi / 6) -> SpectrumParams:
    return SpectrumParams(
        nu=1.0, gamma=1e-2, metric=WeakFieldMetric(a=a), theta0=theta0, constants=CST,
    )


def test_criterion_01_frequency_spread_number():
    """Earth-surface inputs give a sub-10-Hz frequency spread of order 0.6."""
    params = SpectrumParams(
        nu=1e15, gamma=1e8, metric=WeakFieldMetric(a=2e-16), theta0=0.0,
        constants=PhysicalConstants(),
    )
    dw = frequency_spread(params)
    ok = 0.1 <= dw <= 10.0 and dw == pytest.approx(0.5996, rel=1e-3)
    report(1, ok, f"frequency spread {dw:.4f} 1/s in [0.1, 10]")


def test_criterion_02_flat_directionality():
    """Structure factor: exact peak, 1/N background, sinc^2 expectation at 5 sigma."""
    n = 10**4
    side = 100.0 * 2.0 * math.pi  # 100 wavelengths at |k0| = 1
    box = Box(side)
    rng = np.random.default_rng(811)

    ens = sample_ensemble(n, box, 811)
    peak = structure_factor(ens.positions, np.zeros(3))
    ok_peak = peak == 1.0

    offpeak = []
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        dk = direction * (20.0 * math.pi / side) * rng.uniform(1.0, 3.0)
        offpeak.append(structure_factor(ens.positions, dk))
    mean_off = float(np.mean(offpeak))
    ok_off = mean_off <= 2.0 / n

    probes = [
        np.array([2.0, 0.0, 0.0]) / side,            # u = 1.0 on x
        np.array([5.0, 0.0, 0.0]) / side,            # u = 2.5
        np.array([2.0, 3.0, 1.4]) / side,            # mixed axes
        np.array([40.0 * math.pi, 30.0 * math.pi, 25.0 * math.pi]) / (math.sqrt(3) * side),
    ]
    n_rep = 200
    vals = np.empty((n_rep, len(probes)))
    for rep in range(n_rep):
        e = sample_ensemble(n, box, (811, rep))
        for i, dk in enumerate(probes):
            vals[rep, i] = structure_factor(e.positions, dk)
    mean = vals.mean(axis=0)
    stderr = vals.std(axis=0, ddof=1) / math.sqrt(n_rep)
    pulls = [
        abs(mean[i] - structure_factor_expectation(n, box.edge, dk)) / stderr[i]
        for i, dk in enumerate(probes)
    ]
    ok_exp = max(pulls) <= 5.0

    report(
        2, ok_peak and ok_off and ok_exp,
        f"S(0)={peak!r}, off-peak mean {mean_off:.2e} <= {2.0 / n:.1e}, "
        f"max expectation pull {max(pulls):.2f} sigma over {n_rep} replicas",
    )


def test_criterion_03_kernel_area_invariance():
    """Quadrature of the kernel equals -i/Gamma to 1e-8 relative for each a."""
    worst = 0.0
    for a in (1e-4, 1e-3, 1e-2):
        p = scaled_params(a)
        area, _, _ = kernel_area(p, tol=1e-12)
        worst = max(worst, abs(area - (-1j / p.gamma)) * p.gamma)
    report(3, worst <= 1e-8, f"max relative area error {worst:.2e} <= 1e-8 over a sweep")


def test_criterion_04_kernel_matches_height_integral():
    """Height-integral oracle reproduces the kernel shape to 1e-3 after peak scaling.

    The comparison grid sits strictly below the cutoff: at the cutoff itself the
    (conditionally convergent) integral takes the Fourier midpoint value, half
    the step convention's, which tests the boundary convention rather than the
    physics.  Window spans 100 decay lengths.
    """
    p = scaled_params(1e-3)
    ell = p.gamma / (p.metric.a * p.nu)
    z_range = (-50.0 * ell, 50.0 * ell)
    q_folds = np.arange(0.1, 6.95, 0.2)
    dec = kernel_decay_constant(p)
    kz = p.k0z - q_folds * dec

    oracle = np.array([abs(z_integral_oracle(k, p, z_range, 1e-9)[0]) for k in kz])
    kernel = np.abs(g_kernel(q_folds * dec, p))
    kn = kernel / kernel.max()
    assert np.all(kn >= 1e-3)  # every compared point is above the floor
    devs = np.abs(oracle / oracle.max() - kn) / kn
    ok = float(devs.max()) <= 1e-3
    report(4, ok, f"max relative shape deviation {devs.max():.2e} <= 1e-3 "
                  f"({len(kz)} points, window 100 decay lengths)")


def test_criterion_05_monte_carlo_consistency():
    """N=1e5 x 20 replicas agree with the quadrature oracle; upward leakage <= 1%."""
    p = scaled_params(1e-3)
    ell = p.gamma / (p.metric.a * p.nu)
    height = 80.0 * ell
    box = Box(height)
    kz = p.k0z + kernel_decay_constant(p) * np.arange(-8.0, 3.01, 0.25)

    mc, mc_stderr, prob = replicated_mc_spectrum(p, kz, n_atoms=10**5, box=box, n_replicas=20,
                                                 base_seed=90125, threads=2)
    quad, _, _ = quadrature_spectrum(kz, p, (box.low, box.high), 1e-9)

    mc_n = mc / np.max(np.abs(mc))
    qd_n = quad / np.max(np.abs(quad))
    sigma = np.maximum(mc_stderr / np.max(np.abs(mc)), 1e-300)
    within = np.abs(mc_n - qd_n) <= 3.0 * sigma
    frac = float(within.mean())

    upward = float(prob[kz > p.k0z].sum() / prob.sum())

    ok = frac >= 0.95 and upward <= 0.01
    report(5, ok, f"{within.sum()}/{len(kz)} points within 3 sigma ({frac:.1%}), "
                  f"upward probability {upward:.3%} <= 1%")


def test_criterion_06_maxwell_residual_scaling():
    """Ten random modes: wave and Gauss residuals scale as a^2; ablation breaks it."""
    rng = np.random.default_rng(2718)
    a_values = [1e-4, 1e-3, 1e-2]
    t, r = 0.3, np.array([0.2, -0.15, 0.35])
    worst = 0.0
    ablated_worst = 0.0
    for _ in range(10):
        k = rng.normal(size=3)
        while abs(k[2]) < 0.1 * np.linalg.norm(k):
            k = rng.normal(size=3)
        # vertical polarization component present (s=2): the divergence
        # constraint is trivially exact for the horizontal polarization
        study = residual_slope_study(k, 2, CST, t, r, a_values)
        assert not any(rep.inconclusive for rep in study.reports)
        worst = max(worst, abs(study.wave_slope - 2.0), abs(study.gauss_slope - 2.0))
        ablated = residual_slope_study(k, 2, CST, t, r, a_values,
                                       include_gauss_constant=False)
        ablated_worst = max(ablated_worst, ablated.gauss_slope)
    ok = worst <= 0.1 and ablated_worst <= 1.2
    report(6, ok, f"max |slope - 2| = {worst:.3f} <= 0.1; "
                  f"ablated Gauss slope <= {ablated_worst:.3f} (bound 1.2)")


def test_criterion_07_phase_wavevector_consistency():
    """Central-difference phase gradient equals the local wavevector to 1e-8."""
    rng = np.random.default_rng(1618)
    h = 1e-4
    worst = 0.0
    for _ in range(100):
        k = rng.normal(size=3)
        while abs(k[2]) < 0.1 * np.linalg.norm(k):
            k = rng.normal(size=3)
        a = 10 ** rng.uniform(-4.0, -2.0)
        mode = PerturbedMode(ModeIndex(k, int(rng.integers(1, 3))),
                             WeakFieldMetric(a=a), CST)
        z = rng.uniform(-0.05, 0.05) / a
        r0 = np.array([0.1, -0.2, z])
        up = mode_phase(mode, 0.0, r0 + [0.0, 0.0, h])
        dn = mode_phase(mode, 0.0, r0 - [0.0, 0.0, h])
        ktz = local_wavevector(mode, z)[3]
        worst = max(worst, abs((up - dn) / (2.0 * h) - ktz) / abs(ktz))
    report(7, worst <= 1e-8, f"max relative gradient mismatch {worst:.2e} <= 1e-8 (100 samples)")


def test_criterion_08_transversality():
    """All three contractions bounded by a fitted C a^2, quartering under a-halving."""
    rng = np.random.default_rng(3141)
    floor = 1e-12
    ratio_checked = 0
    ok = True
    details = []
    for _ in range(10):
        k = rng.normal(size=3)
        while abs(k[2]) < 0.1 * np.linalg.norm(k):
            k = rng.normal(size=3)
        z = rng.uniform(-0.5, 0.5)
        make = lambda a: PerturbedMode(  # noqa: E731
            ModeIndex(k, 2), WeakFieldMetric(a=a), CST)
        hi = transversality_check(make(1e-2), z)
        lo = transversality_check(make(5e-3), z)
        fitted_c = max(max(hi) / 1e-4, floor / 1e-4)
        for vh, vl in zip(hi, lo):
            ok &= vh <= max(fitted_c * 1e-4 * 1.0001, floor)
            ok &= vl <= max(fitted_c * 0.25e-4 * 1.2, floor)
            if vh > floor:
                ok &= abs(vh / vl - 4.0) <= 0.6
                ratio_checked += 1
        details.append(max(hi))
    # at least the metric-weighted wavevector contraction is above the floor
    ok &= ratio_checked >= 10
    report(8, ok, f"contractions <= C a^2 with 4x reduction confirmed on "
                  f"{ratio_checked} above-floor cases; max value {max(details):.2e}")


def test_criterion_09_decay_oracle():
    """Memory-kernel integration with a flat reservoir matches exp(-Gamma t/2)."""
    gamma, t_max = 1.0, 5.0
    tau, c = oracles.volterra_flat_band(gamma, t_max, n_steps=25000, bandwidth=1000.0)
    idx = np.linspace(0, len(tau) - 1, 51).astype(int)
    dev = float(np.max(np.abs(c[idx] - single_atom_survival(tau[idx], gamma))))
    # discretization self-check: halving dt moves nothing at the tolerance scale
    _, c2 = oracles.volterra_flat_band(gamma, t_max, n_steps=12500, bandwidth=1000.0)
    drift = float(np.max(np.abs(c2[np.linspace(0, 12500, 51).astype(int)] - c[idx])))
    ok = dev <= 1e-3 and drift <= 1e-4
    report(9, ok, f"max |volterra - closed form| = {dev:.2e} <= 1e-3 "
                  f"(dt self-check drift {drift:.1e})")


def test_criterion_10_determinism(tmp_path: Path):
    """Same config and seed give byte-identical CSV bodies, serial or threaded."""
    cfg = {
        "scenario": "curved-spectrum",
        "seed": 1701,
        "ensemble": {"n_atoms": 2000, "replicas": 4},
        "spectrum": {"grid": {"lo": -5.0, "hi": 2.0, "points": 21}},
    }
    bodies = []
    for name, threads in (("serial_a", "1"), ("serial_b", "1"), ("threaded", "4")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / name
        code = cli_main(["--config", str(path), "--output", str(out), "--threads", threads])
        assert code == 0
        bodies.append((out / "spectrum.csv").read_bytes())
    ok = bodies[0] == bodies[1] == bodies[2]
    report(10, ok, f"spectrum.csv identical across rerun and thread counts "
                   f"({len(bodies[0])} bytes)")
