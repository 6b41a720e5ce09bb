import ast
import contextlib
import copy
import importlib
import importlib.util
import json
import math
import os
import resource
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gravdicke
import gravdicke.cli
import gravdicke.quadrature
import gravdicke.spectrum
from gravdicke.cli import MAX_ATOMS, MAX_COUNT, MAX_THREADS, load_config, main
from gravdicke.errors import ConfigError


def write_config(tmp_path: Path, payload: dict, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def csv_body(path: Path) -> bytes:
    return path.read_bytes()


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail with TimeoutError instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "spreads", "spectrum": {"nnu": 1.0}})
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_unknown_toplevel_key(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "spreads", "frobnicate": 1})
        with pytest.raises(ConfigError, match="unknown config key: frobnicate"):
            load_config(cfg, {})

    def test_removed_phi_key(self, tmp_path):
        # k0 lies in the x-z plane: no route depends on its azimuth
        cfg = write_config(tmp_path, {"scenario": "spreads", "spectrum": {"phi": 0.0}})
        with pytest.raises(ConfigError, match="unknown config key: spectrum.phi"):
            load_config(cfg, {})

    def test_strict_parse_surfaces_path(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "spreads", "metric": {"aa": 1.0}})
        code = main(["--config", cfg, "--output", str(tmp_path / "o")])
        assert code == 2

    def test_bad_scenario(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "meh"})
        assert main(["--config", cfg]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json")]) == 2

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["--config", str(path)]) == 2

    def test_settable_keys_are_pinned(self):
        # every leaf of the config is an input a run can set: a new one shows here
        assert tuple(_leaf_keys(gravdicke.cli._asdict(gravdicke.cli.Config()))) == SETTABLE_KEYS

    def test_every_leaf_is_set_by_a_workload(self):
        # an input that no shipped config sets is public API no scenario varies: it goes,
        # or it is listed in UNSET_BY_CONFIGS with the reason it stays
        set_by_configs = {key for path in (REPO / "configs").glob("*.json")
                          for key in _leaf_keys(json.loads(path.read_text()))}
        assert set(SETTABLE_KEYS) - set_by_configs == set(UNSET_BY_CONFIGS)

    def test_cli_overrides(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "spreads", "seed": 1})
        out = tmp_path / "ovr"
        assert main(["--config", cfg, "--seed", "99", "--output", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 99

    def test_resolved_config_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "spreads",
            "metric": {"g": 9.81},
            "verify": {"a_values": [1e-3, 2e-3]},
            "dicke": {"replicas": 3},
        })
        out = tmp_path / "rt"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        parsed = load_config(cfg, {"output_dir": str(out)})
        assert load_config(str(out / "resolved_config.json"), {}) == parsed


class TestSpreadsScenario:
    def test_earth_numbers(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "scenario": "spreads",
            "unit_regime": "si",
            "metric": {"g": 9.81},
            "spectrum": {"nu": 1e15, "gamma": 1e8, "theta0": 0.0},
        })
        out = tmp_path / "earth"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "frequency spread" in printed
        meta = json.loads((out / "metadata.json").read_text())
        dw = meta["summary"]["frequency_spread"]
        assert 0.1 <= dw <= 10.0  # "a few Hz" ballpark for Earth-surface numbers
        assert dw == pytest.approx(0.654, rel=1e-2)
        assert (out / "spreads.csv").exists()


class TestFlatDickeScenario:
    SMALL = {"scenario": "flat-dicke", "dicke": {"n_atoms": 500, "replicas": 5, "n_offpeak": 8}}

    def test_single_atom_structure_factor_is_one(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "flat-dicke",
            "dicke": {"n_atoms": 1, "replicas": 3, "n_offpeak": 10},
        })
        out = tmp_path / "fd1"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        rows = (out / "structure_factor.csv").read_text().strip().splitlines()[1:]
        s_values = [float(r.split(",")[3]) for r in rows]
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in s_values)

    def test_thread_count_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.SMALL)
        bodies = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main(["--config", cfg, "--output", str(out), "--threads", threads]) == 0
            bodies.append(csv_body(out / "structure_factor.csv"))
        assert bodies[0] == bodies[1]

    def test_summary_records_named_probe_pull(self, tmp_path):
        out = tmp_path / "pull"
        assert main(["--config", write_config(tmp_path, self.SMALL), "--output", str(out)]) == 0
        summary = json.loads((out / "metadata.json").read_text())["summary"]
        assert summary["s_at_zero"] == 1.0
        assert 0.0 < summary["max_named_probe_pull"] < 1e3

    def test_summary_records_every_probe_pull(self, tmp_path):
        out = tmp_path / "pulls"
        assert main(["--config", write_config(tmp_path, self.SMALL), "--output", str(out)]) == 0
        summary = json.loads((out / "metadata.json").read_text())["summary"]
        rows = (out / "structure_factor.csv").read_text().strip().splitlines()[1:]
        pulls = summary["probe_pulls"]
        # the zero probe, three named probes and the off-peak ones, in CSV order
        assert len(pulls) == len(rows) == 1 + 3 + self.SMALL["dicke"]["n_offpeak"]
        assert all(math.isfinite(p) and p >= 0.0 for p in pulls)
        assert pulls[0] == 0.0
        assert max(pulls[1:4]) == summary["max_named_probe_pull"]
        for row, pull in zip(rows, pulls):
            s_mean, s_stderr, s_expected = map(float, row.split(",")[3:])
            if s_stderr > 0.0:
                assert pull == pytest.approx(abs(s_mean - s_expected) / s_stderr, rel=1e-12)

    def test_failed_gate_exits_4(self, tmp_path, capsys, monkeypatch):
        # a structure factor off by a constant factor fails S(0) = 1
        real = gravdicke.cli.structure_factor
        monkeypatch.setattr(gravdicke.cli, "structure_factor",
                            lambda pos, dk: 0.5 * real(pos, dk))
        out = tmp_path / "gate"
        assert main(["--config", write_config(tmp_path, self.SMALL), "--output", str(out)]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "OracleMismatchError"
        assert (out / "structure_factor.csv").exists()
        # the failed gate's summary is written, next to error.json
        assert json.loads((out / "metadata.json").read_text())["summary"]["s_at_zero"] == 0.5
        assert (out / "error.json").is_file()

    @pytest.mark.parametrize("sections", [
        {"spectrum": {"gamma": 0.5}},                      # fails the weak-coupling guard
        {"metric": {"a": float("nan")}},                   # echoed as null
    ], ids=["strong-coupling", "nan-metric-a"])
    def test_unread_sections_are_not_checked(self, tmp_path, sections):
        # flat-dicke reads unit_regime, seed, spectrum.nu and dicke, nothing else
        cfg = write_config(tmp_path, {"scenario": "flat-dicke",
                                      "dicke": {"n_atoms": 100, "replicas": 2}, **sections})
        out = tmp_path / "fd"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        assert_strict_json(out)


class TestNoiseOnlyChi2:
    """(R - 1)/(R - 2), the mean squared pull of R replicas of pure noise."""

    @pytest.mark.parametrize("replicas", [5, 20])
    def test_matches_simulated_complex_gaussian_replicas(self, replicas):
        rng = np.random.default_rng(replicas)
        points = 40_000
        samples = rng.normal(size=(replicas, points)) + 1j * rng.normal(size=(replicas, points))
        mean, stderr = gravdicke.spectrum.mean_stderr(samples)  # the true mean is 0
        chi2 = float(np.mean(np.abs(mean / stderr) ** 2))
        expected = gravdicke.cli._noise_only_chi2_per_dof(replicas)
        # a pull squared is F(2, 2(R - 1)): variance 3.6 at R = 5 and 1.25 at R = 20,
        # so 5 standard errors of the mean of 40 000 are under 0.05 and 0.03
        assert abs(chi2 - expected) < 5.0 * math.sqrt(3.6 / points)
        assert abs(chi2 - 1.0) > 0.04  # not the large-R limit 1

    def test_two_replicas_have_no_finite_expectation(self):
        assert gravdicke.cli._noise_only_chi2_per_dof(2) is None
        assert gravdicke.cli._noise_only_chi2_per_dof(20) == pytest.approx(19 / 18)

    @pytest.mark.parametrize("replicas, rate", [(2, "0.1"), (4, "0.016"), (20, "0.00063")])
    def test_false_alarm_per_point_at_3_sigma(self, replicas, rate):
        # (1 + 9/(R - 1))^-(R - 1), to two figures
        assert f"{gravdicke.cli._noise_only_false_alarm(replicas, 3.0):.2g}" == rate

    def test_false_alarm_matches_simulated_complex_gaussian_replicas(self):
        rng = np.random.default_rng(4)
        points = 40_000
        samples = rng.normal(size=(4, points)) + 1j * rng.normal(size=(4, points))
        mean, stderr = gravdicke.spectrum.mean_stderr(samples)
        rate = float(np.mean(np.abs(mean / stderr) > 3.0))
        expected = gravdicke.cli._noise_only_false_alarm(4, 3.0)  # 1/64
        assert abs(rate - expected) < 5.0 * math.sqrt(expected / points)


class TestPullQuantiles:
    """The summary's pull quantiles: np.quantile's default rule, bit for bit, without
    np.unique (TestLazyIntegrate checks that no run loads numpy.ma)."""

    def test_matches_np_quantile_bit_for_bit(self):
        rng = np.random.default_rng(678)
        draws = (lambda n: rng.normal(size=n),
                 lambda n: rng.integers(0, 4, size=n).astype(float),  # ties
                 lambda n: np.abs(rng.standard_cauchy(size=n)),      # heavy tails
                 lambda n: rng.exponential(size=n) * 10.0 ** rng.integers(-5, 5))
        for case in range(1000):
            values = draws[case % 4](int(rng.integers(1, 60)))
            for q in (0.5, 0.9, float(rng.random()), 0.0, 1.0):
                got = gravdicke.cli._quantile(values, q)
                want = float(np.quantile(values, q))
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (values, q)

    def test_nan_gives_nan(self):
        values = np.array([1.0, np.nan, 2.0])
        assert math.isnan(gravdicke.cli._quantile(values, 0.5))
        assert math.isnan(float(np.quantile(values, 0.5)))


class TestResonanceRatio:
    """frequency_spread / gamma, small where the kernel's resonant derivation holds."""

    # a c nu cos(theta0) / gamma^2 at the default a = 1e-3, theta0 = pi/6, gamma = 1e-2
    RATIO = 5.0 * math.sqrt(3.0)

    def test_curved_spectrum_summary(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "curved-spectrum",
                                      "ensemble": {"n_atoms": 200, "replicas": 2},
                                      "spectrum": {"grid": {"points": 5}}})
        out = tmp_path / "cs"
        assert main(["--config", cfg, "--output", str(out)]) in (0, 4)  # 2 replicas: reported
        summary = json.loads((out / "metadata.json").read_text())["summary"]
        assert summary["frequency_spread_over_gamma"] == pytest.approx(self.RATIO, rel=1e-12)
        # one point's false-alarm chance at 2 replicas and 3 sigma, not gated
        assert summary["pull_false_alarm_per_point_noise_only"] == pytest.approx(0.1)

    def test_delta_limit_sweep_rows_halve(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "delta-limit",
                                      "delta": {"halvings": 3, "grid_points": 9}})
        out = tmp_path / "dl"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        sweep = json.loads((out / "metadata.json").read_text())["summary"]["sweep"]
        ratios = [row["frequency_spread_over_gamma"] for row in sweep]
        assert ratios == pytest.approx([self.RATIO, self.RATIO / 2, self.RATIO / 4], rel=1e-12)


class TestDeterminism:
    CFG = {
        "scenario": "curved-spectrum",
        "seed": 4242,
        "ensemble": {"n_atoms": 2000, "replicas": 4},
        "spectrum": {"grid": {"lo": -5.0, "hi": 2.0, "points": 21}},
    }

    def test_rerun_and_thread_count_byte_identical(self, tmp_path):
        paths = []
        for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
            cfg = write_config(tmp_path, self.CFG, name=f"{name}.json")
            out = tmp_path / name
            assert main(["--config", cfg, "--output", str(out), "--threads", threads]) == 0
            paths.append(out / "spectrum.csv")
        assert csv_body(paths[0]) == csv_body(paths[1])
        assert csv_body(paths[0]) == csv_body(paths[2])

    def test_metadata_differs_only_in_timestamp(self, tmp_path):
        outs = []
        for name in ("m1", "m2"):
            cfg = write_config(tmp_path, self.CFG, name=f"{name}.json")
            out = tmp_path / name
            assert main(["--config", cfg, "--output", str(out)]) == 0
            outs.append(json.loads((out / "metadata.json").read_text()))
        for meta in outs:
            meta.pop("generated_at")           # the allowed differences: the timestamp,
            meta["environment"].pop("peak_rss_mb")  # this test process's peak memory so far
            meta["environment"].pop("minor_faults")  # and its page faults so far
            for stage in meta["stages"].values():
                for key in [key for key in stage if key == "s" or key.endswith("_s")]:
                    assert stage.pop(key) >= 0.0  # and the wall times of stages and parts
            meta["config"].pop("output_dir")   # varied by the test itself
        assert set(outs[0]["stages"]) == {"replicas", "quadrature", "write_csv"}
        assert outs[0] == outs[1]              # work counts included

    def test_metadata_records_environment_and_pulls(self, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "env"
        assert main(["--config", cfg, "--output", str(out), "--threads", "2"]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        env = meta["environment"]
        assert set(env) == {"python", "numpy", "cpu_count", "threads", "openblas_num_threads",
                            "dont_write_bytecode", "peak_rss_mb", "minor_faults"}
        assert env["threads"] == 2
        assert env["dont_write_bytecode"] is sys.dont_write_bytecode
        assert env["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
        # a peak and a fault count only grow, so the test process's, read the same
        # way later, are at least as high
        later = gravdicke.cli._resource_use()
        assert 0.0 < env["peak_rss_mb"] <= later["peak_rss_mb"]
        assert 0 < env["minor_faults"] <= later["minor_faults"]
        assert meta["summary"]["pull_chi2_per_dof"] >= 0.0

    def test_peak_rss_is_null_without_resource(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "resource", None)  # import resource raises ImportError
        assert gravdicke.cli._resource_use() == {"peak_rss_mb": None, "minor_faults": None}

    def test_metadata_records_pull_report(self, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "pulls"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        summary = json.loads((out / "metadata.json").read_text())["summary"]
        keys = ("pull_p50", "pull_p90", "max_deviation_over_sigma", "pulls_beyond_2_sigma",
                "pulls_beyond_3_sigma", "pull_chi2_per_dof", "pull_chi2_per_dof_noise_only")
        for key in keys:
            assert summary[key] is None or math.isfinite(summary[key]), key
        assert 0.0 <= summary["pull_p50"] <= summary["pull_p90"] <= summary[
            "max_deviation_over_sigma"]
        assert 0 <= summary["pulls_beyond_3_sigma"] <= summary["pulls_beyond_2_sigma"] <= 21
        for part in ("re", "im"):
            means = summary[f"signed_pull_mean_{part}"]
            assert len(means) == 3 and all(map(math.isfinite, means))
        assert summary["pull_chi2_per_dof_noise_only"] == 1.5  # (4 - 1) / (4 - 2)

    def test_noise_only_chi2_is_null_at_two_replicas(self, tmp_path):
        cfg = write_config(tmp_path, dict(self.CFG, ensemble={"n_atoms": 2000, "replicas": 2}))
        out = tmp_path / "two"
        main(["--config", cfg, "--output", str(out)])  # the gate may fail at 2 replicas
        summary = json.loads((out / "metadata.json").read_text())["summary"]
        assert summary["pull_chi2_per_dof_noise_only"] is None

    def test_stages_record_time_and_work(self, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "stages"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        stages = meta["stages"]
        assert all(0.0 <= stage["s"] < 60.0 for stage in stages.values())
        assert stages["replicas"]["atom_kz"] == 2000 * 4 * 21
        assert stages["quadrature"]["integrand_evals"] == meta["summary"][
            "quadrature_integrand_evals"]
        assert stages["write_csv"]["bytes"] == (out / "spectrum.csv").stat().st_size

    def test_replicas_stage_records_the_cell_sum(self, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "cells"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        replicas = json.loads((out / "metadata.json").read_text())["stages"]["replicas"]
        # one batch per replica and one contraction per replica, of at least one occupied
        # cell and at most one per atom, taken against each of the 21 grid points
        assert replicas["contractions"] == 4
        assert 4 <= replicas["occupied_cells"] <= 2000 * 4
        assert replicas["cell_kz"] == replicas["occupied_cells"] * 21
        assert replicas["order"] == gravdicke.spectrum._TERMS
        assert replicas["truncation_bound"] == gravdicke.spectrum.TRUNCATION_BOUND < 2e-13

    @pytest.mark.parametrize("threads", [1, 2])
    def test_replicas_stage_times_its_parts(self, tmp_path, threads):
        # each part's time is summed over the threads, so it is at most threads x the
        # stage's wall time
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "parts"
        assert main(["--config", cfg, "--output", str(out), "--threads", str(threads)]) == 0
        replicas = json.loads((out / "metadata.json").read_text())["stages"]["replicas"]
        parts = ("sampling_s", "timed_dicke_s", "mc_sum_s", "contraction_s")
        assert all(0.0 < replicas[key] <= threads * replicas["s"] for key in parts), replicas
        assert sum(replicas[key] for key in parts) <= threads * replicas["s"]
        assert replicas["atoms"] == 2000 * 4
        assert replicas["atom_kz"] == 2000 * 4 * 21

    @staticmethod
    def tiny_run_metadata(tmp_path: Path, name: str) -> dict:
        cfg = write_config(tmp_path, LAZY_CONFIGS[name], name=f"{name}.json")
        out = tmp_path / name
        assert main(["--config", cfg, "--output", str(out)]) == 0
        return json.loads((out / "metadata.json").read_text())

    def test_delta_sweep_stage_counts_kernel_areas(self, tmp_path):
        meta = self.tiny_run_metadata(tmp_path, "delta")
        stages, sweep = meta["stages"], meta["summary"]["sweep"]
        assert set(stages) == {"delta_sweep", "write_csv"}
        assert 0.0 <= stages["delta_sweep"]["s"] < 60.0
        assert stages["delta_sweep"]["kernel_area_calls"] == len(sweep) == 1
        assert stages["delta_sweep"]["integrand_evals"] == sweep[0]["area_integrand_evals"] > 0

    def test_fd_residuals_stage_counts_modes_times_a_values(self, tmp_path):
        stages = self.tiny_run_metadata(tmp_path, "verify")["stages"]
        assert set(stages) == {"fd_residuals", "write_csv"}
        assert 0.0 <= stages["fd_residuals"]["s"] < 60.0
        assert stages["fd_residuals"]["mode_a"] == 1 * 3  # one mode, three a values

    def test_metadata_records_quadrature_error_and_work(self, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "quad"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        summary = json.loads((out / "metadata.json").read_text())["summary"]
        assert 0.0 < summary["quadrature_worst_error_ratio"] <= 1.0
        assert summary["quadrature_integrand_evals"] > 0

    def test_seed_changes_output(self, tmp_path):
        bodies = []
        for seed in (1, 2):
            cfg = dict(self.CFG, seed=seed)
            path = write_config(tmp_path, cfg, name=f"s{seed}.json")
            out = tmp_path / f"s{seed}"
            assert main(["--config", path, "--output", str(out)]) == 0
            bodies.append(csv_body(out / "spectrum.csv"))
        assert bodies[0] != bodies[1]


class TestExitCodes:
    def test_physics_domain_exit_3(self, tmp_path):
        # box tall enough to violate the linearization guard |a dz| < 1
        cfg = write_config(tmp_path, {
            "scenario": "curved-spectrum",
            "metric": {"a": 1e-2},
            "ensemble": {"n_atoms": 100, "replicas": 2, "box_heights": 300.0},
        })
        out = tmp_path / "phys"
        assert main(["--config", cfg, "--output", str(out)]) == 3
        report = json.loads((out / "error.json").read_text())
        assert report["error"] == "LinearizationError"

    def test_oracle_gate_exit_4(self, tmp_path):
        # honest slopes sit within ~1e-3 of 2; an (unreasonably) tight gate trips
        cfg = write_config(tmp_path, {
            "scenario": "verify-modes",
            "verify": {"n_modes": 2},
            "tolerances": {"slope": 1e-9},
        })
        out = tmp_path / "gate"
        assert main(["--config", cfg, "--output", str(out)]) == 4
        report = json.loads((out / "error.json").read_text())
        assert report["error"] == "OracleMismatchError"
        self.assert_failed_gate_on_record(out, "worst_wave_slope_dev")

    def test_failed_monte_carlo_gate_on_record(self, tmp_path):
        # no Monte Carlo point lies within 1e-6 sigma of the quadrature
        cfg = write_config(tmp_path, {
            "scenario": "curved-spectrum",
            "ensemble": {"n_atoms": 200, "replicas": 3},
            "spectrum": {"grid": {"points": 5}},
            "tolerances": {"mc_sigma": 1e-6},
        })
        out = tmp_path / "mc_gate"
        assert main(["--config", cfg, "--output", str(out)]) == 4
        assert json.loads((out / "error.json").read_text())["error"] == "OracleMismatchError"
        self.assert_failed_gate_on_record(out, "max_deviation_over_sigma")

    @staticmethod
    def assert_failed_gate_on_record(out: Path, summary_key: str) -> None:
        """The summary the gate failed on is written, with the stages and the config."""
        meta = json.loads((out / "metadata.json").read_text())
        assert math.isfinite(meta["summary"][summary_key])
        assert meta["stages"]["write_csv"]["bytes"] > 0
        assert (out / "resolved_config.json").is_file()


class TestBadInputExitCodes:
    """Every bad input ends in a documented exit code with a one-line message.

    A gate that cannot be decided (no off-peak probes, an empty sweep, one
    replica, one distinct a value) is a config error, not an oracle mismatch.
    """

    @pytest.mark.parametrize("payload, code", [
        ({"scenario": "flat-dicke", "dicke": {"n_offpeak": 0}}, 2),
        ({"scenario": "delta-limit", "delta": {"halvings": 0}}, 2),
        ({"scenario": "curved-spectrum", "ensemble": {"replicas": 1}}, 2),
        ({"scenario": "verify-modes", "verify": {"a_values": [1e-3]}}, 2),
        ({"scenario": "verify-modes", "verify": {"a_values": [1e-3, 1e-3]}}, 2),
        ({"scenario": "spreads", "threads": "x"}, 2),
        ({"scenario": "spreads", "metric": {"a": float("nan")}}, 3),
        ({"scenario": "spreads", "spectrum": {"nu": float("inf")}}, 3),
        ({"scenario": "flat-dicke", "seed": -1}, 2),
        ({"scenario": "spreads", "spectrum": {"nu": None}}, 2),
        ({"scenario": "flat-dicke",
          "dicke": {"probes_u": [[1.0, 0.0, 0.0], [2.5, 0.0, 0.0], [1.0, 1.5, 0.7]]}}, 2),
        ({"scenario": "spreads", "metric": {"a": "0.001"}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"n_atoms": 100.5}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"n_atoms": True}}, 2),
        ({"scenario": "spreads", "threads": 2.7}, 2),
        ({"scenario": "flat-dicke", "dicke": {"replicas": 0}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"beta": 1.0}}, 2),
        ({"scenario": "curved-spectrum", "spectrum": {"phi": 0.0}}, 2),
        ({"scenario": "spreads", "metric": {"a": 10**400}}, 2),
        ({"scenario": "spreads", "spectrum": {"theta0": float("inf")}}, 3),
        ({"scenario": "verify-modes", "verify": {"n_modes": 2, "a_values": [1e-14, 1e-13]}}, 2),
        ({"scenario": "curved-spectrum", "tolerances": {"mc_fraction": -1, "mc_sigma": -5}}, 2),
        ({"scenario": "verify-modes", "tolerances": {"slope": -1}}, 2),
        ({"scenario": "curved-spectrum", "spectrum": {"grid": {"lo": float("-inf")}},
          "ensemble": {"n_atoms": 200, "replicas": 2}}, 2),
        ({"scenario": "curved-spectrum", "spectrum": {"grid": {"hi": 1e308}},
          "ensemble": {"n_atoms": 200, "replicas": 2}}, 2),
        ({"scenario": "verify-modes", "verify": {"rel_step": 0.01}}, 2),
        ({"scenario": "verify-modes", "verify": {"order": 4}}, 2),
        ({"scenario": "verify-modes", "verify": {"volume": 1.0}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"n_atoms": 0}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"box_wavelengths": -1}}, 2),
        ({"scenario": "curved-spectrum", "ensemble": {"n_atoms": 0}}, 2),
        ({"scenario": "curved-spectrum", "ensemble": {"box_heights": -1}}, 2),
        ({"scenario": "curved-spectrum", "ensemble": {"box_aspect": 0.1}}, 2),
        ({"scenario": "delta-limit", "delta": {"halvings": 2000}}, 3),
        ({"scenario": "flat-dicke", "dicke": {"replicas": 1}}, 2),
        ({"scenario": "curved-spectrum", "spectrum": {"grid": {"lo": -1e308}},
          "ensemble": {"n_atoms": 200, "replicas": 2}}, 2),
        ({"scenario": "verify-modes",
          "verify": {"point": {"t": 0.3, "x": 0.2, "y": -0.15, "z": 0.35}}}, 2),
        ({"scenario": "spreads", "metric": {"a": 1e308}}, 3),
        ({"scenario": "delta-limit", "spectrum": {"gamma": 1e-300}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"n_atoms": 10**30}}, 2),
        ({"scenario": "curved-spectrum", "ensemble": {"n_atoms": 10**30}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"n_atoms": MAX_ATOMS + 1}}, 2),
        ({"scenario": "curved-spectrum", "ensemble": {"n_atoms": MAX_ATOMS + 1}}, 2),
        ({"scenario": "spreads", "verify": {"a_values": [1e-3, float("inf")]}}, 2),
        ({"scenario": "verify-modes", "verify": {"a_values": [0.0, 1e-3]}}, 2),
        ({"scenario": "verify-modes", "verify": {"a_values": [-1e-3, 1e-3]}}, 2),
        ({"scenario": "spreads", "spectrum": {"Z": 0.0}}, 2),
        ({"scenario": "curved-spectrum", "spectrum": {"nu": 1e-200, "gamma": 1e-202},
          "ensemble": {"n_atoms": 200, "replicas": 2}}, 3),
        ({"scenario": "flat-dicke", "spectrum": {"nu": float("inf")}}, 3),
        ({"scenario": "flat-dicke", "spectrum": {"nu": 0.0}}, 3),
        ({"scenario": "flat-dicke", "spectrum": {"nu": -1.0}}, 3),
        ({"scenario": "flat-dicke", "unit_regime": "si", "spectrum": {"nu": 5e-324}}, 3),
        ({"scenario": "spreads", "metric": {"z0": 6.371e6}}, 2),
        ({"scenario": "curved-spectrum", "tolerances": {"quadrature": 1e-9}}, 2),
        ({"scenario": "verify-modes", "verify": {"min_kz_fraction": 0.1}}, 2),
        ({"scenario": "delta-limit", "delta": {"grid_points": 3}}, 2),
        ({"scenario": "curved-spectrum", "ensemble": {"box_heights": 1e308}}, 3),
    ], ids=["no-offpeak-probes", "no-halvings", "one-replica", "one-a-value",
            "repeated-a-value", "threads-not-int", "nan-a", "infinite-nu",
            "negative-seed", "null-nu", "removed-key-probes-u", "string-a", "float-n-atoms",
            "bool-n-atoms", "float-threads", "no-dicke-replicas", "removed-key-beta",
            "removed-key-phi", "huge-int-a", "infinite-theta0", "inconclusive-residuals",
            "negative-mc-tolerances", "negative-slope-tolerance", "infinite-grid-lo",
            "overflowing-grid-hi", "removed-key-rel-step", "removed-key-order",
            "removed-key-volume",
            "no-dicke-atoms", "negative-box-wavelengths", "no-ensemble-atoms",
            "negative-box-heights", "removed-key-box-aspect", "underflowing-halvings",
            "one-dicke-replica", "huge-grid-lo", "removed-key-point",
            "overflowing-spreads", "underflowing-gamma", "astronomical-dicke-atoms",
            "astronomical-ensemble-atoms", "dicke-atoms-over-cap", "ensemble-atoms-over-cap",
            "infinite-a-value", "zero-a-value", "negative-a-value", "removed-key-Z",
            "underflowing-k0-norm",
            "flat-dicke-infinite-nu", "flat-dicke-zero-nu", "flat-dicke-negative-nu",
            "flat-dicke-underflowing-k0-norm", "removed-key-z0", "removed-key-quadrature",
            "removed-key-min-kz-fraction", "one-delta-offset-below-k0z",
            "overflowing-box-heights"])
    def test_exit_code_and_one_line_message(self, tmp_path, capsys, payload, code):
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == code
        self.assert_one_line(capsys)

    @pytest.mark.parametrize("metric, key", [({"a": 1e-3}, "metric.a"), ({"g": 0.5e-3}, "metric.g")])
    def test_box_height_overflow_names_its_keys(self, tmp_path, capsys, metric, key):
        # the box height is box_heights decay lengths gamma / (a nu): every key that
        # feeds the product is named, a's by whichever key set it
        cfg = write_config(tmp_path, {"scenario": "curved-spectrum", "metric": metric,
                                      "ensemble": {"box_heights": 1e308}})
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 3
        message = json.loads(capsys.readouterr().err)["message"]
        for name in ("ensemble.box_heights", key, "spectrum.nu", "spectrum.gamma"):
            assert name in message, name

    @pytest.mark.parametrize("scenario", ["curved-spectrum", "spreads"])
    @pytest.mark.parametrize("section, leaf, value, codes", [
        ("spectrum", "gamma", 0.0, {"curved-spectrum": 3, "spreads": 3}),
        ("spectrum", "nu", 1e200, {"curved-spectrum": 3, "spreads": 3}),
        ("metric", "a", 1e308, {"curved-spectrum": 2, "spreads": 3}),
        ("spectrum", "gamma", 5e-324, {"curved-spectrum": 2, "spreads": 3}),
    ], ids=["zero-gamma", "overflowing-k0", "overflowing-kernel-a", "overflowing-kernel-gamma"])
    def test_spectrum_rejection_names_its_key(self, tmp_path, capsys, scenario, section, leaf,
                                              value, codes):
        # a rejected SpectrumParams, and a kernel width a nu / gamma that overflows, name
        # the keys that set them, the mutated one with its value
        cfg = write_config(tmp_path, {"scenario": scenario, section: {leaf: value}})
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == codes[scenario]
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{section}.{leaf} = {value!r}" in json.loads(err)["message"]

    @pytest.mark.parametrize("payload, code, names", [
        # |a z| at the box's faces is box_heights gamma / (2 nu): a cancels
        ({"scenario": "curved-spectrum", "ensemble": {"box_heights": 3000}}, 3,
         ["ensemble.box_heights = 3000", "spectrum.nu = 1.0", "spectrum.gamma = 0.01"]),
        ({"scenario": "verify-modes", "verify": {"a_values": [1e-4, 5.0]}}, 3,
         ["verify.a_values = [0.0001, 5.0]", "a=5.0"]),
        # the kernel width a nu / gamma is too narrow for the grid's k_z column
        ({"scenario": "delta-limit", "metric": {"a": 1e-30}}, 2,
         ["metric.a = 1e-30", "spectrum.nu = 1.0", "spectrum.gamma = 0.01"]),
        ({"scenario": "curved-spectrum", "metric": {"a": 1e-30}}, 2,
         ["spectrum.grid", "metric.a = 1e-30", "spectrum.nu = 1.0", "spectrum.gamma = 0.01"]),
        # the atom phases |k_z| |z| take the grid's reach and the box's
        ({"scenario": "curved-spectrum", "spectrum": {"grid": {"hi": 1e100}}}, 2,
         ["spectrum.grid.hi = 1e+100", "spectrum.grid.lo = -8.0", "ensemble.box_heights = 80.0"]),
        # the box side is box_wavelengths wavelengths 2 pi c / nu
        ({"scenario": "flat-dicke", "spectrum": {"nu": 5e-324}}, 2,
         ["spectrum.nu = 5e-324", "dicke.box_wavelengths = 100.0"]),
    ], ids=["box-past-linearization", "a-value-past-linearization", "delta-grid-collapse",
            "spectrum-grid-collapse", "grid-reach-rounds-phases", "flat-dicke-box-side"])
    def test_exit_names_the_keys_that_feed_it(self, tmp_path, capsys, payload, code, names):
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        message = json.loads(err)["message"]
        for name in names:
            assert name in message, name

    @pytest.mark.parametrize("text, key", [
        ('{"scenario": "spreads", "metric": {"a": 1e-3, "a": 2e-3}}', "'a'"),
        ('{"scenario": "spreads", "seed": 1, "scenario": "flat-dicke"}', "'scenario'"),
    ], ids=["nested", "top-level"])
    def test_repeated_key(self, tmp_path, capsys, text, key):
        # json.loads alone keeps the last value: the run would go ahead at a = 2e-3
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["--config", str(path), "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"config key {key} is repeated" in json.loads(err)["message"]

    @pytest.mark.parametrize("key", ["a", "g"])
    @pytest.mark.parametrize("scenario", ["curved-spectrum", "delta-limit"])
    def test_kernel_scenarios_reject_a_flat_metric(self, tmp_path, capsys, monkeypatch, scenario,
                                                   key):
        # both grids are spaced in the kernel width a nu / gamma, which a = 0 makes zero;
        # the run names the key that set a, before any grid is built
        def never(*args, **kwargs):
            raise AssertionError("a grid was built at a = 0")

        monkeypatch.setattr(gravdicke.cli, "_kz_grid", never)
        cfg = write_config(tmp_path, {"scenario": scenario, "metric": {key: 0.0}})
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"metric.{key} = 0.0 gives a = 0" in json.loads(err)["message"]

    @pytest.mark.parametrize("payload, key", [
        ({"scenario": "curved-spectrum", "spectrum": {"grid": {"points": 10**30}}}, "points"),
        ({"scenario": "delta-limit", "delta": {"grid_points": 10**30}}, "grid_points"),
        ({"scenario": "curved-spectrum", "ensemble": {"replicas": 10**30}}, "replicas"),
        ({"scenario": "flat-dicke", "dicke": {"replicas": 10**30}}, "replicas"),
        ({"scenario": "flat-dicke", "dicke": {"n_offpeak": 10**30}}, "n_offpeak"),
        ({"scenario": "verify-modes", "verify": {"n_modes": 10**30}}, "n_modes"),
        ({"scenario": "verify-modes",
          "verify": {"a_values": [1e-3 * (1 + i / MAX_COUNT) for i in range(MAX_COUNT + 1)]}},
         "a_values"),
    ], ids=["grid-points", "delta-grid-points", "ensemble-replicas", "dicke-replicas",
            "offpeak-probes", "modes", "a-values"])
    def test_astronomical_count_rejected_at_parse(self, tmp_path, capsys, payload, key):
        cfg = write_config(tmp_path, payload)
        # rejected while parsing, so no run starts a thread or a loop
        with pytest.raises(ConfigError, match=f"{key}.*{MAX_COUNT}"):
            load_config(cfg, {})
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        self.assert_one_line(capsys)

    @pytest.mark.parametrize("threads", [MAX_THREADS + 1, 10**6])
    def test_thread_count_over_cap_rejected_at_parse(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path, {"scenario": "spreads"})
        # rejected while parsing, so no run starts a thread pool
        with pytest.raises(ConfigError, match=f"threads.*{MAX_THREADS}"):
            load_config(cfg, {"threads": threads})
        assert main(["--config", cfg, "--output", str(tmp_path / "o"),
                     "--threads", str(threads)]) == 2
        self.assert_one_line(capsys)

    def test_overflowing_monte_carlo_square_is_a_domain_error(self, tmp_path, capsys):
        # amplitudes near 1e157 (sqrt(N) / gamma) square past the float range
        cfg = write_config(tmp_path, {"scenario": "curved-spectrum",
                                      "spectrum": {"gamma": 1e-155, "grid": {"points": 7}},
                                      "ensemble": {"n_atoms": 300, "replicas": 2}})
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", cfg, "--output", str(out)]) == 3
        assert caught == []
        self.assert_one_line(capsys)
        assert not (out / "spectrum.csv").exists()

    def test_box_too_flat_for_a_replica_spread_is_undecidable(self, tmp_path, capsys):
        # every atom at one height: the replicas agree to 1e-157 of the peak, far below
        # the rounding of the Monte Carlo/quadrature comparison
        cfg = write_config(tmp_path, {"scenario": "curved-spectrum",
                                      "spectrum": {"grid": {"points": 5}},
                                      "ensemble": {"n_atoms": 200, "replicas": 2,
                                                   "box_heights": 1e-155}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "ensemble.box_heights" in json.loads(err)["message"]

    def test_quadrature_panel_cap_exits_4(self, tmp_path, capsys):
        # 150 decay lengths probed 1e4 decay constants below k0z: about 5e5 panels
        cfg = write_config(tmp_path, {"scenario": "curved-spectrum",
                                      "spectrum": {"grid": {"lo": -1e4}},
                                      "ensemble": {"n_atoms": 200, "replicas": 2,
                                                   "box_heights": 150.0}})
        with time_limit(5):
            assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "panels" in json.loads(err)["message"]

    def test_si_g_past_half_the_float_range_reaches_the_spread(self, tmp_path, capsys):
        # 2 g overflows at g = 1e308, but a = 2 (g / c^2) = 2.2e291 is finite: the run
        # gets as far as the frequency spread a c nu cos(theta0) / gamma, which overflows
        # before spreads.csv is written, so no CSV holds the inf
        cfg = write_config(tmp_path, {"scenario": "spreads", "unit_regime": "si",
                                      "metric": {"g": 1e308},
                                      "spectrum": {"nu": 1e15, "gamma": 1e8, "theta0": 0.0}})
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o" / "spreads.csv").exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        message = json.loads(err)["message"]
        assert message.startswith("spreads gave a non-finite frequency_spread: ")
        assert '"frequency_spread": Infinity' in message
        assert "metric.g" not in message and "gravity-gradient parameter" not in message

    def test_overflowing_g_names_its_key(self, tmp_path, capsys):
        # in the scaled regime a = 2 g / c^2 = 2e308 overflows
        cfg = write_config(tmp_path, {"scenario": "spreads", "metric": {"g": 1e308}})
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        message = json.loads(err)["message"]
        assert message.startswith("metric.g = 1e+308: ") and "must be finite" in message

    @pytest.mark.parametrize("sections, code, error", [
        ({"metric": {"a": 1e-15}}, 2, "ConfigError"),
        ({"ensemble": {"box_heights": 300.0}}, 3, "LinearizationError"),
    ], ids=["rounded-phases", "too-tall"])
    def test_far_box_exits_before_any_replica(self, tmp_path, capsys, monkeypatch, sections,
                                              code, error):
        # at a = 1e-15 the box is 8e14 tall and its atom phases round to 1/16 rad, and
        # the Monte Carlo and the quadrature would run for seconds before the gate read
        # rounding; a box whose z faces reach |a z| >= 1 exits 3
        def never(*args, **kwargs):
            raise AssertionError("a stage ran past the box guards")

        monkeypatch.setattr(gravdicke.cli, "replicated_mc_spectrum", never)
        monkeypatch.setattr(gravdicke.cli, "quadrature_spectrum", never)
        cfg = write_config(tmp_path, {"scenario": "curved-spectrum", **sections})
        out = tmp_path / "o"
        assert main(["--config", cfg, "--output", str(out)]) == code
        assert json.loads((out / "error.json").read_text())["error"] == error
        self.assert_one_line(capsys)

    def test_output_names_a_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "spreads"})
        target = tmp_path / "taken"
        target.write_text("not a directory")
        assert main(["--config", cfg, "--output", str(target)]) == 2
        self.assert_one_line(capsys)
        assert target.read_text() == "not a directory"

    @staticmethod
    def assert_one_line(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["message"]


def _leaf_keys(table: dict, prefix: tuple = ()):
    for key, val in table.items():
        if isinstance(val, dict):
            yield from _leaf_keys(val, prefix + (key,))
        else:
            yield prefix + (key,)


SETTABLE_KEYS = (
    ("scenario",), ("seed",), ("output_dir",), ("unit_regime",), ("threads",),
    ("metric", "a"), ("metric", "g"),
    ("spectrum", "nu"), ("spectrum", "gamma"), ("spectrum", "theta0"),
    ("spectrum", "grid", "lo"), ("spectrum", "grid", "hi"), ("spectrum", "grid", "points"),
    ("ensemble", "n_atoms"), ("ensemble", "replicas"), ("ensemble", "box_heights"),
    ("dicke", "n_atoms"), ("dicke", "box_wavelengths"), ("dicke", "n_offpeak"),
    ("dicke", "replicas"),
    ("delta", "halvings"), ("delta", "grid_points"),
    ("verify", "n_modes"), ("verify", "a_values"),
    ("tolerances", "slope"), ("tolerances", "mc_sigma"), ("tolerances", "mc_fraction"),
)
# settable leaves that no configs/*.json sets, each with the reason it stays an input
UNSET_BY_CONFIGS = {
    ("output_dir",): "set by the CLI flag --output",
    ("threads",): "set by the CLI flag --threads",
    ("tolerances", "mc_sigma"): "the Monte Carlo gate's tolerance, kept by ROADMAP items 2 and 11",
    ("tolerances", "mc_fraction"): "the Monte Carlo gate's tolerance, kept by ROADMAP items 2 and 11",
}
FUZZ_KEYS = [path for path in SETTABLE_KEYS if path not in (("scenario",), ("output_dir",))]
SMALL_INTS = st.integers(-3, 5)
# float limits that uniform float draws almost never hit: overflow at the first
# product, far past any physical scale, and the smallest normal and subnormal sizes.
# A top-level value is also drawn from them directly, so that a leaf meets one often
EXTREME_FLOATS = st.sampled_from([1e308, -1e308, 1e100, 1e-300, 5e-324])
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), EXTREME_FLOATS)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), SMALL_INTS, FLOATS, EXTREME_FLOATS, st.text(max_size=4),
    st.lists(st.one_of(FLOATS, SMALL_INTS, st.lists(FLOATS, max_size=4)), max_size=4),
)


# every scenario at sizes that keep one run in the tens of milliseconds
FUZZ_BASE = {
    "threads": 1,
    "spectrum": {"grid": {"points": 5}},
    "ensemble": {"n_atoms": 200, "replicas": 2},
    "dicke": {"n_atoms": 200, "replicas": 2},
    "delta": {"halvings": 2, "grid_points": 5},
    "verify": {"n_modes": 1},
}


def _reject_constant(constant):
    raise ValueError(f"metadata.json holds the non-JSON constant {constant}")


def assert_strict_json(out: Path) -> None:
    """Both config echoes are JSON proper, with no NaN or Infinity."""
    for name in ("metadata.json", "resolved_config.json"):
        json.loads((out / name).read_text(), parse_constant=_reject_constant)


class TestConfigFuzz:
    """Any value at any leaf key ends in a documented exit code, never a traceback."""

    @pytest.mark.parametrize("scenario", ["spreads", "flat-dicke", "curved-spectrum",
                                          "delta-limit", "verify-modes"])
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=60,
              deadline=None)
    @given(key=st.sampled_from(FUZZ_KEYS), value=JSON_VALUES)
    def test_leaf_value_exit_code(self, tmp_path, capsys, scenario, key, value):
        self.run_leaf(tmp_path, capsys, scenario, key, value)

    @pytest.mark.parametrize("key, value", [
        (("dicke", "box_wavelengths"), 5e-324),
        (("dicke", "box_wavelengths"), 1e308),
    ], ids=["subnormal-box", "overflowing-box"])
    def test_flat_dicke_float_extremes(self, tmp_path, capsys, key, value):
        # each once printed numpy warnings; the subnormal box let a NaN reach the gate
        assert self.run_leaf(tmp_path, capsys, "flat-dicke", key, value) == 2

    @pytest.mark.parametrize("scenario, key, value, code", [
        ("curved-spectrum", ("metric", "a"), 1e308, 2),
        ("curved-spectrum", ("ensemble", "box_heights"), 1e308, 3),
        ("curved-spectrum", ("ensemble", "box_heights"), 1e-320, 2),
        ("curved-spectrum", ("ensemble", "box_heights"), 5e-324, 2),
        ("delta-limit", ("metric", "a"), 5e-324, 2),
        ("curved-spectrum", ("metric", "a"), 5e-324, 2),
    ], ids=["overflowing-a", "overflowing-height", "subnormal-height", "least-height",
            "subnormal-a", "curved-subnormal-a"])
    def test_float_extremes(self, tmp_path, capsys, scenario, key, value, code):
        # each once printed numpy warnings before its exit.  A subnormal box's quadrature
        # peak overflowed the gate's scaling before the spread check rejected the box;
        # the subnormal a once ended in 3, with a warning: a kernel too narrow for the grid.
        # In curved-spectrum it overflowed the box height first, which named no key
        assert self.run_leaf(tmp_path, capsys, scenario, key, value) == code

    @staticmethod
    def run_leaf(tmp_path, capsys, scenario, key, value) -> int:
        payload = copy.deepcopy(dict(FUZZ_BASE, scenario=scenario))
        table = payload
        for part in key[:-1]:
            table = table.setdefault(part, {})
        table[key[-1]] = value
        out = tmp_path / "o"
        capsys.readouterr()
        with time_limit(20):
            code = main(["--config", write_config(tmp_path, payload), "--output", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code:
            lines = err.strip().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["message"]
        else:
            assert err == ""
            json.loads((out / "metadata.json").read_text(), parse_constant=_reject_constant)
        return code


class TestExports:
    MODULES = ("metric", "modes", "maxwell", "emission", "spectrum", "quadrature")
    UNREACHED_ALLOWED = []

    def test_every_exported_name_is_reached(self):
        """A name in a module's __all__ is used by some package module, by the
        acceptance criteria or by the test oracles; __init__ re-exports do not count."""
        tests = Path(__file__).parent
        files = [p for p in Path(gravdicke.__file__).parent.glob("*.py") if p.name != "__init__.py"]
        files += [tests / "test_acceptance.py", tests / "oracles.py"]
        used, exported = set(), []
        for path in files:
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                        getattr(target, "id", None) == "__all__" for target in node.targets):
                    exported += [(path.stem, name) for name in ast.literal_eval(node.value)]
        assert exported
        unreached = [f"{mod}.{name}" for mod, name in exported if name not in used]
        assert unreached == self.UNREACHED_ALLOWED

    @pytest.mark.parametrize("name", MODULES)
    def test_module_all_resolves(self, name):
        module = importlib.import_module(f"gravdicke.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == []


class TestImports:
    # names a module imports without reading them, each with the reason it stays
    UNREAD_ALLOWED = {
        "emission.check_linearization": "bench/tracer.py rebinds it to count the guard's calls",
    }

    def test_every_imported_name_is_read(self):
        """A name a package module imports, at module level or in a function, is
        read in that module; __future__ imports do not count."""
        unread = []
        for path in Path(gravdicke.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    imported |= {alias.asname or alias.name for alias in node.names}
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{name}" for name in imported - read]
        assert sorted(unread) == sorted(self.UNREAD_ALLOWED)


def _loaded_globals(node, local=frozenset()):
    """Names that node loads from its module's scope: not a parameter or an assigned name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        local = local | {a.arg for a in params if a} | {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _loaded_globals(child, local)


def route_closures(routes: dict) -> dict:
    """Each route's package call closure: the module-level functions, classes and
    constants its entry points reach by name, through relative imports.

    A class counts whole, methods included, so a route that takes a record
    also reaches every guard and constant of that record.
    """
    defs, scopes = {}, {}
    for path in Path(gravdicke.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        mod, tree = path.stem, ast.parse(path.read_text())
        scope = scopes[mod] = {}
        for node in ast.walk(tree):  # lazy imports inside functions too
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    scope[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and t.id != "__all__"]
            else:
                continue
            for name in names:
                scope[name] = f"{mod}.{name}"
                defs[f"{mod}.{name}"] = node

    def resolve(key):
        while key not in defs:  # an imported name: follow it to the module defining it
            mod, name = key.split(".")
            key = scopes[mod][name]
        return key

    closures = {}
    for route, entries in routes.items():
        seen, todo = set(), list(entries)
        while todo:
            key = todo.pop()
            if key not in seen:
                seen.add(key)
                scope = scopes[key.split(".")[0]]
                todo += [resolve(scope[n]) for n in _loaded_globals(defs[key]) if n in scope]
        closures[route] = seen
    return closures


class TestRouteIndependence:
    """The closed-form, quadrature, Monte Carlo and finite-difference routes share no algebra.

    Each route is an oracle for the others, so a definition two routes reach
    is pinned here with the reason it may be shared.  A change that must share
    more widens SHARED in plain sight.
    """

    ROUTES = {
        "montecarlo": ["spectrum.replicated_mc_spectrum"],
        "quadrature": ["spectrum.quadrature_spectrum"],
        "closed_form": ["spectrum.analytic_spectrum", "spectrum.kernel_decay_constant",
                        "spectrum.kernel_area"],
        "finite_differences": ["maxwell.wave_residual", "maxwell.residual_slope_study"],
    }
    ALL = frozenset(ROUTES)
    SPECTRAL = frozenset({"montecarlo", "quadrature", "closed_form"})
    AREA = frozenset({"quadrature", "closed_form"})
    GUARDED = frozenset({"montecarlo", "finite_differences"})
    # every definition that more than one route reaches: (routes, why it may be shared)
    SHARED = {
        "errors.GravDickeError": (ALL, "base of the error classes"),
        "errors.PhysicsDomainError": (ALL, "the error a route raises on an input outside its domain"),
        "errors.LinearizationError": (GUARDED, "raised by the linearization guard"),
        "errors.QuadratureError": (AREA, "raised by the Gauss-Legendre rule's panel cap"),
        "metric.PhysicalConstants": (ALL, "a record of input constants"),
        "metric.CheckedRecord": (ALL, "the records' base, whose _make and _replace go through "
                                 "each record's own constructor"),
        "metric.WeakFieldMetric": (ALL, "a record of the input metric parameters"),
        "metric.KZ_GUARD": (ALL, "the grazing-angle guard of SpectrumParams and of the modes"),
        "metric.check_linearization": (GUARDED, "an input guard on |a dz| < 1, no route's algebra"),
        "spectrum.SpectrumParams": (SPECTRAL, "the record of the emission geometry and its guards"),
        "spectrum.GAMMA_NU_MAX": (SPECTRAL, "SpectrumParams' weak-coupling guard"),
        "quadrature.gauss_legendre": (AREA, "a generic integration rule: the closed form's area "
                                      "check integrates its own kernel with it"),
        "quadrature.panel_count": (AREA, "the rule's panel count and cap"),
        "quadrature.MAX_PANELS": (AREA, "the rule's panel cap"),
        "quadrature._panel_sum": (AREA, "the rule's composite sum"),
        "quadrature._nodes_weights": (AREA, "the rule's Legendre nodes and weights"),
        "quadrature._ORDER": (AREA, "the rule's order"),
    }

    def test_routes_share_only_the_pinned_definitions(self):
        closures = route_closures(self.ROUTES)
        reached_by = {}
        for route, closure in closures.items():
            for key in closure:
                reached_by.setdefault(key, set()).add(route)
        shared = {key: routes for key, routes in reached_by.items() if len(routes) > 1}
        assert shared == {key: set(routes) for key, (routes, _) in self.SHARED.items()}
        # the walk sees each route's own algebra, the Monte Carlo's working arrays included
        assert {"spectrum._sum_work", "emission.cis"} <= closures["montecarlo"]
        assert "spectrum.g_kernel" in closures["closed_form"]
        assert "spectrum.z_integral_oracle" in closures["quadrature"]
        assert "modes.mode_field_first_order" in closures["finite_differences"]

    def test_oracles_import_nothing_from_the_package(self):
        tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert imported and not [m for m in imported if m.split(".")[0] == "gravdicke"]


class TestVerifyModesScenario:
    def test_artifacts_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "verify-modes", "verify": {"n_modes": 2}})
        out = tmp_path / "vm"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        assert (out / "residuals.csv").exists()
        assert (out / "mode_vectors.csv").exists()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["summary"]["worst_wave_slope_dev"] < 0.1
        assert meta["summary"]["worst_gauss_slope_dev"] < 0.1

    def test_discretization_ratio_recorded(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "verify-modes"})
        out = tmp_path / "vmr"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        summary = json.loads((out / "metadata.json").read_text())["summary"]
        # no report is inconclusive at the defaults, so no residual is mostly FD error
        assert 0.0 < summary["max_discretization_ratio"] <= 1.0
        assert summary["max_gauss_discretization_ratio"] > 0.0

    def test_summary_records_contractions(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "verify-modes", "verify": {"n_modes": 2}})
        out = tmp_path / "vmt"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        summary = json.loads((out / "metadata.json").read_text())["summary"]
        # O(a^2) at the largest a, 1e-2, and nonzero off the reference height
        for key in ("max_p_dot_f", "max_k_dot_f", "max_p_dot_k"):
            assert 0.0 <= summary[key] < 1e-3, key
        assert summary["max_k_dot_f"] > 0.0
        header, *rows = (out / "residuals.csv").read_text().splitlines()
        column = header.split(",").index("z")
        assert {row.split(",")[column] for row in rows} == {"0.35"}

    def test_contractions_at_the_largest_a_in_any_order(self, tmp_path):
        # the transversality check and mode_vectors.csv take the largest a, not the last
        runs = []
        for name, a_values in (("up", [1e-4, 1e-3, 1e-2]), ("down", [1e-2, 1e-3, 1e-4])):
            cfg = write_config(tmp_path, {"scenario": "verify-modes",
                                          "verify": {"n_modes": 2, "a_values": a_values}},
                               f"{name}.json")
            out = tmp_path / name
            assert main(["--config", cfg, "--output", str(out)]) == 0
            summary = json.loads((out / "metadata.json").read_text())["summary"]
            runs.append(((out / "mode_vectors.csv").read_bytes(),
                         [summary[key] for key in ("max_p_dot_f", "max_k_dot_f", "max_p_dot_k")]))
        assert runs[0] == runs[1]

    def test_residual_csv_columns(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "verify-modes", "verify": {"n_modes": 1}})
        out = tmp_path / "vmc"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        header = (out / "residuals.csv").read_text().splitlines()[0].split(",")
        for col in ("kx", "s", "a", "gauss_re", "disc_estimate", "wave_slope", "gauss_slope"):
            assert col in header

    @pytest.mark.parametrize("sections", [
        {"spectrum": {"gamma": 0.5}},                      # fails the weak-coupling guard
        {"metric": {"a": float("nan")}},                   # echoed as null
    ], ids=["strong-coupling", "nan-metric-a"])
    def test_unread_sections_are_not_checked(self, tmp_path, sections):
        # verify-modes reads unit_regime, seed, verify and tolerances.slope, nothing else
        cfg = write_config(tmp_path, {"scenario": "verify-modes", "verify": {"n_modes": 1},
                                      **sections})
        out = tmp_path / "vm"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        assert_strict_json(out)


class TestOffsetGrid:
    @settings(max_examples=300, deadline=None)
    @given(depth=st.floats(1e-300, 1e300), hi=st.floats(1e-300, 1e300),
           points=st.integers(3, 10**5))
    def test_points_zero_and_ends(self, depth, hi, points):
        # below 1e-300 a grid's spacing falls to subnormals, whose neighbours can round
        # together; _kz_grid rejects such a grid by its k_z column
        grid = gravdicke.cli._offset_grid(-depth, hi, points)
        assert len(grid) == points
        assert np.count_nonzero(grid == 0.0) == 1
        assert np.all(np.diff(grid) > 0.0)
        assert grid[0] == -depth and grid[-1] == hi


class TestDeltaLimitScenario:
    def test_peak_doubles_and_area_fixed(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "delta-limit", "delta": {"halvings": 3}})
        out = tmp_path / "dl"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        sweep = json.loads((out / "metadata.json").read_text())["summary"]["sweep"]
        peaks = [row["peak"] for row in sweep]
        scales = [row["decay_scale"] for row in sweep]
        for i in range(1, len(sweep)):
            assert peaks[i] / peaks[i - 1] == pytest.approx(2.0, rel=1e-9)
            assert scales[i - 1] / scales[i] == pytest.approx(2.0, rel=1e-9)
        areas = [complex(row["area"]["re"], row["area"]["im"]) for row in sweep]
        assert all(abs(a - areas[0]) < 1e-9 * abs(areas[0]) for a in areas)

    @pytest.mark.parametrize("a", [1e-10, 1e-12])
    def test_small_a_areas_are_exact(self, tmp_path, capsys, a):
        # the kernel and its area take q = k0z - k_z, so no node carries the rounding of
        # k0z, which at a = 1e-10 is 1e-8 of a decay length a nu / gamma
        cfg = write_config(tmp_path, {"scenario": "delta-limit", "metric": {"a": a}})
        out = tmp_path / "dl"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        sweep = json.loads((out / "metadata.json").read_text())["summary"]["sweep"]
        assert len(sweep) == 4
        for row in sweep:
            area = complex(row["area"]["re"], row["area"]["im"])
            assert abs(area - (-1j / 1e-2)) <= 1e-13 * 100.0

    @pytest.mark.parametrize("points", [4, 5])
    def test_one_row_per_grid_point_and_a(self, tmp_path, points):
        # a negative share that rounds to points - 1 once forced a second positive offset
        cfg = write_config(tmp_path, {"scenario": "delta-limit",
                                      "delta": {"halvings": 2, "grid_points": points}})
        out = tmp_path / "dl"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        lines = (out / "delta_limit.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * points

    def test_metadata_records_area_error_and_work(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "delta-limit", "delta": {"halvings": 2}})
        out = tmp_path / "dl"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        sweep = json.loads((out / "metadata.json").read_text())["summary"]["sweep"]
        for row in sweep:
            assert 0.0 <= row["area_error_ratio"] < 1.0  # finite, and within tolerance
            assert row["area_integrand_evals"] > 0

    @pytest.mark.parametrize("spectrum", [{"gamma": 1e-156}, {"nu": 1e154}],
                             ids=["tiny-gamma", "huge-nu"])
    def test_decay_scale_near_1e153_fits_without_overflow(self, tmp_path, capsys, spectrum):
        # a nu / gamma = a 1e156: the grid reaches 8e153 below k0z, whose square overflows
        cfg = write_config(tmp_path, {"scenario": "delta-limit", "spectrum": spectrum})
        out = tmp_path / "far"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", cfg, "--output", str(out)]) == 0
        assert caught == []
        assert capsys.readouterr().err == ""
        for row in json.loads((out / "metadata.json").read_text())["summary"]["sweep"]:
            assert row["decay_scale"] == pytest.approx(row["a"] * 1e156, rel=1e-9)

    def test_kernel_underflow_leaves_finite_decay_scales(self, tmp_path, capsys):
        # at the eighth a the kernel underflows to zero over part of the grid
        cfg = write_config(tmp_path, {"scenario": "delta-limit", "delta": {"halvings": 8}})
        out = tmp_path / "dl8"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", cfg, "--output", str(out)]) == 0
        assert caught == []
        assert capsys.readouterr().err == ""

        def reject(constant):
            raise ValueError(f"metadata.json holds the non-JSON constant {constant}")

        meta = json.loads((out / "metadata.json").read_text(), parse_constant=reject)
        scales = [row["decay_scale"] for row in meta["summary"]["sweep"]]
        assert len(scales) == 8 and all(math.isfinite(x) for x in scales)
        for i in range(1, len(scales)):
            assert scales[i - 1] / scales[i] == pytest.approx(2.0, rel=1e-9)


# Runs main once per config path given, and prints which of WATCHED are loaded
# after the import and after each run.  A first argument "block" makes scipy
# unimportable first, as in an environment without it.
LAZY_PROBE = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
import gravdicke.cli as cli
WATCHED = ("scipy", "gravdicke.maxwell", "gravdicke.modes", "concurrent.futures", "dataclasses",
           "numpy.polynomial", "numpy.ma")
loaded = [[name for name in WATCHED if name in sys.modules]]
for path in sys.argv[2:]:
    assert cli.main(["--config", path, "--output", path + ".out"]) == 0
    loaded.append([name for name in WATCHED if name in sys.modules])
print(json.dumps(loaded))
"""

# tiny runs of the five scenarios, verify-modes last, all at --threads 1
LAZY_CONFIGS = {
    "spreads": {"scenario": "spreads"},
    "delta": {"scenario": "delta-limit", "delta": {"halvings": 1}},
    "dicke": {"scenario": "flat-dicke", "dicke": {"n_atoms": 200, "replicas": 2,
                                                  "n_offpeak": 5}},
    "curved": {"scenario": "curved-spectrum", "spectrum": {"grid": {"points": 5}},
               "ensemble": {"n_atoms": 2000, "replicas": 4}},
    "verify": {"scenario": "verify-modes", "verify": {"n_modes": 1}},
}


def child_env(**changes: str | None) -> dict[str, str]:
    """This process's environment with the package's source tree first on PYTHONPATH
    and each keyword's variable set to its value, or removed for None."""
    src = str(Path(gravdicke.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in changes.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return env


def run_lazy_probe(directory: Path, mode: str) -> list[list[str]]:
    directory.mkdir()
    configs = [write_config(directory, cfg, name=f"{name}.json")
               for name, cfg in LAZY_CONFIGS.items()]
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE, mode, *configs], cwd=directory,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyIntegrate:
    """A run loads only what it uses: no scenario loads scipy or numpy.ma, no scenario
    but verify-modes loads maxwell and modes, and one thread loads no thread pool."""

    def test_no_scenario_loads_it(self, tmp_path):
        loaded = run_lazy_probe(tmp_path / "probe", "run")
        # after the import, then after spreads, delta-limit, flat-dicke and curved-spectrum
        assert loaded[:5] == [[]] * 5
        assert loaded[5] == ["gravdicke.maxwell", "gravdicke.modes"]

    def test_scenarios_run_without_scipy(self, tmp_path):
        run_lazy_probe(tmp_path / "blocked", "block")
        run_lazy_probe(tmp_path / "free", "run")
        written = sorted(p.relative_to(tmp_path / "free")
                         for p in (tmp_path / "free").glob("*.out/*.csv"))
        assert len(written) == 6  # verify-modes writes two
        for rel in written:
            assert (tmp_path / "blocked" / rel).read_bytes() == (tmp_path / "free" / rel).read_bytes()

    def test_rebound_verify_modes_name_is_called(self, tmp_path, monkeypatch):
        # bench/tracer.py counts layer calls by rebinding cli attributes like this one
        calls = []
        real = gravdicke.cli.residual_slope_study

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(gravdicke.cli, "residual_slope_study", counted)
        cfg = write_config(tmp_path, {"scenario": "verify-modes", "verify": {"n_modes": 2}})
        assert main(["--config", cfg, "--output", str(tmp_path / "vm")]) == 0
        assert len(calls) == 2

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gravdicke.cli.no_such_name  # noqa: B018


class TestBlasThreads:
    """A process that starts in gravdicke.cli runs OpenBLAS on one thread unless
    OPENBLAS_NUM_THREADS says otherwise, and no CSV byte depends on that setting."""

    @pytest.mark.parametrize("name", ["curved", "dicke"])
    def test_default_one_thread_user_value_wins_same_bytes(self, tmp_path, name):
        cfg = write_config(tmp_path, LAZY_CONFIGS[name])
        bodies = []
        # unset, the run sets "1": its bytes are those of OPENBLAS_NUM_THREADS=1
        for value, recorded in ((None, "1"), ("2", "2")):
            out = tmp_path / f"blas_{recorded}"
            proc = subprocess.run(
                [sys.executable, "-m", "gravdicke.cli", "--config", cfg, "--output", str(out)],
                env=child_env(OPENBLAS_NUM_THREADS=value), capture_output=True, text=True,
                timeout=120)
            assert proc.returncode == 0, proc.stderr
            meta = json.loads((out / "metadata.json").read_text())
            assert meta["environment"]["openblas_num_threads"] == recorded
            bodies.append([path.read_bytes() for path in sorted(out.glob("*.csv"))])
        assert len(bodies[0]) == 1 and bodies[0] == bodies[1]

    def test_numpy_loaded_first_keeps_environment(self):
        code = "import numpy, gravdicke.cli, os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        proc = subprocess.run([sys.executable, "-c", code],
                              env=child_env(OPENBLAS_NUM_THREADS=None),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "None"


# Runs main on the config path given into the output directory given, then
# prints what _hashlib is in sys.modules and whether hashlib still hashes.  A
# first argument "preload" imports _hashlib first, as a program that hashes does.
HASHLIB_PROBE = """
import sys
if sys.argv[1] == "preload":
    import _hashlib
from gravdicke.cli import main
assert main(["--config", sys.argv[2], "--output", sys.argv[3]]) == 0
import hashlib
print(type(sys.modules.get("_hashlib")).__name__, hashlib.sha256(b"").hexdigest()[:8])
"""


class TestProcessFootprint:
    """A process that starts in gravdicke.cli maps no OpenSSL, and its metadata
    reports its own peak RSS, not its parent's."""

    def run_probe(self, tmp_path: Path, mode: str) -> tuple[str, bytes]:
        # curved-spectrum draws its ensembles with numpy.random, which imports hashlib
        cfg = write_config(tmp_path, LAZY_CONFIGS["curved"], name=f"{mode}.json")
        out = tmp_path / mode
        proc = subprocess.run([sys.executable, "-c", HASHLIB_PROBE, mode, cfg, str(out)],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        return proc.stdout.splitlines()[-1], (out / "spectrum.csv").read_bytes()

    def test_no_openssl_and_a_preloaded_one_stays(self, tmp_path):
        blocked, blocked_csv = self.run_probe(tmp_path, "run")
        kept, kept_csv = self.run_probe(tmp_path, "preload")
        # hashlib falls back to CPython's built-in sha256 and hashes the same
        assert blocked == "NoneType e3b0c442"
        assert kept == "module e3b0c442"
        assert blocked_csv == kept_csv

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads Linux's VmHWM; ru_maxrss elsewhere")
    def test_peak_rss_is_the_runs_own(self, tmp_path):
        # Linux's ru_maxrss keeps the size of the image exec replaced: a run
        # launched by a parent holding 128 MB would report more than 128 MB
        cfg = write_config(tmp_path, LAZY_CONFIGS["spreads"])
        out = tmp_path / "own"
        code = ("import subprocess, sys\n"
                "held = bytearray(b'\\x01') * (128 << 20)\n"
                "subprocess.run([sys.executable, '-m', 'gravdicke.cli', '--config', sys.argv[1],\n"
                "                '--output', sys.argv[2]], check=True, stdout=subprocess.DEVNULL)\n")
        proc = subprocess.run([sys.executable, "-c", code, cfg, str(out)], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peak = json.loads((out / "metadata.json").read_text())["environment"]["peak_rss_mb"]
        assert 0.0 < peak < 128.0

    def test_peak_rss_falls_back_to_getrusage(self, monkeypatch):
        monkeypatch.setattr(gravdicke.cli, "_vm_hwm_kib", lambda: None)  # as off Linux
        peak = gravdicke.cli._resource_use()["peak_rss_mb"]
        assert 0.0 < peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


REPO = Path(__file__).resolve().parents[1]


def load_bench(stem: str):
    """bench/<stem>.py, loaded by path: the benchmark lives outside the package.

    bench/run.py puts bench/ on sys.path and imports tracer from there; both
    are undone after loading, so no test sees them.
    """
    spec = importlib.util.spec_from_file_location(f"gravdicke_bench_{stem}",
                                                  REPO / "bench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    path, had_tracer = list(sys.path), "tracer" in sys.modules
    sys.modules[spec.name] = module  # dataclasses look their module up while the body runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        sys.path[:] = path
        if not had_tracer:
            sys.modules.pop("tracer", None)
    return module


def load_tracer():
    """bench/tracer.py: the benchmark's span tracer."""
    return load_bench("tracer")


class TestBenchmarkReference:
    """Each configs/*.json, at its own seed, writes every CSV that bench/reference holds
    for it, within the benchmark's own tolerance (bench/run.py compare_reference)."""

    @pytest.mark.parametrize("config", sorted(p.stem for p in (REPO / "configs").glob("*.json")))
    def test_config_matches_reference(self, tmp_path, config):
        bench = load_bench("run")
        out = tmp_path / config
        assert main(["--config", str(bench.CONFIGS / f"{config}.json"), "--output", str(out)]) == 0
        references = sorted((bench.REFERENCE / config).glob("*.csv"))
        assert references
        for ref in references:
            assert bench.compare_reference(out / ref.name, ref) == []


class TestTracerContract:
    """Every module attribute that bench/tracer.py rebinds exists on the package, so
    that deleting one fails here and not only in the benchmark's traced runs."""

    def test_every_binding_resolves(self):
        tracer = load_tracer()
        for mod_name, attr, _, _ in tracer.BINDINGS:
            module = importlib.import_module(f"gravdicke.{mod_name}")
            if module is gravdicke.cli and attr in gravdicke.cli._VERIFY_MODES_NAMES:
                # bound on first use, through the module's PEP 562 __getattr__
                assert callable(gravdicke.cli.__getattr__(attr)), attr
            assert callable(getattr(module, attr)), f"{mod_name}.{attr}"
        for mod_name in tracer.QUAD_USERS:
            assert hasattr(importlib.import_module(f"gravdicke.{mod_name}"), "integrate"), mod_name

    def test_traced_runs_count_calls_and_work(self, tmp_path):
        # the tracer's work functions read the wrapped calls' positional arguments,
        # so a changed signature fails here rather than only in a traced benchmark run
        tracer = load_tracer()
        recorder = tracer.Tracer()
        configs = {
            "spreads": {"scenario": "spreads"},
            "curved": {"scenario": "curved-spectrum", "ensemble": {"n_atoms": 2000, "replicas": 4},
                       "spectrum": {"grid": {"lo": -5.0, "hi": 2.0, "points": 21}}},
            "delta": {"scenario": "delta-limit", "delta": {"halvings": 2, "grid_points": 21}},
            "verify": {"scenario": "verify-modes", "verify": {"n_modes": 2}},
            "dicke": {"scenario": "flat-dicke",
                      "dicke": {"n_atoms": 200, "n_offpeak": 2, "replicas": 2}},
        }
        recorder.install(gravdicke)
        try:
            for name, payload in configs.items():
                cfg = write_config(tmp_path, payload, f"{name}.json")
                assert main(["--config", cfg, "--output", str(tmp_path / name)]) == 0, name
        finally:
            recorder.uninstall()
        calls, work = {}, {}
        for span in recorder.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
            work[span.name] = work.get(span.name, 0.0) + span.work
        for name in ("spectrum.monte_carlo_spectrum", "emission.sample_ensemble",
                     "emission.curved_timed_dicke", "spectrum.quadrature_spectrum"):
            assert calls.get(name, 0) > 0 and work[name] > 0, name
        assert calls.get("spectrum.kernel_area", 0) > 0
        # spreads makes one call to each closed form, and only it calls the first two
        for name in ("spectrum.frequency_spread", "spectrum.wavevector_spread"):
            assert calls[name] == 1, name
        assert calls["spectrum.kernel_decay_constant"] >= 1
        # one study per mode, whose work is its a values (the call's args[5])
        n_a = len(gravdicke.cli.VerifyConfig().a_values)
        assert calls["maxwell.residual_slope_study"] == 2
        assert work["maxwell.residual_slope_study"] == 2 * n_a
        # one call per probe and replica, whose work is its atoms (the call's args[0]):
        # the zero probe, three named ones and two off-peak, at 200 atoms x 2 replicas
        assert work["spectrum.structure_factor"] == 200 * 6 * 2

    def test_install_and_uninstall(self):
        tracer = load_tracer()
        before = {(m, a): getattr(importlib.import_module(f"gravdicke.{m}"), a)
                  for m, a, _, _ in tracer.BINDINGS}
        recorder = tracer.Tracer()
        try:
            recorder.install(gravdicke)
            assert all(getattr(importlib.import_module(f"gravdicke.{m}"), a) is not fn
                       for (m, a), fn in before.items())
        finally:
            recorder.uninstall()
        assert all(getattr(importlib.import_module(f"gravdicke.{m}"), a) is fn
                   for (m, a), fn in before.items())
