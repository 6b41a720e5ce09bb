import ast
import contextlib
import copy
import dataclasses
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
from gravdicke.cli import MAX_ATOMS, MAX_COUNT, load_config, main
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

    @pytest.mark.parametrize("rel_step", [1.0, 2.0, 5.0, 10.0, 1e308])
    def test_rel_step_of_a_radian_or_more_rejected_at_parse(self, rel_step):
        # 5 and 10 alias the wave and once fitted a slope near 0, an oracle mismatch (4)
        with pytest.raises(ConfigError, match="verify.rel_step must be < 1"):
            load_config(None, {"scenario": "spreads", "verify": {"rel_step": rel_step}})
        load_config(None, {"scenario": "spreads", "verify": {"rel_step": 0.99}})

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
            "dicke": {"probes_u": [[1, 2, 3]]},
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
            for stage in meta["stages"].values():
                assert stage.pop("s") >= 0.0   # and the stage wall times
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
                            "peak_rss_mb"}
        assert env["threads"] == 2
        assert env["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
        # KiB on Linux; a peak only grows, so the test process's is at least as high
        assert 0.0 < env["peak_rss_mb"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert meta["summary"]["pull_chi2_per_dof"] >= 0.0

    def test_peak_rss_is_null_without_resource(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "resource", None)  # import resource raises ImportError
        assert gravdicke.cli._peak_rss_mb() is None

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
        ({"scenario": "flat-dicke", "dicke": {"probes_u": [[1, 2]]}}, 2),
        ({"scenario": "spreads", "metric": {"a": "0.001"}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"n_atoms": 100.5}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"n_atoms": True}}, 2),
        ({"scenario": "spreads", "threads": 2.7}, 2),
        ({"scenario": "flat-dicke", "dicke": {"replicas": 0}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"beta": 1.0}}, 2),
        ({"scenario": "spreads", "metric": {"a": 10**400}}, 2),
        ({"scenario": "spreads", "spectrum": {"theta0": float("inf")}}, 3),
        ({"scenario": "verify-modes", "verify": {"n_modes": 2, "rel_step": 0.3, "order": 2}}, 2),
        ({"scenario": "curved-spectrum", "tolerances": {"mc_fraction": -1, "mc_sigma": -5}}, 2),
        ({"scenario": "verify-modes", "tolerances": {"slope": -1}}, 2),
        ({"scenario": "curved-spectrum", "spectrum": {"grid": {"lo": float("-inf")}},
          "ensemble": {"n_atoms": 200, "replicas": 2}}, 2),
        ({"scenario": "curved-spectrum", "spectrum": {"grid": {"hi": 1e308}},
          "ensemble": {"n_atoms": 200, "replicas": 2}}, 2),
        ({"scenario": "verify-modes", "verify": {"rel_step": 0}}, 2),
        ({"scenario": "verify-modes", "verify": {"order": 3}}, 2),
        ({"scenario": "verify-modes", "verify": {"volume": 0}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"n_atoms": 0}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"box_wavelengths": -1}}, 2),
        ({"scenario": "curved-spectrum", "ensemble": {"n_atoms": 0}}, 2),
        ({"scenario": "curved-spectrum", "ensemble": {"box_heights": -1}}, 2),
        ({"scenario": "curved-spectrum", "ensemble": {"box_aspect": 0}}, 2),
        ({"scenario": "delta-limit", "delta": {"halvings": 2000}}, 3),
        ({"scenario": "flat-dicke", "dicke": {"replicas": 1}}, 2),
        ({"scenario": "curved-spectrum", "spectrum": {"grid": {"lo": -1e308}},
          "ensemble": {"n_atoms": 200, "replicas": 2}}, 2),
        ({"scenario": "verify-modes", "verify": {"point": {"x": float("nan")}}}, 2),
        ({"scenario": "verify-modes", "verify": {"point": {"t": 1e308}}}, 2),
        ({"scenario": "spreads", "metric": {"a": 1e308}}, 3),
        ({"scenario": "delta-limit", "spectrum": {"gamma": 1e-300}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"n_atoms": 10**30}}, 2),
        ({"scenario": "curved-spectrum", "ensemble": {"n_atoms": 10**30}}, 2),
        ({"scenario": "flat-dicke", "dicke": {"n_atoms": MAX_ATOMS + 1}}, 2),
        ({"scenario": "curved-spectrum", "ensemble": {"n_atoms": MAX_ATOMS + 1}}, 2),
        ({"scenario": "spreads", "verify": {"a_values": [1e-3, float("inf")]}}, 2),
        ({"scenario": "spreads", "dicke": {"probes_u": [[1.0, float("nan"), 0.0]]}}, 2),
        ({"scenario": "curved-spectrum", "spectrum": {"Z": 1e200},
          "ensemble": {"n_atoms": 200, "replicas": 2}}, 3),
        ({"scenario": "curved-spectrum", "spectrum": {"nu": 1e-200, "gamma": 1e-202},
          "ensemble": {"n_atoms": 200, "replicas": 2}}, 3),
    ], ids=["no-offpeak-probes", "no-halvings", "one-replica", "one-a-value",
            "repeated-a-value", "threads-not-int", "nan-a", "infinite-nu",
            "negative-seed", "null-nu", "probe-not-3-vector", "string-a", "float-n-atoms",
            "bool-n-atoms", "float-threads", "no-dicke-replicas", "removed-key-beta",
            "huge-int-a", "infinite-theta0", "inconclusive-residuals",
            "negative-mc-tolerances", "negative-slope-tolerance", "infinite-grid-lo",
            "overflowing-grid-hi", "zero-rel-step", "order-3", "zero-volume",
            "no-dicke-atoms", "negative-box-wavelengths", "no-ensemble-atoms",
            "negative-box-heights", "zero-box-aspect", "underflowing-halvings",
            "one-dicke-replica", "huge-grid-lo", "nan-point-x", "overflowing-point-t",
            "overflowing-spreads", "underflowing-gamma", "astronomical-dicke-atoms",
            "astronomical-ensemble-atoms", "dicke-atoms-over-cap", "ensemble-atoms-over-cap",
            "infinite-a-value", "nan-probe", "unbounded-Z", "underflowing-k0-norm"])
    def test_exit_code_and_one_line_message(self, tmp_path, capsys, payload, code):
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == code
        self.assert_one_line(capsys)

    @pytest.mark.parametrize("payload, key", [
        ({"scenario": "curved-spectrum", "spectrum": {"grid": {"points": 10**30}}}, "points"),
        ({"scenario": "delta-limit", "delta": {"grid_points": 10**30}}, "grid_points"),
        ({"scenario": "curved-spectrum", "ensemble": {"replicas": 10**30}}, "replicas"),
        ({"scenario": "flat-dicke", "dicke": {"replicas": 10**30}}, "replicas"),
        ({"scenario": "flat-dicke", "dicke": {"n_offpeak": 10**30}}, "n_offpeak"),
        ({"scenario": "verify-modes", "verify": {"n_modes": 10**30}}, "n_modes"),
    ], ids=["grid-points", "delta-grid-points", "ensemble-replicas", "dicke-replicas",
            "offpeak-probes", "modes"])
    def test_astronomical_count_rejected_at_parse(self, tmp_path, capsys, payload, key):
        cfg = write_config(tmp_path, payload)
        # rejected while parsing, so no run starts a thread or a loop
        with pytest.raises(ConfigError, match=f"{key}.*{MAX_COUNT}"):
            load_config(cfg, {})
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
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

    @pytest.mark.parametrize("fraction", [1.5, 1.0 - 1e-12], ids=["above-one", "just-below-one"])
    def test_unreachable_min_kz_fraction(self, tmp_path, capsys, fraction):
        # 1.5 fails the config check; 1 - 1e-12 passes it but no draw meets it
        cfg = write_config(tmp_path, {"scenario": "verify-modes",
                                      "verify": {"min_kz_fraction": fraction}})
        with time_limit(10):
            code = main(["--config", cfg, "--output", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "verify.min_kz_fraction" in json.loads(err)["message"]
        assert err.count("\n") == 1

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


FUZZ_KEYS = [
    path for path in _leaf_keys(dataclasses.asdict(load_config(None, {"scenario": "spreads"})))
    if path not in (("scenario",), ("output_dir",))
]
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
        (("dicke", "probes_u"), [[1e308, 0.0, 0.0]]),
    ], ids=["subnormal-box", "overflowing-box", "overflowing-probe"])
    def test_flat_dicke_float_extremes(self, tmp_path, capsys, key, value):
        # each once printed numpy warnings; the subnormal box let a NaN reach the gate
        assert self.run_leaf(tmp_path, capsys, "flat-dicke", key, value) == 2

    @pytest.mark.parametrize("scenario, key, value, code", [
        ("curved-spectrum", ("metric", "a"), 1e308, 2),
        ("curved-spectrum", ("ensemble", "box_heights"), 1e308, 3),
        ("curved-spectrum", ("ensemble", "box_aspect"), 1e308, 3),
        ("verify-modes", ("verify", "volume"), 5e-324, 3),
        ("verify-modes", ("verify", "rel_step"), 1e-300, 2),
        ("curved-spectrum", ("ensemble", "box_aspect"), 1e100, 2),
        ("verify-modes", ("verify", "volume"), 1e308, 2),
        ("verify-modes", ("verify", "rel_step"), 10.0, 2),
        ("delta-limit", ("metric", "a"), 5e-324, 2),
    ], ids=["overflowing-a", "overflowing-height", "overflowing-aspect", "subnormal-volume",
            "subnormal-step", "rounded-phase-aspect", "underflowing-volume", "wide-step",
            "subnormal-a"])
    def test_float_extremes(self, tmp_path, capsys, scenario, key, value, code):
        # each once printed numpy warnings before its exit; the volume put NaN in the message.
        # The last four once ended in 4, 3, 4 and 3: a box so wide that rounding erases
        # the phase k0 . r, residuals that underflow to zero before the slope fit, a step
        # of ten radians of phase, and a kernel too narrow for the k_z grid (with a warning)
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

    @pytest.mark.parametrize("coordinate, value, code", [
        ("t", 1e3, 0), ("t", 1e6, 2), ("x", 1e6, 2),
    ])
    def test_far_point_rounding_is_undecidable_not_a_mismatch(self, tmp_path, coordinate,
                                                              value, code):
        # far out the rounded phase swamps the residuals: exit 2, not a slope mismatch (4)
        cfg = write_config(tmp_path, {"scenario": "verify-modes",
                                      "verify": {"n_modes": 2, "point": {coordinate: value}}})
        assert main(["--config", cfg, "--output", str(tmp_path / "far")]) == code

    def test_residual_csv_columns(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "verify-modes", "verify": {"n_modes": 1}})
        out = tmp_path / "vmc"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        header = (out / "residuals.csv").read_text().splitlines()[0].split(",")
        for col in ("kx", "s", "a", "gauss_re", "disc_estimate", "wave_slope", "gauss_slope"):
            assert col in header


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
WATCHED = ("scipy", "gravdicke.maxwell", "gravdicke.modes", "concurrent.futures")
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
    """A run loads only what it uses: no scenario loads scipy, no scenario but
    verify-modes loads maxwell and modes, and one thread loads no thread pool."""

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


def load_tracer():
    """bench/tracer.py, loaded by path: the benchmark's span tracer, outside the package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("gravdicke_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the body runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


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
