#!/usr/bin/env python3
"""Benchmark of the gravdicke CLI: end-to-end timings and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload mc_spectrum --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all                  # every workload, config seeds
    python3 bench/run.py --workload all --trace 1        # per-layer numbers

Each workload is a closed loop: this process launches one fresh
``python -m gravdicke.cli`` child at a time, with ``PYTHONPATH=src`` of this
checkout, and waits for it before the next.  ``--seed`` is passed through to
the CLI; without it every config runs at its own seed, and only then are the
CSV outputs compared with the reference values in ``bench/reference``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``      median wall time of a fresh process that imports
                   ``gravdicke.cli`` and loads the workload's config(s)
* ``run_s``        median wall time of one iteration, launch to exit
* ``cpu_s``        median user + sys CPU time of an iteration's children
* ``peak_rss_mb``  median over iterations of the children's peak RSS

``--trace 1`` runs the same CLI calls in this process with the layer calls
rebound to span-recording wrappers (see ``tracer.py``) and reports the
per-layer metrics.  The last line of standard output is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it repeat each metric with its unit and sample count,
the share of failed runs, and the machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
REFERENCE = BENCH / "reference"
RUNS = BENCH / "_runs"

sys.path.insert(0, str(BENCH))
from tracer import ROOT_SPAN, Tracer, iteration_metrics  # noqa: E402

# Relative tolerance of the reference comparison, applied against the
# column's own scale: |x - ref| <= RTOL * (|ref| + max|ref column|).  Far
# below the Monte Carlo standard error (~1e-2 relative), far above
# last-bit rounding.
RTOL = 1e-9
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_ITERATIONS = 4
CHILD_TIMEOUT_S = 60.0
DEADLINE_S = 90.0  # no new iteration starts after this much time in one run

CURVED = "curved_spectrum_scaled"


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload iteration."""

    config: str                 # stem of the file under configs/
    csvs: tuple[str, ...]       # data files the scenario writes
    threads: int = 1
    seeded: bool = True         # False: the scenario draws no random numbers


WORKLOADS: dict[str, tuple[Step, ...]] = {
    # Monte Carlo atom sum dominates; single-threaded baseline
    "mc_spectrum": (Step(CURVED, ("spectrum.csv",), threads=1),),
    # same layer, two replicas at once sharing the GIL and memory bandwidth
    "mc_spectrum_2t": (Step(CURVED, ("spectrum.csv",), threads=2),),
    # structure factor and ensemble sampling; no Monte Carlo sum, no quadrature
    "flat_dicke": (Step("flat_dicke", ("structure_factor.csv",)),),
    # start-up and import dominate; kernel_area quadrature and finite differences
    "closed_form_suite": (
        Step("spreads_earth_si", ("spreads.csv",), seeded=False),
        Step("delta_limit", ("delta_limit.csv",), seeded=False),
        Step("verify_modes", ("residuals.csv", "mode_vectors.csv")),
    ),
}

# mc_spectrum_2t also runs once, untimed, at --threads 1: spectrum.csv must
# not depend on the thread count (mc_spectrum spends its time on samples)
THREAD_TWIN = {"mc_spectrum_2t": 1}

# sizes of the --tiny profile, used by the harness smoke test
TINY = {
    CURVED: {"ensemble": {"n_atoms": 2000, "replicas": 10},
             "spectrum": {"grid": {"points": 15}}},
    "flat_dicke": {"dicke": {"n_atoms": 500, "n_offpeak": 5, "replicas": 4}},
    "spreads_earth_si": {},
    "delta_limit": {"delta": {"halvings": 2, "grid_points": 21}},
    "verify_modes": {"verify": {"n_modes": 2}},
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class Options:
    seed: int | None
    seconds: float
    tiny: bool

    @property
    def setup_repeats(self) -> int:
        return 1 if self.tiny else SETUP_REPEATS

    @property
    def import_repeats(self) -> int:
        return 1 if self.tiny else IMPORT_REPEATS

    @property
    def min_iterations(self) -> int:
        return 2 if self.tiny else MIN_ITERATIONS


@dataclass
class Result:
    workload: str
    # name -> (samples, unit); the reported value is the median of the samples
    metrics: dict[str, tuple[list[float], str]] = field(default_factory=dict)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed_attempts: int = 0
    spectrum_hash: str | None = None

    def attempt(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed_attempts += 1
            self.problems.extend(problems)


# ---------------------------------------------------------------------------
# configs and output checks
# ---------------------------------------------------------------------------

def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, val in over.items():
        out[key] = _merge(out.get(key, {}), val) if isinstance(val, dict) else val
    return out


def config_path(step: Step, opts: Options) -> Path:
    path = CONFIGS / f"{step.config}.json"
    if not opts.tiny:
        return path
    tiny = RUNS / "tiny_configs" / path.name
    tiny.parent.mkdir(parents=True, exist_ok=True)
    tiny.write_text(json.dumps(_merge(json.loads(path.read_text()), TINY[step.config])))
    return tiny


def config_seed(step: Step) -> int | None:
    return json.loads((CONFIGS / f"{step.config}.json").read_text()).get("seed")


def reference_applies(step: Step, opts: Options) -> bool:
    if opts.tiny:
        return False
    return not step.seeded or opts.seed is None or opts.seed == config_seed(step)


def cli_args(step: Step, opts: Options, out: Path, threads: int | None = None) -> list[str]:
    args = ["--config", str(config_path(step, opts)), "--output", str(out),
            "--threads", str(threads or step.threads)]
    if opts.seed is not None:
        args += ["--seed", str(opts.seed)]
    return args


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _floats(cells: list[str]) -> list[float | None] | None:
    out = []
    for cell in cells:
        if cell == "":
            out.append(None)
            continue
        try:
            out.append(float(cell))
        except ValueError:
            return None
    return out


def compare_reference(got_path: Path, ref_path: Path) -> list[str]:
    """Numeric columns within RTOL of the reference, other columns equal."""
    with open(got_path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(ref_path, newline="") as fh:
        ref = list(csv.reader(fh))
    name = got_path.name
    if not got or got[0] != ref[0]:
        return [f"{name}: header differs from reference"]
    if len(got) != len(ref):
        return [f"{name}: {len(got) - 1} rows, reference has {len(ref) - 1}"]
    problems = []
    for j, column in enumerate(ref[0]):
        ref_col = [row[j] for row in ref[1:]]
        got_col = [row[j] for row in got[1:]]
        ref_num = _floats(ref_col)
        if ref_num is None:
            if got_col != ref_col:
                problems.append(f"{name}: column {column} differs from reference")
            continue
        got_num = _floats(got_col)
        if got_num is None:
            problems.append(f"{name}: column {column} is not numeric")
            continue
        scale = max((abs(v) for v in ref_num if v is not None), default=0.0)
        bad = [i for i, (g, r) in enumerate(zip(got_num, ref_num))
               if (g is None) != (r is None)
               or (r is not None and not abs(g - r) <= RTOL * (abs(r) + scale))]
        if bad:
            i = bad[0]
            problems.append(f"{name}: column {column} off reference in {len(bad)} rows "
                            f"(row {i + 1}: {got_col[i]} vs {ref_col[i]})")
    return problems


def check_step(step: Step, out: Path, rc: int, err: str,
               opts: Options) -> tuple[list[str], dict[str, str]]:
    """Problems with one scenario run, and the SHA-256 of each CSV it wrote."""
    problems = []
    if rc != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        problems.append(f"{step.config}: exit code {rc} {tail[0][:200]}")
    hashes = {}
    for name in step.csvs + ("metadata.json", "resolved_config.json"):
        if not (out / name).is_file():
            problems.append(f"{step.config}: {name} missing")
    if problems:
        return problems, hashes
    for name in step.csvs:
        hashes[name] = _sha256(out / name)
    if step.config == "flat_dicke":
        # seed-independent oracle: S(0) is exactly 1 and off-peak S sits near 1/N
        summary = json.loads((out / "metadata.json").read_text())["summary"]
        if summary["s_at_zero"] != 1.0:
            problems.append(f"flat_dicke: S(0) = {summary['s_at_zero']!r}, expected 1")
        if not summary["offpeak_mean"] <= summary["offpeak_bound_2_over_n"]:
            problems.append("flat_dicke: off-peak mean above 2/N")
    if reference_applies(step, opts):
        for name in step.csvs:
            problems += compare_reference(out / name, REFERENCE / step.config / name)
    return problems, hashes


def check_bodies(seen: dict[str, str], hashes: dict[str, str], label: str) -> list[str]:
    """CSV bodies must repeat byte for byte across runs of one workload."""
    problems = []
    for name, digest in hashes.items():
        first = seen.setdefault(name, digest)
        if digest != first:
            problems.append(f"{label}: {name} differs from the workload's first run")
    return problems


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    err: str


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def launch(args: list[str], log: Path) -> Child:
    """Run ``python <args>`` to completion; wall time from launch to exit, rusage via wait4."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, log.read_text(errors="replace"))


SETUP_CODE = (
    "import sys, gravdicke, gravdicke.cli as cli\n"
    "if not gravdicke.__file__.startswith(sys.argv[1]): sys.exit(3)\n"
    "for path in sys.argv[2:]: cli.load_config(path, {})\n"
)


def measure_setup(steps: tuple[Step, ...], opts: Options, workdir: Path, res: Result) -> None:
    paths = [str(config_path(s, opts)) for s in steps]
    walls = []
    for i in range(opts.setup_repeats):
        child = launch(["-c", SETUP_CODE, str(SRC), *paths], workdir / f"setup{i}.stderr")
        if child.rc != 0:
            raise BenchError(f"set-up process failed (exit {child.rc}): {child.err.strip()[-300:]}")
        walls.append(child.wall)
    res.metrics["setup_s"] = (walls, "s")


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def run_iteration(steps, opts, outroot: Path, threads: int | None = None):
    outroot.mkdir(parents=True)
    runs = []
    for step in steps:
        out = outroot / step.config
        child = launch(["-m", "gravdicke.cli", *cli_args(step, opts, out, threads)],
                       outroot / f"{step.config}.stderr")
        runs.append((step, out, child))
    return runs


def run_e2e(workload: str, opts: Options) -> Result:
    steps = WORKLOADS[workload]
    res = Result(workload)
    workdir = RUNS / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    measure_setup(steps, opts, workdir, res)

    walls, cpus, rss = [], [], []
    seen: dict[str, str] = {}
    loop_start = time.perf_counter()
    while True:
        it = len(walls)
        runs = run_iteration(steps, opts, workdir / f"i{it}")
        walls.append(sum(c.wall for _, _, c in runs))
        cpus.append(sum(c.cpu for _, _, c in runs))
        rss.append(max(c.rss_mb for _, _, c in runs))
        problems = []
        for step, out, child in runs:
            found, hashes = check_step(step, out, child.rc, child.err, opts)
            problems += found + check_bodies(seen, hashes, f"{step.config} run {it}")
        res.attempt(problems)
        elapsed = time.perf_counter() - loop_start
        if len(walls) >= opts.min_iterations and (
                elapsed + statistics.median(walls) > opts.seconds
                or time.perf_counter() - started > DEADLINE_S):
            break

    if workload in THREAD_TWIN:
        # untimed: the other thread count must write the same spectrum.csv bytes
        threads = THREAD_TWIN[workload]
        problems = []
        for step, out, child in run_iteration(steps, opts, workdir / f"threads{threads}", threads):
            found, hashes = check_step(step, out, child.rc, child.err, opts)
            problems += found + check_bodies(seen, hashes, f"{step.config} at --threads {threads}")
        res.attempt(problems)
    res.spectrum_hash = seen.get("spectrum.csv")

    res.metrics["run_s"] = (walls, "s")
    res.metrics["cpu_s"] = (cpus, "s")
    res.metrics["peak_rss_mb"] = (rss, "MB")
    return res


# ---------------------------------------------------------------------------
# traced per-layer run (--trace 1)
# ---------------------------------------------------------------------------

def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    for marker, unit in (("ms_per_", "ms"), ("ns_per_", "ns"), ("_per_kz", "count/kz"),
                         ("efficiency", "ratio"), ("_frac", "ratio")):
        if marker in name:
            return unit
    return "s"


IMPORT_NAMES = {"import.gravdicke_s": "gravdicke.cli", "import.numpy_s": "numpy",
                "import.scipy_integrate_s": "scipy.integrate"}


def import_times(opts: Options) -> dict[str, list[float]]:
    """Import times of gravdicke.cli, numpy and scipy.integrate, each in a fresh process."""
    samples: dict[str, list[float]] = {k: [] for k in IMPORT_NAMES}
    for _ in range(opts.import_repeats):
        proc = subprocess.run([sys.executable, str(BENCH / "import_times.py")],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import of gravdicke.cli failed: {proc.stderr.strip()[-300:]}")
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])
        for key, module in IMPORT_NAMES.items():
            samples[key].append(seconds[module])
    return samples


def run_trace(workload: str, opts: Options) -> Result:
    steps = WORKLOADS[workload]
    res = Result(workload)
    workdir = RUNS / f"{workload}_trace"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    imports = import_times(opts)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gravdicke
    import gravdicke.cli as cli
    if not gravdicke.__file__.startswith(str(SRC)):
        raise BenchError(f"gravdicke imported from {gravdicke.__file__}, not {SRC}")

    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    per_iteration: list[dict[str, float]] = []
    seen: dict[str, str] = {}
    started = time.perf_counter()
    it = 0
    while True:
        traced = it % 2 == 1   # untraced and traced iterations alternate
        outroot = workdir / f"{'t' if traced else 'u'}{it}"
        outroot.mkdir(parents=True)
        first = len(tracer.spans)
        runs = []
        if traced:
            tracer.install(gravdicke)
        try:
            t0 = time.perf_counter()
            for step in steps:
                out = outroot / step.config
                err = io.StringIO()
                sid = tracer.open(ROOT_SPAN) if traced else None
                try:
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        rc = cli.main(cli_args(step, opts, out))
                except Exception as exc:  # a crash of the CLI is a failed run, not ours
                    rc = 1
                    err.write(f"{type(exc).__name__}: {exc}")
                finally:
                    if sid is not None:
                        tracer.close(sid)
                runs.append((step, out, rc, err.getvalue()))
            walls[traced].append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        if traced:
            per_iteration.append(iteration_metrics(tracer.spans, first))
        problems = []
        for step, out, rc, err_text in runs:
            found, hashes = check_step(step, out, rc, err_text, opts)
            problems += found + check_bodies(seen, hashes, f"{step.config} run {it}")
        res.attempt(problems)
        it += 1
        elapsed = time.perf_counter() - started
        every = walls[False] + walls[True]
        if walls[True] and (elapsed + statistics.median(every) > opts.seconds
                            or elapsed > DEADLINE_S):
            break

    for key, values in imports.items():
        res.metrics[key] = (values, "s")
    for key in per_iteration[0]:
        res.metrics[key] = ([m[key] for m in per_iteration], layer_unit(key))
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    res.metrics["trace.overhead_frac"] = ([overhead], "ratio")
    return res


# ---------------------------------------------------------------------------
# machine facts and reporting
# ---------------------------------------------------------------------------

def _openblas_runtime() -> tuple[str | None, int | None]:
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None, None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_config().decode(), get_threads()
    return None, None


def machine_facts(opts: Options) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = _openblas_runtime()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": config,
        "openblas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": opts.seed if opts.seed is not None else "config",
    }


def report(res: Result, opts: Options) -> None:
    steps = WORKLOADS[res.workload]
    compared = [s.config for s in steps if reference_applies(s, opts)]
    print(f"[{res.workload}] seed {'config' if opts.seed is None else opts.seed}; "
          f"compared with reference: {', '.join(compared) or 'none'}")
    for name, (samples, unit) in res.metrics.items():
        print(f"  {name:<52} {statistics.median(samples):>14.6g} {unit:<8} n={len(samples)}"
              f"  (min {min(samples):.6g}, max {max(samples):.6g})")
    frac = res.failed_attempts / res.attempted if res.attempted else 1.0
    print(f"  {'failed_frac':<52} {frac:>14.6g} {'ratio':<8} "
          f"n={res.attempted} ({res.failed_attempts} failed)")
    for problem in res.problems[:20]:
        print(f"  FAIL {problem}")


def record(path: Path, section: str, facts: dict, results: list[Result], opts: Options) -> None:
    data = json.loads(path.read_text()) if path.is_file() else {}
    data["machine"] = facts
    entry = data.setdefault(section, {})
    for res in results:
        entry[res.workload] = {
            "seed": opts.seed,
            "seconds": opts.seconds,
            "attempted": res.attempted,
            "failed": res.failed_attempts,
            "metrics": {k: {"value": statistics.median(s), "unit": u, "n": len(s),
                            "min": min(s), "max": max(s)}
                        for k, (s, u) in res.metrics.items()},
        }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="seed passed to the CLI (default: each config's)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--record", type=Path, help="merge the results into this JSON file")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    opts = Options(args.seed, args.seconds, args.tiny)

    try:
        missing = [p for p in (SRC / "gravdicke" / "cli.py", CONFIGS) if not p.exists()]
        if missing:
            raise BenchError(f"run from a gravdicke checkout: {missing[0]} not found")
        facts = machine_facts(opts)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        runner = run_trace if args.trace else run_e2e
        results = [runner(name, opts) for name in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    by_name = {r.workload: r for r in results}
    if not args.trace and {"mc_spectrum", "mc_spectrum_2t"} <= by_name.keys():
        same = by_name["mc_spectrum"].spectrum_hash == by_name["mc_spectrum_2t"].spectrum_hash
        by_name["mc_spectrum_2t"].attempt(
            [] if same else ["spectrum.csv differs between mc_spectrum and mc_spectrum_2t"])

    print("machine " + json.dumps(facts))
    for res in results:
        report(res, opts)
    if args.record:
        record(args.record, "trace" if args.trace else "e2e", facts, results, opts)

    prefix = len(results) > 1
    metrics = {
        (f"{r.workload}.{k}" if prefix else k): {"value": statistics.median(s), "unit": u}
        for r in results for k, (s, u) in r.metrics.items()
    }
    failed = sum(r.failed_attempts for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
