"""Span tracing of gravdicke's layers from outside the package.

The tracer rebinds the module attributes through which one layer calls the
next (for example ``gravdicke.cli.replicated_mc_spectrum`` and
``gravdicke.spectrum.monte_carlo_spectrum``) to wrappers that record a span
per call: name, start, end, parent, thread and a work count taken from the
call's arguments.  ``scipy.integrate`` as seen from ``gravdicke.quadrature``
and ``gravdicke.spectrum`` is replaced by a proxy whose ``quad`` counts calls
and integrand evaluations.  Nothing inside ``src/`` is edited; ``uninstall``
restores every original attribute.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    work: float = 0.0
    threads: int = 1
    quad_calls: int = 0
    quad_evals: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


# work counted per call, from (args, kwargs) after the call returned
def _n_atoms_x_kz(args, kwargs):
    return args[0].n * len(args[2])


def _first_len(args, kwargs):
    return len(args[0])


def _ensemble_n(args, kwargs):
    return args[0].n


def _int_first(args, kwargs):
    return int(args[0])


def _a_values(args, kwargs):
    return len(args[5])


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0])


# (module, attribute, span name, work) -- the span is named after the layer
# that defines the function, whichever module calls it
BINDINGS = (
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "_write_csv", "cli.write_csv", _file_bytes),
    ("cli", "_write_metadata", "cli.write_metadata", None),
    ("cli", "frequency_spread", "spectrum.frequency_spread", None),
    ("cli", "wavevector_spread", "spectrum.wavevector_spread", None),
    ("cli", "kernel_decay_constant", "spectrum.kernel_decay_constant", None),
    ("cli", "replicated_mc_spectrum", "spectrum.replicated_mc_spectrum", None),
    ("cli", "quadrature_spectrum", "spectrum.quadrature_spectrum", _first_len),
    ("cli", "analytic_spectrum", "spectrum.analytic_spectrum", None),
    ("cli", "flat_delta_limit", "spectrum.flat_delta_limit", None),
    ("cli", "sample_ensemble", "emission.sample_ensemble", _int_first),
    ("cli", "structure_factor", "spectrum.structure_factor", _first_len),
    ("cli", "structure_factor_expectation", "spectrum.structure_factor_expectation", None),
    ("cli", "residual_slope_study", "maxwell.residual_slope_study", _a_values),
    ("cli", "transversality_check", "maxwell.transversality_check", None),
    ("cli", "dump_mode_vectors", "modes.dump_mode_vectors", None),
    ("spectrum", "monte_carlo_spectrum", "spectrum.monte_carlo_spectrum", _n_atoms_x_kz),
    ("spectrum", "sample_ensemble", "emission.sample_ensemble", _int_first),
    ("spectrum", "curved_timed_dicke", "emission.curved_timed_dicke", _ensemble_n),
    ("spectrum", "analytic_spectrum", "spectrum.analytic_spectrum", None),
    ("spectrum", "kernel_area", "spectrum.kernel_area", None),
    ("maxwell", "mode_field_first_order", "modes.mode_field_first_order", None),
    ("emission", "check_linearization", "metric.check_linearization", None),
    ("modes", "check_linearization", "metric.check_linearization", None),
)

QUAD_USERS = ("quadrature", "spectrum")


class Tracer:
    """In-memory span recorder; spans are kept until the benchmark reads them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool worker's first span belongs to the span the main thread
            # is blocked in (replicated_mc_spectrum farming out replicas)
            main = self._stacks.get(self._main) or [None]
            parent = main[-1]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), parent=parent,
                                   thread=threading.get_ident()))
        stack.append(sid)
        return sid

    def close(self, sid: int) -> Span:
        span = self.spans[sid]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    def current(self) -> Span | None:
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(sid)
            if work is not None:
                span.work = work(args, kwargs)
            span.threads = int(kwargs.get("threads", 1))
            return result
        return traced

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        import importlib

        for mod_name, attr, name, work in BINDINGS:
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            self._rebind(mod, attr, self.wrap(name, getattr(mod, attr), work))
        for mod_name in QUAD_USERS:
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            self._rebind(mod, "integrate", _QuadCounter(mod.integrate, self))

    def _rebind(self, mod, attr: str, value) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)


class _QuadCounter:
    """Stands in for ``scipy.integrate``; ``quad`` counts calls and evaluations.

    Counts go to the innermost open span of the calling thread, so quadrature
    work is attributed to the layer that asked for it.
    """

    def __init__(self, real, tracer: Tracer) -> None:
        self._real = real
        self._tracer = tracer

    def quad(self, func, *args, **kwargs):
        span = self._tracer.current()
        if span is None:
            return self._real.quad(func, *args, **kwargs)
        span.quad_calls += 1

        def counted(*fargs):
            span.quad_evals += 1
            return func(*fargs)

        return self._real.quad(counted, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


# ---------------------------------------------------------------------------
# per-layer metrics from one iteration's spans
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span], first: int) -> dict[int, float]:
    """Self time of each span with id >= first: its duration minus what children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid in range(first, len(spans)):
        sp = spans[sid]
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sid in range(first, len(spans)):
        sp = spans[sid]
        clipped = [(max(lo, sp.start), min(hi, sp.end))
                   for lo, hi in children.get(sid, []) if hi > sp.start and lo < sp.end]
        out[sid] = sp.duration - _covered(clipped)
    return out


@dataclass
class _Agg:
    calls: int = 0
    total: float = 0.0
    self_s: float = 0.0
    work: float = 0.0
    quad_calls: int = 0
    quad_evals: int = 0


ROOT_SPAN = "cli.main"


def iteration_metrics(spans: list[Span], first: int) -> dict[str, float]:
    """Per-layer metrics of the spans recorded since index ``first`` (one iteration)."""
    selfs = self_times(spans, first)
    agg: dict[str, _Agg] = {}
    busy = 0.0
    capacity = 0.0
    for sid in range(first, len(spans)):
        sp = spans[sid]
        a = agg.setdefault(sp.name, _Agg())
        a.calls += 1
        a.total += sp.duration
        a.self_s += selfs[sid]
        a.work += sp.work
        a.quad_calls += sp.quad_calls
        a.quad_evals += sp.quad_evals
        if sp.name == "spectrum.replicated_mc_spectrum":
            capacity += sp.duration * sp.threads
        elif sp.parent is not None and spans[sp.parent].name == "spectrum.replicated_mc_spectrum":
            busy += sp.duration

    def get(name: str) -> _Agg:
        return agg.get(name, _Agg())

    def rate(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    mc = get("spectrum.monte_carlo_spectrum")
    sample = get("emission.sample_ensemble")
    dicke = get("emission.curved_timed_dicke")
    sf = get("spectrum.structure_factor")
    quad = get("spectrum.quadrature_spectrum")
    area = get("spectrum.kernel_area")
    study = get("maxwell.residual_slope_study")
    csv = get("cli.write_csv")
    root = get(ROOT_SPAN)
    field = get("modes.mode_field_first_order")
    return {
        "spectrum.monte_carlo_spectrum.calls": mc.calls,
        "spectrum.monte_carlo_spectrum.self_s": mc.self_s,
        "spectrum.monte_carlo_spectrum.ns_per_atom_kz": rate(mc.self_s, mc.work, 1e9),
        "spectrum.replicated_mc_spectrum.s": get("spectrum.replicated_mc_spectrum").total,
        "spectrum.replicated_mc_spectrum.parallel_efficiency": rate(busy, capacity, 1.0),
        "emission.sample_ensemble.calls": sample.calls,
        "emission.sample_ensemble.self_s": sample.self_s,
        "emission.sample_ensemble.ns_per_atom": rate(sample.self_s, sample.work, 1e9),
        "emission.curved_timed_dicke.calls": dicke.calls,
        "emission.curved_timed_dicke.self_s": dicke.self_s,
        "emission.curved_timed_dicke.ns_per_atom": rate(dicke.self_s, dicke.work, 1e9),
        "spectrum.structure_factor.calls": sf.calls,
        "spectrum.structure_factor.self_s": sf.self_s,
        "spectrum.structure_factor.ns_per_atom_probe": rate(sf.self_s, sf.work, 1e9),
        "spectrum.quadrature_spectrum.self_s": quad.self_s,
        "spectrum.quadrature_spectrum.ms_per_kz": rate(quad.total, quad.work, 1e3),
        "spectrum.kernel_area.calls": area.calls,
        "spectrum.kernel_area.ms_per_call": rate(area.total, area.calls, 1e3),
        "quadrature.quad_calls_per_kz": rate(quad.quad_calls, quad.work, 1.0),
        "quadrature.integrand_evals_per_kz": rate(quad.quad_evals, quad.work, 1.0),
        "maxwell.residual_slope_study.calls": study.calls,
        "maxwell.residual_slope_study.ms_per_mode_a": rate(study.total, study.work, 1e3),
        "maxwell.transversality_check.self_s": get("maxwell.transversality_check").self_s,
        "modes.mode_field_first_order.calls": field.calls,
        "modes.dump_mode_vectors.s": get("modes.dump_mode_vectors").total,
        "metric.check_linearization.calls": get("metric.check_linearization").calls,
        "cli.load_config.s": get("cli.load_config").total,
        "cli.write_csv.s": csv.total,
        "cli.write_csv.bytes": csv.work,
        "cli.write_metadata.s": get("cli.write_metadata").total,
        "trace.run_s": root.total,
        "trace.unattributed_s": root.self_s,
    }
