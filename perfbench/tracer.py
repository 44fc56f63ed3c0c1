"""Spans around calls into the program's public functions, recorded from
outside the program.

`Tracer.install()` wraps each traced function and rebinds the wrapper on
every loaded `nbrach` module attribute that holds the original, because
sweep, config and cli import these functions by name: a wrapper bound
only on the defining module would miss those calls.  Each span keeps
its thread id, since sweep rows run on pool threads and have no parent
span on the main thread; self time is the span's duration minus that of
its direct child spans on the same thread.

Spans stay in memory; `aggregate()` folds them into per-name totals that
the launcher writes out when the invocation ends, and `layer_metrics()`
turns the totals of every traced invocation into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import threading
import time
from collections import defaultdict

# (defining module, function, span name).  A span name of None derives
# the name from the call (see _span_name).
TRACED = (
    ("nbrach.quadrature", "improper_integral", "quadrature"),
    ("nbrach.rach", "pgfl_kernel", "rach.pgfl_kernel"),
    ("nbrach.rach", "pgfl_exponent", "rach.pgfl_exponent"),
    ("nbrach.rach", "joint_symbol_success", "rach.joint_symbol_success"),
    ("nbrach.rach", "rach_success_detail", "rach.rach_success_detail"),
    ("nbrach.rach", "rach_success_prob", "rach.rach_success_prob"),
    ("nbrach.energy", "simulate_energy_chain", "energy.des"),
    ("nbrach.energy", "availability_bounds", "energy.availability_bounds"),
    ("nbrach.energy", "neg_B_inverse", None),
    ("nbrach.simulation", "simulate_summary", "simulation"),
    ("nbrach.sweep", "run_preset", "sweep.run"),
    ("nbrach.sweep", "run_custom", "sweep.run"),
    ("nbrach.sweep", "emit_csv", "sweep.emit_csv"),
    ("nbrach.config", "load_config", "config.load_config"),
)

# span names whose individual durations are kept for percentiles
KEEP_DURATIONS = frozenset({"rach.rach_success_detail"})


def _span_name(default: str | None, args, kwargs) -> str:
    if default is not None:
        return default
    # neg_B_inverse(mu0, nu0, capacity, exact=False)
    exact = kwargs.get("exact", args[3] if len(args) > 3 else False)
    return "energy.neg_B_inverse_exact" if exact else "energy.neg_B_inverse"


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans: list[tuple] = []  # (name, thread id, start, end, self_s, failed, parent)
        self.counters: dict[str, int] = defaultdict(int)
        self.row_runtimes: list[float] = []
        self.sim_calls: list[tuple] = []
        self.bindings: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, span: str | None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            name = _span_name(span, args, kwargs)
            stack = self._stack()
            frame = [name, 0.0]  # [name, child seconds]
            stack.append(frame)
            failed = True
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += end - start
                self.spans.append((name, threading.get_ident(), start, end,
                                   end - start - frame[1], failed,
                                   parent[0] if parent else None))
            self._note(func, name, args, kwargs, result)
            return result
        return traced

    def _note(self, func, name, args, kwargs, result) -> None:
        """Counts the program already computes and returns."""
        if name == "rach.rach_success_detail":
            with self._lock:
                self.counters["rach.cell_load.terms"] += result.terms
        elif name == "energy.des":
            with self._lock:
                self.counters["energy.des.transitions"] += result.transitions
                self.counters["energy.des.cycles"] += result.cycles
        elif name == "simulation":
            bound = inspect.signature(func).bind(*args, **kwargs)
            bound.apply_defaults()
            with self._lock:
                self.counters["simulation.trials"] += result.rach.trials
                self.counters["simulation.redraws"] += result.redraws
                self.sim_calls.append(tuple(bound.arguments.values()))
        elif name == "sweep.run":
            with self._lock:
                self.row_runtimes.extend(result.runtimes)

    def install(self) -> None:
        """Wrap every traced function on every nbrach module binding it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "nbrach" or n.startswith("nbrach."))]
        for home, attr, span in TRACED:
            original = getattr(sys.modules[home], attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.bindings.append(f"{module.__name__}.{key}")

    def _interferers_expected(self) -> list[float]:
        """Mean interferer count per trial, computed (not counted) from the
        public interference_horizon and active_density for each
        simulate_summary call; tracing is off meanwhile."""
        from nbrach.rach import active_density
        from nbrach.simulation import SimSettings, interference_horizon
        self.enabled = False
        try:
            out = []
            for cfg, n_t, _mode, settings in self.sim_calls:
                settings = settings or SimSettings()
                lam = active_density(cfg)
                if settings.region is None:
                    r = interference_horizon(cfg, n_t, settings.tail_tol)
                    out.append(lam * math.pi * r * r)
                else:
                    out.append(lam * settings.region.area)
            return out
        finally:
            self.enabled = True

    def aggregate(self) -> dict:
        """Per-name totals of this process's spans, plus counters."""
        names: dict[str, dict] = {}
        for name, _tid, start, end, self_s, failed, _parent in self.spans:
            agg = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "failures": 0, "durations": []})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += self_s
            agg["failures"] += failed
            if name in KEEP_DURATIONS:
                agg["durations"].append(end - start)
        return {"spans": names, "counters": dict(self.counters),
                "row_runtimes": self.row_runtimes,
                "interferers_expected": self._interferers_expected(),
                "bindings": self.bindings}


def layer_metrics(traces: list[dict], workers: int, csv_bytes: int,
                  untraced_wall: float, traced_wall: float,
                  failed_frac: float) -> dict[str, float]:
    """Per-layer metrics from the aggregates of every traced invocation of
    one workload round."""
    spans: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                  "failures": 0, "durations": []})
    counters: dict[str, int] = defaultdict(int)
    rows: list[float] = []
    interferers: list[float] = []
    for t in traces:
        for name, agg in t["spans"].items():
            s = spans[name]
            for key in ("calls", "total_s", "self_s", "failures"):
                s[key] += agg[key]
            s["durations"].extend(agg["durations"])
        for key, value in t["counters"].items():
            counters[key] += value
        rows.extend(t["row_runtimes"])
        interferers.extend(t["interferers_expected"])

    def med(values):
        return statistics.median(values) if values else 0.0

    q, kern, expo = spans["quadrature"], spans["rach.pgfl_kernel"], spans["rach.pgfl_exponent"]
    jss, det = spans["rach.joint_symbol_success"], spans["rach.rach_success_detail"]
    des, sim = spans["energy.des"], spans["simulation"]
    trials, redraws = counters["simulation.trials"], counters["simulation.redraws"]
    transitions = counters["energy.des.transitions"]
    return {
        "quadrature.calls": q["calls"],
        "quadrature.self_s": q["self_s"],
        "quadrature.failures": q["failures"],
        "rach.pgfl_kernel.calls": kern["calls"],
        "rach.pgfl_exponent.calls": expo["calls"],
        "rach.pgfl_exponent.self_s": expo["self_s"],
        "rach.joint_symbol_success.calls": jss["calls"],
        "rach.joint_symbol_success.total_s": jss["total_s"],
        "rach.rach_success_detail.calls": det["calls"],
        "rach.rach_success_detail.p50_ms": 1e3 * med(det["durations"]),
        "rach.cell_load.terms": counters["rach.cell_load.terms"],
        "energy.des.calls": des["calls"],
        "energy.des.transitions": transitions,
        "energy.des.cycles": counters["energy.des.cycles"],
        "energy.des.s_per_Mtransition": des["total_s"] / (transitions / 1e6) if transitions else 0.0,
        "energy.availability_bounds.calls": spans["energy.availability_bounds"]["calls"],
        "energy.neg_B_inverse_exact.total_s": spans["energy.neg_B_inverse_exact"]["total_s"],
        "simulation.calls": sim["calls"],
        "simulation.trials": trials,
        "simulation.redraws": redraws,
        "simulation.accept_ratio": trials / (trials + redraws) if trials else 0.0,
        "simulation.us_per_trial": 1e6 * sim["total_s"] / trials if trials else 0.0,
        "simulation.interferers_expected": statistics.fmean(interferers) if interferers else 0.0,
        "sweep.rows": len(rows),
        "sweep.row_p50_s": med(rows),
        "sweep.row_max_s": max(rows, default=0.0),
        "sweep.row_sum_s": sum(rows),
        "sweep.workers": workers,
        "sweep.emit_csv.total_s": spans["sweep.emit_csv"]["total_s"],
        "sweep.csv_bytes": csv_bytes,
        "config.load_config.total_s": spans["config.load_config"]["total_s"],
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "failed_frac": failed_frac,
    }
