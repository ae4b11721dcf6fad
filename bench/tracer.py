"""Per-layer tracing from outside the program.

The tracer replaces module attributes with timing wrappers at the names
where their callers look them up (``sleepnet.analytic.ch_gap_pdf`` is what
``ChGapDistribution.pdf`` calls, ``sleepnet.cli.run_sweep`` is what the
CLI calls, and so on), keeps spans (name, start, end, parent, pass) in
memory, and restores every attribute on ``uninstall``.  A target that no
longer exists is recorded as missing and every metric built on it is
reported as absent rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


def _rows(tracer, args, kwargs, result):
    tracer.count("experiments.rows", len(result.rows))


def _sample_cycles(tracer, args, kwargs, result):
    tracer.count("simulate.cycles", len(result))


def _timeline(tracer, args, kwargs, result):
    tracer.count("simulate.transitions", result.n_transitions)


def _snapshot(tracer, args, kwargs, result):
    tracer.count("simulate.vehicles", result.n_vehicles)


def _build(tracer, args, kwargs, result):
    tracer.record_distribution(args[0])


def _expected_gap(tracer, args, kwargs, result):
    tracer.record_expected_gap(args[0], result)


#: (span name, module, attribute path, result hook).  A span name listed
#: twice wraps the same function at two call sites.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli.main", "sleepnet.cli", "main", None),
    ("experiments.run_sweep", "sleepnet.cli", "run_sweep", _rows),
    ("experiments.run_validation", "sleepnet.cli", "run_validation", _rows),
    ("experiments.emit_table", "sleepnet.cli", "emit_table", None),
    ("analytic.energy_figures", "sleepnet.cli", "energy_figures", None),
    ("analytic.energy_figures", "sleepnet.experiments", "energy_figures",
     None),
    ("simulate.sample_cycles", "sleepnet.cli", "sample_cycles",
     _sample_cycles),
    ("simulate.sample_cycles", "sleepnet.experiments", "sample_cycles",
     _sample_cycles),
    ("simulate.estimate_energy", "sleepnet.cli", "estimate_energy", None),
    ("simulate.estimate_energy", "sleepnet.experiments", "estimate_energy",
     None),
    ("simulate.run_timeline", "sleepnet.cli", "run_timeline", _timeline),
    ("simulate.sample_snapshot", "sleepnet.simulate", "sample_snapshot",
     _snapshot),
    ("simulate.extract_clusters", "sleepnet.simulate", "extract_clusters",
     None),
    ("simulate.next_event_time", "sleepnet.simulate", "_next_event_time",
     None),
    ("analytic.build", "sleepnet.analytic", "ChGapDistribution.__init__",
     _build),
    ("analytic.expected_ch_gap", "sleepnet.analytic", "expected_ch_gap",
     _expected_gap),
    ("analytic.ch_gap_pdf", "sleepnet.analytic", "ch_gap_pdf", None),
    ("numerics.integrate_panel_doubling", "sleepnet.analytic",
     "integrate_panel_doubling", None),
    ("numerics.exp_integral_e1", "sleepnet.analytic", "exp_integral_e1",
     None),
)

#: Span whose wrapper also records the tracemalloc peak of the call.
MEMORY_SPAN = "simulate.sample_cycles"


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)  # raises AttributeError if it no longer exists
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self.pass_index = 0
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.maxima: Dict[Tuple[int, str], float] = {}
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.distributions: List[dict] = []
        self.ex_residuals: List[float] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float) -> None:
        self.counts[(self.pass_index, name)] += amount

    def maximum(self, name: str, value: float) -> None:
        key = (self.pass_index, name)
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def record_distribution(self, dist) -> None:
        try:
            params = dist.params
            health = {
                "mass_defect": abs(1.0 - dist.total_mass),
                "truncation_efolds":
                    dist.tail_rate * (dist.x_max - params.r0),
            }
        except AttributeError:  # the health figures left out, not zeroed
            return
        self.distributions.append(health)

    def record_expected_gap(self, params, value: float) -> None:
        if params.fidelity.value == "corrected":
            alpha = params.rho * params.r0
            self.ex_residuals.append(
                abs(value * params.rho * math.exp(-alpha) - 1.0))

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, hook):
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        memory = name == MEMORY_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if memory:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.maximum("simulate.sample_peak_mb", peak / 2 ** 20)
                stack.pop()
                spans[index] = (name_id, start, end, parent,
                                self.pass_index)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        for name, module, path, hook in TARGETS:
            try:
                owner, attr = _resolve(module, path)
            except (ImportError, AttributeError):
                if name not in self.missing:
                    self.missing.append(name)
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reduction ---------------------------------------------------------

    def span_table(self) -> Dict[Tuple[int, str], Dict[str, float]]:
        """Per (pass, name): calls, inclusive seconds and self seconds.

        Self time is the span's duration minus the time its direct child
        spans cover (children never overlap: the run is single-threaded).
        """
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        table: Dict[Tuple[int, str], Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name_id, start, end, _, pass_index = span
            entry = table[(pass_index, self.names[name_id])]
            entry["calls"] += 1
            entry["incl_s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - child_ns[index]) * 1e-9
        return table

    def write(self, path: Path, extra: Dict) -> None:
        """Write every span and the per-name summary as one JSON file."""
        table = self.span_table()
        summary = defaultdict(lambda: {"calls": 0, "incl_s": 0.0,
                                       "self_s": 0.0})
        for (_, name), entry in table.items():
            for key, value in entry.items():
                summary[name][key] += value
        doc = dict(extra)
        doc.update({
            "span_fields": ["name", "start_ns", "end_ns", "parent", "pass"],
            "names": self.names,
            "spans": [s for s in self.spans if s is not None],
            "summary": summary,
            "missing_targets": self.missing,
        })
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


#: metric -> (reduction, spans it reads).  "incl_s", "self_s" and "calls"
#: sum that field of the span table; "count" and "max" read the value the
#: span's hook recorded under the metric's own name.
LAYER_METRICS = {
    "analytic.build_s": ("incl_s", ("analytic.build",)),
    "analytic.build_calls": ("calls", ("analytic.build",)),
    "analytic.pdf_s": ("incl_s", ("analytic.ch_gap_pdf",)),
    "analytic.pdf_calls": ("calls", ("analytic.ch_gap_pdf",)),
    "numerics.quad_s": ("incl_s", ("numerics.integrate_panel_doubling",)),
    "numerics.quad_calls": ("calls", ("numerics.integrate_panel_doubling",)),
    "numerics.e1_s": ("incl_s", ("numerics.exp_integral_e1",)),
    "simulate.sample_cycles_s": ("incl_s", ("simulate.sample_cycles",)),
    "simulate.cycles": ("count", ("simulate.sample_cycles",)),
    "simulate.sample_peak_mb": ("max", ("simulate.sample_cycles",)),
    "simulate.estimate_s": ("incl_s", ("simulate.estimate_energy",)),
    "simulate.snapshot_s": ("incl_s", ("simulate.sample_snapshot",
                                       "simulate.extract_clusters")),
    "simulate.vehicles": ("count", ("simulate.sample_snapshot",)),
    "simulate.timeline_s": ("incl_s", ("simulate.run_timeline",)),
    "simulate.events": ("calls", ("simulate.next_event_time",)),
    "simulate.transitions": ("count", ("simulate.run_timeline",)),
    "experiments.run_sweep_s": ("incl_s", ("experiments.run_sweep",)),
    "experiments.run_validation_s": ("incl_s",
                                     ("experiments.run_validation",)),
    "experiments.emit_table_s": ("incl_s", ("experiments.emit_table",)),
    "experiments.rows": ("count", ("experiments.run_sweep",
                                   "experiments.run_validation")),
    "cli.self_s": ("self_s", ("cli.main",)),
    "cli.calls": ("calls", ("cli.main",)),
}


def layer_metrics(tracer: Tracer, passes: List[int]) -> Dict[str, float]:
    """Per-layer metrics as medians over the traced passes.

    A metric whose spans come from a missing target is left out.
    """
    table = tracer.span_table()

    def value(p, name, reduction, spans):
        if reduction == "count":
            return tracer.counts.get((p, name), 0.0)
        if reduction == "max":
            return tracer.maxima.get((p, name), 0.0)
        return sum(table[(p, s)][reduction] for s in spans
                   if (p, s) in table)

    per_pass = {}
    for name, (reduction, spans) in LAYER_METRICS.items():
        if not any(s in tracer.missing for s in spans):
            per_pass[name] = [value(p, name, reduction, spans)
                              for p in passes]
    if "simulate.events" in per_pass and "simulate.timeline_s" in per_pass:
        per_pass["simulate.events_per_s"] = [
            events / busy if busy else 0.0 for events, busy in
            zip(per_pass["simulate.events"], per_pass["simulate.timeline_s"])]
    out = {name: statistics.median(values) if values else 0.0
           for name, values in per_pass.items()}
    if "analytic.build" not in tracer.missing and tracer.distributions:
        out["analytic.mass_defect"] = max(
            d["mass_defect"] for d in tracer.distributions)
        out["analytic.truncation_efolds"] = min(
            d["truncation_efolds"] for d in tracer.distributions)
    if "analytic.expected_ch_gap" not in tracer.missing and \
            tracer.ex_residuals:
        out["analytic.ex_residual"] = max(tracer.ex_residuals)
    return out
