"""Parameter sweeps over (rho, r0) grids, the analytic-vs-Monte-Carlo
validation report, and table serialization.

Cells are independent and rows come out in deterministic row-major
order.  A sweep hands all its cells' gap laws to one batched quadrature
(``analytic.grid_energy_figures``), which gives each cell the bits it
gets alone; E_X and baseline_Psave are closed forms and need no law.
Validation computes the analytic figures of every (cell, fidelity) pair
in one such batch, then hands every cell's cycles to the sampler in one
batch of blocks; one draw per cell serves both fidelities.  Each cell
draws from its own derived random stream, so identical grids and seeds
produce identical output bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__ as _version
from .analytic import (baseline_power_saved, expected_ch_gap,
                       grid_energy_figures)
from .params import CANONICAL, Fidelity, ModelParams
from .simulate import RngSpec, _plan_cycles, _run_cycles, estimate_energy
# bench/tracer.py wraps energy_figures and sample_cycles at these names,
# which sweep and validate no longer call (a grid's gap laws go through
# grid_energy_figures, its draws through _run_cycles, each in one batch);
# the names stay so the tracer's targets resolve, for the cycles trace too
from .analytic import energy_figures  # noqa: F401
from .simulate import sample_cycles  # noqa: F401

__all__ = [
    "METRICS",
    "SweepGrid",
    "SweepRow",
    "SweepTable",
    "ValidationRow",
    "ValidationReport",
    "run_sweep",
    "run_validation",
    "emit_table",
    "figure_preset",
    "FIGURE_PRESETS",
]

#: Metrics a sweep can request, in canonical order.
METRICS = ("E_X", "E_Toff", "E_Psave", "baseline_Psave", "prob_sleep")

#: Metrics covered by the validation report (those with Monte Carlo twins).
VALIDATION_METRICS = ("E_X", "E_Toff", "E_Psave")

#: The fidelities of a validation cell, in row and stream order.
_FIDELITY_ORDER = (Fidelity.PAPER, Fidelity.CORRECTED)

CSV_COLUMNS = ("rho", "r0", "D", "a", "b", "P0", "Ec",
               "fidelity", "metric", "value", "stderr", "status")
VALIDATION_EXTRA_COLUMNS = ("analytic", "z", "passed", "fidelity_gap")

JSON_SCHEMA = "sleepnet-sweep/1"

#: The metrics in closed form; a grid that asks for no other builds no
#: gap law.
_CLOSED_FORMS = {"E_X": expected_ch_gap,
                 "baseline_Psave": baseline_power_saved}

#: The EnergyFigures field behind each analytic metric but baseline_Psave;
#: EnergyEstimate names its Monte Carlo twin the same, with "_se" for the
#: standard error.
_FIELDS = {"E_X": "expected_gap", "E_Toff": "expected_sleep_time",
           "E_Psave": "expected_power_saved", "prob_sleep": "prob_sleep"}


@dataclass(frozen=True)
class SweepGrid:
    """A rectangular (rho, r0) grid around a fixed parameter template.

    Each cell replaces the template's rho and r0, which the grid ignores.
    """

    rho_values: Tuple[float, ...]
    r0_values: Tuple[float, ...]
    fixed: ModelParams = CANONICAL
    metrics: Tuple[str, ...] = ("E_X", "E_Toff", "E_Psave")

    def __post_init__(self):
        object.__setattr__(self, "rho_values", tuple(self.rho_values))
        object.__setattr__(self, "r0_values", tuple(self.r0_values))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not self.rho_values or not self.r0_values:
            raise ValueError("rho_values and r0_values must be nonempty")
        for metric in self.metrics:
            if metric not in METRICS:
                raise ValueError(f"unknown metric {metric!r}; "
                                 f"choose from {METRICS}")
        for rho in self.rho_values:
            for r0 in self.r0_values:
                self.fixed.replace(rho=rho, r0=r0)  # validates

    @property
    def cells(self) -> List[Tuple[float, float]]:
        """Row-major cell order: rho outer, r0 inner."""
        return [(rho, r0) for rho in self.rho_values
                for r0 in self.r0_values]


@dataclass(frozen=True)
class SweepRow:
    rho: float
    r0: float
    D: float
    a: float
    b: float
    P0: float
    Ec: float
    fidelity: str
    metric: str
    value: float
    stderr: Optional[float]
    status: str


@dataclass(frozen=True)
class SweepTable:
    rows: Tuple[SweepRow, ...]
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ValidationRow(SweepRow):
    """A SweepRow whose value is the Monte Carlo estimate."""

    analytic: float
    z: float
    passed: bool
    fidelity_gap: float          # |paper - corrected| / |corrected|, analytic


@dataclass(frozen=True)
class ValidationReport:
    rows: Tuple[ValidationRow, ...]
    all_passed: bool
    meta: Dict[str, object] = field(default_factory=dict)


def _cell_metrics(params: ModelParams, metrics: Sequence[str],
                  figures) -> List[Tuple[str, float, str]]:
    """(metric, value, status) triples for one cell, from its
    EnergyFigures or the exception its gap law raised (None if every
    metric is closed form); numeric and parameter failures
    (``ArithmeticError``, ``ValueError``) are recorded in-row and never
    propagate, while any other exception is a bug and does."""
    out = []
    for metric in metrics:
        if metric in _CLOSED_FORMS:
            try:
                out.append((metric, _CLOSED_FORMS[metric](params), "ok"))
            except (ArithmeticError, ValueError) as exc:
                out.append((metric, math.nan, f"error: {exc}"))
        elif isinstance(figures, Exception):
            out.append((metric, math.nan, f"error: {figures}"))
        elif getattr(figures, _FIELDS[metric]) is None:   # E_Toff, no sleep
            out.append((metric, math.nan, "no sleep opportunity"))
        else:
            out.append((metric, getattr(figures, _FIELDS[metric]), "ok"))
    return out


def run_sweep(grid: SweepGrid) -> SweepTable:
    """Evaluate the analytic metrics on every grid cell.

    Rows are ordered row-major (rho outer, r0 inner) with the grid's
    metric order inside each cell; per-cell numeric failures are recorded
    in the status column and never abort the sweep.  The cells' gap laws
    and expectations come from one ``grid_energy_figures`` batch, which
    a grid asking only for closed forms skips; each row has the bits of
    a sweep of its cell alone.
    """
    cells = [grid.fixed.replace(rho=rho, r0=r0) for rho, r0 in grid.cells]
    figures = (grid_energy_figures(cells) if set(grid.metrics)
               - set(_CLOSED_FORMS) else [None] * len(cells))
    rows = tuple(
        SweepRow(rho=params.rho, r0=params.r0, D=params.D, a=params.a,
                 b=params.b, P0=params.P0, Ec=params.Ec,
                 fidelity=params.fidelity.value, metric=metric, value=value,
                 stderr=None, status=status)
        for params, found in zip(cells, figures)
        for metric, value, status in _cell_metrics(params, grid.metrics,
                                                   found))
    meta = {
        "kind": "sweep",
        "fidelity": grid.fixed.fidelity.value,
        "metrics": list(grid.metrics),
        "version": _version,
    }
    return SweepTable(rows=rows, meta=meta)


def _cell_analytic(pairs) -> tuple:
    """One cell's analytic VALIDATION_METRICS under both fidelities from
    its (params, figures) pairs, as (value, status) keyed by (fidelity,
    metric), and per metric the gap |paper - corrected| / |corrected|."""
    analytic: Dict[Tuple[str, str], Tuple[float, str]] = {}
    for params, figures in pairs:
        for metric, value, status in _cell_metrics(
                params, VALIDATION_METRICS, figures):
            analytic[(params.fidelity.value, metric)] = float(value), status
    gaps = {}
    for metric in VALIDATION_METRICS:
        paper = analytic[("paper", metric)][0]
        corrected = analytic[("corrected", metric)][0]
        if math.isfinite(paper) and math.isfinite(corrected) and corrected:
            gaps[metric] = abs(paper - corrected) / abs(corrected)
        else:
            gaps[metric] = math.nan
    return analytic, gaps


def _compared_rows(params: ModelParams, est, analytic: dict,
                   gaps: dict) -> List[ValidationRow]:
    """The rows of one (cell, fidelity) pair: each VALIDATION_METRICS
    estimate, or the sampler's exception, against the analytic value of
    params' fidelity, whose error, if any, is the status of a drawn row."""
    rows = []
    for metric in VALIDATION_METRICS:
        target, found = analytic[(params.fidelity.value, metric)]
        if isinstance(est, Exception):
            value = stderr = None
            status = f"error: {est}"
        else:
            value = getattr(est, _FIELDS[metric])
            stderr = getattr(est, _FIELDS[metric] + "_se")
            status = ("no sleep opportunity" if value is None
                      else "one sample: no standard error")
        if value is None or stderr is None:
            value = math.nan if value is None else float(value)
            stderr, z = None, math.nan
        else:
            value, stderr = float(value), float(stderr)
            status = found if found.startswith("error") else "ok"
            z = (value - target) / stderr if stderr > 0.0 else (
                0.0 if value == target else math.inf)
        rows.append(ValidationRow(
            rho=params.rho, r0=params.r0, D=params.D, a=params.a, b=params.b,
            P0=params.P0, Ec=params.Ec, fidelity=params.fidelity.value,
            metric=metric, value=value, stderr=stderr, status=status,
            analytic=target, z=z,
            passed=bool(math.isfinite(z) and abs(z) <= 3.0),
            fidelity_gap=float(gaps[metric])))
    return rows


def run_validation(grid: SweepGrid, n_cycles: int,
                   seed: int) -> ValidationReport:
    """Cross-validate the analytic route against matched-fidelity Monte
    Carlo on every grid cell.

    For each cell and each of E_X, E_Toff, E_Psave, both fidelities are
    compared against the cycle sampler's estimate of the same fidelity; a
    comparison passes when |z| <= 3.  The fidelity_gap column reports the
    relative analytic difference between the two fidelities for the same
    metric.  The analytic figures of every (cell, fidelity) pair come
    first, in one batch; then one sampler call draws every cell's cycles
    in one batch of blocks (``simulate._run_cycles``), cell i on stream
    2 i, so the report depends on the seed only.  One paper-law draw
    serves both fidelities of a cell: ``estimate_energy`` reads its sums
    (``simulate.CycleSums``) under each row's fidelity, the corrected
    one mixing in the closed-form single-vehicle cycle.  The draws start
    once the analytic work is done, not beside it: both hold the GIL,
    and overlapping them was slower.  A cell outside the sampler's
    density limits gets rows whose status names the limit, with value
    and z nan, and fails; the other cells are validated.

    Besides the template's rho and r0 (``SweepGrid``), the report ignores
    its fidelity, since every cell runs both, and ``grid.metrics``, since
    it always compares E_X, E_Toff and E_Psave.
    """
    if n_cycles < 10_000:
        raise ValueError(f"need n_cycles >= 10000, got {n_cycles}")
    cells = [[grid.fixed.replace(rho=rho, r0=r0, fidelity=fidelity)
              for fidelity in _FIDELITY_ORDER] for rho, r0 in grid.cells]
    laws = [params for pair in cells for params in pair]
    figures = list(zip(laws, grid_energy_figures(laws)))
    plans = []
    for i, pair in enumerate(cells):
        try:
            plans.append(_plan_cycles(pair[0], n_cycles,
                                      RngSpec(seed, 2 * i)))
        except ArithmeticError as exc:
            plans.append(exc)
    sums = iter(_run_cycles([plan for plan in plans
                             if not isinstance(plan, Exception)]))
    rows = []
    for i, (pair, plan) in enumerate(zip(cells, plans)):
        drawn = plan if isinstance(plan, Exception) else next(sums)
        analytic = _cell_analytic(figures[2 * i:2 * i + 2])
        for params in pair:
            est = drawn if isinstance(drawn, Exception) else estimate_energy(
                drawn, params)
            rows.extend(_compared_rows(params, est, *analytic))
    meta = {
        "kind": "validation",
        "n_cycles": n_cycles,
        "master_seed": seed,
        "version": _version,
    }
    return ValidationReport(rows=tuple(rows),
                            all_passed=all(row.passed for row in rows),
                            meta=meta)


def _format_number(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_table(table: Union[SweepTable, ValidationReport],
               format: str = "csv") -> bytes:
    """Serialize a sweep table or validation report.

    CSV uses the fixed column prefix rho,r0,D,a,b,P0,Ec,fidelity,metric,
    value,stderr,status (validation reports append analytic,z,passed,
    fidelity_gap); floats carry 17 significant digits so parsing the
    output reproduces them bit-exactly.  JSON is a schema-versioned
    document with `rows` and `meta` blocks and no timestamps, so repeated
    runs are byte-identical.
    """
    is_validation = isinstance(table, ValidationReport)
    columns = CSV_COLUMNS + (VALIDATION_EXTRA_COLUMNS if is_validation
                             else ())
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in table.rows:
            writer.writerow([_format_number(getattr(row, col))
                             for col in columns])
        return buf.getvalue().encode("utf-8")
    if format == "json":
        rows = []
        for row in table.rows:
            item = {}
            for col in columns:
                value = getattr(row, col)
                if isinstance(value, np.generic):
                    value = value.item()
                if isinstance(value, float) and math.isnan(value):
                    value = None
                item[col] = value
            rows.append(item)
        doc = {"schema": JSON_SCHEMA, "meta": dict(table.meta),
               "rows": rows}
        if is_validation:
            doc["all_passed"] = table.all_passed
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode(
            "utf-8")
    raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")


def _log_spaced(lo: float, hi: float, n: int) -> Tuple[float, ...]:
    return tuple(np.geomspace(lo, hi, n).tolist())


#: Each figure preset's rho values, r0 values and metrics; None takes the
#: one value of the fixed parameters, so a preset ignores the --rho or
#: --r0 it sets itself.
_PRESETS = {
    "fig2": dict(rho=_log_spaced(1e-3, 0.2, 25),
                 r0=(50.0, 100.0, 150.0, 200.0), metrics=("E_X",)),
    "fig3": dict(rho=None, r0=tuple(float(r) for r in range(50, 401, 25)),
                 metrics=("E_Toff",)),
    "fig4": dict(rho=_log_spaced(1e-3, 0.1, 20), r0=(200.0,),
                 metrics=("E_Psave", "prob_sleep")),
    "fig5": dict(rho=_log_spaced(0.01, 0.1, 10), r0=None,
                 metrics=("E_Psave", "baseline_Psave")),
}

FIGURE_PRESETS = tuple(_PRESETS)


def figure_preset(name: str,
                  fixed: ModelParams = CANONICAL) -> SweepGrid:
    """Premade grids reproducing the published parameter studies.

    fig2: E[X] against vehicle density for several relay ranges (the
    U-shape study).  fig3: conditional sleep time against relay range.
    fig4: power saved against density at r0 = 200 m.  fig5: power saved
    with relaying against the no-relaying baseline across density.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; "
                         f"choose from {sorted(FIGURE_PRESETS)}")
    preset = _PRESETS[name]
    return SweepGrid(rho_values=preset["rho"] or (fixed.rho,),
                     r0_values=preset["r0"] or (fixed.r0,),
                     fixed=fixed, metrics=preset["metrics"])
