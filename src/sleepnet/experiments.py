"""Parameter sweeps over (rho, r0) grids, the analytic-vs-Monte-Carlo
validation report, and table serialization.

Cells are independent and rows come out in deterministic row-major
order.  A sweep evaluates its cells serially; validation cells can run in
a process pool of any size, each (cell, fidelity) pair on its own derived
random stream, so identical grids and seeds produce identical output
bytes whatever the pool size.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__ as _version
from .analytic import baseline_power_saved, energy_figures
from .params import CANONICAL, Fidelity, ModelParams
from .simulate import RngSpec, estimate_energy, sample_cycles

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

CSV_COLUMNS = ("rho", "r0", "D", "a", "b", "P0", "Ec",
               "fidelity", "metric", "value", "stderr", "status")
VALIDATION_EXTRA_COLUMNS = ("analytic", "z", "passed", "fidelity_gap")

JSON_SCHEMA = "sleepnet-sweep/1"

#: The EnergyFigures field behind each analytic metric but baseline_Psave;
#: EnergyEstimate names its Monte Carlo twin the same, with "_se" for the
#: standard error.
_FIELDS = {"E_X": "expected_gap", "E_Toff": "expected_sleep_time",
           "E_Psave": "expected_power_saved", "prob_sleep": "prob_sleep"}


@dataclass(frozen=True)
class SweepGrid:
    """A rectangular (rho, r0) grid around a fixed parameter template."""

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


def _cell_metrics(params: ModelParams,
                  metrics: Sequence[str]) -> List[Tuple[str, float, str]]:
    """(metric, value, status) triples for one cell; numeric and parameter
    failures (``ArithmeticError``, ``ValueError``) are recorded in-row and
    never propagate, while any other exception is a bug and does."""
    out = []
    figures = error = None
    if any(m != "baseline_Psave" for m in metrics):
        try:
            figures = energy_figures(params)
        except (ArithmeticError, ValueError) as exc:
            error = f"error: {exc}"
    for metric in metrics:
        if metric == "baseline_Psave":
            try:
                out.append((metric, baseline_power_saved(params), "ok"))
            except (ArithmeticError, ValueError) as exc:
                out.append((metric, math.nan, f"error: {exc}"))
            continue
        value = None if figures is None else getattr(figures, _FIELDS[metric])
        if value is None:   # figures failed, or E_Toff had no sleep
            out.append((metric, math.nan, error or "no sleep opportunity"))
        else:
            out.append((metric, value, "ok"))
    return out


def _sweep_cell(grid: SweepGrid, rho: float, r0: float) -> List[SweepRow]:
    params = grid.fixed.replace(rho=rho, r0=r0)
    return [SweepRow(rho=rho, r0=r0, D=params.D, a=params.a, b=params.b,
                     P0=params.P0, Ec=params.Ec,
                     fidelity=params.fidelity.value, metric=metric,
                     value=value, stderr=None, status=status)
            for metric, value, status in _cell_metrics(params, grid.metrics)]


def run_sweep(grid: SweepGrid) -> SweepTable:
    """Evaluate the analytic metrics on every grid cell.

    Rows are ordered row-major (rho outer, r0 inner) with the grid's
    metric order inside each cell; per-cell numeric failures are recorded
    in the status column and never abort the sweep.
    """
    rows = tuple(row for rho, r0 in grid.cells
                 for row in _sweep_cell(grid, rho, r0))
    meta = {
        "kind": "sweep",
        "fidelity": grid.fixed.fidelity.value,
        "metrics": list(grid.metrics),
        "version": _version,
    }
    return SweepTable(rows=rows, meta=meta)


def _validation_cell(args) -> List[ValidationRow]:
    grid, rho, r0, n_cycles, spec, stream_base, sampler_fidelity = args
    rows = []
    analytic: Dict[Tuple[str, str], float] = {}
    for fidelity in (Fidelity.PAPER, Fidelity.CORRECTED):
        params = grid.fixed.replace(rho=rho, r0=r0, fidelity=fidelity)
        for metric, value, status in _cell_metrics(params,
                                                   VALIDATION_METRICS):
            analytic[(fidelity.value, metric)] = value
    gaps = {}
    for metric in VALIDATION_METRICS:
        paper = analytic[("paper", metric)]
        corrected = analytic[("corrected", metric)]
        if math.isfinite(paper) and math.isfinite(corrected) and corrected:
            gaps[metric] = abs(paper - corrected) / abs(corrected)
        else:
            gaps[metric] = math.nan
    for offset, fidelity in enumerate((Fidelity.PAPER, Fidelity.CORRECTED)):
        params = grid.fixed.replace(rho=rho, r0=r0, fidelity=fidelity)
        rng = RngSpec(spec.master_seed, stream_base + offset)
        sampled = params.replace(fidelity=sampler_fidelity or fidelity)
        sums = sample_cycles(sampled, n_cycles, rng)
        est = estimate_energy(sums, params)
        for metric in VALIDATION_METRICS:
            value = getattr(est, _FIELDS[metric])
            stderr = getattr(est, _FIELDS[metric] + "_se")
            target = float(analytic[(fidelity.value, metric)])
            if value is None or stderr is None:
                value, stderr, z = math.nan, None, math.nan
                status = "no sleep opportunity"
            else:
                value, stderr, status = float(value), float(stderr), "ok"
                z = (value - target) / stderr if stderr > 0.0 else (
                    0.0 if value == target else math.inf)
            rows.append(ValidationRow(
                rho=rho, r0=r0, D=params.D, a=params.a, b=params.b,
                P0=params.P0, Ec=params.Ec, fidelity=fidelity.value,
                metric=metric, value=value, stderr=stderr, status=status,
                analytic=target, z=z,
                passed=bool(math.isfinite(z) and abs(z) <= 3.0),
                fidelity_gap=float(gaps[metric])))
    return rows


def run_validation(grid: SweepGrid, n_cycles: int,
                   rng: RngSpec,
                   workers: Optional[int] = None,
                   sampler_fidelity: Optional[Fidelity] = None
                   ) -> ValidationReport:
    """Cross-validate the analytic route against matched-fidelity Monte
    Carlo on every grid cell.

    For each cell and each of E_X, E_Toff, E_Psave, both fidelities are
    compared against a cycle sampler of the same fidelity; a comparison
    passes when |z| <= 3.  The fidelity_gap column reports the relative
    analytic difference between the two fidelities for the same metric.
    workers > 1 spreads the cells over that many processes.  Each
    (cell, fidelity) pair gets its own derived random stream, so the
    report is independent of the worker count.

    sampler_fidelity forces the Monte Carlo side to one fidelity for both
    comparisons (a deliberate-mismatch negative control); by default the
    sampler matches the analytic fidelity row by row.
    """
    if n_cycles < 10_000:
        raise ValueError(f"need n_cycles >= 10000, got {n_cycles}")
    if sampler_fidelity is not None:
        sampler_fidelity = Fidelity(sampler_fidelity)
    args_list = [(grid, rho, r0, n_cycles, rng, 2 * i, sampler_fidelity)
                 for i, (rho, r0) in enumerate(grid.cells)]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cell_rows = list(pool.map(_validation_cell, args_list))
    else:
        cell_rows = map(_validation_cell, args_list)
    rows = tuple(row for rows in cell_rows for row in rows)
    all_passed = all(row.passed for row in rows)
    meta = {
        "kind": "validation",
        "n_cycles": n_cycles,
        "master_seed": rng.master_seed,
        "version": _version,
    }
    if sampler_fidelity is not None:
        meta["sampler_fidelity"] = sampler_fidelity.value
    return ValidationReport(rows=rows, all_passed=all_passed, meta=meta)


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


def figure_preset(name: str,
                  fixed: ModelParams = CANONICAL) -> SweepGrid:
    """Premade grids reproducing the published parameter studies.

    fig2: E[X] against vehicle density for several relay ranges (the
    U-shape study).  fig3: conditional sleep time against relay range.
    fig4: power saved against density at r0 = 200 m.  fig5: power saved
    with relaying against the no-relaying baseline across density.
    """
    if name == "fig2":
        return SweepGrid(rho_values=_log_spaced(1e-3, 0.2, 25),
                         r0_values=(50.0, 100.0, 150.0, 200.0),
                         fixed=fixed, metrics=("E_X",))
    if name == "fig3":
        return SweepGrid(rho_values=(fixed.rho,),
                         r0_values=tuple(float(r)
                                         for r in range(50, 401, 25)),
                         fixed=fixed, metrics=("E_Toff",))
    if name == "fig4":
        return SweepGrid(rho_values=_log_spaced(1e-3, 0.1, 20),
                         r0_values=(200.0,),
                         fixed=fixed,
                         metrics=("E_Psave", "prob_sleep"))
    if name == "fig5":
        return SweepGrid(rho_values=_log_spaced(0.01, 0.1, 10),
                         r0_values=(fixed.r0,),
                         fixed=fixed,
                         metrics=("E_Psave", "baseline_Psave"))
    raise ValueError(f"unknown preset {name!r}; "
                     f"choose from {sorted(FIGURE_PRESETS)}")


FIGURE_PRESETS = ("fig2", "fig3", "fig4", "fig5")
