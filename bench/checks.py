"""Output checks against the stored references, and the accuracy measures
derived from them.

Every checked output value is one attempted operation; so is every exit
code.  An operation fails when the exit code is unexpected, a row status
is not ``ok``, or a value falls outside its tolerance of a reference.
Monte Carlo estimates additionally yield a z-score against the analytic
reference; z-scores are measurements, not pass/fail checks, because at
the specified sample sizes whether |z| exceeds 3 changes from seed to
seed (see README.md).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from workloads import MEAN_INV_SPEED, Op

#: Digits reported for an exact match, and for a workload whose outputs
#: include no value of the kind measured.
DIGITS_CAP = 15.0

#: Metric name in references -> key in `simulate --format json` output.
SIM_KEYS = {"E_X": "expected_gap_m", "prob_sleep": "prob_sleep",
            "E_Toff": "expected_sleep_time_s",
            "E_Psave": "expected_power_saved_W"}
ANALYTIC_KEYS = dict(SIM_KEYS, baseline_Psave="baseline_power_saved_W")
DIGIT_METRICS = ("E_X", "prob_sleep", "E_Toff", "E_Psave")
CANONICAL_CELL = (0.01, 200.0)


def correct_digits(value: float, reference: float) -> float:
    """Correct significant digits of value, log10(1 + |ref| / |err|),
    capped at DIGITS_CAP.

    This equals -log10(relative error) to within 5e-4 once the error is
    below 1e-3 relative, and stays positive (tending to 0) as the error
    grows past the reference, so a value with no correct digit reads
    close to 0 rather than negative.
    """
    err = abs(value - reference)
    if err == 0.0:
        return DIGITS_CAP
    if reference == 0.0 or not math.isfinite(err):
        return 0.0
    return min(DIGITS_CAP, math.log10(1.0 + abs(reference) / err))


def ref_key(fidelity: str, rho: float, r0: float, metric: str) -> str:
    return f"{fidelity}|{float(rho)!r}|{float(r0)!r}|{metric}"


class References:
    """The stored reference document (see make_references.py)."""

    def __init__(self, doc: Dict):
        self.analytic: Dict[str, Dict[str, float]] = doc["analytic"]
        self.timeline: Dict[str, Dict[str, Dict]] = doc["timeline"]
        tol = doc["tolerances"]
        self.analytic_rel = tol["analytic_rel"]
        self.timeline_rel = tol["timeline_rel"]
        self.mc_gross_rel = tol["mc_gross_rel"]
        self.mc_gross_z = tol["mc_gross_z"]

    @classmethod
    def load(cls, path: Path) -> "References":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def sources(self, fidelity, rho, r0, metric) -> Dict[str, float]:
        """Every stored reference for one output, by source."""
        found = dict(self.analytic.get(ref_key(fidelity, rho, r0, metric),
                                       {}))
        if metric == "prob_sleep":
            cdf = self.analytic.get(ref_key(fidelity, rho, r0, "F_D"))
            if cdf is not None:
                found["oracle"] = 1.0 - cdf["oracle"]
        return found

    def best(self, fidelity, rho, r0, metric) -> Optional[float]:
        """The most independent reference: identity, then oracle, then
        the program's own output at the seed commit."""
        found = self.sources(fidelity, rho, r0, metric)
        for source in ("identity", "oracle", "program"):
            if source in found:
                return found[source]
        return None

    def cdf(self, fidelity, rho, r0) -> Optional[float]:
        entry = self.analytic.get(ref_key(fidelity, rho, r0, "F_D"))
        return None if entry is None else entry["oracle"]


@dataclass
class OpResult:
    """Checks and counts from one CLI call."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digits: List[float] = field(default_factory=list)
    shortfall_digits: List[float] = field(default_factory=list)
    abs_z: List[float] = field(default_factory=list)
    rel_se_psave: List[float] = field(default_factory=list)
    cells: int = 0
    cycles: int = 0
    #: simulated seconds of an event-loop run
    sim_s: Optional[float] = None
    #: road time the sampled renewal cycles span (see road_seconds)
    road_s: float = 0.0

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    @property
    def z_failed(self) -> int:
        return sum(1 for z in self.abs_z if not z <= 3.0)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_analytic_value(res: OpResult, refs: References, fidelity: str,
                         rho: float, r0: float, metric: str, value,
                         status: str = "ok") -> None:
    """A deterministic analytic output against every stored reference."""
    where = ref_key(fidelity, rho, r0, metric)
    if not res.check(status == "ok" and _finite(value),
                     f"{where}: status {status!r}, value {value!r}"):
        return
    found = refs.sources(fidelity, rho, r0, metric)
    bad = {src: ref for src, ref in found.items()
           if abs(value - ref) > refs.analytic_rel * abs(ref)}
    if not res.check(bool(found) and not bad,
                     f"{where}: {value!r} vs references {found!r}"):
        return
    if metric in DIGIT_METRICS:
        res.digits.append(correct_digits(value, refs.best(
            fidelity, rho, r0, metric)))
    if metric == "prob_sleep":
        cdf = refs.cdf(fidelity, rho, r0)
        if cdf is not None:
            res.shortfall_digits.append(correct_digits(1.0 - value, cdf))


def check_mc_value(res: OpResult, refs: References, fidelity: str,
                   rho: float, r0: float, metric: str, value, stderr,
                   n: int) -> None:
    """A Monte Carlo estimate: its z-score against the reference, and a
    gross-error gate that fails only when the estimate is both far off
    in relative terms and far off in standard errors."""
    where = ref_key(fidelity, rho, r0, metric)
    ref = refs.best(fidelity, rho, r0, metric)
    if not res.check(ref is not None and _finite(value),
                     f"{where}: value {value!r}, reference {ref!r}"):
        return
    if metric == "prob_sleep":
        # score test: the binomial standard error under the reference p,
        # which stays informative when every cycle sleeps (p-hat = 1)
        stderr = math.sqrt(max(ref * (1.0 - ref), 0.0) / n)
    if stderr is not None and stderr > 0.0:
        z = (value - ref) / stderr
    else:
        z = 0.0 if value == ref else math.inf
    res.abs_z.append(abs(z))
    res.check(abs(value - ref) <= refs.mc_gross_rel * abs(ref)
              or abs(z) <= refs.mc_gross_z,
              f"{where}: {value!r} is more than {refs.mc_gross_rel:.0%} "
              f"and {refs.mc_gross_z:g} standard errors from {ref!r}")


def _load(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_table_rows(res: OpResult, refs: References, rows) -> None:
    for row in rows:
        check_analytic_value(res, refs, row["fidelity"], row["rho"],
                             row["r0"], row["metric"], row["value"],
                             row["status"])
    res.cells += len({(r["rho"], r["r0"], r["fidelity"]) for r in rows})


def check_op(op: Op, code: Optional[int], refs: References) -> OpResult:
    """Check one finished CLI call; code is None if it raised."""
    res = OpResult()
    expected = (0, 1) if op.kind == "validate" else (0,)
    if not res.check(code in expected,
                     f"{op.kind}: exit code {code!r}, expected {expected}"):
        return res
    try:
        docs = [_load(path) for path in op.outputs]
    except (OSError, ValueError) as exc:
        res.check(False, f"{op.kind}: unreadable output: {exc}")
        return res
    try:
        _CHECKERS[op.kind](res, op, code, docs, refs)
    except (KeyError, TypeError, ValueError) as exc:
        res.check(False, f"{op.kind}: malformed output: {exc!r}")
    return res


def _analytic(res, op, code, docs, refs):
    doc = docs[0]
    rho, r0 = CANONICAL_CELL
    for metric, key in ANALYTIC_KEYS.items():
        check_analytic_value(res, refs, doc.get("fidelity"), rho, r0,
                             metric, doc.get(key))
    res.cells += 1


def _sweep(res, op, code, docs, refs):
    for doc in docs:
        _check_table_rows(res, refs, doc["rows"])


def _validate(res, op, code, docs, refs):
    doc = docs[0]
    res.check(code == (0 if doc["all_passed"] else 1),
              f"validate: exit code {code} but all_passed="
              f"{doc['all_passed']}")
    n = doc["meta"]["n_cycles"]
    for row in doc["rows"]:
        fidelity, rho, r0, metric = (row["fidelity"], row["rho"], row["r0"],
                                     row["metric"])
        check_analytic_value(res, refs, fidelity, rho, r0, metric,
                             row["analytic"], row["status"])
        check_mc_value(res, refs, fidelity, rho, r0, metric, row["value"],
                       row["stderr"], n)
        if metric == "E_X":
            res.road_s += road_seconds(refs, fidelity, rho, r0, n)
        if metric == "E_Psave" and _finite(row["value"]) and row["value"]:
            res.rel_se_psave.append(abs(row["stderr"] / row["value"]))
    cells = {(r["rho"], r["r0"], r["fidelity"]) for r in doc["rows"]}
    res.cells += len(cells)
    res.cycles += n * len(cells)


def _cycles(res, op, code, docs, refs):
    doc = docs[0]
    meta = op.meta
    n = meta["n"]
    res.check(doc.get("n_cycles") == n,
              f"cycles: n_cycles {doc.get('n_cycles')!r}, expected {n}")
    for metric, key in SIM_KEYS.items():
        value, stderr = doc[key]
        check_mc_value(res, refs, meta["fidelity"], meta["rho"], meta["r0"],
                       metric, value, stderr, n)
    psave, psave_se = doc["expected_power_saved_W"]
    if _finite(psave) and psave:
        res.rel_se_psave.append(abs(psave_se / psave))
    res.cells += 1
    res.cycles += n
    res.road_s = road_seconds(refs, meta["fidelity"], meta["rho"],
                              meta["r0"], n)


def road_seconds(refs: References, fidelity: str, rho: float, r0: float,
                 n: int) -> float:
    """Road time n renewal cycles span, n * E[X] * E[1/V], from the
    reference E[X]: a fixed weight per cell, whatever the estimate."""
    return n * refs.best(fidelity, rho, r0, "E_X") * MEAN_INV_SPEED


def _check_timeline(res, doc, ref, label, rel):
    """A seeded timeline run against its stored output.  Its digits are
    capped at the tolerance, -log10(rel): the reference is the program's
    own earlier output, so agreement beyond the tolerance means nothing
    and a reordering of floating-point work inside it reads as no change.
    """
    cap = -math.log10(rel)
    res.check(doc.get("n_transitions") == ref["n_transitions"],
              f"{label}: n_transitions {doc.get('n_transitions')!r}, "
              f"reference {ref['n_transitions']}")
    for key in ("sleep_fraction", "cycle_mean_power_saved_W"):
        if key not in ref:
            continue
        value, want = doc.get(key), ref[key]
        ok = _finite(value) and abs(value - want) <= rel * abs(want)
        if res.check(ok, f"{label}: {key} {value!r}, reference {want!r}"):
            res.digits.append(min(cap, correct_digits(value, want)))


def _hetero(res, op, code, docs, refs):
    doc = docs[0]
    seed = op.meta["seed"]
    ref = refs.timeline["heterogeneous"][str(seed)]
    duration = float(doc.get("sim_duration_s", math.nan))
    res.check(doc.get("complete") is True
              and doc.get("processed_time_s") == duration,
              f"heterogeneous seed {seed}: incomplete run {doc!r}")
    _check_timeline(res, doc, ref, f"heterogeneous seed {seed}",
                    refs.timeline_rel)
    res.cells += 1
    res.cycles += int(doc.get("n_cycles") or 0)
    res.sim_s = doc.get("processed_time_s") or 0.0


def _common(res, op, code, docs, refs):
    doc = docs[0]
    seed = op.meta["seed"]
    ref = refs.timeline["common"][str(seed)]
    res.check(doc.get("n_cycles") == ref["n_cycles"],
              f"common seed {seed}: n_cycles {doc.get('n_cycles')!r}, "
              f"reference {ref['n_cycles']}")
    _check_timeline(res, doc, ref, f"common seed {seed}", refs.timeline_rel)
    rho, r0 = CANONICAL_CELL
    psave, psave_se = (doc.get("cycle_mean_power_saved_W"),
                       doc.get("cycle_mean_power_se_W"))
    # the common speed equals the canonical mean speed, so the per-cycle
    # mean power estimates the canonical E[P_save]
    check_mc_value(res, refs, "corrected", rho, r0, "E_Psave", psave,
                   psave_se, doc.get("n_cycles"))
    if _finite(psave) and _finite(psave_se) and psave:
        res.rel_se_psave.append(abs(psave_se / psave))
    res.cells += 1
    res.cycles += int(doc.get("n_cycles") or 0)


_CHECKERS = {"analytic": _analytic, "sweep": _sweep, "presets": _sweep,
             "validate": _validate, "cycles": _cycles, "hetero": _hetero,
             "common": _common}
