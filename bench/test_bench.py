"""Tests of the benchmark's own code (not of sleepnet).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from checks import (OpResult, References, check_op,  # noqa: E402
                    correct_digits)
from workloads import Op, build_pass  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFS = References.load(HERE / "references.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- oracle -------------------------------------------------------------------


@pytest.mark.parametrize("rho,r0,D", [(0.01, 200.0, 300.0),
                                      (0.08, 400.0, 799.0),
                                      (0.005, 100.0, 150.0)])
def test_oracle_first_branch_is_linear(rho, r0, D):
    """On [r0, 2 r0) the corrected density is the constant lam."""
    lam = rho * math.exp(-rho * r0)
    assert oracle.gap_cdf(rho, r0, D) == pytest.approx(lam * (D - r0),
                                                       rel=1e-15)


def test_oracle_second_branch_and_limits():
    rho, r0, D = 0.02, 200.0, 500.0
    lam = rho * math.exp(-rho * r0)
    want = lam * (D - r0) - lam ** 2 * (D - 2 * r0) ** 2 / 2
    assert oracle.gap_cdf(rho, r0, D) == pytest.approx(want, rel=1e-14)
    assert oracle.gap_cdf(rho, r0, r0) == 0.0
    assert oracle.gap_cdf(rho, r0, r0, "paper") == 0.0
    assert oracle.expected_gap_corrected(0.01, 200.0) == pytest.approx(
        math.exp(2.0) / 0.01, rel=1e-15)


def test_oracle_paper_fidelity_first_branch():
    """Paper density on [r0, 2 r0): rho (1 - e^{-rho u}) / (e^{rho r0} - 1)
    with u = x - r0, integrated in closed form."""
    rho, r0, D = 0.01, 200.0, 350.0
    u = D - r0
    want = (u - (1 - math.exp(-rho * u)) / rho) * rho \
        / math.expm1(rho * r0)
    assert oracle.gap_cdf(rho, r0, D, "paper") == pytest.approx(want,
                                                                rel=1e-12)


# -- metric names and the contract of BENCHMARK.json --------------------------


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in SPEC[kind]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for kind in ("end_to_end", "per_layer"):
        for m in SPEC[kind]:
            assert UNIT_RE.match(m["unit"]), m
            assert m["better"] in ("higher", "lower"), m
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == ["figures", "cycles",
                                                      "timeline"]


def _analytic_op(tmp_path, perturb=None):
    """A fake `analytic --format json` output built from the references."""
    doc = {"fidelity": "corrected"}
    keys = {"E_X": "expected_gap_m", "prob_sleep": "prob_sleep",
            "E_Toff": "expected_sleep_time_s",
            "E_Psave": "expected_power_saved_W",
            "baseline_Psave": "baseline_power_saved_W"}
    for metric, key in keys.items():
        doc[key] = REFS.sources("corrected", 0.01, 200.0, metric)["program"]
    if perturb:
        doc[keys[perturb]] *= 1.0 + 1e-6
    path = tmp_path / "analytic.json"
    path.write_text(json.dumps(doc))
    return Op("analytic", ["analytic"], [path])


def test_end_to_end_metrics_match_spec(tmp_path):
    res = check_op(_analytic_op(tmp_path), 0, REFS)
    metrics = run.end_to_end({0: [(1.0, res)]}, setup_s=0.1)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(math.isfinite(v) for v in metrics.values()), metrics


def test_per_layer_metrics_match_spec():
    tr = tracer_mod.Tracer()
    probes = run.probe_metrics(tr)
    metrics = tracer_mod.layer_metrics(tr, [0])
    metrics.update(probes)
    metrics.update(run.monte_carlo_metrics([OpResult()]))
    metrics["trace.overhead_s"] = 0.0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


# -- checks -------------------------------------------------------------------


def test_clean_output_passes_and_scores_digits(tmp_path):
    res = check_op(_analytic_op(tmp_path), 0, REFS)
    assert res.failed == 0 and res.attempted == 11
    assert min(res.digits) > 9.0
    assert len(res.shortfall_digits) == 1


def test_planted_wrong_value_counts_in_failed_share(tmp_path):
    clean = check_op(_analytic_op(tmp_path), 0, REFS)
    planted = check_op(_analytic_op(tmp_path, perturb="E_Toff"), 0, REFS)
    assert planted.failed == 1 and planted.attempted == clean.attempted
    share = run.end_to_end({0: [(1.0, planted)]}, 0.1)["failed_share"]
    clean_share = run.end_to_end({0: [(1.0, clean)]}, 0.1)["failed_share"]
    assert share == pytest.approx(1.5 / (clean.attempted + 1))
    assert clean_share == pytest.approx(0.5 / (clean.attempted + 1))
    report = run.report(SPEC, {"failed_share": share}, False, [planted])
    assert report["correct"] is False and report["failed"] == 1


def _hetero_op(tmp_path, rel_error):
    """A fake heterogeneous timeline output for stored pool seed 0."""
    ref = REFS.timeline["heterogeneous"]["0"]
    doc = {"complete": True, "sim_duration_s": 1600.0,
           "processed_time_s": 1600.0, "n_cycles": 0,
           "n_transitions": ref["n_transitions"],
           "sleep_fraction": ref["sleep_fraction"] * (1.0 + rel_error)}
    path = tmp_path / "hetero.json"
    path.write_text(json.dumps(doc))
    return Op("hetero", ["simulate"], [path], {"seed": 0})


def test_timeline_digits_capped_at_tolerance(tmp_path):
    exact = check_op(_hetero_op(tmp_path, 0.0), 0, REFS)
    close = check_op(_hetero_op(tmp_path, 1e-11), 0, REFS)
    assert exact.failed == close.failed == 0
    assert exact.digits == close.digits == [9.0]


def test_cycles_road_time_ignores_the_estimate(tmp_path):
    meta = {"rho": 0.08, "r0": 400.0, "fidelity": "corrected", "n": 1000}
    sims = []
    for scale in (1.0, 1.01):
        doc = {"n_cycles": 1000}
        for metric, key in (("E_X", "expected_gap_m"),
                            ("prob_sleep", "prob_sleep"),
                            ("E_Toff", "expected_sleep_time_s"),
                            ("E_Psave", "expected_power_saved_W")):
            ref = REFS.best("corrected", 0.08, 400.0, metric)
            doc[key] = [ref * scale, abs(ref) * 0.01]
        path = tmp_path / "cycles.json"
        path.write_text(json.dumps(doc))
        sims.append(check_op(Op("cycles", ["simulate"], [path], meta), 0,
                             REFS).road_s)
    assert sims[0] == sims[1] > 0.0


def test_steadiness_gates_every_metric_spread():
    entry = {"name": "setup_s", "better": "lower", "bound": 0.25}
    row = run.judge(entry, [1.0, 1.0, 2.0, 2.0, 1.5],
                    [1.0, 2.0, 1.0, 2.0, 1.5])
    assert row["agree"] and not row["steady"]
    row = run.judge(entry, [1.0] * 7, [1.0, 1.3, 1.3])
    assert row["steady"] and not row["agree"]


def test_unexpected_exit_code_fails(tmp_path):
    op = _analytic_op(tmp_path)
    assert check_op(op, 3, REFS).failed == 1
    assert check_op(op, None, REFS).failed == 1


def test_malformed_output_fails(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"schema": "sleepnet-sweep/1"}))
    res = check_op(Op("sweep", ["sweep"], [path]), 0, REFS)
    assert res.failed == 1
    path.unlink()
    assert check_op(Op("sweep", ["sweep"], [path]), 0, REFS).failed == 1


def test_correct_digits():
    assert correct_digits(1.0, 1.0) == 15.0
    assert correct_digits(1.0 + 1e-6, 1.0) == pytest.approx(6.0, abs=1e-5)
    # F(D) from P{X>D} = 1 + 3.75e-12 against the oracle's 4.05e-13
    assert 0.0 < correct_digits(-3.75e-12, 4.05e-13) < 0.05


# -- workloads and tracing ----------------------------------------------------


def test_passes_are_functions_of_the_seed(tmp_path):
    for workload in ("figures", "cycles", "timeline"):
        first = [op.argv for op in build_pass(workload, 7, 1, tmp_path)]
        again = [op.argv for op in build_pass(workload, 7, 1, tmp_path)]
        other = [op.argv for op in build_pass(workload, 8, 1, tmp_path)]
        assert first == again
        assert first != other


def test_self_time_subtracts_children():
    tr = tracer_mod.Tracer()
    tr.names = ["outer", "inner"]
    tr.spans = [(0, 0, 1000, -1, 0), (1, 100, 400, 0, 0),
                (1, 500, 600, 0, 0)]
    table = tr.span_table()
    assert table[(0, "outer")]["self_s"] == pytest.approx(600e-9)
    assert table[(0, "inner")]["calls"] == 2


def test_tracer_restores_and_reports_missing_targets(monkeypatch):
    import sleepnet.simulate as simulate
    original = simulate.extract_clusters
    monkeypatch.delattr(simulate, "_next_event_time")
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert simulate.extract_clusters is not original
    finally:
        tr.uninstall()
    assert simulate.extract_clusters is original
    assert "simulate.next_event_time" in tr.missing
    metrics = tracer_mod.layer_metrics(tr, [0])
    assert "simulate.events" not in metrics
    assert "simulate.events_per_s" not in metrics
    assert "simulate.timeline_s" in metrics
