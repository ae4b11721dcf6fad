import csv
import io
import json
import math

import pytest

from sleepnet.analytic import energy_figures
from sleepnet.experiments import (CSV_COLUMNS, FIGURE_PRESETS, JSON_SCHEMA,
                                  METRICS, VALIDATION_EXTRA_COLUMNS,
                                  SweepGrid, emit_table, figure_preset,
                                  run_sweep, run_validation)
from sleepnet.params import CANONICAL
from sleepnet.simulate import RngSpec

SMALL_GRID = SweepGrid(rho_values=(0.01, 0.02), r0_values=(100.0, 200.0))


class TestSweepGrid:
    def test_cells_row_major(self):
        assert SMALL_GRID.cells == [(0.01, 100.0), (0.01, 200.0),
                                    (0.02, 100.0), (0.02, 200.0)]

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            SweepGrid(rho_values=(), r0_values=(100.0,))
        with pytest.raises(ValueError):
            SweepGrid(rho_values=(0.01,), r0_values=())

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            SweepGrid(rho_values=(0.01,), r0_values=(100.0,),
                      metrics=("E_X", "entropy"))

    def test_validates_cells_eagerly(self):
        with pytest.raises(Exception):
            SweepGrid(rho_values=(-0.01,), r0_values=(100.0,))


class TestRunSweep:
    def test_row_count_and_order(self):
        table = run_sweep(SMALL_GRID)
        assert len(table.rows) == 4 * len(SMALL_GRID.metrics)
        cells = [(row.rho, row.r0) for row in table.rows[::3]]
        assert cells == SMALL_GRID.cells
        assert [row.metric for row in table.rows[:3]] \
            == list(SMALL_GRID.metrics)

    def test_values_match_direct_evaluation(self):
        table = run_sweep(SweepGrid(rho_values=(0.01,), r0_values=(200.0,)))
        figures = energy_figures(CANONICAL)
        by_metric = {row.metric: row for row in table.rows}
        assert by_metric["E_X"].value == figures.expected_gap
        assert by_metric["E_Toff"].value == figures.expected_sleep_time
        assert by_metric["E_Psave"].value == figures.expected_power_saved
        assert all(row.status == "ok" for row in table.rows)

    def test_no_sleep_cell_recorded_not_raised(self):
        grid = SweepGrid(rho_values=(0.01,), r0_values=(200.0,),
                         fixed=CANONICAL.replace(D=1e9))
        table = run_sweep(grid)
        by_metric = {row.metric: row for row in table.rows}
        assert by_metric["E_Toff"].status == "no sleep opportunity"
        assert math.isnan(by_metric["E_Toff"].value)
        assert by_metric["E_X"].status == "ok"

    def test_meta_has_no_timestamps(self):
        table = run_sweep(SweepGrid(rho_values=(0.01,), r0_values=(200.0,)))
        assert table.meta["kind"] == "sweep"
        assert not any("time" in key or "date" in key for key in table.meta)


class TestEmitTable:
    def test_csv_header_and_roundtrip(self):
        table = run_sweep(SMALL_GRID)
        text = emit_table(table, format="csv").decode("utf-8")
        reader = csv.DictReader(io.StringIO(text))
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        parsed = list(reader)
        assert len(parsed) == len(table.rows)
        for record, row in zip(parsed, table.rows):
            assert float(record["value"]) == row.value
            assert record["stderr"] == ""

    def test_csv_deterministic(self):
        a = emit_table(run_sweep(SMALL_GRID), format="csv")
        b = emit_table(run_sweep(SMALL_GRID), format="csv")
        assert a == b

    def test_json_schema_and_nan_handling(self):
        grid = SweepGrid(rho_values=(0.01,), r0_values=(200.0,),
                         fixed=CANONICAL.replace(D=1e9))
        doc = json.loads(emit_table(run_sweep(grid), format="json"))
        assert doc["schema"] == JSON_SCHEMA
        toff = [r for r in doc["rows"] if r["metric"] == "E_Toff"][0]
        assert toff["value"] is None
        assert toff["status"] == "no sleep opportunity"

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table(run_sweep(SMALL_GRID), format="xml")


class TestRunValidation:
    def test_matched_fidelities_pass(self):
        grid = SweepGrid(rho_values=(0.01, 0.02), r0_values=(200.0,))
        report = run_validation(grid, 20_000, RngSpec(42))
        assert report.all_passed
        assert len(report.rows) == 2 * 2 * 3
        for row in report.rows:
            assert row.status == "ok"
            assert abs(row.z) <= 3.0
            assert row.fidelity_gap >= 0.0

    def test_worker_count_invariance(self):
        grid = SweepGrid(rho_values=(0.01, 0.02), r0_values=(200.0,))
        serial = run_validation(grid, 10_000, RngSpec(7), workers=None)
        pooled = run_validation(grid, 10_000, RngSpec(7), workers=2)
        assert serial.rows == pooled.rows

    def test_mismatch_negative_control_fails(self):
        # the sampler is pinned to one model variant while the analytic
        # side alternates, so the other variant's rows must blow past 3 SE
        grid = SweepGrid(rho_values=(0.005,), r0_values=(200.0,))
        report = run_validation(grid, 50_000, RngSpec(11),
                                sampler_fidelity="corrected")
        assert not report.all_passed
        paper_ex = [row for row in report.rows
                    if row.fidelity == "paper" and row.metric == "E_X"][0]
        assert not paper_ex.passed
        corrected = [row for row in report.rows
                     if row.fidelity == "corrected"]
        assert all(row.passed for row in corrected)
        assert report.meta["sampler_fidelity"] == "corrected"

    def test_requires_enough_cycles(self):
        grid = SweepGrid(rho_values=(0.01,), r0_values=(200.0,))
        with pytest.raises(ValueError):
            run_validation(grid, 9_999, RngSpec(0))

    def test_validation_csv_has_extra_columns(self):
        grid = SweepGrid(rho_values=(0.01,), r0_values=(200.0,))
        report = run_validation(grid, 10_000, RngSpec(3))
        text = emit_table(report, format="csv").decode("utf-8")
        reader = csv.DictReader(io.StringIO(text))
        assert tuple(reader.fieldnames) \
            == CSV_COLUMNS + VALIDATION_EXTRA_COLUMNS
        record = next(reader)
        assert record["passed"] in ("true", "false")

    def test_validation_json_reports_verdict(self):
        grid = SweepGrid(rho_values=(0.01,), r0_values=(200.0,))
        report = run_validation(grid, 10_000, RngSpec(3))
        doc = json.loads(emit_table(report, format="json"))
        assert doc["all_passed"] is True
        assert doc["meta"]["master_seed"] == 3


class TestFigurePresets:
    def test_all_presets_build(self):
        for name in FIGURE_PRESETS:
            grid = figure_preset(name)
            assert grid.rho_values and grid.r0_values
            assert set(grid.metrics) <= set(METRICS)

    def test_fig2_shape(self):
        grid = figure_preset("fig2")
        assert len(grid.rho_values) == 25
        assert grid.r0_values == (50.0, 100.0, 150.0, 200.0)
        assert grid.metrics == ("E_X",)

    def test_fig5_pairs_relaying_with_baseline(self):
        grid = figure_preset("fig5")
        assert grid.metrics == ("E_Psave", "baseline_Psave")

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            figure_preset("fig9")
