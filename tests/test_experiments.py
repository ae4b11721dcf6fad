import csv
import io
import json
import math

import pytest

from sleepnet import analytic, experiments, simulate
from sleepnet.analytic import energy_figures, expected_ch_gap
from sleepnet.experiments import (CSV_COLUMNS, FIGURE_PRESETS, JSON_SCHEMA,
                                  METRICS, VALIDATION_EXTRA_COLUMNS,
                                  SweepGrid, emit_table, figure_preset,
                                  run_sweep, run_validation)
from sleepnet.params import CANONICAL
from sleepnet.simulate import RngSpec, estimate_energy, sample_cycles

SMALL_GRID = SweepGrid(rho_values=(0.01, 0.02), r0_values=(100.0, 200.0))

#: rho r0 = 1 at (0.005, 200) and (1, 1); D <= r0 at r0 = 1000; D past
#: the truncation point x_max at r0 = 1; rho r0 = 1000 past RHO_R0_LIMIT;
#: and cells from rho r0 = 0.005 to 500.
MIXED_AXES = dict(rho_values=(0.005, 0.5, 1.0),
                  r0_values=(1.0, 200.0, 1000.0))


def _data_lines(table) -> list:
    return emit_table(table, format="csv").decode("utf-8").splitlines()[1:]


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

    def test_programming_errors_propagate(self, monkeypatch):
        # only numeric and parameter failures become error rows
        def broken(cells):
            raise TypeError("a bug, not a numeric failure")

        monkeypatch.setattr(experiments, "grid_energy_figures", broken)
        with pytest.raises(TypeError, match="a bug"):
            run_sweep(SweepGrid(rho_values=(0.01,), r0_values=(200.0,)))

    def test_bug_inside_the_batch_propagates(self, monkeypatch):
        # the batch evaluates its cells again one by one on a numeric
        # failure only; a bug in the density is not one
        def broken(x, law, laws):
            raise TypeError("a bug in the density")

        monkeypatch.setattr(analytic, "_laws_pdf", broken)
        with pytest.raises(TypeError, match="a bug"):
            run_sweep(SMALL_GRID)

    @pytest.mark.parametrize("fidelity", ["corrected", "paper"])
    def test_cell_rows_independent_of_the_grid(self, fidelity):
        # one batch for the grid gives each cell exactly the rows it
        # gives alone, failures and no-sleep cells included
        fixed = CANONICAL.replace(fidelity=fidelity)
        grid = SweepGrid(**MIXED_AXES, fixed=fixed, metrics=METRICS)
        table = run_sweep(grid)
        alone = [line for rho, r0 in grid.cells
                 for line in _data_lines(run_sweep(SweepGrid(
                     rho_values=(rho,), r0_values=(r0,), fixed=fixed,
                     metrics=METRICS)))]
        assert _data_lines(table) == alone
        assert {row.status.split(":")[0] for row in table.rows} \
            == {"ok", "no sleep opportunity", "error"}

    def test_closed_form_metrics_build_no_law(self, monkeypatch):
        # E_X and baseline_Psave are closed form: fig2 and a grid of
        # both, past RHO_R0_LIMIT too, never reach the gap-law batch
        def refuse(cells):
            raise AssertionError("built a gap law")

        monkeypatch.setattr(experiments, "grid_energy_figures", refuse)
        assert all(row.status == "ok"
                   for row in run_sweep(figure_preset("fig2")).rows)
        table = run_sweep(SweepGrid(**MIXED_AXES,
                                    metrics=("E_X", "baseline_Psave")))
        assert [row.status.split(":")[0] for row in table.rows].count(
            "error") == 1

    def test_e_x_row_keeps_its_value_when_the_law_fails(self):
        # at rho r0 = 695 the law's panel edges overflow, but E[X] is a
        # finite closed form
        table = run_sweep(SweepGrid(rho_values=(1e-5,), r0_values=(6.95e7,)))
        by_metric = {row.metric: row for row in table.rows}
        assert by_metric["E_X"].status == "ok"
        assert by_metric["E_X"].value == expected_ch_gap(
            CANONICAL.replace(rho=1e-5, r0=6.95e7))
        assert "panel edges" in by_metric["E_Psave"].status

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
        report = run_validation(grid, 20_000, 42)
        assert report.all_passed
        assert len(report.rows) == 2 * 2 * 3
        for row in report.rows:
            assert row.status == "ok"
            assert abs(row.z) <= 3.0
            assert row.fidelity_gap >= 0.0

    def test_cells_draw_in_one_batch(self, monkeypatch):
        # every cell's blocks go to the sampler in one call, cell i on
        # stream 2 i, with the bits of one sample_cycles call per cell
        # that both fidelities' rows estimate from
        grid = SweepGrid(rho_values=(0.01, 0.02), r0_values=(100.0, 200.0))
        batches, run = [], simulate._run_cycles

        def record(plans):
            batches.append(len(plans))
            return run(plans)

        monkeypatch.setattr(experiments, "_run_cycles", record)
        report = run_validation(grid, 10_000, 9)
        assert batches == [4]
        for j, (rho, r0) in enumerate(grid.cells):
            for k, fidelity in enumerate(("paper", "corrected")):
                params = CANONICAL.replace(rho=rho, r0=r0, fidelity=fidelity)
                est = estimate_energy(
                    sample_cycles(params, 10_000, RngSpec(9, 2 * j)),
                    params)
                row = report.rows[6 * j + 3 * k]
                assert (row.rho, row.r0, row.fidelity, row.metric) \
                    == (rho, r0, fidelity, "E_X")
                assert row.value == est.expected_gap

    def test_cell_past_the_sampler_limit_gets_error_rows(self):
        # rho r0 = 60 is past the sampler's limit: that cell's rows say so
        # and fail, and the other cell's rows are those it gets alone
        grid = SweepGrid(rho_values=(0.02, 0.2), r0_values=(300.0,))
        report = run_validation(grid, 10_000, 7)
        assert not report.all_passed
        alone = run_validation(SweepGrid(rho_values=(0.02,),
                                         r0_values=(300.0,)),
                               10_000, 7)
        assert report.rows[:6] == alone.rows
        for row in report.rows[6:]:
            assert row.status.startswith("error: rho*r0 = 60.0")
            assert "sampler" in row.status
            assert math.isnan(row.value) and math.isnan(row.z)
            assert row.stderr is None and not row.passed
            assert math.isfinite(row.analytic)

    def test_mismatch_negative_control_fails(self):
        # validate's draw of the (0.005, 200) cell, estimated under the
        # corrected law and held against the paper law's closed form,
        # must blow past 3 SE; validate's own corrected rows, which
        # estimate the same draw, pass
        paper = CANONICAL.replace(rho=0.005, r0=200.0, fidelity="paper")
        corrected = paper.replace(fidelity="corrected")
        est = estimate_energy(
            sample_cycles(paper, 50_000, RngSpec(11, 0)), corrected)
        z = (est.expected_gap - expected_ch_gap(paper)) / est.expected_gap_se
        assert abs(z) > 3.0
        grid = SweepGrid(rho_values=(0.005,), r0_values=(200.0,))
        rows = [row for row in run_validation(grid, 50_000, 11).rows
                if row.fidelity == "corrected"]
        assert [row.metric for row in rows] == ["E_X", "E_Toff", "E_Psave"]
        assert [row.value for row in rows] == [
            est.expected_gap, est.expected_sleep_time,
            est.expected_power_saved]
        assert all(row.passed for row in rows)

    def test_requires_enough_cycles(self):
        grid = SweepGrid(rho_values=(0.01,), r0_values=(200.0,))
        with pytest.raises(ValueError):
            run_validation(grid, 9_999, 0)

    def test_validation_csv_has_extra_columns(self):
        grid = SweepGrid(rho_values=(0.01,), r0_values=(200.0,))
        report = run_validation(grid, 10_000, 3)
        text = emit_table(report, format="csv").decode("utf-8")
        reader = csv.DictReader(io.StringIO(text))
        assert tuple(reader.fieldnames) \
            == CSV_COLUMNS + VALIDATION_EXTRA_COLUMNS
        record = next(reader)
        assert record["passed"] in ("true", "false")

    def test_validation_json_reports_verdict(self):
        grid = SweepGrid(rho_values=(0.01,), r0_values=(200.0,))
        report = run_validation(grid, 10_000, 3)
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
