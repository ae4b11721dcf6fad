import sleepnet
from sleepnet import simulate

#: The package's public names.  Changing this list changes the API.
PUBLIC = [
    "CANONICAL", "ChGapDistribution", "EnergyEstimate", "EnergyFigures",
    "FIGURE_PRESETS", "Fidelity", "KMH", "METRICS", "ModelParams",
    "ParamError", "QuadratureError", "RngSpec", "SweepGrid", "SweepRow",
    "SweepTable", "TimelineReport", "ValidationReport", "ValidationRow",
    "baseline_power_saved", "ch_gap_pdf",
    "emit_table", "energy_figures", "estimate_energy", "expected_ch_gap",
    "figure_preset", "parse_speed", "run_sweep", "run_timeline",
    "run_validation", "sample_cycles",
]

#: ``sleepnet.simulate``'s public names: the two Monte Carlo routes.
SIMULATE_PUBLIC = [
    "CycleSums", "EnergyEstimate", "RngSpec", "TimelineReport",
    "estimate_energy", "run_timeline", "sample_cycles",
]


def test_public_api_is_pinned_and_resolves():
    assert sorted(sleepnet.__all__) == PUBLIC
    assert len(set(sleepnet.__all__)) == len(PUBLIC) == 30
    for name in sleepnet.__all__:
        assert getattr(sleepnet, name) is not None, name


def test_simulate_api_is_pinned_and_resolves():
    assert sorted(simulate.__all__) == SIMULATE_PUBLIC
    assert len(set(simulate.__all__)) == len(SIMULATE_PUBLIC) == 7
    for name in simulate.__all__:
        assert getattr(simulate, name) is not None, name
