"""Base-station sleep-mode energy model for a 1-D multi-hop vehicular
network: closed-form distribution analysis, independent Monte Carlo and
event-driven simulators, and experiment sweeps."""

from .analytic import (ChGapDistribution, EnergyFigures,
                       baseline_power_saved, ch_gap_pdf, energy_figures,
                       expected_ch_gap)
from .numerics import QuadratureError
from .params import (CANONICAL, KMH, Fidelity, ModelParams, ParamError,
                     parse_speed)

__version__ = "0.1.0"

__all__ = [
    # closed-form gap law and energy figures
    "ChGapDistribution", "EnergyFigures", "baseline_power_saved",
    "ch_gap_pdf", "energy_figures", "expected_ch_gap", "QuadratureError",
    # parameters
    "CANONICAL", "KMH", "Fidelity", "ModelParams", "ParamError",
    "parse_speed",
    # renewal-cycle Monte Carlo and timelines
    "EnergyEstimate", "RngSpec", "TimelineReport", "estimate_energy",
    "run_timeline", "sample_cycles",
    # sweeps and validation
    "FIGURE_PRESETS", "METRICS", "SweepGrid", "SweepRow", "SweepTable",
    "ValidationReport", "ValidationRow", "emit_table", "figure_preset",
    "run_sweep", "run_validation",
]

from .simulate import (EnergyEstimate, RngSpec, TimelineReport,
                       estimate_energy, run_timeline, sample_cycles)
from .experiments import (FIGURE_PRESETS, METRICS, SweepGrid, SweepRow,
                          SweepTable, ValidationReport, ValidationRow,
                          emit_table, figure_preset, run_sweep,
                          run_validation)
