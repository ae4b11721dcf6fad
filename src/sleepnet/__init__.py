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

from .simulate import (ClusterSet, CycleBatch, EnergyEstimate, RngSpec,
                       Snapshot, TimelineReport, WindowTooSmallError,
                       ch_gap_samples, estimate_energy, extract_clusters,
                       run_timeline, sample_cycles, sample_snapshot)
from .experiments import (FIGURE_PRESETS, METRICS, SweepGrid, SweepRow,
                          SweepTable, ValidationReport, ValidationRow,
                          emit_table, figure_preset, run_sweep,
                          run_validation)
