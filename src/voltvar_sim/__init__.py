"""Local volt/VAR control simulator and analysis toolkit.

Simulates droop-based PV inverter var control on radial distribution
feeders: a backward/forward-sweep fixed-point power flow (tree arrays
on large radial islands, a dense Z-bus elsewhere) with Newton fallback and
voltage-sensitivity extraction, the conventional/delayed/adaptive inner
dispatch laws, the two-strategy outer parameter-adaptation loop,
closed-form stability and convergence analytics, and a scenario-driven
quasi-static time-series engine.
"""

from .adaptation import (AdaptationError, AdaptiveConfig, WindowStats, capacity_limits,
                         outer_loop_step, strategy1_update_qp, strategy2_update_slope,
                         window_stats)
from .analysis import (AnalysisError, ConvergenceReport, StabilityReport, outer_b_matrix,
                       predict_sse, required_dq, spectral_radius, stability_report)
from .codec import VoltVarError
from .control import (AdaptiveParams, ControlError, ControllerKind, DroopParams,
                      adaptive_dispatch, delayed_dispatch, droop_dispatch, slope_to_cutoffs)
from .feeder import (Bus, FeederError, FeederModel, Line, PowerFlowError, PowerFlowSolution,
                     PvUnit, apply_topology_event, feeder_from_dict, feeder_to_dict, load_feeder,
                     sensitivity_matrix, solve_power_flow)
from .presets import get_preset, list_presets, load_builtin_feeder, override_scenario
from .results import (MetricsReport, SimulationTrace, metrics, read_trace_csv,
                      write_params_csv, write_trace_csv)
from .scenario import (CloudCover, Intermittency, LoadScale, Scenario, SetpointChange,
                       SimulationError, SubstationVoltage, SwitchEvent, TelegraphSpec,
                       load_scenario, scenario_from_dict, scenario_to_dict)
from .sim import LinearizedFeeder, SimulationEngine, linearize, run

__version__ = "0.1.0"

__all__ = [
    "AdaptationError",
    "AdaptiveConfig",
    "AdaptiveParams",
    "AnalysisError",
    "Bus",
    "CloudCover",
    "ControlError",
    "ControllerKind",
    "ConvergenceReport",
    "DroopParams",
    "FeederError",
    "FeederModel",
    "Intermittency",
    "Line",
    "LinearizedFeeder",
    "LoadScale",
    "MetricsReport",
    "PowerFlowError",
    "PowerFlowSolution",
    "PvUnit",
    "Scenario",
    "SetpointChange",
    "SimulationEngine",
    "SimulationError",
    "SimulationTrace",
    "StabilityReport",
    "SubstationVoltage",
    "SwitchEvent",
    "TelegraphSpec",
    "VoltVarError",
    "WindowStats",
    "adaptive_dispatch",
    "apply_topology_event",
    "capacity_limits",
    "delayed_dispatch",
    "droop_dispatch",
    "feeder_from_dict",
    "feeder_to_dict",
    "get_preset",
    "linearize",
    "list_presets",
    "load_builtin_feeder",
    "load_feeder",
    "load_scenario",
    "metrics",
    "outer_b_matrix",
    "outer_loop_step",
    "override_scenario",
    "predict_sse",
    "read_trace_csv",
    "required_dq",
    "run",
    "scenario_from_dict",
    "scenario_to_dict",
    "sensitivity_matrix",
    "slope_to_cutoffs",
    "solve_power_flow",
    "spectral_radius",
    "stability_report",
    "strategy1_update_qp",
    "strategy2_update_slope",
    "window_stats",
    "write_params_csv",
    "write_trace_csv",
]
