"""cemsim: a component-based microgrid digital twin.

Simulates a small energy system (PV array, battery, hybrid inverter,
priced grid connection, household/lab load) in discrete steps on an
integer-nanosecond clock.  On top of the simulator sit replayable
recordings, context-aware load forecasting, and a receding-horizon
controller that buys grid energy when it is cheap.

The package exports its names lazily (PEP 562): ``import cemsim`` loads
no submodule, and ``cemsim.X`` imports the module defining ``X`` on
first use and returns that module's ``X``.  Every ``cemsim`` command is a
fresh process, so importing ``cemsim.cli`` or ``cemsim.scenario`` loads
only the layers they import, not the planner a PV-first run never steps.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The names each defining module exports at package level.
_EXPORTS = {
    "core": (
        "Battery",
        "BatteryMode",
        "BatteryStepInput",
        "BatteryStepResult",
        "CompensatedSum",
        "ConfigurationError",
        "Context",
        "ContextIndex",
        "ContextRecord",
        "Grid",
        "GridStepInput",
        "GridStepResult",
        "Inverter",
        "InverterStepInput",
        "InverterStepResult",
        "Load",
        "LoadStepResult",
        "PowerSource",
        "PowerSourceStepResult",
        "SimulationError",
        "SystemComponent",
        "context_query",
        "grid_energy_cost",
    ),
    "control": (
        "ChargingPlan",
        "ChargingProblem",
        "ControlDecision",
        "ForecastWindow",
        "InfeasibleProblemError",
        "MPCInverter",
        "RecedingHorizonController",
        "solve_charging",
    ),
    "engine": (
        "MAXIMA_KEYS",
        "Aggregates",
        "ComponentStepError",
        "Simulator",
        "SimulatorStepOutput",
        "run",
    ),
    "forecast": (
        "FAMILIES",
        "NUMERIC_FIELD_CATALOG",
        "Predictor",
        "RemoteEstimatorError",
        "build_features",
        "estimate_effort_heuristic",
        "estimate_effort_remote",
        "evaluate_families",
        "feature_names",
        "fit_least_squares",
        "rmse",
        "train_predictor",
    ),
    "models.battery": ("BatteryLinear",),
    "models.grid": ("GridPriced", "PriceSchedule"),
    "models.inverter": ("InverterPVFirst",),
    "models.synthetic": (
        "ScriptedContext",
        "SyntheticLoad",
        "SyntheticPowerSource",
        "context_records_for_jobs",
        "generate_job_events",
        "unit_noise",
    ),
    "replay": (
        "Channel",
        "IngestError",
        "ReplayBattery",
        "ReplayGrid",
        "ReplayLoad",
        "ReplayPowerSource",
        "TimeSeriesRangeError",
        "TimeSeriesTable",
        "emit_context",
        "ingest_context",
        "ingest_timeseries",
        "interpolate",
    ),
    "scenario": (
        "STRATEGIES",
        "Scenario",
        "SimulationBundle",
        "build_bundle",
        "load_scenario",
        "scenario_from_dict",
    ),
}

_SUBMODULES = ("cli", "control", "core", "engine", "forecast", "models", "replay", "scenario")

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Not cached: cemsim.X is always the defining module's current X.
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
