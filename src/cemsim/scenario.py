"""Scenario files: schema validation and simulation assembly.

A scenario is a JSON document choosing an implementation per component
(``synthetic`` | ``replay`` | ``linear`` ...), their parameter blocks, the
clock, the horizon, and the price schedule.  Unknown keys anywhere are
rejected so typos fail loudly, and referenced recording files must exist
before anything runs.

The same scenario can be assembled under different dispatch strategies:

* ``default``        - plain PV-first dispatch.
* ``mpc-perfect``    - receding-horizon purchases with oracle forecasts.
* ``mpc-context``    - forecasts from a predictor that reads context
                       records (announced jobs), trained on a separate
                       seeded scenario.
* ``mpc-nocontext``  - same, but the predictor only sees hour-of-day.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from .control import (
    ForecastWindow,
    MPCInverter,
    RecedingHorizonController,
)
from .core import (
    Clock,
    ConfigurationError,
    ContextRecord,
    NS_PER_SECOND,
    context_query,
)
from .engine import Simulator
from .forecast import (
    FAMILIES,
    EffortEstimator,
    Predictor,
    estimate_effort_heuristic,
    estimate_effort_remote,
    train_predictor,
)
from .models.battery import BatteryLinear, BatteryLinearConfig
from .models.grid import GridPriced, GridPricedConfig, PriceSchedule
from .models.inverter import InverterPVFirst, InverterPVFirstConfig
from .models.synthetic import (
    NS_PER_DAY,
    PriceTiers,
    ScriptedContext,
    SyntheticLoad,
    SyntheticPowerSource,
    SyntheticScenarioConfig,
    build_price_schedule,
    context_records_for_jobs,
    generate_job_events,
    load_power_at,
    pv_power_at,
    sample_series,
)
from .replay import (
    ReplayBattery,
    ReplayComponentConfig,
    ReplayGrid,
    ReplayLoad,
    ReplayPowerSource,
    TimeSeriesTable,
    ingest_context,
    ingest_timeseries,
)

STRATEGIES = ("default", "mpc-perfect", "mpc-context", "mpc-nocontext")

#: Seed offset separating the forecaster's training scenario from the
#: evaluated scenario, so predictors never see the data they are run on.
TRAIN_SEED_OFFSET = 1_000_003

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def _fail(where: str, message: str) -> None:
    raise ConfigurationError(f"{where}: {message}")


def _check_keys(block: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        _fail(where, f"unknown keys {unknown}; allowed: {sorted(allowed)}")


def _get(block: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in block:
        _fail(where, f"missing required key {key!r}")
    return block[key]


def _number(block: Mapping[str, Any], key: str, where: str, default=None, minimum=None, maximum=None, allow_none=False):
    value = block.get(key, default)
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"{key!r} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        _fail(where, f"{key!r} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(where, f"{key!r} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        _fail(where, f"{key!r} must be <= {maximum}, got {value!r}")
    return value


def _integer(block: Mapping[str, Any], key: str, where: str, default=None, minimum=None):
    value = block.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, f"{key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(where, f"{key!r} must be >= {minimum}, got {value!r}")
    return value


def _string(block: Mapping[str, Any], key: str, where: str, default=None, choices=None):
    value = block.get(key, default)
    if not isinstance(value, str):
        _fail(where, f"{key!r} must be a string, got {value!r}")
    if choices is not None and value not in choices:
        _fail(where, f"{key!r} must be one of {sorted(choices)}, got {value!r}")
    return value


def _resolve_file(block: Mapping[str, Any], key: str, where: str, base_dir: Path) -> Path:
    raw = _string(block, key, where)
    path = Path(raw)
    if not path.is_absolute():
        path = base_dir / path
    if not path.is_file():
        _fail(where, f"referenced file does not exist: {path}")
    return path


# ---------------------------------------------------------------------------
# Scenario model
# ---------------------------------------------------------------------------


_TOP_KEYS = {
    "schema_version",
    "seed",
    "start_epoch_seconds",
    "tick_resolution_ns",
    "horizon_seconds",
    "step_seconds",
    "output_dir",
    "pv",
    "load",
    "battery",
    "grid",
    "context",
    "inverter",
    "forecast",
}

_PV_KEYS = {
    "synthetic": {"kind", "peak_power_w", "noise_amplitude", "voltage", "sunrise_hour", "sunset_hour"},
    "replay": {"kind", "file", "subsystem_id", "boundary_tolerance_s"},
}
_LOAD_KEYS = {
    "synthetic": {"kind", "base_power_w", "noise_amplitude", "jobs_per_day", "watts_per_effort"},
    "replay": {"kind", "file", "subsystem_id", "boundary_tolerance_s"},
}
_BATTERY_KEYS = {
    "linear": {"kind", "capacity_j", "eta_charge", "eta_discharge", "nominal_voltage", "initial_soc"},
    "replay": {"kind", "file", "subsystem_id", "boundary_tolerance_s", "capacity_j"},
}
_GRID_KEYS = {
    "priced": {
        "kind",
        "off_peak_price",
        "peak_price",
        "peak_start_hour",
        "peak_end_hour",
        "max_active_power_w",
        "max_apparent_power_va",
    },
    "replay": {"kind", "file", "subsystem_id", "boundary_tolerance_s"},
}
_CONTEXT_KEYS = {
    "synthetic": {"kind", "announce_lead_hours"},
    "replay": {"kind", "file"},
    "none": {"kind"},
}
_INVERTER_KEYS = {
    "pv-first": {
        "kind",
        "eta_pv_to_batt",
        "eta_pv_to_load",
        "eta_batt_to_load",
        "max_charge_power_w",
        "max_discharge_power_w",
        "soc_min",
        "soc_max",
        "self_power_w",
    },
}
_FORECAST_KEYS = {
    "train_days",
    "train_fraction",
    "resamples",
    "families",
    "context_family",
    "effort_estimator",
}
_ESTIMATOR_KEYS = {
    "heuristic": {"kind"},
    "remote": {"kind", "url", "timeout_s"},
}


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: blocks are plain dicts with defaults filled."""

    seed: int
    start_ns: int
    tick_resolution: int
    horizon_seconds: int
    step_seconds: int
    pv: Mapping[str, Any]
    load: Mapping[str, Any]
    battery: Mapping[str, Any]
    grid: Mapping[str, Any]
    context: Mapping[str, Any]
    inverter: Mapping[str, Any]
    forecast: Mapping[str, Any]
    base_dir: Path
    output_dir: str | None = None

    @property
    def step_ticks(self) -> int:
        return self.step_seconds * NS_PER_SECOND // self.tick_resolution

    @property
    def total_ticks(self) -> int:
        return self.horizon_seconds * NS_PER_SECOND // self.tick_resolution

    @property
    def step_ns(self) -> int:
        return self.step_seconds * NS_PER_SECOND

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.horizon_seconds * NS_PER_SECOND

    @property
    def day_count(self) -> int:
        return max(1, -(-self.horizon_seconds // 86_400))


def _validated_block(block: Any, kinds: Mapping[str, set[str]], where: str, default_kind: str) -> dict:
    if block is None:
        block = {}
    if not isinstance(block, Mapping):
        _fail(where, f"must be an object, got {block!r}")
    kind = _string(block, "kind", where, default=default_kind, choices=set(kinds))
    _check_keys(block, kinds[kind], where)
    merged = dict(block)
    merged["kind"] = kind
    return merged


def scenario_from_dict(
    data: Mapping[str, Any],
    base_dir: Path,
    seed_override: int | None = None,
    step_seconds_override: int | None = None,
) -> Scenario:
    """Validate a parsed scenario document and fill in defaults."""
    if not isinstance(data, Mapping):
        raise ConfigurationError("scenario document must be a JSON object")
    _check_keys(data, _TOP_KEYS, "scenario")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        _fail("scenario", f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")

    seed = _integer(data, "seed", "scenario", default=0)
    if seed_override is not None:
        seed = seed_override
    start_seconds = _integer(data, "start_epoch_seconds", "scenario", default=0, minimum=0)
    tick_resolution = _integer(data, "tick_resolution_ns", "scenario", default=NS_PER_SECOND, minimum=1)
    horizon_seconds = _integer(data, "horizon_seconds", "scenario", default=86_400, minimum=1)
    step_seconds = _integer(data, "step_seconds", "scenario", default=120, minimum=1)
    if step_seconds_override is not None:
        step_seconds = step_seconds_override
        if not isinstance(step_seconds, int) or step_seconds < 1:
            _fail("scenario", f"step_seconds override must be a positive integer, got {step_seconds!r}")
    if (step_seconds * NS_PER_SECOND) % tick_resolution != 0:
        _fail("scenario", f"step_seconds {step_seconds} is not a whole number of {tick_resolution} ns ticks")
    if (horizon_seconds * NS_PER_SECOND) % tick_resolution != 0:
        _fail("scenario", f"horizon_seconds {horizon_seconds} is not a whole number of ticks")

    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        _fail("scenario", f"'output_dir' must be a string, got {output_dir!r}")

    pv = _validated_block(data.get("pv"), _PV_KEYS, "pv", "synthetic")
    load = _validated_block(data.get("load"), _LOAD_KEYS, "load", "synthetic")
    battery = _validated_block(data.get("battery"), _BATTERY_KEYS, "battery", "linear")
    grid = _validated_block(data.get("grid"), _GRID_KEYS, "grid", "priced")
    default_context = "synthetic" if load["kind"] == "synthetic" else "none"
    context = _validated_block(data.get("context"), _CONTEXT_KEYS, "context", default_context)
    inverter = _validated_block(data.get("inverter"), _INVERTER_KEYS, "inverter", "pv-first")

    forecast = data.get("forecast") or {}
    if not isinstance(forecast, Mapping):
        _fail("forecast", f"must be an object, got {forecast!r}")
    _check_keys(forecast, _FORECAST_KEYS, "forecast")
    forecast = dict(forecast)
    forecast["train_days"] = _integer(forecast, "train_days", "forecast", default=3, minimum=1)
    forecast["train_fraction"] = _number(forecast, "train_fraction", "forecast", default=0.7)
    if not 0.0 < forecast["train_fraction"] < 1.0:
        _fail("forecast", f"'train_fraction' must be in (0, 1), got {forecast['train_fraction']}")
    forecast["resamples"] = _integer(forecast, "resamples", "forecast", default=5, minimum=1)
    families = forecast.get("families", list(FAMILIES))
    if not isinstance(families, list) or not families:
        _fail("forecast", f"'families' must be a non-empty list, got {families!r}")
    for family in families:
        if family not in FAMILIES:
            _fail("forecast", f"unknown family {family!r}; known: {list(FAMILIES)}")
    forecast["families"] = list(families)
    forecast["context_family"] = _string(
        forecast, "context_family", "forecast", default="combined", choices=set(FAMILIES) - {"none"}
    )
    estimator = _validated_block(
        forecast.get("effort_estimator"), _ESTIMATOR_KEYS, "forecast.effort_estimator", "heuristic"
    )
    if estimator["kind"] == "remote":
        _string(estimator, "url", "forecast.effort_estimator")
        _number(estimator, "timeout_s", "forecast.effort_estimator", default=10.0, minimum=0.0)
    forecast["effort_estimator"] = estimator

    # Numeric sanity for the blocks, writing defaults back so the stored
    # blocks are complete (component configs re-validate, but failing here
    # yields config errors with scenario-level context).
    if pv["kind"] == "synthetic":
        pv["peak_power_w"] = _number(pv, "peak_power_w", "pv", default=600.0, minimum=0.0)
        pv["noise_amplitude"] = _number(pv, "noise_amplitude", "pv", default=0.1, minimum=0.0, maximum=1.0)
        pv["voltage"] = _number(pv, "voltage", "pv", default=400.0, minimum=1e-9)
        pv["sunrise_hour"] = _number(pv, "sunrise_hour", "pv", default=6.0, minimum=0.0, maximum=24.0)
        pv["sunset_hour"] = _number(pv, "sunset_hour", "pv", default=18.0, minimum=0.0, maximum=24.0)
    if load["kind"] == "synthetic":
        load["base_power_w"] = _number(load, "base_power_w", "load", default=800.0, minimum=0.0)
        load["noise_amplitude"] = _number(load, "noise_amplitude", "load", default=0.0, minimum=0.0, maximum=1.0)
        load["jobs_per_day"] = _integer(load, "jobs_per_day", "load", default=2, minimum=0)
        load["watts_per_effort"] = _number(load, "watts_per_effort", "load", default=250.0, minimum=0.0)
    if battery["kind"] == "linear":
        battery["capacity_j"] = _number(battery, "capacity_j", "battery", default=1.8432e7, minimum=1e-9)
        battery["eta_charge"] = _number(battery, "eta_charge", "battery", default=0.95, minimum=1e-9, maximum=1.0)
        battery["eta_discharge"] = _number(battery, "eta_discharge", "battery", default=0.95, minimum=1e-9, maximum=1.0)
        battery["nominal_voltage"] = _number(battery, "nominal_voltage", "battery", default=51.2, minimum=1e-9)
        battery["initial_soc"] = _number(battery, "initial_soc", "battery", default=0.5, minimum=0.0, maximum=1.0)
    if battery["kind"] == "replay":
        battery["capacity_j"] = _number(battery, "capacity_j", "battery", default=1.8432e7, minimum=1e-9)
    if grid["kind"] == "priced":
        grid["off_peak_price"] = _number(grid, "off_peak_price", "grid", default=0.10, minimum=0.0)
        grid["peak_price"] = _number(grid, "peak_price", "grid", default=0.40, minimum=0.0)
        grid["peak_start_hour"] = _integer(grid, "peak_start_hour", "grid", default=8, minimum=0)
        grid["peak_end_hour"] = _integer(grid, "peak_end_hour", "grid", default=20, minimum=0)
        grid["max_active_power_w"] = _number(grid, "max_active_power_w", "grid", default=None, minimum=0.0, allow_none=True)
        grid["max_apparent_power_va"] = _number(grid, "max_apparent_power_va", "grid", default=None, minimum=0.0, allow_none=True)
    if context["kind"] == "synthetic":
        context["announce_lead_hours"] = _number(context, "announce_lead_hours", "context", default=10.0, minimum=0.0)
        if load["kind"] != "synthetic":
            _fail("context", "synthetic context needs a synthetic load (it announces its jobs)")
    for name, block in (("pv", pv), ("load", load), ("battery", battery), ("grid", grid), ("context", context)):
        if block["kind"] == "replay":
            block["file"] = str(_resolve_file(block, "file", name, base_dir))
            if name != "context":
                block["subsystem_id"] = _integer(block, "subsystem_id", name, default=_DEFAULT_SUBSYSTEM[name])
                block["boundary_tolerance_s"] = _number(block, "boundary_tolerance_s", name, default=120.0, minimum=0.0)
    if inverter["kind"] == "pv-first":
        inverter["eta_pv_to_batt"] = _number(inverter, "eta_pv_to_batt", "inverter", default=0.97, minimum=1e-9, maximum=1.0)
        inverter["eta_pv_to_load"] = _number(inverter, "eta_pv_to_load", "inverter", default=0.95, minimum=1e-9, maximum=1.0)
        inverter["eta_batt_to_load"] = _number(inverter, "eta_batt_to_load", "inverter", default=0.95, minimum=1e-9, maximum=1.0)
        inverter["max_charge_power_w"] = _number(inverter, "max_charge_power_w", "inverter", default=None, minimum=0.0, allow_none=True)
        inverter["max_discharge_power_w"] = _number(inverter, "max_discharge_power_w", "inverter", default=None, minimum=0.0, allow_none=True)
        inverter["soc_min"] = _number(inverter, "soc_min", "inverter", default=0.1, minimum=0.0, maximum=1.0)
        inverter["soc_max"] = _number(inverter, "soc_max", "inverter", default=1.0, minimum=0.0, maximum=1.0)
        inverter["self_power_w"] = _number(inverter, "self_power_w", "inverter", default=0.0, minimum=0.0)

    return Scenario(
        seed=seed,
        start_ns=start_seconds * NS_PER_SECOND,
        tick_resolution=tick_resolution,
        horizon_seconds=horizon_seconds,
        step_seconds=step_seconds,
        pv=pv,
        load=load,
        battery=battery,
        grid=grid,
        context=context,
        inverter=inverter,
        forecast=forecast,
        base_dir=base_dir,
        output_dir=output_dir,
    )


_DEFAULT_SUBSYSTEM = {"pv": 1, "load": 2, "battery": 3, "grid": 4}


def load_scenario(
    path,
    seed_override: int | None = None,
    step_seconds_override: int | None = None,
) -> Scenario:
    """Read, parse and validate a scenario JSON file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"scenario file does not exist: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data, path.parent, seed_override, step_seconds_override)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def synthetic_config(scenario: Scenario) -> SyntheticScenarioConfig:
    """The generator settings implied by the scenario's synthetic blocks."""
    if scenario.pv["kind"] != "synthetic" or scenario.load["kind"] != "synthetic":
        raise ConfigurationError("scenario has no synthetic pv+load pair")
    return _generator_config(scenario)


def _generator_config(scenario: Scenario) -> SyntheticScenarioConfig | None:
    """Generator settings when at least one of pv/load is synthetic.

    A replay side keeps the generator defaults; its series is never
    sampled, so the values are inert."""
    pv = scenario.pv if scenario.pv["kind"] == "synthetic" else {}
    load = scenario.load if scenario.load["kind"] == "synthetic" else {}
    if not pv and not load:
        return None
    jobs: tuple = ()
    if load:
        jobs = generate_job_events(
            scenario.seed,
            scenario.day_count,
            start_ns=scenario.start_ns,
            jobs_per_day=load.get("jobs_per_day", 2),
            watts_per_effort=load.get("watts_per_effort", 250.0),
        )
    return SyntheticScenarioConfig(
        seed=scenario.seed,
        day_count=scenario.day_count,
        pv_peak_power=pv.get("peak_power_w", 600.0),
        pv_noise_amplitude=pv.get("noise_amplitude", 0.1),
        base_load=load.get("base_power_w", 800.0),
        job_events=jobs,
        load_noise_amplitude=load.get("noise_amplitude", 0.0),
        pv_voltage=pv.get("voltage", 400.0),
        sunrise_hour=pv.get("sunrise_hour", 6.0),
        sunset_hour=pv.get("sunset_hour", 18.0),
    )


def price_schedule(scenario: Scenario) -> PriceSchedule | None:
    """The priced grid block's two-tier schedule over the horizon's days."""
    if scenario.grid["kind"] != "priced":
        return None
    grid = scenario.grid
    tiers = PriceTiers(
        off_peak_price=grid.get("off_peak_price", 0.10),
        peak_price=grid.get("peak_price", 0.40),
        peak_start_hour=grid.get("peak_start_hour", 8),
        peak_end_hour=grid.get("peak_end_hour", 20),
    )
    return build_price_schedule(tiers, scenario.start_ns, scenario.day_count)


def effort_estimator(scenario: Scenario) -> EffortEstimator:
    """The scenario's effort estimator, memoized per record text.

    Training and the forecast provider of one bundle share the returned
    callable, so each distinct job text is scored once (one POST for a
    remote estimator) however many samples and windows read it.
    """
    spec = scenario.forecast["effort_estimator"]
    if spec["kind"] == "heuristic":
        estimate = estimate_effort_heuristic
    else:
        url = spec["url"]
        timeout_s = spec.get("timeout_s", 10.0)

        def estimate(text: str) -> float:
            return estimate_effort_remote(text, url, timeout_s)

    return functools.lru_cache(maxsize=None)(estimate)


@dataclass
class SimulationBundle:
    """Everything a runner needs: the simulator plus scenario artifacts."""

    scenario: Scenario
    strategy: str
    simulator: Simulator
    records: tuple[ContextRecord, ...]
    schedule: PriceSchedule | None
    synthetic: SyntheticScenarioConfig | None
    controller: RecedingHorizonController | None


def _replay_config(block: Mapping[str, Any], tables: dict[str, TimeSeriesTable], capacity_j=None) -> ReplayComponentConfig:
    file = block["file"]
    if file not in tables:
        tables[file] = ingest_timeseries(file)
    return ReplayComponentConfig(
        table=tables[file],
        subsystem_id=block.get("subsystem_id", 1),
        boundary_tolerance_s=block.get("boundary_tolerance_s", 120.0),
        battery_capacity_j=capacity_j,
    )


def _inverter_config(scenario: Scenario) -> InverterPVFirstConfig:
    inv = scenario.inverter
    battery = scenario.battery
    capacity = battery.get("capacity_j", 1.8432e7)
    if battery["kind"] == "linear":
        eta_c = battery.get("eta_charge", 0.95)
        eta_d = battery.get("eta_discharge", 0.95)
    else:
        eta_c = eta_d = 1.0
    max_charge = inv.get("max_charge_power_w")
    max_discharge = inv.get("max_discharge_power_w")
    return InverterPVFirstConfig(
        eta_pv_to_batt=inv.get("eta_pv_to_batt", 0.97),
        eta_pv_to_load=inv.get("eta_pv_to_load", 0.95),
        eta_batt_to_load=inv.get("eta_batt_to_load", 0.95),
        max_charge_power=math.inf if max_charge is None else max_charge,
        max_discharge_power=math.inf if max_discharge is None else max_discharge,
        soc_min=inv.get("soc_min", 0.1),
        soc_max=inv.get("soc_max", 1.0),
        self_power=inv.get("self_power_w", 0.0),
        battery_capacity=capacity,
        battery_eta_charge=eta_c,
        battery_eta_discharge=eta_d,
    )


class _DayForecast:
    """Rest-of-day forecast series, computed once and handed out as slices.

    The ``compute(now_ns, count)`` given to :meth:`window` returns the
    (loads, pvs, prices) of the ``count`` steps from ``now_ns`` to the
    planning bound: the earlier of the next day boundary and the horizon
    end.  Each value depends only on its step's time (and ``key``), never
    on ``now_ns``, so a later ``now`` on the same step grid gets a
    bitwise-equal slice of the cached series.

    Cache key: (planning bound, ``key``).  The series is recomputed from
    ``now`` when the bound moves (a new day), when ``key`` changes, or when
    ``now`` is not a whole number of steps after the cached start.
    """

    def __init__(self, end_ns: int, step_seconds: int) -> None:
        self._end_ns = end_ns
        self._step_seconds = float(step_seconds)
        self._step_ns = step_seconds * NS_PER_SECOND
        self._key: tuple | None = None
        self._start_ns = 0
        self._series: tuple = ((), (), ())

    def window(self, now_ns: int, key: object, compute: Callable[[int, int], tuple]) -> ForecastWindow | None:
        step_ns = self._step_ns
        bound = min((now_ns // NS_PER_DAY + 1) * NS_PER_DAY, self._end_ns)
        count = (bound - now_ns) // step_ns
        if count < 1:
            return None
        offset, misaligned = divmod(now_ns - self._start_ns, step_ns)
        if (bound, key) != self._key or offset < 0 or misaligned:
            self._series = compute(now_ns, count)
            self._key = (bound, key)
            self._start_ns = now_ns
            offset = 0
        loads, pvs, prices = self._series
        end = offset + count
        return ForecastWindow(self._step_seconds, loads[offset:end], pvs[offset:end], prices[offset:end])


def perfect_forecast_provider(
    config: SyntheticScenarioConfig,
    schedule: PriceSchedule,
    end_ns: int,
    step_seconds: int,
) -> Callable[[int], ForecastWindow | None]:
    """Oracle forecasts: the realized series itself, planned to day's end.

    The series is sampled once per planning day (see :class:`_DayForecast`).
    """

    def compute(now_ns: int, count: int) -> tuple:
        loads, pvs = sample_series(config, now_ns, float(step_seconds), count)
        prices = schedule.prices_for_window(now_ns, float(step_seconds), count)
        return tuple(loads), tuple(pvs), tuple(prices)

    day = _DayForecast(end_ns, step_seconds)
    return lambda now_ns: day.window(now_ns, None, compute)


def predictor_forecast_provider(
    predictor: Predictor,
    records: tuple[ContextRecord, ...],
    config: SyntheticScenarioConfig,
    schedule: PriceSchedule,
    end_ns: int,
    step_seconds: int,
    effort_fn: EffortEstimator = estimate_effort_heuristic,
) -> Callable[[int], ForecastWindow | None]:
    """Model forecasts: predicted load, oracle PV, scheduled prices.

    Load predictions at each future step use only context records already
    recorded at decision time; negative predictions clamp to zero.

    The series is cached per planning day and per known-record set: the
    cache key holds the identities of the records ``context_query`` returns
    at ``now``, so the series is recomputed from ``now`` whenever a record
    becomes known or expires.  A prediction depends only on its step's time
    and the known records, so a slice of the cached series is bitwise the
    series a fresh computation at ``now`` would give.
    """
    step_ns = step_seconds * NS_PER_SECOND

    def compute(known: list[ContextRecord], now_ns: int, count: int) -> tuple:
        times = [now_ns + i * step_ns for i in range(1, count + 1)]
        loads = tuple(max(predictor.predict(known, t, effort_fn), 0.0) for t in times)
        pvs = tuple(pv_power_at(config, t) for t in times)
        prices = schedule.prices_for_window(now_ns, float(step_seconds), count)
        return loads, pvs, tuple(prices)

    day = _DayForecast(end_ns, step_seconds)

    def provider(now_ns: int) -> ForecastWindow | None:
        known = context_query(records, now_ns)
        return day.window(now_ns, tuple(map(id, known)), lambda start, count: compute(known, start, count))

    return provider


def training_series(
    scenario: Scenario,
) -> tuple[tuple[ContextRecord, ...], list[int], list[float]]:
    """Load samples from a derived-seed scenario for predictor training.

    The training world shares the scenario's generator settings but runs
    on seed + TRAIN_SEED_OFFSET with its own jobs, so the fitted model
    has never seen the evaluated timeline.
    """
    base = synthetic_config(scenario)
    train_days = scenario.forecast["train_days"]
    train_seed = scenario.seed + TRAIN_SEED_OFFSET
    jobs = generate_job_events(
        train_seed,
        train_days,
        start_ns=scenario.start_ns,
        jobs_per_day=scenario.load.get("jobs_per_day", 2),
        watts_per_effort=scenario.load.get("watts_per_effort", 250.0),
    )
    config = replace(base, seed=train_seed, day_count=train_days, job_events=jobs)
    records = context_records_for_jobs(jobs)
    step_ns = scenario.step_ns
    count = train_days * NS_PER_DAY // step_ns
    times = [scenario.start_ns + (i + 1) * step_ns for i in range(count)]
    loads = [load_power_at(config, t) for t in times]
    return records, times, loads


def build_bundle(scenario: Scenario, strategy: str = "default") -> SimulationBundle:
    """Assemble a ready-to-run simulator for one scenario and strategy."""
    if strategy not in STRATEGIES:
        raise ConfigurationError(f"unknown strategy {strategy!r}; known: {list(STRATEGIES)}")
    clock = Clock(scenario.start_ns, scenario.tick_resolution)
    tables: dict[str, TimeSeriesTable] = {}
    # full config only when both sides are synthetic (the MPC strategies
    # need that); a partial one still drives a lone synthetic component
    generator = _generator_config(scenario)
    synthetic = (
        generator
        if scenario.pv["kind"] == "synthetic" and scenario.load["kind"] == "synthetic"
        else None
    )
    schedule = price_schedule(scenario)

    if scenario.pv["kind"] == "synthetic":
        pv = SyntheticPowerSource(clock, generator)
    else:
        config = _replay_config(scenario.pv, tables)
        pv = ReplayPowerSource(clock, config)

    if scenario.load["kind"] == "synthetic":
        load = SyntheticLoad(clock, generator)
    else:
        load = ReplayLoad(clock, _replay_config(scenario.load, tables))

    if scenario.battery["kind"] == "linear":
        battery = BatteryLinear(
            clock,
            BatteryLinearConfig(
                capacity_j=scenario.battery.get("capacity_j", 1.8432e7),
                eta_charge=scenario.battery.get("eta_charge", 0.95),
                eta_discharge=scenario.battery.get("eta_discharge", 0.95),
                nominal_voltage=scenario.battery.get("nominal_voltage", 51.2),
                initial_soc=scenario.battery.get("initial_soc", 0.5),
            ),
        )
    else:
        battery = ReplayBattery(
            clock,
            _replay_config(scenario.battery, tables, capacity_j=scenario.battery.get("capacity_j", 1.8432e7)),
        )

    if scenario.grid["kind"] == "priced":
        grid = GridPriced(
            clock,
            GridPricedConfig(
                schedule=schedule,
                active_power_limit=scenario.grid.get("max_active_power_w"),
                apparent_power_limit=scenario.grid.get("max_apparent_power_va"),
            ),
        )
    else:
        grid = ReplayGrid(clock, _replay_config(scenario.grid, tables))

    # generated announcements and recorded notes play back the same way
    records: tuple[ContextRecord, ...] = ()
    if scenario.context["kind"] == "synthetic":
        lead_ns = int(scenario.context.get("announce_lead_hours", 10.0) * 3600) * NS_PER_SECOND
        records = context_records_for_jobs(generator.job_events, announce_lead_ns=lead_ns)
    elif scenario.context["kind"] == "replay":
        records = ingest_context(scenario.context["file"])
    context = None if scenario.context["kind"] == "none" else ScriptedContext(clock, records)

    inverter_config = _inverter_config(scenario)
    controller: RecedingHorizonController | None = None
    if strategy == "default":
        inverter = InverterPVFirst(clock, inverter_config)
    else:
        if synthetic is None:
            raise ConfigurationError(f"strategy {strategy!r} needs synthetic pv and load blocks")
        if schedule is None:
            raise ConfigurationError(f"strategy {strategy!r} needs a priced grid")
        if scenario.battery["kind"] != "linear":
            raise ConfigurationError(f"strategy {strategy!r} needs a linear battery model")
        if NS_PER_DAY % scenario.step_ns != 0:
            raise ConfigurationError("mpc strategies need step_seconds to divide one day evenly")
        if (scenario.horizon_seconds * NS_PER_SECOND) % scenario.step_ns != 0:
            raise ConfigurationError("mpc strategies need step_seconds to divide the horizon evenly")
        if strategy == "mpc-perfect":
            provider = perfect_forecast_provider(
                synthetic, schedule, scenario.end_ns, scenario.step_seconds
            )
        else:
            family = "none" if strategy == "mpc-nocontext" else scenario.forecast["context_family"]
            effort_fn = effort_estimator(scenario)
            train_records, train_times, train_loads = training_series(scenario)
            predictor = train_predictor(
                train_records,
                train_times,
                train_loads,
                family,
                effort_fn=effort_fn,
                allow_ridge=True,
            )
            provider = predictor_forecast_provider(
                predictor,
                records,
                synthetic,
                schedule,
                scenario.end_ns,
                scenario.step_seconds,
                effort_fn,
            )
        controller = RecedingHorizonController(
            capacity_j=scenario.battery.get("capacity_j", 1.8432e7),
            soc_min=inverter_config.soc_min,
            soc_max=inverter_config.soc_max,
            forecast_provider=provider,
            max_grid_power_w=scenario.grid.get("max_active_power_w"),
        )
        inverter = MPCInverter(clock, inverter_config, controller)

    simulator = Simulator(
        clock,
        power_source=pv,
        load=load,
        battery=battery,
        inverter=inverter,
        grid=grid,
        context=context,
    )
    return SimulationBundle(
        scenario=scenario,
        strategy=strategy,
        simulator=simulator,
        records=records,
        schedule=schedule,
        synthetic=synthetic,
        controller=controller,
    )
