"""Concrete component models: linear battery, PV-first inverter, priced
grid, and the seeded synthetic scenario generator."""

from .battery import BatteryLinear, BatteryLinearConfig, battery_linear_step
from .grid import (
    GridPriced,
    GridPricedConfig,
    PriceSchedule,
    grid_priced_step,
)
from .inverter import InverterPVFirst, InverterPVFirstConfig, inverter_pv_first_step
from .synthetic import (
    JOB_TEMPLATES,
    JobEvent,
    PriceTiers,
    ScriptedContext,
    SyntheticLoad,
    SyntheticPowerSource,
    SyntheticScenarioConfig,
    build_price_schedule,
    context_records_for_jobs,
    generate_job_events,
    hour_of_day,
    load_power_at,
    pv_power_at,
    unit_noise,
)

__all__ = [
    "BatteryLinear",
    "BatteryLinearConfig",
    "battery_linear_step",
    "GridPriced",
    "GridPricedConfig",
    "PriceSchedule",
    "grid_priced_step",
    "InverterPVFirst",
    "InverterPVFirstConfig",
    "inverter_pv_first_step",
    "JOB_TEMPLATES",
    "JobEvent",
    "PriceTiers",
    "ScriptedContext",
    "SyntheticLoad",
    "SyntheticPowerSource",
    "SyntheticScenarioConfig",
    "build_price_schedule",
    "context_records_for_jobs",
    "generate_job_events",
    "hour_of_day",
    "load_power_at",
    "pv_power_at",
    "unit_noise",
]
