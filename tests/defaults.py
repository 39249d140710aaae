"""The default plant's parameters, read from the scenario tables.

No component or generator has a default for a parameter a scenario key
feeds: ``scenario.BLOCK_TABLES`` and ``DOCUMENT_TABLE`` write each default
once.  A test that builds a component from the default plant's values
reads them here, from the empty document walked as every scenario is.
"""

from cemsim import GridPriced, PriceSchedule, context_records_for_jobs, scenario_from_dict
from cemsim.core import NS_PER_SECOND
from cemsim.scenario import _parameters, _synthetic_load

#: the empty document, validated: each block holds its table's defaults
DEFAULT_SCENARIO = scenario_from_dict({}, None)


def defaults(block: str, **overrides) -> dict:
    """The default ``block``'s keys without its kind, as ``build_bundle``
    passes a block to its component, with ``overrides`` applied."""
    return {**_parameters(getattr(DEFAULT_SCENARIO, block)), **overrides}


def default_grid(**overrides) -> GridPriced:
    """The priced grid of the default grid block, with ``overrides``
    applied: its tariff keys make the schedule, the rest are its limits."""
    grid = defaults("grid", **overrides)
    limits = {key: grid.pop(key) for key in ("max_active_power_w", "max_apparent_power_va")}
    return GridPriced(PriceSchedule(**grid), **limits)


def default_jobs(seed: int, day_count: int, **load) -> tuple:
    """The jobs the default load block, with the ``load`` keys applied,
    draws for ``day_count`` days from the default start with ``seed``."""
    return _synthetic_load(scenario_from_dict({"load": load}, None), seed, day_count).job_events


def default_announcements(jobs: tuple) -> tuple:
    """The default synthetic context block's announcements of ``jobs``."""
    lead_ns = int(DEFAULT_SCENARIO.context["announce_lead_hours"] * 3600) * NS_PER_SECOND
    return context_records_for_jobs(jobs, announce_lead_ns=lead_ns)
