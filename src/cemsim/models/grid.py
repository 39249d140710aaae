"""Priced one-way grid connection.

The grid delivers what was requested up to configurable per-step limits
and meters the cost of the delivered active energy against a
piecewise-constant price schedule.  Requests beyond a limit are clamped
and flagged rather than failing the step, so a run always completes and
the violation is visible in the results.

:class:`GridPricedConfig` and :class:`PriceSchedule`, which every step
reads, are :class:`~cemsim.core.SlotRecord` classes, not dataclasses, so
building a grid imports no :mod:`dataclasses`.
"""

from __future__ import annotations

import bisect

from ..core import (
    NS_PER_SECOND,
    ConfigurationError,
    Grid,
    GridStepInput,
    GridStepResult,
    SlotRecord,
    _require,
    grid_energy_cost,
)


class PriceSchedule(SlotRecord):
    """Piecewise-constant price over time.

    ``breakpoints`` is a sequence of (start_ns, price_per_kwh): the price
    holds from its start until the next breakpoint (right-open).  Lookups
    before the first breakpoint are a configuration error, not zero.
    ``_starts`` and ``_prices`` are its two columns, for :func:`bisect`.
    """

    _fields = ("breakpoints",)
    __slots__ = ("breakpoints", "_starts", "_prices")

    def __init__(self, breakpoints: tuple[tuple[int, float], ...]) -> None:
        _require(len(breakpoints) >= 1, "PriceSchedule needs at least one breakpoint")
        previous = None
        for start_ns, price in breakpoints:
            _require(isinstance(start_ns, int), "breakpoint start must be int nanoseconds")
            _require(price >= 0.0, f"price must be >= 0, got {price!r}")
            if previous is not None:
                _require(start_ns > previous, "breakpoint starts must be strictly increasing")
            previous = start_ns
        breakpoints = tuple((int(s), float(p)) for s, p in breakpoints)
        self._set_slots(breakpoints, tuple(s for s, _ in breakpoints), tuple(p for _, p in breakpoints))

    def price_at(self, when_ns: int) -> float:
        index = bisect.bisect_right(self._starts, when_ns) - 1
        if index < 0:
            raise ConfigurationError(
                f"price lookup at {when_ns} ns precedes the first breakpoint "
                f"({self._starts[0]} ns)"
            )
        return self._prices[index]

    def prices_for_window(self, start_ns: int, step_ns: int, count: int) -> list[float]:
        """Per-step prices for ``count`` steps, sampled at each step's start."""
        return [self.price_at(start_ns + i * step_ns) for i in range(count)]


class GridPricedConfig(SlotRecord):
    """Price schedule plus optional per-step delivery limits (W / VA)."""

    _fields = ("schedule", "active_power_limit", "apparent_power_limit")
    __slots__ = _fields

    def __init__(
        self,
        schedule: PriceSchedule,
        active_power_limit: float | None = None,
        apparent_power_limit: float | None = None,
    ) -> None:
        if active_power_limit is not None:
            _require(active_power_limit >= 0.0, "active_power_limit must be >= 0")
        if apparent_power_limit is not None:
            _require(apparent_power_limit >= 0.0, "apparent_power_limit must be >= 0")
        self._set_slots(schedule, active_power_limit, apparent_power_limit)


def grid_priced_step(
    grid_input: GridStepInput,
    config: GridPricedConfig,
    now_ns: int,
    dt_s: float,
) -> GridStepResult:
    """Deliver one step: clamp to limits, flag violations, meter cost.

    The price is sampled at the step's start (``now_ns``).  An apparent-power
    clamp also caps active power, since |S| >= P must survive delivery.
    """
    requested_active = grid_input.requested_active_power
    requested_apparent = grid_input.requested_apparent_power
    delivered_active = requested_active
    delivered_apparent = requested_apparent
    violation = False
    if config.active_power_limit is not None and delivered_active > config.active_power_limit:
        delivered_active = config.active_power_limit
        violation = True
    if config.apparent_power_limit is not None and delivered_apparent > config.apparent_power_limit:
        delivered_apparent = config.apparent_power_limit
        violation = True
    if delivered_apparent < delivered_active:
        delivered_active = delivered_apparent
    price = config.schedule.price_at(now_ns)
    cost = grid_energy_cost(price, delivered_active, dt_s)
    return GridStepResult(delivered_active, delivered_apparent, cost, violation)


class GridPriced(Grid):
    """Stateful wrapper around :func:`grid_priced_step`."""

    def __init__(self, config: GridPricedConfig) -> None:
        self._config = config

    def step(self, start_ns: int, end_ns: int, grid_input: GridStepInput) -> GridStepResult:
        return grid_priced_step(grid_input, self._config, start_ns, (end_ns - start_ns) / NS_PER_SECOND)
