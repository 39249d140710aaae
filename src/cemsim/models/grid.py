"""Priced one-way grid connection.

The grid delivers what was requested up to configurable per-step limits
and meters the cost of the delivered active energy against a two-tier
daily tariff.  Requests beyond a limit are clamped and flagged rather
than failing the step, so a run always completes and the violation is
visible in the results.

The tariff is one record, :class:`PriceSchedule`, that prices an
instant by its time of day: it has no first or last day, and a lookup
costs the same however long the horizon is.

:class:`PriceSchedule`, which every step reads, is a
:class:`~cemsim.core.SlotRecord`, not a dataclass, and :class:`GridPriced`
holds its limits as plain attributes, so building a grid imports no
:mod:`dataclasses`.
"""

from __future__ import annotations

from ..core import (
    NS_PER_DAY,
    NS_PER_HOUR,
    NS_PER_SECOND,
    Grid,
    GridStepInput,
    GridStepResult,
    SlotRecord,
    _require,
    grid_energy_cost,
)


class PriceSchedule(SlotRecord):
    """Two-tier daily pricing: peak window price and off-peak price.

    ``peak_price`` holds over ``[peak_start_hour, peak_end_hour)`` of
    every UTC day and ``off_peak_price`` at every other instant.  Prices
    are returned as given.  ``_peak_start_ns`` and ``_peak_end_ns`` are
    the peak window's bounds in ns after midnight.
    """

    _fields = ("off_peak_price", "peak_price", "peak_start_hour", "peak_end_hour")
    __slots__ = _fields + ("_peak_start_ns", "_peak_end_ns")

    def __init__(
        self,
        off_peak_price: float = 0.10,
        peak_price: float = 0.40,
        peak_start_hour: int = 8,
        peak_end_hour: int = 20,
    ) -> None:
        _require(off_peak_price >= 0.0, "off_peak_price must be >= 0")
        _require(peak_price >= 0.0, "peak_price must be >= 0")
        _require(
            0 <= peak_start_hour < peak_end_hour <= 24,
            "need 0 <= peak_start_hour < peak_end_hour <= 24",
        )
        self._set_slots(
            off_peak_price,
            peak_price,
            peak_start_hour,
            peak_end_hour,
            peak_start_hour * NS_PER_HOUR,
            peak_end_hour * NS_PER_HOUR,
        )

    def price_at(self, when_ns: int) -> float:
        if self._peak_start_ns <= when_ns % NS_PER_DAY < self._peak_end_ns:
            return self.peak_price
        return self.off_peak_price

    def prices_for_window(self, start_ns: int, step_ns: int, count: int) -> list[float]:
        """Per-step prices for ``count`` steps, sampled at each step's start."""
        return [self.price_at(start_ns + i * step_ns) for i in range(count)]


class GridPriced(Grid):
    """The priced grid: a price schedule plus optional per-step delivery
    limits (W / VA)."""

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
        self.schedule = schedule
        self.active_power_limit = active_power_limit
        self.apparent_power_limit = apparent_power_limit

    def step(self, start_ns: int, end_ns: int, grid_input: GridStepInput) -> GridStepResult:
        """Deliver one step: clamp to limits, flag violations, meter cost.

        The price is sampled at the step's start.  An apparent-power clamp
        also caps active power, since |S| >= P must survive delivery.
        """
        requested_active = grid_input.requested_active_power
        requested_apparent = grid_input.requested_apparent_power
        delivered_active = requested_active
        delivered_apparent = requested_apparent
        violation = False
        if self.active_power_limit is not None and delivered_active > self.active_power_limit:
            delivered_active = self.active_power_limit
            violation = True
        if self.apparent_power_limit is not None and delivered_apparent > self.apparent_power_limit:
            delivered_apparent = self.apparent_power_limit
            violation = True
        if delivered_apparent < delivered_active:
            delivered_active = delivered_apparent
        price = self.schedule.price_at(start_ns)
        cost = grid_energy_cost(price, delivered_active, (end_ns - start_ns) / NS_PER_SECOND)
        return GridStepResult(delivered_active, delivered_apparent, cost, violation)
