"""Priced one-way grid connection.

The grid delivers what was requested up to configurable per-step limits
(``max_active_power_w`` and ``max_apparent_power_va``, the ``grid``
block's keys; None, no limit, is held as ``math.inf``) and meters the
cost of the delivered active energy against a two-tier daily tariff.
Requests beyond a limit are clamped and flagged rather than failing the
step, so a run always completes and the violation is visible in the
results.

The tariff is one object, :class:`PriceSchedule`, that prices an
instant by its time of day: it has no first or last day, and a lookup
costs the same however long the horizon is.

:class:`PriceSchedule`, which every step reads, is a plain ``__slots__``
class, not a dataclass, and :class:`GridPriced` holds its limits as plain
attributes, so building a grid imports no :mod:`dataclasses`.
"""

from __future__ import annotations

import math

from ..core import (
    NS_PER_DAY,
    NS_PER_HOUR,
    NS_PER_SECOND,
    Grid,
    GridStepInput,
    GridStepResult,
    _require,
    grid_energy_cost,
)


class PriceSchedule:
    """Two-tier daily pricing: peak window price and off-peak price.

    The parameters are the ``grid`` block's tariff keys, each a required
    keyword; their defaults are written once, in ``scenario.BLOCK_TABLES``.
    ``peak_price`` holds over ``[peak_start_hour, peak_end_hour)`` of
    every UTC day and ``off_peak_price`` at every other instant.  Prices
    are returned as given.  ``_peak_start_ns`` and ``_peak_end_ns`` are
    the peak window's bounds in ns after midnight.
    """

    __slots__ = ("off_peak_price", "peak_price", "peak_start_hour", "peak_end_hour", "_peak_start_ns", "_peak_end_ns")

    def __init__(self, *, off_peak_price: float, peak_price: float, peak_start_hour: int, peak_end_hour: int) -> None:
        _require(off_peak_price >= 0.0, "off_peak_price must be >= 0")
        _require(peak_price >= 0.0, "peak_price must be >= 0")
        _require(
            0 <= peak_start_hour < peak_end_hour <= 24,
            "need 0 <= peak_start_hour < peak_end_hour <= 24",
        )
        self.off_peak_price = off_peak_price
        self.peak_price = peak_price
        self.peak_start_hour = peak_start_hour
        self.peak_end_hour = peak_end_hour
        self._peak_start_ns = peak_start_hour * NS_PER_HOUR
        self._peak_end_ns = peak_end_hour * NS_PER_HOUR

    def price_at(self, when_ns: int) -> float:
        if self._peak_start_ns <= when_ns % NS_PER_DAY < self._peak_end_ns:
            return self.peak_price
        return self.off_peak_price

    def prices_for_window(self, start_ns: int, step_ns: int, count: int) -> list[float]:
        """Per-step prices for ``count`` steps, sampled at each step's start."""
        return [self.price_at(start_ns + i * step_ns) for i in range(count)]


class GridPriced(Grid):
    """The priced grid: a price schedule plus optional per-step delivery
    limits (W / VA; None: no limit, held as ``math.inf``).

    The limits are the ``grid`` block's ``max_`` keys, each a required
    keyword; their defaults are written once, in ``scenario.BLOCK_TABLES``.

    Same inputs, same record: :meth:`step` returns the last step's
    :class:`~cemsim.core.GridStepResult`, the same object, when its grid
    input is the very object of the last step, the schedule's price for
    the step's start is the same price object, and the step is as long.
    A result is a function of those three and the limits, which the
    constructor sets once.  The input is an immutable record the
    inverter hands back unchanged when its own inputs repeat.  The price
    is keyed by identity because ``price_at`` returns one of the
    schedule's two price objects, while a value compare would take a
    ``-0.0`` tariff, which the table's minimum lets through, for a
    ``0.0`` one.  A reused result passed its record's checks when it was
    built.
    """

    def __init__(
        self, schedule: PriceSchedule, *, max_active_power_w: float | None, max_apparent_power_va: float | None
    ) -> None:
        if max_active_power_w is None:
            max_active_power_w = math.inf
        if max_apparent_power_va is None:
            max_apparent_power_va = math.inf
        _require(max_active_power_w >= 0.0, "max_active_power_w must be >= 0")
        _require(max_apparent_power_va >= 0.0, "max_apparent_power_va must be >= 0")
        self.schedule = schedule
        self.max_active_power_w = max_active_power_w
        self.max_apparent_power_va = max_apparent_power_va
        # the last step's grid input, price object, length in ns and result
        self._last = (None, None, None, None)

    def step(self, start_ns: int, end_ns: int, grid_input: GridStepInput) -> GridStepResult:
        """Deliver one step: clamp to limits, flag violations, meter cost.

        The price is sampled at the step's start.  An apparent-power clamp
        also caps active power, since |S| >= P must survive delivery.
        """
        price = self.schedule.price_at(start_ns)
        step_ns = end_ns - start_ns
        last_input, last_price, last_step_ns, result = self._last
        if grid_input is last_input and price is last_price and step_ns == last_step_ns:
            return result
        requested_active = grid_input.requested_active_power
        requested_apparent = grid_input.requested_apparent_power
        delivered_active = requested_active
        delivered_apparent = requested_apparent
        violation = False
        if delivered_active > self.max_active_power_w:
            delivered_active = self.max_active_power_w
            violation = True
        if delivered_apparent > self.max_apparent_power_va:
            delivered_apparent = self.max_apparent_power_va
            violation = True
        if delivered_apparent < delivered_active:
            delivered_active = delivered_apparent
        cost = grid_energy_cost(price, delivered_active, step_ns / NS_PER_SECOND)
        result = GridStepResult(delivered_active, delivered_apparent, cost, violation)
        self._last = (grid_input, price, step_ns, result)
        return result
