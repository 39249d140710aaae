"""Optimal battery charging from a time-varying grid price.

The planning problem covers T steps of length dt.  Grid purchases g_t >= 0
feed a lossless storage balance

    E_{t+1} = E_t + dt * (pv_t + g_t - load_t)

that must stay inside [soc_min, soc_max] * capacity at every boundary,
and the objective is the total purchase cost  sum_t price_t * g_t * dt
(converted to kWh).  Efficiencies and power caps of the physical plant are
deliberately not modeled here; the executing inverter enforces them, and
the receding-horizon loop re-plans from the executed state every step.

solve_charging uses a greedy price-sorted fill: walking the horizon, every
energy shortfall is bought at the cheapest step at or before it whose
intervening storage headroom can carry the energy forward (ties prefer the
later step).  Among cost-optimal plans this buys the least total energy,
as late as possible, which pins the solution down deterministically.

The candidate steps for boundary k are the steps t < k.  They sit in a
heap keyed (price, -t), so they come out in the greedy's order, and step
k - 1 joins them when boundary k is reached.  A heap entry stands for a
run of steps of one price, first..t, keyed by its latest step t: the one
of them the greedy takes first.  A popped candidate is dropped for good
only when it can never buy again:

* t lies before the barrier (a saturated boundary it cannot push past),
  and so do the entry's earlier steps, which go with it;
* its grid-cap room is used up (room only shrinks); the entry's earlier
  steps go back into the heap; or
* the headroom between t and k is not positive (that raises the barrier
  past t, and past the entry's earlier steps).

Every candidate that bought at boundary k is set aside and pushed back
after k, including one whose take was cut to the headroom: the purchase
need not land exactly on the ceiling, so the saturated boundary can keep
an ulp of headroom and the same step buys again at a later boundary.  If
a need is left after t bought, the entry's earlier steps go back into
the heap at once, since they may buy for the same boundary.

Most boundaries are served by their own step, k - 1.  When boundary k
needs energy and (price, 1 - k) sorts below the heap top (ties with an
earlier step go to the later one, so a price tie counts), the own step
buys first without being pushed and popped, up to its whole grid-cap
room, since nothing was bought there yet and it carries nothing; it is
then set aside with the others, as a pop would have handed it out.
Every heap key is distinct, so the pops that follow, and every float
operation, are those of the push and pop.  A need the own step leaves an
ulp short, or that its grid cap cannot cover, goes on to the heap.

The walk pays only for what a purchase carries.  With bought[j] the sum
of purchases in steps < j, a purchase at step t adds to every boundary
after t, and t < k, so every boundary j >= k has received every purchase
so far, in the same order: bought[j] equals one running float, total,
bit for bit.  Only the boundaries the walk has passed are kept in an
array (bought[k - 1] = total is written as boundary k is reached), and a
purchase at t adds its take to bought[t + 1 : k], the carry range its
headroom scan reads, and to total; nothing is added past k.  Most
purchases carry nothing (t = k - 1): they touch no array at all.
Every bought[j], need and purchase is the same sequence of float
operations as in the reference greedy's full-suffix adds, so plans are
bitwise those of the earlier full rescan of the price order per boundary.

Almost every boundary of a window lies in one of two kinds of stretch,
and the walk passes each in one array pass instead of boundary by
boundary:

* An own-step run: boundaries whose own steps share one price that no
  heap entry undercuts, so each own step buys its boundary's whole need.
  The totals are then the running maximum of the requirement from the
  run's starting total (``after``), each boundary starts from the one
  before (``prev``), and its purchase is ``floor - prev``.  Purchases,
  bought values and the new total are written at once, and the run's
  steps enter the heap as one entry.  The run ends before the first
  boundary whose purchase would not land exactly on its requirement
  (``prev + need != floor``: the walk tops up that ulp from the heap) or
  whose need exceeds the grid cap.
* A carried stretch: boundaries of one price above that of the heap top
  t, right after a walked boundary whose last purchase was carried from
  t.  Each is bought from t, with no headroom scan while a rigorous
  lower bound proves the headroom cannot bind.  The bound rests on two
  facts of rounded arithmetic: for a >= 0, fl(x + a) is at least x and
  never decreases in x, and fl(c - x) never increases in x.  So no bought
  value ever exceeds total.
  The boundaries passed since the scan took every take total took, in
  the same order, so they equal total bit for bit: a need fits them while
  its requirement is at most their lowest ceiling.  On the boundaries the
  scan read, the headroom is at least the scan's minimum, less the takes
  since (the growth of total), less an allowance u*M per rounding, where
  M bounds |ceiling| and every bought value of the window.  u = 2**-49,
  16 times the unit roundoff, also covers the rounding of the bound's own
  evaluation; a generous allowance only costs extra scans, never bits.
  The stretch ends before the first boundary whose purchase would not
  land exactly, is not proved to fit, or exceeds t's grid-cap room (the
  chain ``purchases[t] += take``, summed in order by ``np.add.accumulate``,
  which adds sequentially).  Its boundaries are written as total.  The
  boundaries the scan read get each take in turn, or are written as total
  too when they already held it.

The walk takes the boundary a stretch stops before, scanning where it
carries, and the next stretch starts after it.  Every float operation
that reaches a purchase or a bought value is the walk's, so plans are
equal by ``repr`` to those of the walk boundary by boundary, and an
infeasible window fails at the same step for the same reason.  A pass
costs about a dozen numpy calls: a stretch shorter than ``MIN_PASS``
boundaries is walked, and after a pass that passes fewer than that the
next pass waits for twice as many boundaries as the last wait, so a
window whose stretches keep breaking (say, a grid cap below every other
need) wastes O(log T) passes.

numpy stays where it pays: the set-up arrays (free energy, ceiling,
requirement and the infeasibility check, one vector pass each), the two
stretches, the headroom scans and range adds of carries the walk makes,
and the SOC trajectory.  The walk's per-boundary scalars (requirement,
price, total, need and the per-step purchases) are Python floats.  One
full-day solve at T = 720 / 1440 / 2880 steps took 2.22 / 4.03 / 6.90 ms
walking boundary by boundary, with the own-step rule, and 0.44 / 0.64 /
0.87 ms by stretches (``bench/probe.py solver``, medians of seven
alternating runs on a 2-vCPU Xeon VM).  Over the 202 windows a 1 d @240 s
compare of seed 7 solves (mean T = 254), 220 boundaries a window lie in
own-step runs and 33 in carried stretches.

A :class:`RecedingHorizonController` converts and checks a window
object's series once, in the :class:`ChargingProblem` of its first solve
on it; a re-solve on the same window slices that problem's tail
(:meth:`ChargingProblem.tail`), so only its starting SOC is checked again.

numpy is imported inside :func:`solve_charging`, its only user, so a run
that never plans (PV-first, replay) does not pay numpy's import.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections import namedtuple
from heapq import heappop, heappush
from itertools import compress, islice
from math import inf, isfinite
from operator import ne
from typing import Callable, Sequence

from .core import (
    NS_PER_SECOND,
    CompensatedSum,
    InverterStepInput,
    InverterStepResult,
    SimulationError,
    StepRecord,
    _require,
    _tuple_new,
    grid_energy_cost,
)
from .models.inverter import InverterPVFirst

logger = logging.getLogger(__name__)


class InfeasibleProblemError(SimulationError):
    """No purchase schedule can keep the storage inside its band."""

    def __init__(self, step_index: int, reason: str) -> None:
        super().__init__(f"charging problem infeasible at step {step_index}: {reason}")
        self.step_index = step_index
        self.reason = reason


class ChargingProblem(
    StepRecord,
    namedtuple(
        "ChargingProblem",
        "step_seconds prices load_w pv_w capacity_j soc_min soc_max soc_initial max_grid_power_w",
        defaults=(None,),
    ),
):
    """One planning window.

    prices are per kWh, sampled per step; load_w and pv_w are the expected
    per-step powers; capacity_j, soc bounds and the starting SOC describe
    the storage; max_grid_power_w optionally caps each step's purchase.
    The three series are converted to float tuples and checked here, the
    one place a forecast window's series are (:class:`ForecastWindow`
    keeps them as given); :meth:`tail` reuses them for a later start.
    """

    __slots__ = ()

    def __new__(
        cls,
        step_seconds: float,
        prices: Sequence[float],
        load_w: Sequence[float],
        pv_w: Sequence[float],
        capacity_j: float,
        soc_min: float,
        soc_max: float,
        soc_initial: float,
        max_grid_power_w: float | None = None,
    ) -> ChargingProblem:
        prices = tuple(map(float, prices))
        load_w = tuple(map(float, load_w))
        pv_w = tuple(map(float, pv_w))
        _require(0.0 < step_seconds < inf, "step_seconds must be finite and > 0")
        count = len(prices)
        _require(count >= 1, "the planning window must contain at least one step")
        _require(len(load_w) == count and len(pv_w) == count, "prices, load_w and pv_w must have equal length")
        _require(_finite_and_nonnegative(prices), "prices must be finite and >= 0")
        _require(_finite_and_nonnegative(load_w), "load_w must be finite and >= 0")
        _require(_finite_and_nonnegative(pv_w), "pv_w must be finite and >= 0")
        _require(0.0 < capacity_j < inf, "capacity_j must be finite and > 0")
        _require(0.0 <= soc_min < soc_max <= 1.0, "need 0 <= soc_min < soc_max <= 1")
        _check_soc_initial(soc_initial, soc_min, soc_max)
        if max_grid_power_w is not None:
            _require(max_grid_power_w >= 0.0, "max_grid_power_w must be >= 0")
        fields = (step_seconds, prices, load_w, pv_w, capacity_j, soc_min, soc_max, soc_initial, max_grid_power_w)
        return _tuple_new(cls, fields)

    @property
    def horizon(self) -> int:
        return len(self.prices)

    def tail(self, offset: int, soc_initial: float) -> ChargingProblem:
        """This window from step ``offset`` on, starting at ``soc_initial``.

        The tail slices the series converted and checked when this problem
        was built, so only ``soc_initial`` is checked again.
        """
        if not 0 <= offset < self.horizon:
            raise ValueError(f"offset {offset} outside the window's {self.horizon} steps")
        step_seconds, prices, load_w, pv_w, capacity_j, soc_min, soc_max, _, max_grid_power_w = self
        _check_soc_initial(soc_initial, soc_min, soc_max)
        series = (prices[offset:], load_w[offset:], pv_w[offset:])
        fields = (step_seconds, *series, capacity_j, soc_min, soc_max, soc_initial, max_grid_power_w)
        return _tuple_new(ChargingProblem, fields)


def _check_soc_initial(soc_initial: float, soc_min: float, soc_max: float) -> None:
    if not soc_min - 1e-9 <= soc_initial <= soc_max + 1e-9:
        raise ValueError(f"soc_initial {soc_initial!r} outside [{soc_min}, {soc_max}]")


def _finite_and_nonnegative(series: tuple[float, ...]) -> bool:
    """Whether every float of a non-empty ``series`` is finite and >= 0.

    Two passes in C, with no bytecode per element: ``isfinite`` rejects
    nan and both infinities, then ``min`` rejects a negative value.  ``min``
    alone would not do: every comparison with nan is false, so it can pass
    over one.
    """
    return all(map(isfinite, series)) and min(series) >= 0.0


class ChargingPlan(
    StepRecord,
    namedtuple("ChargingPlan", "step_seconds grid_power_w soc_trajectory prices purchased_energy_j"),
):
    """A feasible purchase schedule and its bookkeeping.

    soc_trajectory has horizon + 1 entries and starts at soc_initial.
    total_cost is summed when read: a controller that re-plans every step
    builds many plans whose cost nobody reads.
    """

    __slots__ = ()

    @property
    def total_cost(self) -> float:
        acc = CompensatedSum()
        for price, power in zip(self.prices, self.grid_power_w):
            acc.add(grid_energy_cost(price, power, self.step_seconds))
        return acc.value


#: The fewest boundaries an array pass is tried on: a pass's dozen numpy
#: calls cost about as much as walking that many boundaries one by one.
MIN_PASS = 8


def _landings(np, floors, total):
    """The walk's totals over boundaries whose needs are each bought in one
    purchase, starting from ``total``: ``(prev, buy, after, short)``, the
    total each boundary starts from, its purchase, the total it ends with,
    and where that purchase would not land exactly on its requirement."""
    levels = np.empty(len(floors) + 1)
    levels[0] = total
    levels[1:] = floors
    np.maximum.accumulate(levels, out=levels)
    prev = levels[:-1]
    after = levels[1:]
    buy = np.maximum(floors - prev, 0.0)
    return prev, buy, after, prev + buy != after


def _first(stops):
    """The index of the first true entry of ``stops``, or its length."""
    first = int(stops.argmax())
    return first if stops[first] else len(stops)


def _own_step_run(np, required, bought, purchases, candidates, total, k, end, price, cap_per_step):
    """Boundaries k..end-1, whose own steps share one ``price`` that no heap
    entry undercuts, each bought by its own step in one pass.  Stops before
    the first boundary whose purchase would not land exactly on its
    requirement or whose need exceeds the grid cap.  Returns the count of
    boundaries passed and the new total."""
    prev, buy, after, stops = _landings(np, required[k - 1 : end - 1], total)
    if cap_per_step < inf:
        stops |= buy > cap_per_step
    count = _first(stops)
    if count:
        bought[k - 1 : k - 1 + count] = prev[:count]
        purchases[k - 1 : k - 1 + count] = buy[:count].tolist()
        total = float(after[count - 1])
        heappush(candidates, (price, 2 - k - count, k - 1))
    return count, total


def _carried_stretch(np, required, ceiling, bought, purchases, candidates, total, k, end, price, cap_per_step, t, base):
    """Boundaries k..end-1, of one ``price`` above that of step ``t``, the
    heap top, whose carry ended boundary k - 1, each bought from ``t`` in
    one pass.  ``base`` is that carry's scanned headroom plus the total
    before it.  Stops before the first boundary whose purchase would not
    land exactly, would exceed t's grid-cap room, or is not proved to fit
    the headroom between t and the boundary.  Returns the count of
    boundaries passed and the new total."""
    floors = required[k - 1 : end - 1]
    prev, buy, after, stops = _landings(np, floors, total)
    # Headroom on the boundaries scanned at k - 1 (t + 1 .. k - 2): the scan
    # less every take since, less u * size per rounding that can reach it,
    # two a take (bought and total) and four more for the subtractions.
    # On those passed since (k - 1 on), bought equals total bit for bit, so
    # a need fits wherever its requirement is at most their lowest ceiling.
    size = float(np.abs(ceiling).max()) + 2.0 * float(required[-1])  # bounds |ceiling| and bought
    roundings = np.arange(6.0, 2.0 * len(floors) + 6.0, 2.0)
    allowance = roundings * (size * 2.0**-49)
    lowest = np.minimum.accumulate(ceiling[k - 2 : end - 2])
    stops |= (buy > 0.0) & ((floors > lowest) | (buy > (base - prev) - allowance))
    count = _first(stops)
    positions = np.flatnonzero(buy[:count])
    takes = buy[positions]
    # purchases[t] before and after each take, summed in the walk's order
    chain = np.add.accumulate(np.concatenate(((purchases[t],), takes)))
    if cap_per_step < inf and len(takes):
        roomy = _first(takes > cap_per_step - chain[:-1])
        if roomy < len(takes):
            count = int(positions[roomy])
            takes = takes[:roomy]
    if count:
        purchases[t] = float(chain[len(takes)])
        if float(bought[t + 1 : k - 1].min()) < total:
            # the scanned boundaries take each take in turn
            for take in takes.tolist():
                bought[t + 1 : k - 1] += take
            scanned = k - 1
        else:
            scanned = t + 1  # they hold total, too, and take every take it takes
        total = float(after[count - 1])
        bought[scanned : k - 1 + count] = total
        heappush(candidates, (price, 2 - k - count, k - 1))
    return count, total


def solve_charging(problem: ChargingProblem) -> ChargingPlan:
    """Minimum-cost purchase schedule for one planning window.

    Raises :class:`InfeasibleProblemError` naming the first step whose
    shortfall cannot be covered (or whose surplus cannot be stored).
    """
    import numpy as np

    horizon = problem.horizon
    dt = problem.step_seconds
    prices = problem.prices
    capacity = problem.capacity_j
    e_min = problem.soc_min * capacity
    e_max = problem.soc_max * capacity
    e_start = min(max(problem.soc_initial, problem.soc_min), problem.soc_max) * capacity
    eps = 1e-9 * max(capacity, 1.0)

    load = np.fromiter(problem.load_w, np.float64, horizon)
    pv = np.fromiter(problem.pv_w, np.float64, horizon)
    net = (pv - load) * dt  # J gained per step before purchases

    # free[j]: stored energy at boundary j (after step j-1) with zero purchases
    free = np.empty(horizon + 1)
    free[0] = e_start
    free[1:] = e_start + np.cumsum(net)

    # In cumulative-purchase space: bought[j] = sum of purchases in steps < j.
    ceiling = e_max - free[1:]  # bought[j] above this overfills storage
    shortfall = np.maximum(e_min - free[1:], 0.0)  # bought[j] below this underruns
    required = np.maximum.accumulate(shortfall)  # purchases never expire

    cap_per_step = np.inf if problem.max_grid_power_w is None else problem.max_grid_power_w * dt

    overfilled = ceiling < -eps
    cramped = required > ceiling + eps
    capped = required > cap_per_step * np.arange(1, horizon + 1) + eps
    failing = overfilled | cramped | capped
    if failing.any():
        j = int(np.argmax(failing))
        if overfilled[j]:
            raise InfeasibleProblemError(j, "generation overfills the storage band")
        if cramped[j]:
            raise InfeasibleProblemError(j, "shortfall exceeds storage headroom")
        raise InfeasibleProblemError(j, "shortfall exceeds the grid power cap")

    purchases = [0.0] * horizon  # J bought per step
    bought = np.zeros(horizon + 1)  # written for each boundary the walk passes
    total = 0.0  # bought at every boundary the walk has not passed
    # Candidate steps t < k, cheapest first; price ties prefer the later step.
    # An entry (price, -t, first) stands for the steps first..t of one price,
    # keyed by its latest step t, the one a pop hands out.
    candidates: list[tuple[float, int, int]] = []
    barrier = 0  # steps before this cannot push energy past a saturated boundary
    floors = required.tolist()
    # the first step of each price run after the first, then horizon
    changes = list(compress(range(1, horizon), map(ne, islice(prices, 1, None), prices)))
    changes.append(horizon)
    source = -1  # the step whose carry the last walked boundary ended on
    base = 0.0  # that carry's scanned headroom plus the total before it
    retry = 1  # passes are tried again from this boundary on
    backoff = 1  # boundaries a short pass makes the next one wait, doubling

    k = 1
    while k <= horizon:
        price = prices[k - 1]
        own_first = not candidates or price <= candidates[0][0]
        # an own-step run, or a stretch carried from source, goes in one pass
        if k >= retry and (own_first or candidates[0][1] == -source):
            end = changes[bisect_left(changes, k)] + 1  # boundaries k..end-1 share k's price
            if end - k >= MIN_PASS:
                if own_first:
                    count, total = _own_step_run(np, required, bought, purchases, candidates, total, k, end, price, cap_per_step)
                else:
                    count, total = _carried_stretch(
                        np, required, ceiling, bought, purchases, candidates, total, k, end, price, cap_per_step, source, base
                    )
                if count < MIN_PASS:
                    retry = k + count + backoff
                    backoff *= 2
                else:
                    backoff = 1
                source = -1
                k += count
                if k == end:
                    continue
        bought[k - 1] = total
        floor = floors[k - 1]
        need = floor - total
        own = (price, 1 - k, k - 1)
        kept = []  # bought from at this boundary; may buy again at a later one
        source = -1
        if need > 0.0 and own_first:
            # The own step would be popped first: it buys without the push
            # and pop, with all of its grid-cap room and no carry.
            if cap_per_step > 0.0:
                take = need if need <= cap_per_step else cap_per_step
                purchases[k - 1] = take
                total += take
                need = floor - total
                kept.append(own)
        else:
            heappush(candidates, own)
        while need > 0.0 and candidates:
            candidate = heappop(candidates)
            t = -candidate[1]
            if t < barrier:
                continue  # and so are the entry's earlier steps
            room = cap_per_step - purchases[t]
            if room <= 0.0:
                if t > candidate[2]:
                    heappush(candidates, (candidate[0], 1 - t, candidate[2]))
                continue
            take = need if need <= room else room
            source = -1
            # Boundaries strictly between purchase step and target boundary
            # must be able to hold the carried energy.
            if t + 1 < k:
                segment = ceiling[t : k - 1] - bought[t + 1 : k]
                low = int(segment.argmin())
                headroom = float(segment[low])
                if headroom <= 0.0:
                    saturated = t + 1 + low
                    if saturated > barrier:
                        barrier = saturated  # past the entry's every step
                    continue
                if headroom < take:
                    take = headroom
                bought[t + 1 : k] += take
                source = t
                base = headroom + total
            purchases[t] += take
            total += take
            need = floor - total
            if need > 0.0 and t > candidate[2]:
                # the entry's earlier steps may buy for this boundary, too
                heappush(candidates, (candidate[0], 1 - t, candidate[2]))
                candidate = (candidate[0], -t, t)
            kept.append(candidate)
        for candidate in kept:
            heappush(candidates, candidate)
        if need > eps:
            raise InfeasibleProblemError(k - 1, "shortfall exceeds storage headroom")
        k += 1

    bought[horizon] = total
    return ChargingPlan(
        step_seconds=dt,
        grid_power_w=tuple([energy / dt for energy in purchases]),
        soc_trajectory=tuple(((free + bought) / capacity).tolist()),
        prices=prices,
        purchased_energy_j=total,
    )


# ---------------------------------------------------------------------------
# Receding horizon
# ---------------------------------------------------------------------------


#: Largest |executed SOC - planned SOC| at which the controller reuses its
#: plan and the inverter projects storage limits from the planned SOC.
SOC_SNAP_TOLERANCE = 1e-9


class ForecastWindow(StepRecord, namedtuple("ForecastWindow", "start_ns step_ns load_w pv_w prices")):
    """Per-step expectations from ``start_ns`` to the planning bound.

    Entry i of each series covers the step
    ``[start_ns + i * step_ns, start_ns + (i + 1) * step_ns)``.  The window's
    shape is checked when it is built (equal lengths, ``step_ns > 0``); its
    elements are kept as given and converted to floats and checked in one
    place, the :class:`ChargingProblem` a controller builds on the tail
    from the offset of its first solve on the window.  A provider hands
    out the same window for every ``now`` it covers.  Providers keep one
    window object per value: while they return the same object, its
    values have not been revised.
    """

    __slots__ = ()

    def __new__(
        cls, start_ns: int, step_ns: int, load_w: Sequence[float], pv_w: Sequence[float], prices: Sequence[float]
    ) -> ForecastWindow:
        _require(step_ns > 0, "step_ns must be > 0")
        _require(len(load_w) == len(pv_w) == len(prices), "forecast window series must have equal length")
        return _tuple_new(cls, (start_ns, step_ns, load_w, pv_w, prices))

    @property
    def step_seconds(self) -> float:
        return self.step_ns / NS_PER_SECOND


#: Supplies a forecast window covering ``now_ns`` (None: nothing to plan).
#: Returning the same object again promises the same values; a revised
#: forecast comes as a new object.  The window's shape is checked when it
#: is built; its series are converted and checked by the ChargingProblem
#: of the first solve on it.
ForecastProvider = Callable[[int], "ForecastWindow | None"]


class ControlDecision(
    StepRecord, namedtuple("ControlDecision", "planned_grid_power_w plan planned_soc", defaults=(None,))
):
    """First-step purchase decision; ``fallback`` marks plan-less steps.

    planned_soc is the plan's SOC at the decision boundary; executors use
    it as the basis for storage-limit projections when it agrees with the
    executed SOC within tolerance, so a plan that rides a bound exactly
    is not truncated by sub-tolerance state drift.
    """

    __slots__ = ()

    @property
    def fallback(self) -> bool:
        """Whether the step has no plan (callers dispatch PV-first)."""
        return self.plan is None


class RecedingHorizonController:
    """Re-plans every step and applies only the first purchase.

    The plan is solved on the window's tail from ``now``'s offset.  A later
    step reuses it when the provider returns the same window object (so
    the forecast is unrevised) and the executed SOC agrees with the
    planned SOC within :data:`SOC_SNAP_TOLERANCE`; this keeps the closed
    loop on the open-loop plan's arithmetic path.  A new window object or a
    state deviation triggers a true re-solve from the executed state, on
    the tail of the problem the window was converted into at its first
    solve.  A window that does not cover ``now`` and an infeasible window
    both fall back to no plan (callers dispatch PV-first), the latter with
    a warning.  Every parameter is required: an :class:`MPCInverter` passes
    its battery's capacity, its SOC band and the grid's cap (None: no cap).
    """

    def __init__(
        self,
        capacity_j: float,
        soc_min: float,
        soc_max: float,
        forecast_provider: ForecastProvider,
        max_grid_power_w: float | None,
    ) -> None:
        _require(capacity_j > 0.0, "capacity_j must be > 0")
        _require(0.0 <= soc_min < soc_max <= 1.0, "need 0 <= soc_min < soc_max <= 1")
        if max_grid_power_w is not None:
            _require(max_grid_power_w >= 0.0, "max_grid_power_w must be >= 0")
        self.capacity_j = capacity_j
        self.soc_min = soc_min
        self.soc_max = soc_max
        self.forecast_provider = forecast_provider
        self.max_grid_power_w = max_grid_power_w
        self.first_plan: ChargingPlan | None = None
        self._window: ForecastWindow | None = None  # the window the plan was solved on
        self._plan: ChargingPlan | None = None
        self._plan_offset = 0  # the window offset of the plan's first step
        # the last window solved on, converted from the first offset solved
        # on it: (window, offset, problem)
        self._converted: tuple[ForecastWindow, int, ChargingProblem] | None = None

    def decide(self, now_ns: int, soc: float) -> ControlDecision:
        window = self.forecast_provider(now_ns)
        if window is None:
            return ControlDecision(None, None)
        offset = (now_ns - window.start_ns) // window.step_ns
        if not 0 <= offset < len(window.load_w):
            return ControlDecision(None, None)
        plan = self._plan
        if window is self._window and offset > self._plan_offset:
            k = offset - self._plan_offset
            if abs(soc - plan.soc_trajectory[k]) <= SOC_SNAP_TOLERANCE:
                return ControlDecision(plan.grid_power_w[k], plan, plan.soc_trajectory[k])
        soc_initial = min(max(soc, self.soc_min), self.soc_max)
        converted = self._converted
        if converted is not None and converted[0] is window and offset >= converted[1]:
            problem = converted[2].tail(offset - converted[1], soc_initial)
        else:
            problem = ChargingProblem(
                step_seconds=window.step_seconds,
                prices=window.prices[offset:],
                load_w=window.load_w[offset:],
                pv_w=window.pv_w[offset:],
                capacity_j=self.capacity_j,
                soc_min=self.soc_min,
                soc_max=self.soc_max,
                soc_initial=soc_initial,
                max_grid_power_w=self.max_grid_power_w,
            )
            self._converted = (window, offset, problem)
        try:
            plan = solve_charging(problem)
        except InfeasibleProblemError as exc:
            logger.warning("planning window infeasible at %d ns, dispatching PV-first: %s", now_ns, exc)
            self._window = self._plan = None
            return ControlDecision(None, None)
        self._window, self._plan, self._plan_offset = window, plan, offset
        if self.first_plan is None:
            self.first_plan = plan
        return ControlDecision(plan.grid_power_w[0], plan, plan.soc_trajectory[0])


class MPCInverter(InverterPVFirst):
    """The PV-first inverter steered by a receding-horizon purchase plan.

    ``MPCInverter(forecast_provider, *, max_grid_power_w, **parameters)``
    takes the parameters of :class:`~cemsim.models.inverter.InverterPVFirst`,
    ``battery_capacity_j`` among them, and plans with them: its
    ``controller`` is a :class:`RecedingHorizonController` over the
    inverter's own ``battery_capacity_j``, ``soc_min`` and ``soc_max``,
    reading ``forecast_provider`` and capping purchases at
    ``max_grid_power_w``, the grid block's ``max_active_power_w`` (None: no
    cap), a required keyword whose default is written once, in
    ``scenario.BLOCK_TABLES``.  Each step asks the controller for
    the step's planned purchase and hands it to the inherited
    :meth:`~cemsim.models.inverter.InverterPVFirst.dispatch`, which serves
    the deficit from it, routes any surplus into the battery and lets the
    battery cover a shortfall.  Storage limits are projected from the
    plan's SOC when the executed SOC agrees with it within
    :data:`SOC_SNAP_TOLERANCE`, else from the executed SOC; the plan it
    follows is the one solved on the provider's current window object
    (see :class:`RecedingHorizonController`).  When no plan is available
    (an infeasible window, or none covering the step) the step is plain
    PV-first dispatch.  The class lives here, not in ``models``, because
    models do not import controllers.
    """

    def __init__(
        self, forecast_provider: ForecastProvider, *, max_grid_power_w: float | None, **parameters: float | None
    ) -> None:
        super().__init__(**parameters)
        self.controller = RecedingHorizonController(
            self.battery_capacity_j, self.soc_min, self.soc_max, forecast_provider, max_grid_power_w
        )

    def step(self, start_ns: int, end_ns: int, inverter_input: InverterStepInput) -> InverterStepResult:
        soc = inverter_input.battery.soc
        decision = self.controller.decide(start_ns, soc)
        planned_soc = decision.planned_soc
        soc_basis = None
        if planned_soc is not None and abs(planned_soc - soc) <= SOC_SNAP_TOLERANCE:
            soc_basis = planned_soc
        return self.dispatch(
            inverter_input,
            (end_ns - start_ns) / NS_PER_SECOND,
            decision.planned_grid_power_w,
            soc_basis,
        )
