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
k - 1 joins them when boundary k is reached.  A popped candidate is
dropped for good only when it can never buy again:

* t lies before the barrier (a saturated boundary it cannot push past);
* its grid-cap room is used up (room only shrinks); or
* the headroom between t and k is not positive (that raises the barrier
  past t).

Every candidate that bought at boundary k is set aside and pushed back
after k, including one whose take was cut to the headroom: the purchase
need not land exactly on the ceiling, so the saturated boundary can keep
an ulp of headroom and the same step buys again at a later boundary.

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

numpy stays where it pays: the set-up arrays (free energy, ceiling,
requirement and the infeasibility check, one vector pass each, about a
third of the time of the same work on lists from itertools.accumulate
over the 202 windows of a 1 d @240 s compare), the carry ranges
(headroom scan and range add; a pure-Python carry loop made the T = 2880
solve about 3.5 times slower) and the SOC trajectory.  The
per-boundary scalars (requirement, price, total, need and the per-step
purchases) are Python floats.  One full-day solve at T = 720 / 1440 /
2880 steps took 5.4 / 10.7 / 22.3 ms with full-suffix adds and 2.8 / 5.8 /
11.9 ms with suffix totals (``bench/probe.py solver``, medians of five
alternating runs on a 2-vCPU Xeon VM).

numpy is imported inside :func:`solve_charging`, its only user, so a run
that never plans (PV-first, replay) does not pay numpy's import.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from math import inf
from typing import Callable, Sequence

from .core import (
    NS_PER_SECOND,
    CompensatedSum,
    Inverter,
    InverterStepInput,
    InverterStepResult,
    SimulationError,
    _require,
    grid_energy_cost,
)
from .models.inverter import InverterPVFirstConfig, inverter_pv_first_step

logger = logging.getLogger(__name__)


class InfeasibleProblemError(SimulationError):
    """No purchase schedule can keep the storage inside its band."""

    def __init__(self, step_index: int, reason: str) -> None:
        super().__init__(f"charging problem infeasible at step {step_index}: {reason}")
        self.step_index = step_index
        self.reason = reason


@dataclass(frozen=True)
class ChargingProblem:
    """One planning window.

    prices are per kWh, sampled per step; load_w and pv_w are the expected
    per-step powers; capacity_j, soc bounds and the starting SOC describe
    the storage; max_grid_power_w optionally caps each step's purchase.
    """

    step_seconds: float
    prices: tuple[float, ...]
    load_w: tuple[float, ...]
    pv_w: tuple[float, ...]
    capacity_j: float
    soc_min: float
    soc_max: float
    soc_initial: float
    max_grid_power_w: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prices", tuple(float(p) for p in self.prices))
        object.__setattr__(self, "load_w", tuple(float(v) for v in self.load_w))
        object.__setattr__(self, "pv_w", tuple(float(v) for v in self.pv_w))
        _require(0.0 < self.step_seconds < inf, "step_seconds must be finite and > 0")
        count = len(self.prices)
        _require(count >= 1, "the planning window must contain at least one step")
        _require(
            len(self.load_w) == count and len(self.pv_w) == count,
            "prices, load_w and pv_w must have equal length",
        )
        # one scan per series; nan fails both bounds
        _require(all(0.0 <= p < inf for p in self.prices), "prices must be finite and >= 0")
        _require(all(0.0 <= v < inf for v in self.load_w), "load_w must be finite and >= 0")
        _require(all(0.0 <= v < inf for v in self.pv_w), "pv_w must be finite and >= 0")
        _require(0.0 < self.capacity_j < inf, "capacity_j must be finite and > 0")
        _require(0.0 <= self.soc_min < self.soc_max <= 1.0, "need 0 <= soc_min < soc_max <= 1")
        _require(
            self.soc_min - 1e-9 <= self.soc_initial <= self.soc_max + 1e-9,
            f"soc_initial {self.soc_initial!r} outside [{self.soc_min}, {self.soc_max}]",
        )
        if self.max_grid_power_w is not None:
            _require(self.max_grid_power_w >= 0.0, "max_grid_power_w must be >= 0")

    @property
    def horizon(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class ChargingPlan:
    """A feasible purchase schedule and its bookkeeping.

    total_cost is summed on first read: a controller that re-plans every
    step builds many plans whose cost nobody reads.
    """

    step_seconds: float
    grid_power_w: tuple[float, ...]
    soc_trajectory: tuple[float, ...]  # length horizon + 1, starts at soc_initial
    prices: tuple[float, ...]
    purchased_energy_j: float

    @cached_property
    def total_cost(self) -> float:
        return _plan_cost(self.prices, self.grid_power_w, self.step_seconds)


def _plan_cost(prices: Sequence[float], grid_power_w: Sequence[float], dt_s: float) -> float:
    acc = CompensatedSum()
    for price, power in zip(prices, grid_power_w):
        acc.add(grid_energy_cost(price, power, dt_s))
    return acc.value


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

    load = np.asarray(problem.load_w, dtype=np.float64)
    pv = np.asarray(problem.pv_w, dtype=np.float64)
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
    candidates: list[tuple[float, int]] = []
    barrier = 0  # steps before this cannot push energy past a saturated boundary

    for k, (floor, price) in enumerate(zip(required.tolist(), prices), 1):
        bought[k - 1] = total
        need = floor - total
        heappush(candidates, (price, 1 - k))
        kept = []  # bought from at this boundary; may buy again at a later one
        while need > 0.0 and candidates:
            candidate = heappop(candidates)
            t = -candidate[1]
            if t < barrier:
                continue
            room = cap_per_step - purchases[t]
            if room <= 0.0:
                continue
            take = need if need <= room else room
            # Boundaries strictly between purchase step and target boundary
            # must be able to hold the carried energy.
            if t + 1 < k:
                segment = ceiling[t : k - 1] - bought[t + 1 : k]
                low = int(segment.argmin())
                headroom = float(segment[low])
                if headroom <= 0.0:
                    saturated = t + 1 + low
                    if saturated > barrier:
                        barrier = saturated
                    continue
                if headroom < take:
                    take = headroom
                bought[t + 1 : k] += take
            purchases[t] += take
            total += take
            need = floor - total
            kept.append(candidate)
        for candidate in kept:
            heappush(candidates, candidate)
        if need > eps:
            raise InfeasibleProblemError(k - 1, "shortfall exceeds storage headroom")

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


@dataclass(frozen=True)
class ForecastWindow:
    """Per-step expectations from ``start_ns`` to the planning bound.

    Entry i of each series covers the step
    ``[start_ns + i * step_ns, start_ns + (i + 1) * step_ns)``.  The series
    are converted and checked once, when the window is built; a provider
    hands out the same window for every ``now`` it covers, so a controller
    reads the tail from ``now``'s offset.  Providers keep one window object
    per value: while they return the same object, its values have not been
    revised.
    """

    start_ns: int
    step_ns: int
    load_w: tuple[float, ...]
    pv_w: tuple[float, ...]
    prices: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "load_w", tuple(float(v) for v in self.load_w))
        object.__setattr__(self, "pv_w", tuple(float(v) for v in self.pv_w))
        object.__setattr__(self, "prices", tuple(float(p) for p in self.prices))
        _require(self.step_ns > 0, "step_ns must be > 0")
        _require(
            len(self.load_w) == len(self.pv_w) == len(self.prices),
            "forecast window series must have equal length",
        )

    @property
    def step_seconds(self) -> float:
        return self.step_ns / NS_PER_SECOND


#: Supplies a forecast window covering ``now_ns`` (None: nothing to plan).
#: Returning the same object again promises the same values; a revised
#: forecast comes as a new object.
ForecastProvider = Callable[[int], "ForecastWindow | None"]


@dataclass(frozen=True)
class ControlDecision:
    """First-step purchase decision; ``fallback`` marks plan-less steps.

    planned_soc is the plan's SOC at the decision boundary; executors use
    it as the basis for storage-limit projections when it agrees with the
    executed SOC within tolerance, so a plan that rides a bound exactly
    is not truncated by sub-tolerance state drift.
    """

    planned_grid_power_w: float | None
    plan: "ChargingPlan | None"
    planned_soc: float | None = None
    fallback: bool = False


class RecedingHorizonController:
    """Re-plans every step and applies only the first purchase.

    The plan is solved on the window's tail from ``now``'s offset.  A later
    step reuses it when the provider returns the same window object (so
    the forecast is unrevised) and the executed SOC agrees with the
    planned SOC within :data:`SOC_SNAP_TOLERANCE`; this keeps the closed
    loop on the open-loop plan's arithmetic path.  A new window object or a
    state deviation triggers a true re-solve from the executed state.  A
    window that does not cover ``now`` and an infeasible window both fall
    back to no plan (callers dispatch PV-first), the latter with a warning.
    """

    def __init__(
        self,
        capacity_j: float,
        soc_min: float,
        soc_max: float,
        forecast_provider: ForecastProvider,
        max_grid_power_w: float | None = None,
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

    def decide(self, now_ns: int, soc: float) -> ControlDecision:
        window = self.forecast_provider(now_ns)
        if window is None:
            return ControlDecision(None, None, fallback=True)
        offset = (now_ns - window.start_ns) // window.step_ns
        if not 0 <= offset < len(window.load_w):
            return ControlDecision(None, None, fallback=True)
        plan = self._plan
        if window is self._window and offset > self._plan_offset:
            k = offset - self._plan_offset
            if abs(soc - plan.soc_trajectory[k]) <= SOC_SNAP_TOLERANCE:
                return ControlDecision(plan.grid_power_w[k], plan, planned_soc=plan.soc_trajectory[k])
        problem = ChargingProblem(
            step_seconds=window.step_seconds,
            prices=window.prices[offset:],
            load_w=window.load_w[offset:],
            pv_w=window.pv_w[offset:],
            capacity_j=self.capacity_j,
            soc_min=self.soc_min,
            soc_max=self.soc_max,
            soc_initial=min(max(soc, self.soc_min), self.soc_max),
            max_grid_power_w=self.max_grid_power_w,
        )
        try:
            plan = solve_charging(problem)
        except InfeasibleProblemError as exc:
            logger.warning("planning window infeasible at %d ns, dispatching PV-first: %s", now_ns, exc)
            self._window = self._plan = None
            return ControlDecision(None, None, fallback=True)
        self._window, self._plan, self._plan_offset = window, plan, offset
        if self.first_plan is None:
            self.first_plan = plan
        return ControlDecision(plan.grid_power_w[0], plan, planned_soc=plan.soc_trajectory[0])


class MPCInverter(Inverter):
    """The PV-first inverter steered by a receding-horizon purchase plan.

    Each step asks the controller for the step's planned purchase and
    hands it to :func:`~cemsim.models.inverter.inverter_pv_first_step`,
    which serves the deficit from it, routes any surplus into the battery
    and lets the battery cover a shortfall.  Storage limits are projected
    from the plan's SOC when the executed SOC agrees with it within
    :data:`SOC_SNAP_TOLERANCE`, else from the executed SOC; the plan it
    follows is the one solved on the provider's current window object
    (see :class:`RecedingHorizonController`).  When no plan is available
    (an infeasible window, or none covering the step) the step is plain
    PV-first dispatch.  The class lives here, not in ``models``, because
    models do not import controllers.
    """

    def __init__(self, config: InverterPVFirstConfig, controller: RecedingHorizonController) -> None:
        self._config = config
        self._controller = controller

    def step(self, start_ns: int, end_ns: int, inverter_input: InverterStepInput) -> InverterStepResult:
        soc = inverter_input.battery.soc
        decision = self._controller.decide(start_ns, soc)
        planned_soc = decision.planned_soc
        soc_basis = None
        if planned_soc is not None and abs(planned_soc - soc) <= SOC_SNAP_TOLERANCE:
            soc_basis = planned_soc
        return inverter_pv_first_step(
            inverter_input,
            self._config,
            (end_ns - start_ns) / NS_PER_SECOND,
            decision.planned_grid_power_w,
            soc_basis,
        )
