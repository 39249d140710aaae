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
k - 1 is pushed when boundary k is reached.  A popped candidate is dropped
for good only when it can never buy again:

* t lies before the barrier (a saturated boundary it cannot push past);
* its grid-cap room is used up (room only shrinks); or
* the headroom between t and k is not positive (that raises the barrier
  past t).

Every candidate that bought at boundary k is set aside and pushed back
after k, including one whose take was cut to the headroom: the purchase
need not land exactly on the ceiling, so the saturated boundary can keep
an ulp of headroom and the same step buys again at a later boundary.
The purchase bookkeeping (the slice-add on the cumulative purchases and
the segment argmin) keeps its float summation order, so plans are bitwise
those of the earlier full rescan of the price order per boundary.  Heap
work is O((T + purchases) log T) per solve against O(T) visits per
boundary before; the slice-add and argmin stay O(T) per purchase.  One
full-day solve at T = 720 / 1440 / 2880 steps measured 21.9 / 82.6 /
328 ms before and 2.7 / 5.7 / 12.0 ms after (2-vCPU Xeon VM).
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    NS_PER_SECOND,
    BatteryMode,
    BatteryStepInput,
    Clock,
    CompensatedSum,
    GridStepInput,
    Inverter,
    InverterStepInput,
    InverterStepResult,
    SimulationError,
    _require,
    grid_energy_cost,
)
from .models.inverter import (
    InverterPVFirstConfig,
    _charge_power_limit,
    _discharge_power_limit,
    inverter_pv_first_step,
)

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
        _require(self.step_seconds > 0.0, "step_seconds must be > 0")
        count = len(self.prices)
        _require(count >= 1, "the planning window must contain at least one step")
        _require(
            len(self.load_w) == count and len(self.pv_w) == count,
            "prices, load_w and pv_w must have equal length",
        )
        _require(all(p >= 0.0 for p in self.prices), "prices must be >= 0")
        _require(all(v >= 0.0 for v in self.load_w), "load_w must be >= 0")
        _require(all(v >= 0.0 for v in self.pv_w), "pv_w must be >= 0")
        _require(self.capacity_j > 0.0, "capacity_j must be > 0")
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
    """A feasible purchase schedule and its bookkeeping."""

    step_seconds: float
    grid_power_w: tuple[float, ...]
    soc_trajectory: tuple[float, ...]  # length horizon + 1, starts at soc_initial
    prices: tuple[float, ...]
    total_cost: float
    purchased_energy_j: float

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["step_index", "grid_power_w", "soc_after", "price_per_kwh"])
            for i, power in enumerate(self.grid_power_w):
                writer.writerow(
                    [
                        i,
                        format(power, ".17g"),
                        format(self.soc_trajectory[i + 1], ".17g"),
                        format(self.prices[i], ".17g"),
                    ]
                )


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
    horizon = problem.horizon
    dt = problem.step_seconds
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

    purchases = np.zeros(horizon)  # J bought per step
    bought = np.zeros(horizon + 1)  # cumulative purchases at each boundary
    # Candidate steps t < k, cheapest first; price ties prefer the later step.
    candidates: list[tuple[float, int]] = []
    barrier = 0  # steps before this cannot push energy past a saturated boundary

    for k in range(1, horizon + 1):
        heapq.heappush(candidates, (problem.prices[k - 1], 1 - k))
        need = required[k - 1] - bought[k]
        if need <= 0.0:
            continue
        kept = []  # bought from at this boundary; may buy again at a later one
        while need > 0.0 and candidates:
            candidate = heapq.heappop(candidates)
            t = -candidate[1]
            if t < barrier:
                continue
            room = cap_per_step - purchases[t]
            if room <= 0.0:
                continue
            # Boundaries strictly between purchase step and target boundary
            # must be able to hold the carried energy.
            if t + 1 <= k - 1:
                segment = ceiling[t : k - 1] - bought[t + 1 : k]
                low = int(np.argmin(segment))
                headroom = float(segment[low])
                if headroom <= 0.0:
                    saturated = t + 1 + low
                    if saturated > barrier:
                        barrier = saturated
                    continue
            else:
                headroom = np.inf
            take = need if need <= room else room
            if headroom < take:
                take = headroom
            purchases[t] += take
            bought[t + 1 :] += take
            need = required[k - 1] - bought[k]
            kept.append(candidate)
        for candidate in kept:
            heapq.heappush(candidates, candidate)
        if need > eps:
            raise InfeasibleProblemError(k - 1, "shortfall exceeds storage headroom")

    energy = free + bought
    grid_power = tuple((purchases / dt).tolist())
    soc_trajectory = tuple((energy / capacity).tolist())
    return ChargingPlan(
        step_seconds=dt,
        grid_power_w=grid_power,
        soc_trajectory=soc_trajectory,
        prices=problem.prices,
        total_cost=_plan_cost(problem.prices, grid_power, dt),
        purchased_energy_j=float(bought[-1]),
    )


# ---------------------------------------------------------------------------
# Receding horizon
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForecastWindow:
    """Per-step expectations from ``now`` to the planning horizon's end."""

    step_seconds: float
    load_w: tuple[float, ...]
    pv_w: tuple[float, ...]
    prices: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "load_w", tuple(float(v) for v in self.load_w))
        object.__setattr__(self, "pv_w", tuple(float(v) for v in self.pv_w))
        object.__setattr__(self, "prices", tuple(float(p) for p in self.prices))
        _require(
            len(self.load_w) == len(self.pv_w) == len(self.prices),
            "forecast window series must have equal length",
        )


#: Supplies the forecast window starting at ``now_ns`` (None: nothing to plan).
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

    When the current window is bitwise the tail of the window already
    solved and the executed SOC agrees with the planned SOC within
    ``soc_snap_tolerance``, the cached plan's tail is reused instead of
    re-solved.  A deterministic solver returns exactly that tail for those
    inputs, so this changes nothing but keeps the closed loop on the open
    -loop plan's arithmetic path; any forecast revision or state deviation
    invalidates the cache and triggers a true re-solve from the executed
    state.  Infeasible windows fall back to no plan (callers dispatch
    PV-first) with a warning.
    """

    def __init__(
        self,
        capacity_j: float,
        soc_min: float,
        soc_max: float,
        forecast_provider: ForecastProvider,
        max_grid_power_w: float | None = None,
        soc_snap_tolerance: float = 1e-9,
    ) -> None:
        _require(capacity_j > 0.0, "capacity_j must be > 0")
        _require(0.0 <= soc_min < soc_max <= 1.0, "need 0 <= soc_min < soc_max <= 1")
        self.capacity_j = capacity_j
        self.soc_min = soc_min
        self.soc_max = soc_max
        self.forecast_provider = forecast_provider
        self.max_grid_power_w = max_grid_power_w
        self.soc_snap_tolerance = soc_snap_tolerance
        self.first_plan: ChargingPlan | None = None
        self._cached_window: ForecastWindow | None = None
        self._cached_plan: ChargingPlan | None = None
        self._cached_offset = 0

    def _cache_hit(self, window: ForecastWindow, soc: float) -> bool:
        if self._cached_plan is None or self._cached_window is None:
            return False
        offset = self._cached_offset + 1
        cached = self._cached_window
        remaining = len(cached.load_w) - offset
        if remaining < 1 or len(window.load_w) != remaining:
            return False
        if window.step_seconds != cached.step_seconds:
            return False
        if (
            window.load_w != cached.load_w[offset:]
            or window.pv_w != cached.pv_w[offset:]
            or window.prices != cached.prices[offset:]
        ):
            return False
        planned_soc = self._cached_plan.soc_trajectory[offset]
        return abs(soc - planned_soc) <= self.soc_snap_tolerance

    def decide(self, now_ns: int, soc: float) -> ControlDecision:
        window = self.forecast_provider(now_ns)
        if window is None or len(window.load_w) == 0:
            return ControlDecision(None, None, fallback=True)
        if self._cache_hit(window, soc):
            self._cached_offset += 1
            plan = self._cached_plan
            return ControlDecision(
                plan.grid_power_w[self._cached_offset],
                plan,
                planned_soc=plan.soc_trajectory[self._cached_offset],
            )
        problem = ChargingProblem(
            step_seconds=window.step_seconds,
            prices=window.prices,
            load_w=window.load_w,
            pv_w=window.pv_w,
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
            self._cached_window = None
            self._cached_plan = None
            return ControlDecision(None, None, fallback=True)
        self._cached_window = window
        self._cached_plan = plan
        self._cached_offset = 0
        if self.first_plan is None:
            self.first_plan = plan
        return ControlDecision(plan.grid_power_w[0], plan, planned_soc=plan.soc_trajectory[0])


class MPCInverter(Inverter):
    """PV-first inverter steered by a receding-horizon purchase plan.

    The planned purchase covers the step's demand deficit first; anything
    beyond the deficit is routed into the battery (grid-to-battery), which
    also suppresses discharge for the step.  If the plan buys less than
    the deficit, the battery covers the gap within its bounds and any
    remainder is added to the grid request, so the load is always served.
    When no plan is available (infeasible or empty window) the step is
    plain PV-first dispatch.
    """

    def __init__(
        self,
        clock: Clock,
        config: InverterPVFirstConfig,
        controller: RecedingHorizonController,
        snap_rel: float = 1e-9,
    ) -> None:
        self._now_ns = clock.ticks_since_epoch
        self._tick_ns = clock.tick_resolution
        self._config = config
        self._controller = controller
        self._snap_rel = snap_rel

    @property
    def config(self) -> InverterPVFirstConfig:
        return self._config

    @property
    def controller(self) -> RecedingHorizonController:
        return self._controller

    def step(self, step_ticks: int, inverter_input: InverterStepInput) -> InverterStepResult:
        config = self._config
        dt_ns = step_ticks * self._tick_ns
        dt_s = dt_ns / NS_PER_SECOND
        now_ns = self._now_ns
        self._now_ns = now_ns + dt_ns

        decision = self._controller.decide(now_ns, inverter_input.battery.soc)
        if decision.planned_grid_power_w is None:
            return inverter_pv_first_step(inverter_input, config, dt_s)
        planned = decision.planned_grid_power_w

        pv_offered = inverter_input.power_source.power
        load = inverter_input.load
        soc = inverter_input.battery.soc
        battery_voltage = inverter_input.battery.voltage
        # Project storage limits from the planned SOC when execution is on
        # plan (within tolerance); otherwise trust the executed state.
        soc_basis = soc
        if (
            decision.planned_soc is not None
            and abs(decision.planned_soc - soc) <= self._controller.soc_snap_tolerance
        ):
            soc_basis = decision.planned_soc

        demand = load.requested_active_power + config.self_power
        demand_pv_side = demand / config.eta_pv_to_load
        if pv_offered >= demand_pv_side:
            pv_for_load = demand_pv_side
            deficit = 0.0
        else:
            pv_for_load = pv_offered
            deficit = demand - pv_offered * config.eta_pv_to_load
        pv_surplus = pv_offered - pv_for_load
        pv_drawn = pv_for_load

        charge_power = 0.0  # battery side
        discharge_power = 0.0  # battery side
        uncovered = 0.0

        if pv_surplus > 0.0 and soc_basis < config.soc_max:
            allowed = _charge_power_limit(config, soc_basis, dt_s)
            charge_power = min(pv_surplus * config.eta_pv_to_batt, allowed)
            pv_drawn += charge_power / config.eta_pv_to_batt

        snap = self._snap_rel * max(1.0, abs(planned), abs(deficit))
        if abs(planned - deficit) <= snap:
            # The plan buys exactly the deficit: grid serves the load,
            # the battery holds (sub-tolerance dust is not dispatched).
            requested_active = planned
        elif planned > deficit:
            surplus_to_battery = planned - deficit
            routable = 0.0
            if soc_basis < config.soc_max:
                allowed = _charge_power_limit(config, soc_basis, dt_s)
                routable = min(surplus_to_battery, max(allowed - charge_power, 0.0))
            charge_power += routable
            if routable >= surplus_to_battery - snap:
                requested_active = planned
            else:
                # Caps truncated the planned charge; only buy what lands.
                requested_active = deficit + routable
        else:
            gap = deficit - planned
            wanted = gap / config.eta_batt_to_load
            allowed = 0.0
            if soc_basis > config.soc_min:
                allowed = _discharge_power_limit(config, soc_basis, dt_s)
            if wanted <= allowed + snap:
                discharge_power = min(wanted, allowed)
                requested_active = planned
            else:
                discharge_power = allowed
                uncovered = gap - discharge_power * config.eta_batt_to_load
                requested_active = planned + uncovered

        covered_for_load = min(demand - uncovered, load.requested_active_power)
        apparent_residual = load.requested_apparent_power - covered_for_load
        if apparent_residual < 0.0:
            apparent_residual = 0.0
        requested_apparent = max(apparent_residual, requested_active)

        if charge_power > 0.0:
            battery_input = BatteryStepInput(BatteryMode.CHARGE, charge_power / battery_voltage)
        elif discharge_power > 0.0:
            battery_input = BatteryStepInput(BatteryMode.DISCHARGE, discharge_power / battery_voltage)
        else:
            battery_input = BatteryStepInput(BatteryMode.IDLE, 0.0)

        return InverterStepResult(
            grid_input=GridStepInput(requested_active, requested_apparent),
            battery_input=battery_input,
            pv_power_drawn=pv_drawn,
        )
