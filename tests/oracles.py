"""Reference implementations used only by tests.

The DP and LP oracles deliberately share no code with the shipped solvers.
``greedy_charging`` is the shipped greedy before its candidate walk was
rewritten; it shares only the plan type (which sums ``total_cost``) and the
error type, so plans can be compared bit for bit.  ``heap_walk_charging`` is
the shipped solver before it passed own-step runs and carried stretches in
array passes, kept verbatim: it walks every boundary through its heap, so it
is fast enough to compare with on full-day windows, where the greedy's
rescan per boundary is not.  The DP charging
oracle does dynamic programming over cumulative purchased energy, restricted
to the grid of values where an optimal schedule can sit: the feasibility
boundaries of every step, plus (when per-step purchases are capped) every
boundary shifted by whole multiples of the cap.  An optimal plan always
purchases either nothing, the per-step maximum, or exactly enough to touch a
storage boundary, so the optimum lies on that grid.
``interpolate_reference`` is the replay lookup before it moved from numpy
``searchsorted`` to ``bisect`` over memoryviews, kept verbatim so lookups
can be compared bit for bit, errors included, with one fix since: its
edge check compares the exact int distance from the edge with the
tolerance, where it used to round ``first - slack_ns`` to a float.
``load_power_reference`` is the synthetic load before its job table: every
job tested at every instant, kept verbatim (the ``active_at`` test inlined),
so the table lookup can be compared bit for bit.
``pv_power_at``, ``battery_linear_step`` and ``grid_priced_step`` are the
synthetic pv sample, the linear battery step and the priced grid step
while each was a free function of a config record, kept verbatim (the
step records and the cost helper they build and call qualified by
``core.``), so the components that took their bodies can be compared with
them step result for step result, bit for bit.  A component has the
attributes its old config had, so it is passed as the ``config``, as it
is to ``load_power_reference``.
``evaluate_families_reference`` is forecast evaluation while every
family queried the context, built its features and trained through
``train_predictor`` on its own, kept verbatim, so the evaluation that
queries each sample time once and shares one feature row among the
families can be compared with it RMSE for RMSE, bit for bit.  It trains
and scores through this module's ``build_features`` (with its
``_feature_row``), ``train_predictor`` and ``Predictor``: the feature
vector while it was an ndarray, the fit while its design was a
``np.vstack`` of those, and the predictor while it was a dataclass, kept
verbatim, so it shares only ``fit_least_squares`` and ``rmse`` with the
shipped evaluation, whose feature rows are lists.
``ingest_timeseries_reference`` is the channel-CSV ingest while it used
numpy (``np.diff``, a stable ``np.argsort``, ``np.isfinite``), kept verbatim
with the numpy checks of the old ``Channel`` inlined, so the builtin checks
share no validation with it.  It returns ``{(subsystem_id, name): (times,
values)}`` as int64/float64 arrays.  Two of its behaviours were since
changed on purpose: a non-finite value was reported per channel without a
line, and ``np.diff`` wraps where two times of a channel lie more than
``2**63 - 1`` ns apart, so such a channel's order was misjudged.
``ReplayPowerSourceReference``, ``ReplayLoadReference``,
``ReplayGridReference`` and ``ReplayBatteryReference`` are the replay
components while every step called ``interpolate`` once per channel,
kept verbatim (with the ``_channels`` helper they shared), so the
components that locate each step's end once per time axis can be
compared with them step record for step record, errors included.
``BreakpointSchedule`` and ``build_breakpoint_schedule`` are the price
schedule while it was a list of breakpoints expanded per calendar day
from the two-tier tariff, with a bisect per lookup, kept verbatim (the
schedule as its dataclass), so the tariff that prices by time of day can
be compared with it price for price.
The step records at the end are the eight component records of
``cemsim.core`` while they were frozen slotted dataclasses, with the two
check helpers they called, kept verbatim so each tuple record can be held
to the same acceptance, messages, ``repr``, field values and hash.
After them come seven configuration, context and scenario classes as
they were while dataclasses, kept verbatim too (the helpers they call,
such as the array coercion, are imported from cemsim), so each record
replacing one can be held to the same.  ``Channel`` and
``PriceSchedule`` were since replaced by plain ``__slots__`` classes,
held to the same acceptance, messages and field values only.  One
change since: ``Channel`` no longer derives a times view and a cursor,
which moved to the time axis its times are kept on.  Their
``PriceSchedule`` is the two-tier ``PriceTiers`` dataclass, renamed to
the class that took its fields.
Last come the planner's four classes, ``ChargingProblem``,
``ChargingPlan``, ``ForecastWindow`` and ``ControlDecision``, as they
were while dataclasses, with the ``_plan_cost`` helper a plan's cost was
summed by, kept verbatim so each record replacing one can be held to the
same.  The solvers above build the shipped ``control.ChargingPlan``, so
their plans compare with the shipped solver's.
"""
from __future__ import annotations

import bisect
import csv
import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from math import inf, isfinite
from operator import lt
from types import MappingProxyType

import numpy as np

from cemsim import control, core
from cemsim.control import InfeasibleProblemError, _finite_and_nonnegative
from cemsim.core import (
    NS_PER_DAY,
    NS_PER_HOUR,
    NS_PER_SECOND,
    BatteryMode,
    CompensatedSum,
    ConfigurationError,
    ContextIndex,
    grid_energy_cost,
)
from cemsim.forecast import (
    FAMILIES,
    NUMERIC_FIELD_CATALOG,
    estimate_effort_heuristic,
    feature_names,
    fit_least_squares,
    rmse,
)
from cemsim.models.synthetic import hour_of_day, unit_noise
from cemsim.replay import (
    CHANNEL_HEADER,
    DEFAULT_BOUNDARY_TOLERANCE_S,
    KNOWN_CHANNELS,
    IngestError,
    TimeSeriesRangeError,
    _as_array,
    interpolate,
)

JOULES_PER_KWH = 3.6e6


def brute_force_context(records, now_ns):
    """Plain filter-and-stable-sort reference for record visibility."""
    kept = [r for r in records if r.recorded_at_ns <= now_ns < r.ends_at_ns]
    kept.sort(key=lambda r: (r.begins_at_ns, r.recorded_at_ns))
    return kept


def _value_grid(lower, upper, step_cap_j, horizon):
    anchors = {0.0}
    anchors.update(lower)
    anchors.update(v for v in upper if math.isfinite(v))
    if math.isinf(step_cap_j):
        values = anchors
    else:
        values = set()
        for anchor in anchors:
            for m in range(-horizon, horizon + 1):
                values.add(anchor + m * step_cap_j)
    return sorted(v for v in values if v >= 0.0)


def _windowed_min(base, vals, width):
    # Sliding minimum of base over the value window [vals[j] - width, vals[j]].
    slack = 1e-12 * max(width, 1.0)
    out = np.empty(len(vals))
    live = deque()
    for j in range(len(vals)):
        while live and base[live[-1]] >= base[j]:
            live.pop()
        live.append(j)
        while vals[live[0]] < vals[j] - width - slack:
            live.popleft()
        out[j] = base[live[0]]
    return out


def brute_force_charging(
    step_seconds,
    prices,
    load_w,
    pv_w,
    capacity_j,
    soc_min,
    soc_max,
    soc_initial,
    max_grid_power_w=None,
):
    """Minimal total purchase cost, or None when no schedule is feasible."""
    horizon = len(prices)
    dt = float(step_seconds)
    e_min = soc_min * capacity_j
    e_max = soc_max * capacity_j
    free = min(max(soc_initial * capacity_j, e_min), e_max)
    lower = []
    upper = []
    for k in range(horizon):
        free = free + (pv_w[k] - load_w[k]) * dt
        lower.append(max(e_min - free, 0.0))
        upper.append(e_max - free)
    step_cap = math.inf if max_grid_power_w is None else max_grid_power_w * dt
    tol = 1e-9 * max(capacity_j, 1.0)

    vals = np.asarray(_value_grid(lower, upper, step_cap, horizon))
    cost = np.where(vals == 0.0, 0.0, math.inf)
    for k in range(horizon):
        per_joule = prices[k] / JOULES_PER_KWH
        base = cost - vals * per_joule
        if math.isinf(step_cap):
            best = np.minimum.accumulate(base)
        else:
            best = _windowed_min(base, vals, step_cap)
        cost = best + vals * per_joule
        cost[(vals < lower[k] - tol) | (vals > upper[k] + tol)] = math.inf
    optimum = float(cost.min(initial=math.inf))
    return None if math.isinf(optimum) else optimum


def random_coarse_instance(rng, horizon_max=8):
    """Random charging instance on a coarse grid of a 3.6 MJ store.

    Loads, PV, caps and SOC bounds are whole multiples of capacity/40 so
    the oracle's value grid stays small; prices come from a small set so
    ties actually occur.  Roughly a fifth of the draws are infeasible.
    """
    horizon = rng.randrange(1, horizon_max + 1)
    capacity = 3.6e6
    unit_w = capacity / 40.0 / 3600.0  # one grid unit of energy per hour step
    lo_i = rng.randrange(0, 40)
    hi_i = rng.randrange(lo_i + 1, 41)
    init_i = rng.randrange(lo_i, hi_i + 1)
    prices = tuple(rng.randrange(0, 6) * 0.1 for _ in range(horizon))
    load_w = tuple(rng.randrange(0, 7) * unit_w for _ in range(horizon))
    pv_w = tuple(rng.randrange(0, 5) * unit_w for _ in range(horizon))
    cap = None if rng.random() < 0.5 else rng.randrange(1, 7) * unit_w
    return dict(
        step_seconds=3600.0,
        prices=prices,
        load_w=load_w,
        pv_w=pv_w,
        capacity_j=capacity,
        soc_min=lo_i / 40.0,
        soc_max=hi_i / 40.0,
        soc_initial=init_i / 40.0,
        max_grid_power_w=cap,
    )


def linprog_charging(
    step_seconds,
    prices,
    load_w,
    pv_w,
    capacity_j,
    soc_min,
    soc_max,
    soc_initial,
    max_grid_power_w=None,
):
    """Same problem posed as an LP over per-step purchased energy (in kWh:
    joule-scale coefficients fall below the HiGHS dual tolerance)."""
    from scipy.optimize import linprog

    horizon = len(prices)
    dt = float(step_seconds)
    e_min = soc_min * capacity_j
    e_max = soc_max * capacity_j
    free = min(max(soc_initial * capacity_j, e_min), e_max)
    net = np.asarray(pv_w, dtype=float) - np.asarray(load_w, dtype=float)
    frees = free + np.cumsum(net * dt)

    cumulative = np.tril(np.ones((horizon, horizon)))
    a_ub = np.vstack([cumulative, -cumulative])
    b_ub = np.concatenate([e_max - frees, frees - e_min]) / JOULES_PER_KWH
    cap = math.inf if max_grid_power_w is None else max_grid_power_w * dt / JOULES_PER_KWH
    result = linprog(
        c=np.asarray(prices, dtype=float),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, cap)] * horizon,
        method="highs",
    )
    if result.status == 2:
        return None
    assert result.status == 0, result.message
    return float(result.fun)


def greedy_charging(problem):
    """Price-order greedy as first shipped: the tie-break reference.

    For every shortfall boundary k it rescans the whole price order, so it
    costs O(T) candidate visits per boundary.  The shipped solver must
    return an equal ChargingPlan (bitwise) or raise InfeasibleProblemError
    with the same step_index and reason.
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
    prices = np.asarray(problem.prices, dtype=np.float64)
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

    for j in range(horizon):
        if ceiling[j] < -eps:
            raise InfeasibleProblemError(j, "generation overfills the storage band")
        if required[j] > ceiling[j] + eps:
            raise InfeasibleProblemError(j, "shortfall exceeds storage headroom")
        if required[j] > cap_per_step * (j + 1) + eps:
            raise InfeasibleProblemError(j, "shortfall exceeds the grid power cap")

    purchases = np.zeros(horizon)  # J bought per step
    bought = np.zeros(horizon + 1)  # cumulative purchases at each boundary
    # Candidate steps, cheapest first; price ties prefer the later step.
    order = np.lexsort((-np.arange(horizon), prices))
    barrier = 0  # steps before this cannot push energy past a saturated boundary

    for k in range(1, horizon + 1):
        need = required[k - 1] - bought[k]
        if need <= 0.0:
            continue
        for t in order:
            if need <= 0.0:
                break
            if t >= k or t < barrier:
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
        if need > eps:
            raise InfeasibleProblemError(k - 1, "shortfall exceeds storage headroom")

    energy = free + bought
    grid_power = tuple(float(v) for v in purchases / dt)
    soc_trajectory = tuple(float(v) for v in energy / capacity)
    return control.ChargingPlan(
        step_seconds=dt,
        grid_power_w=grid_power,
        soc_trajectory=soc_trajectory,
        prices=problem.prices,
        purchased_energy_j=float(bought[-1]),
    )


def heap_walk_charging(problem):
    """The shipped solver while it walked every boundary through its heap:
    the fast reference.

    Raises :class:`InfeasibleProblemError` naming the first step whose
    shortfall cannot be covered (or whose surplus cannot be stored).
    """
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
        own = (price, 1 - k)
        kept = []  # bought from at this boundary; may buy again at a later one
        if need > 0.0 and not (candidates and candidates[0] < own):
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
    return control.ChargingPlan(
        step_seconds=dt,
        grid_power_w=tuple([energy / dt for energy in purchases]),
        soc_trajectory=tuple(((free + bought) / capacity).tolist()),
        prices=prices,
        purchased_energy_j=total,
    )


def plan_cost(plan):
    """A plan's cost summed apart from the shipped compensated sum: each
    step's price times its energy in kWh, added exactly by ``math.fsum``."""
    return math.fsum(
        price * power * plan.step_seconds / 3.6e6 for price, power in zip(plan.prices, plan.grid_power_w)
    )


def interpolate_reference(channel, t_ns, boundary_tolerance_s=DEFAULT_BOUNDARY_TOLERANCE_S):
    """Linear interpolation with exact knot hits and bounded clamping.

    Queries at a recorded timestamp return the recorded value exactly.
    Queries within ``boundary_tolerance_s`` before the first or after the
    last sample clamp to the boundary value; anything further out raises
    :class:`TimeSeriesRangeError`.
    """
    times = channel.times_ns
    first = int(times[0])
    last = int(times[-1])
    if t_ns < first or t_ns > last:
        slack_ns = boundary_tolerance_s * 1e9
        if (first - t_ns if t_ns < first else t_ns - last) > slack_ns:
            raise TimeSeriesRangeError(
                f"query at {t_ns} ns is outside channel "
                f"({channel.subsystem_id}, {channel.name!r}) range "
                f"[{first}, {last}] ns by more than {boundary_tolerance_s} s"
            )
        return float(channel.values[0] if t_ns < first else channel.values[-1])
    index = int(np.searchsorted(times, t_ns))
    if index < len(times) and int(times[index]) == t_ns:
        return float(channel.values[index])
    lo = index - 1
    t0, t1 = int(times[lo]), int(times[lo + 1])
    v0, v1 = float(channel.values[lo]), float(channel.values[lo + 1])
    fraction = (t_ns - t0) / (t1 - t0)
    return v0 + (v1 - v0) * fraction


def load_power_reference(config, t_ns):
    """Load power at an instant: base plus active jobs plus noise."""
    power = config.base_power_w
    for job in config.job_events:
        if job.begins_at_ns <= t_ns < job.ends_at_ns:
            power += job.true_effort * job.watts_per_effort
    if config.noise_amplitude > 0.0:
        wobble = 2.0 * unit_noise(config.seed, "load", t_ns) - 1.0
        power += config.noise_amplitude * config.base_power_w * wobble
        if power < 0.0:
            return 0.0
    return power


def pv_power_at(config, t_ns):
    """PV power at an instant: cosine bell over daylight, cloud-dimmed."""
    hour = (t_ns % NS_PER_DAY) / NS_PER_HOUR
    if hour <= config.sunrise_hour or hour >= config.sunset_hour:
        return 0.0
    span = config.sunset_hour - config.sunrise_hour
    power = config.peak_power_w * math.cos(math.pi * (hour - 12.0) / span)
    if power <= 0.0:
        return 0.0
    if config.noise_amplitude > 0.0:
        dimming = config.noise_amplitude * unit_noise(config.seed, "pv", t_ns)
        power *= 1.0 - dimming
    return power


def battery_linear_step(energy_j, battery_input, config, dt_s):
    """Advance the stored energy by one step; returns (new energy, result)."""
    voltage = config.nominal_voltage
    if battery_input.mode is BatteryMode.CHARGE:
        delta = dt_s * voltage * battery_input.current * config.eta_charge
    elif battery_input.mode is BatteryMode.DISCHARGE:
        delta = -dt_s * voltage * battery_input.current / config.eta_discharge
    else:
        delta = 0.0
    new_energy = energy_j + delta
    if new_energy > config.capacity_j:
        new_energy = config.capacity_j
    elif new_energy < 0.0:
        new_energy = 0.0
    clamped_delta = new_energy - energy_j
    result = core.BatteryStepResult(
        new_energy / config.capacity_j, voltage, clamped_delta, clamped_delta / voltage
    )
    return new_energy, result


def grid_priced_step(grid_input, config, now_ns, dt_s):
    """Deliver one step: clamp to limits, flag violations, meter cost.

    The price is sampled at the step's start (``now_ns``).  An apparent-power
    clamp also caps active power, since |S| >= P must survive delivery.
    """
    requested_active = grid_input.requested_active_power
    requested_apparent = grid_input.requested_apparent_power
    delivered_active = requested_active
    delivered_apparent = requested_apparent
    violation = False
    if config.max_active_power_w is not None and delivered_active > config.max_active_power_w:
        delivered_active = config.max_active_power_w
        violation = True
    if config.max_apparent_power_va is not None and delivered_apparent > config.max_apparent_power_va:
        delivered_apparent = config.max_apparent_power_va
        violation = True
    if delivered_apparent < delivered_active:
        delivered_active = delivered_apparent
    price = config.schedule.price_at(now_ns)
    cost = core.grid_energy_cost(price, delivered_active, dt_s)
    return core.GridStepResult(delivered_active, delivered_apparent, cost, violation)


def build_features(
    records: Iterable[ContextRecord],
    mode: str,
    t_ns: int,
    effort_fn: EffortEstimator = estimate_effort_heuristic,
) -> np.ndarray:
    """Feature vector describing time ``t_ns`` given known context records.

    Records not active at ``t_ns`` (begins_at <= t < ends_at) contribute
    nothing; callers pass the output of ``context_query`` at the knowledge
    time, so future-recorded records never leak in.  Non-numeric payload
    values under a cataloged field are ignored.
    """
    import numpy as np

    _require(mode in FAMILIES, f"unknown feature family {mode!r}")
    return np.asarray(_feature_row(records, mode, t_ns, effort_fn))


def _feature_row(
    records: Iterable[ContextRecord],
    mode: str,
    t_ns: int,
    effort_fn: EffortEstimator,
) -> list[float]:
    """:func:`build_features` as a list, for a known family ``mode``."""
    hour = hour_of_day(t_ns)
    angle = 2.0 * math.pi * hour / 24.0
    features = [1.0, math.sin(angle), math.cos(angle)]
    if mode == "none":
        return features
    active = [r for r in records if r.begins_at_ns <= t_ns < r.ends_at_ns]
    if mode in ("numeric", "combined"):
        for field in NUMERIC_FIELD_CATALOG:
            total = 0.0
            present = 0.0
            for record in active:
                value = record.payload.get(field)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    total += float(value)
                    present = 1.0
            features.append(total)
            features.append(present)
    if mode in ("effort", "combined"):
        features.append(sum(effort_fn(record.text()) for record in active))
    return features


def train_predictor(
    records: Sequence[ContextRecord],
    times_ns: Sequence[int],
    observed_w: Sequence[float],
    mode: str,
    effort_fn: EffortEstimator = estimate_effort_heuristic,
) -> Predictor:
    """Fit one family on (time, load) samples.

    Features at each sample time use only records already recorded by
    then, matching what a live forecaster could have known.
    """
    import numpy as np

    from cemsim.core import context_query

    _require(len(times_ns) == len(observed_w), "times and observations disagree on length")
    index = ContextIndex(records)
    design = np.vstack([build_features(context_query(index, t), mode, t, effort_fn) for t in times_ns])
    coefficients = fit_least_squares(design, np.asarray(observed_w, dtype=np.float64))
    return Predictor(mode=mode, coefficients=tuple(coefficients))


def evaluate_families_reference(
    records,
    times_ns,
    observed_w,
    train_fraction=0.7,
    families=FAMILIES,
    effort_fn=estimate_effort_heuristic,
):
    """Train each family on the leading time window, report test RMSE."""
    _require(len(times_ns) == len(observed_w), "times and observations disagree on length")
    _require(0.0 < train_fraction < 1.0, "train_fraction must be in (0, 1)")
    for family in families:
        _require(family in FAMILIES, f"unknown feature family {family!r}")
    count = len(times_ns)
    split = int(count * train_fraction)
    width = max(len(feature_names(f)) for f in families)
    _require(split >= width, f"training window too small: {split} samples for {width} features")
    _require(split < count, "test window is empty")

    from cemsim.core import context_query

    index = ContextIndex(records)
    report: dict[str, float] = {}
    for family in families:
        predictor = train_predictor(records, times_ns[:split], observed_w[:split], family, effort_fn)
        predicted = [
            predictor.predict_features(build_features(context_query(index, t), family, t, effort_fn))
            for t in times_ns[split:]
        ]
        report[family] = rmse(predicted, list(observed_w[split:]))
    return report


def _channel_reference(name, times_ns, values):
    """The old ``Channel.__post_init__`` checks, numpy and all."""
    times = np.asarray(times_ns, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not (times.ndim == 1 and values.ndim == 1):
        raise ValueError("channel arrays must be 1-d")
    if len(times) != len(values):
        raise ValueError("times and values must have equal length")
    if len(times) < 1:
        raise ValueError(f"channel {name!r} is empty")
    if len(times) > 1 and not np.all(np.diff(times) > 0):
        raise ValueError(f"channel {name!r} timestamps must be strictly increasing")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"channel {name!r} contains non-finite values")
    return times, values


def ingest_timeseries_reference(path):
    """Parse a channel CSV into ``{(subsystem_id, name): (times, values)}``."""
    collected: dict[tuple[int, str], tuple[array, array]] = {}
    appenders: dict[tuple[str, str], tuple] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(CHANNEL_HEADER):
            raise IngestError(f"{path}: bad header {header!r}")
        for line_number, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise IngestError(f"{path}:{line_number}: expected 4 fields, got {len(row)}")
            appends = appenders.get((row[1], row[2]))
            try:
                t_ns = int(row[0])
                if appends is None:
                    subsystem_id = int(row[1])
                value = float(row[3])
            except ValueError as exc:
                raise IngestError(f"{path}:{line_number}: {exc}") from exc
            if appends is None:
                name = row[2]
                if name not in KNOWN_CHANNELS:
                    raise IngestError(f"{path}:{line_number}: unknown channel {name!r}")
                columns = collected.get((subsystem_id, name))
                if columns is None:
                    columns = collected[(subsystem_id, name)] = (array("q"), array("d"))
                appends = appenders[(row[1], name)] = (columns[0].append, columns[1].append)
            try:
                appends[0](t_ns)
            except OverflowError as exc:
                raise IngestError(f"{path}:{line_number}: timestamp {t_ns} ns does not fit in int64") from exc
            appends[1](value)
    channels = {}
    for (subsystem_id, name), (time_buffer, value_buffer) in sorted(collected.items()):
        times = np.frombuffer(time_buffer, dtype=np.int64)
        values = np.frombuffer(value_buffer, dtype=np.float64)
        steps = np.diff(times)
        if (steps < 0).any():
            order = np.argsort(times, kind="stable")
            times, values = times[order], values[order]
            steps = np.diff(times)
        if not steps.all():
            duplicate = int(times[int(np.argmin(steps != 0)) + 1])
            raise IngestError(
                f"{path}: duplicate timestamp {duplicate} ns in channel "
                f"({subsystem_id}, {name!r})"
            )
        try:
            channels[(subsystem_id, name)] = _channel_reference(name, times, values)
        except ValueError as exc:
            raise IngestError(f"{path}: channel ({subsystem_id}, {name!r}): {exc}") from exc
    return channels


def _channels(table, subsystem_id, boundary_tolerance_s, *names):
    """Subsystem ``subsystem_id``'s channels ``names`` after checking the
    tolerance; ValueError names the first missing channel."""
    _require(boundary_tolerance_s >= 0.0, "boundary_tolerance_s must be >= 0")
    return [table.channel(subsystem_id, name) for name in names]


class ReplayPowerSourceReference(core.PowerSource):
    def __init__(self, table, subsystem_id, boundary_tolerance_s):
        self._voltage, self._current, self._power = _channels(
            table, subsystem_id, boundary_tolerance_s, "pv_voltage", "pv_current", "pv_power"
        )
        self._tolerance_s = boundary_tolerance_s

    def power_at(self, t_ns):
        """The recorded PV power at ``t_ns``, as a step ending there reports it."""
        return max(interpolate(self._power, t_ns, self._tolerance_s), 0.0)

    def step(self, start_ns, end_ns):
        # positional: a keyword call costs a step record about 0.3 µs more
        return core.PowerSourceStepResult(
            max(interpolate(self._voltage, end_ns, self._tolerance_s), 0.0),
            max(interpolate(self._current, end_ns, self._tolerance_s), 0.0),
            self.power_at(end_ns),
        )


class ReplayLoadReference(core.Load):
    """Recorded load.  Apparent power is raised to active power if a
    recorded pair dips below it (measurement jitter), since |S| >= P is a
    hard result invariant."""

    def __init__(self, table, subsystem_id, boundary_tolerance_s):
        self._active, self._apparent = _channels(
            table, subsystem_id, boundary_tolerance_s, "load_active_power", "load_apparent_power"
        )
        self._tolerance_s = boundary_tolerance_s

    def power_at(self, t_ns):
        """The recorded active power at ``t_ns``, as a step ending there requests it."""
        return max(interpolate(self._active, t_ns, self._tolerance_s), 0.0)

    def step(self, start_ns, end_ns):
        active = self.power_at(end_ns)
        apparent = max(interpolate(self._apparent, end_ns, self._tolerance_s), active)
        return core.LoadStepResult(active, apparent)


class ReplayGridReference(core.Grid):
    """Recorded grid exchange.  The commanded request is ignored, so the
    delivered <= requested relation cannot be enforced here; replays
    reproduce history rather than arbitrate it."""

    def __init__(self, table, subsystem_id, boundary_tolerance_s):
        self._active, self._apparent = _channels(
            table, subsystem_id, boundary_tolerance_s, "grid_active_power", "grid_apparent_power"
        )
        self._tolerance_s = boundary_tolerance_s

    def step(self, start_ns, end_ns, grid_input):
        del grid_input
        active = max(interpolate(self._active, end_ns, self._tolerance_s), 0.0)
        apparent = max(interpolate(self._apparent, end_ns, self._tolerance_s), active)
        return core.GridStepResult(active, apparent)


class ReplayBatteryReference(core.Battery):
    """Recorded battery.  delta_energy is the recorded SOC difference
    times ``capacity_j``; the commanded mode/current is ignored.
    The (soc, voltage) read at the end of one step is kept as the start
    state of the next, so each step interpolates only its end."""

    def __init__(self, table, subsystem_id, boundary_tolerance_s, capacity_j):
        self._soc, self._voltage = _channels(table, subsystem_id, boundary_tolerance_s, "battery_soc", "battery_voltage")
        _require(capacity_j > 0.0, "capacity_j must be > 0")
        self._tolerance_s = boundary_tolerance_s
        self._capacity_j = capacity_j
        self._state = None

    def _state_at(self, t_ns):
        state = self._state
        if state is not None and state[0] == t_ns:
            return state[1], state[2]
        soc = min(max(interpolate(self._soc, t_ns, self._tolerance_s), 0.0), 1.0)
        voltage = interpolate(self._voltage, t_ns, self._tolerance_s)
        self._state = (t_ns, soc, voltage)
        return soc, voltage

    def snapshot(self, now_ns):
        soc, voltage = self._state_at(now_ns)
        return core.BatteryStepResult(soc=soc, voltage=voltage, delta_energy=0.0, delta_charge=0.0)

    def step(self, start_ns, end_ns, battery_input):
        del battery_input
        previous_soc, _ = self._state_at(start_ns)
        soc, voltage = self._state_at(end_ns)
        delta_energy = (soc - previous_soc) * self._capacity_j
        return core.BatteryStepResult(soc, voltage, delta_energy, delta_energy / voltage)


@dataclass(frozen=True, slots=True)
class BreakpointSchedule:
    """Piecewise-constant price over time.

    ``breakpoints`` is a sequence of (start_ns, price_per_kwh): the price
    holds from its start until the next breakpoint (right-open).  Lookups
    before the first breakpoint are a configuration error, not zero.
    """

    breakpoints: tuple[tuple[int, float], ...]
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _prices: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require(len(self.breakpoints) >= 1, "PriceSchedule needs at least one breakpoint")
        previous = None
        for start_ns, price in self.breakpoints:
            _require(isinstance(start_ns, int), "breakpoint start must be int nanoseconds")
            _require(price >= 0.0, f"price must be >= 0, got {price!r}")
            if previous is not None:
                _require(start_ns > previous, "breakpoint starts must be strictly increasing")
            previous = start_ns
        object.__setattr__(self, "breakpoints", tuple((int(s), float(p)) for s, p in self.breakpoints))
        object.__setattr__(self, "_starts", tuple(s for s, _ in self.breakpoints))
        object.__setattr__(self, "_prices", tuple(p for _, p in self.breakpoints))

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


def build_breakpoint_schedule(
    tiers: PriceSchedule, start_ns: int, day_count: int
) -> BreakpointSchedule:
    """Two-tier schedule covering ``day_count`` days from ``start_ns``'s day."""
    first_day = (start_ns // NS_PER_DAY) * NS_PER_DAY
    breakpoints: list[tuple[int, float]] = []
    for day in range(day_count + 1):
        day_start = first_day + day * NS_PER_DAY
        breakpoints.append((day_start, tiers.off_peak_price))
        if day < day_count:
            breakpoints.append((day_start + tiers.peak_start_hour * NS_PER_HOUR, tiers.peak_price))
            if tiers.peak_end_hour < 24:
                breakpoints.append((day_start + tiers.peak_end_hour * NS_PER_HOUR, tiers.off_peak_price))
    deduped = []
    for start, price in breakpoints:
        if deduped and deduped[-1][0] == start:
            deduped[-1] = (start, price)
        else:
            deduped.append((start, price))
    return BreakpointSchedule(tuple(deduped))


# ---------------------------------------------------------------------------
# Step records as frozen dataclasses
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_finite(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, slots=True)
class PowerSourceStepResult:
    """Generation during the step, reported at the step's end.

    voltage : V, current : A, power : W.  The three fields are carried
    independently; no V*I identity is imposed on recorded data.
    """

    voltage: float
    current: float
    power: float

    def __post_init__(self) -> None:
        # One combined check on the hot path; diagnose the field only on failure.
        v, c, p = self.voltage, self.current, self.power
        if math.isfinite(v) and v >= 0.0 and math.isfinite(c) and c >= 0.0 and math.isfinite(p) and p >= 0.0:
            return
        for name in ("voltage", "current", "power"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True, slots=True)
class LoadStepResult:
    """Power the load demanded during the step (W / VA)."""

    requested_active_power: float
    requested_apparent_power: float

    def __post_init__(self) -> None:
        active, apparent = self.requested_active_power, self.requested_apparent_power
        if math.isfinite(active) and math.isfinite(apparent) and 0.0 <= active <= apparent:
            return
        _require_finite(active, "requested_active_power")
        _require_finite(apparent, "requested_apparent_power")
        _require(active >= 0.0, "requested_active_power must be >= 0")
        _require(
            apparent >= active,
            "requested_apparent_power must be >= requested_active_power",
        )


@dataclass(frozen=True, slots=True)
class GridStepInput:
    """Active/apparent power requested from the grid for the step (W / VA)."""

    requested_active_power: float
    requested_apparent_power: float

    def __post_init__(self) -> None:
        active, apparent = self.requested_active_power, self.requested_apparent_power
        if math.isfinite(active) and math.isfinite(apparent) and active >= 0.0 and apparent >= 0.0:
            return
        _require_finite(active, "requested_active_power")
        _require_finite(apparent, "requested_apparent_power")
        _require(active >= 0.0, "requested_active_power must be >= 0")
        _require(apparent >= 0.0, "requested_apparent_power must be >= 0")


@dataclass(frozen=True, slots=True)
class GridStepResult:
    """Power the grid actually delivered during the step (W / VA), the
    metered cost of the delivered energy, and whether a limit clamped it."""

    delivered_active_power: float
    delivered_apparent_power: float
    cost: float = 0.0
    limit_violation: bool = False

    def __post_init__(self) -> None:
        active, apparent = self.delivered_active_power, self.delivered_apparent_power
        if math.isfinite(active) and math.isfinite(apparent) and 0.0 <= active <= apparent:
            return
        _require_finite(active, "delivered_active_power")
        _require_finite(apparent, "delivered_apparent_power")
        _require(active >= 0.0, "delivered_active_power must be >= 0")
        _require(
            apparent >= active,
            "delivered_apparent_power must be >= delivered_active_power",
        )


@dataclass(frozen=True, slots=True)
class BatteryStepInput:
    """Commanded battery operation for the step: mode plus DC current (A, >= 0)."""

    mode: BatteryMode
    current: float

    def __post_init__(self) -> None:
        current = self.current
        if type(self.mode) is BatteryMode and math.isfinite(current) and current >= 0.0:
            return
        _require(isinstance(self.mode, BatteryMode), "mode must be a BatteryMode")
        _require_finite(current, "current")
        _require(current >= 0.0, "current must be >= 0")


@dataclass(frozen=True, slots=True)
class BatteryStepResult:
    """Battery state after the step.

    soc is the state of charge as a fraction of capacity.  delta_energy
    (J) and delta_charge (C) are the post-clamp changes over the step;
    both are positive when the battery absorbed energy and negative when
    it released energy.
    """

    soc: float
    voltage: float
    delta_energy: float
    delta_charge: float

    def __post_init__(self) -> None:
        soc, voltage, de, dq = self.soc, self.voltage, self.delta_energy, self.delta_charge
        if (
            0.0 <= soc <= 1.0
            and math.isfinite(voltage)
            and voltage > 0.0
            and math.isfinite(de)
            and math.isfinite(dq)
            and (de == 0.0 or dq == 0.0 or (de > 0.0) == (dq > 0.0))
        ):
            return
        for name in ("soc", "voltage", "delta_energy", "delta_charge"):
            _require_finite(getattr(self, name), name)
        if not 0.0 <= soc <= 1.0:
            raise ValueError(f"soc must be within [0, 1], got {soc!r}")
        _require(voltage > 0.0, "voltage must be > 0")
        _require(
            (de > 0.0) == (dq > 0.0),
            "delta_energy and delta_charge must agree in sign",
        )


@dataclass(frozen=True, slots=True)
class InverterStepInput:
    """Everything the inverter sees when allocating power for a step.

    Generation and load are the results just produced for the current
    step; the battery result is from the previous step and carries the
    state of charge the dispatch is based on.
    """

    power_source: PowerSourceStepResult
    battery: BatteryStepResult
    load: LoadStepResult


@dataclass(frozen=True, slots=True)
class InverterStepResult:
    """Inverter allocation for the step.

    grid_input is the request forwarded to the grid, battery_input the
    command forwarded to the battery, pv_power_drawn the generation
    actually used (W, source side; at most the offered power).
    """

    grid_input: GridStepInput
    battery_input: BatteryStepInput
    pv_power_drawn: float

    def __post_init__(self) -> None:
        drawn = self.pv_power_drawn
        if math.isfinite(drawn) and drawn >= 0.0:
            return
        _require_finite(drawn, "pv_power_drawn")
        _require(drawn >= 0.0, "pv_power_drawn must be >= 0")


# ---------------------------------------------------------------------------
# Configuration, context and scenario classes as dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ContextRecord:
    """A timestamped note about a subsystem, valid over [begins_at, ends_at).

    recorded_at is when the note became known; begins_at/ends_at bound the
    interval it talks about.  recorded_at may lie inside the interval
    (notes about something already running) but never at or after its end:
    a note that only becomes known once its interval is over is rejected.
    payload is a read-only mapping; by convention a "text" key holds the
    human-readable description.
    """

    recorded_at_ns: int
    begins_at_ns: int
    ends_at_ns: int
    subsystem_id: int
    payload: Mapping[str, object]

    def __post_init__(self) -> None:
        for name in ("recorded_at_ns", "begins_at_ns", "ends_at_ns"):
            _require(isinstance(getattr(self, name), int), f"{name} must be an int")
        _require(isinstance(self.subsystem_id, int), "subsystem_id must be an int")
        _require(
            self.begins_at_ns < self.ends_at_ns,
            f"begins_at_ns ({self.begins_at_ns}) must precede ends_at_ns ({self.ends_at_ns})",
        )
        _require(
            self.recorded_at_ns < self.ends_at_ns,
            f"recorded_at_ns ({self.recorded_at_ns}) must precede ends_at_ns ({self.ends_at_ns})",
        )
        object.__setattr__(self, "payload", MappingProxyType(dict(self.payload)))

    def text(self) -> str:
        return str(self.payload.get("text", ""))


@dataclass(frozen=True, slots=True)
class JobEvent:
    """A scheduled compute job contributing load over its window."""

    begins_at_ns: int
    ends_at_ns: int
    description: str
    true_effort: float
    watts_per_effort: float

    def __post_init__(self) -> None:
        _require(self.begins_at_ns < self.ends_at_ns, "job must begin before it ends")
        _require(self.true_effort >= 0.0, "true_effort must be >= 0")
        _require(self.watts_per_effort >= 0.0, "watts_per_effort must be >= 0")


@dataclass(frozen=True, slots=True)
class PriceSchedule:
    """Two-tier daily pricing: peak window price and off-peak price."""

    off_peak_price: float = 0.10
    peak_price: float = 0.40
    peak_start_hour: int = 8
    peak_end_hour: int = 20

    def __post_init__(self) -> None:
        _require(self.off_peak_price >= 0.0, "off_peak_price must be >= 0")
        _require(self.peak_price >= 0.0, "peak_price must be >= 0")
        _require(
            0 <= self.peak_start_hour < self.peak_end_hour <= 24,
            "need 0 <= peak_start_hour < peak_end_hour <= 24",
        )


@dataclass(frozen=True, slots=True)
class Channel:
    """One recorded measurement series; times strictly increasing.

    ``times_ns`` is an ``array('q')`` of int64 nanoseconds and ``values``
    an ``array('d')`` of finite floats; ``_values`` is a zero-copy
    memoryview of the values for scalar lookups.  Any
    sequences of ints and floats are accepted and copied into arrays;
    arrays of those types are kept as given.  A time that is not an int
    within int64 is a ``ValueError`` naming the channel, never truncated.
    """

    subsystem_id: int
    name: str
    times_ns: array
    values: array
    _values: memoryview = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = _as_array("q", self.times_ns, f"channel {self.name!r} timestamps must be integers within int64")
        values = _as_array("d", self.values, f"channel {self.name!r} values must be floats")
        _require(len(times) == len(values), "times and values must have equal length")
        _require(len(times) >= 1, f"channel {self.name!r} is empty")
        if not all(map(lt, times, times[1:])):
            raise ValueError(f"channel {self.name!r} timestamps must be strictly increasing")
        if not all(map(isfinite, values)):
            raise ValueError(f"channel {self.name!r} contains non-finite values")
        object.__setattr__(self, "times_ns", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_values", memoryview(values))


@dataclass(frozen=True)
class Predictor:
    """A fitted load model for one feature family."""

    mode: str
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        expected = len(feature_names(self.mode))
        _require(
            len(self.coefficients) == expected,
            f"{self.mode!r} predictor needs {expected} coefficients, got {len(self.coefficients)}",
        )

    def predict_features(self, features: np.ndarray) -> float:
        import numpy as np

        return float(np.dot(np.asarray(features, dtype=np.float64), self.coefficients))

    def predict(
        self,
        records: Iterable[ContextRecord],
        t_ns: int,
        effort_fn: EffortEstimator = estimate_effort_heuristic,
    ) -> float:
        return self.predict_features(build_features(records, self.mode, t_ns, effort_fn))


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: blocks are plain dicts holding every key of
    their kind's table, defaults filled."""

    seed: int
    start_ns: int
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
    def step_ns(self) -> int:
        return self.step_seconds * NS_PER_SECOND

    @property
    def horizon_ns(self) -> int:
        return self.horizon_seconds * NS_PER_SECOND

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.horizon_ns

    @property
    def day_count(self) -> int:
        return max(1, -(-self.horizon_seconds // 86_400))


@dataclass
class SimulationBundle:
    """Everything a runner needs: the simulator plus scenario artifacts."""

    scenario: Scenario
    strategy: str
    simulator: Simulator
    records: tuple[ContextRecord, ...]
    schedule: PriceSchedule | None
    controller: RecedingHorizonController | None


# ---------------------------------------------------------------------------
# Planner classes as dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChargingProblem:
    """One planning window.

    prices are per kWh, sampled per step; load_w and pv_w are the expected
    per-step powers; capacity_j, soc bounds and the starting SOC describe
    the storage; max_grid_power_w optionally caps each step's purchase.
    The three series are converted to float tuples and checked here, the
    one place a forecast window's series are (:class:`ForecastWindow`
    keeps them as given); :meth:`tail` reuses them for a later start.
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
        object.__setattr__(self, "prices", tuple(map(float, self.prices)))
        object.__setattr__(self, "load_w", tuple(map(float, self.load_w)))
        object.__setattr__(self, "pv_w", tuple(map(float, self.pv_w)))
        _require(0.0 < self.step_seconds < inf, "step_seconds must be finite and > 0")
        count = len(self.prices)
        _require(count >= 1, "the planning window must contain at least one step")
        _require(
            len(self.load_w) == count and len(self.pv_w) == count,
            "prices, load_w and pv_w must have equal length",
        )
        _require(_finite_and_nonnegative(self.prices), "prices must be finite and >= 0")
        _require(_finite_and_nonnegative(self.load_w), "load_w must be finite and >= 0")
        _require(_finite_and_nonnegative(self.pv_w), "pv_w must be finite and >= 0")
        _require(0.0 < self.capacity_j < inf, "capacity_j must be finite and > 0")
        _require(0.0 <= self.soc_min < self.soc_max <= 1.0, "need 0 <= soc_min < soc_max <= 1")
        self._check_soc_initial()
        if self.max_grid_power_w is not None:
            _require(self.max_grid_power_w >= 0.0, "max_grid_power_w must be >= 0")

    def _check_soc_initial(self) -> None:
        if not self.soc_min - 1e-9 <= self.soc_initial <= self.soc_max + 1e-9:
            raise ValueError(f"soc_initial {self.soc_initial!r} outside [{self.soc_min}, {self.soc_max}]")

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
        tail = object.__new__(ChargingProblem)
        tail.__dict__.update(
            self.__dict__,
            prices=self.prices[offset:],
            load_w=self.load_w[offset:],
            pv_w=self.pv_w[offset:],
            soc_initial=soc_initial,
        )
        tail._check_soc_initial()
        return tail


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


@dataclass(frozen=True)
class ForecastWindow:
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

    start_ns: int
    step_ns: int
    load_w: tuple[float, ...]
    pv_w: tuple[float, ...]
    prices: tuple[float, ...]

    def __post_init__(self) -> None:
        _require(self.step_ns > 0, "step_ns must be > 0")
        _require(
            len(self.load_w) == len(self.pv_w) == len(self.prices),
            "forecast window series must have equal length",
        )

    @property
    def step_seconds(self) -> float:
        return self.step_ns / NS_PER_SECOND


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

    @property
    def fallback(self) -> bool:
        """Whether the step has no plan (callers dispatch PV-first)."""
        return self.plan is None
