"""Reference implementations used only by tests.

The DP and LP oracles deliberately share no code with the shipped solvers.
``greedy_charging`` is the shipped greedy before its candidate walk was
rewritten; it shares only the plan type, the error type and the compensated
cost sum, so plans can be compared bit for bit.  The DP charging
oracle does dynamic programming over cumulative purchased energy, restricted
to the grid of values where an optimal schedule can sit: the feasibility
boundaries of every step, plus (when per-step purchases are capped) every
boundary shifted by whole multiples of the cap.  An optimal plan always
purchases either nothing, the per-step maximum, or exactly enough to touch a
storage boundary, so the optimum lies on that grid.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from cemsim.control import ChargingPlan, InfeasibleProblemError, _plan_cost

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
    return ChargingPlan(
        step_seconds=dt,
        grid_power_w=grid_power,
        soc_trajectory=soc_trajectory,
        prices=problem.prices,
        total_cost=_plan_cost(problem.prices, grid_power, dt),
        purchased_energy_j=float(bought[-1]),
    )
