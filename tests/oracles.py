"""Reference implementations used only by tests.

The DP and LP oracles deliberately share no code with the shipped solvers.
``greedy_charging`` is the shipped greedy before its candidate walk was
rewritten; it shares only the plan type (which sums ``total_cost``) and the
error type, so plans can be compared bit for bit.  The DP charging
oracle does dynamic programming over cumulative purchased energy, restricted
to the grid of values where an optimal schedule can sit: the feasibility
boundaries of every step, plus (when per-step purchases are capped) every
boundary shifted by whole multiples of the cap.  An optimal plan always
purchases either nothing, the per-step maximum, or exactly enough to touch a
storage boundary, so the optimum lies on that grid.
``interpolate_reference`` is the replay lookup before it moved from numpy
``searchsorted`` to ``bisect`` over memoryviews, kept verbatim so lookups
can be compared bit for bit, errors included.
``load_power_reference`` is the synthetic load before its job table: every
job tested at every instant, kept verbatim (the ``active_at`` test inlined),
so the table lookup can be compared bit for bit.
``ingest_timeseries_reference`` is the channel-CSV ingest while it used
numpy (``np.diff``, a stable ``np.argsort``, ``np.isfinite``), kept verbatim
with the numpy checks of the old ``Channel`` inlined, so the builtin checks
share no validation with it.  It returns ``{(subsystem_id, name): (times,
values)}`` as int64/float64 arrays.  Two of its behaviours were since
changed on purpose: a non-finite value was reported per channel without a
line, and ``np.diff`` wraps where two times of a channel lie more than
``2**63 - 1`` ns apart, so such a channel's order was misjudged.
The step records at the end are the eight component records of
``cemsim.core`` while they were frozen slotted dataclasses, with the two
check helpers they called, kept verbatim so each tuple record can be held
to the same acceptance, messages, ``repr``, field values and hash.
"""
from __future__ import annotations

import csv
import math
from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from cemsim.control import ChargingPlan, InfeasibleProblemError
from cemsim.core import BatteryMode
from cemsim.models.synthetic import unit_noise
from cemsim.replay import (
    CHANNEL_HEADER,
    DEFAULT_BOUNDARY_TOLERANCE_S,
    KNOWN_CHANNELS,
    IngestError,
    TimeSeriesRangeError,
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
    return ChargingPlan(
        step_seconds=dt,
        grid_power_w=grid_power,
        soc_trajectory=soc_trajectory,
        prices=problem.prices,
        purchased_energy_j=float(bought[-1]),
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
        if t_ns < first - slack_ns or t_ns > last + slack_ns:
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
    power = config.base_load
    for job in config.job_events:
        if job.begins_at_ns <= t_ns < job.ends_at_ns:
            power += job.true_effort * job.watts_per_effort
    if config.load_noise_amplitude > 0.0:
        wobble = 2.0 * unit_noise(config.seed, "load", t_ns) - 1.0
        power += config.load_noise_amplitude * config.base_load * wobble
        if power < 0.0:
            return 0.0
    return power


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
