"""Hybrid inverter dispatch: PV-first, optionally steered by a purchase plan.

One kernel, :func:`inverter_pv_first_step`, allocates every step.  Without
a plan (``planned=None``) the priority is PV-first: generation covers the
AC demand first; leftover generation charges the battery; the battery
covers any remaining demand; whatever is still uncovered is requested
from the grid.

With a planned grid purchase (W) the first two stages are the same and
the plan replaces the third: a purchase within ``SNAP_REL`` of the
deficit buys exactly the deficit and the battery holds; a larger purchase
routes the surplus into the battery (only what the caps let land is
bought); a smaller one lets the battery cover the gap, and any remainder
is added to the grid request, so the load is always served.  The battery
never charges and discharges in the same step.

All efficiencies are multiplicative factors in (0, 1] on the named path.
Power caps are battery-side watts.  If ``battery_capacity`` is set, the
commanded current is additionally limited so the projected state of
charge stays inside [soc_min, soc_max]; without it the SOC gates only
check the bound at the step's start, which can overshoot within one step.
The projection starts from ``soc_basis`` when given (a planner's SOC
that the executed state agrees with), else from the executed SOC.

:class:`InverterPVFirstConfig`, read on every step, is a
:class:`~cemsim.core.SlotRecord`, not a dataclass, so building an
inverter imports no :mod:`dataclasses`.
"""

from __future__ import annotations

import math

from ..core import (
    NS_PER_SECOND,
    BatteryMode,
    BatteryStepInput,
    GridStepInput,
    Inverter,
    InverterStepInput,
    InverterStepResult,
    SlotRecord,
    _require,
)


class InverterPVFirstConfig(SlotRecord):
    """PV-first dispatch parameters.

    eta_pv_to_batt / eta_pv_to_load / eta_batt_to_load : path efficiencies.
    max_charge_power / max_discharge_power : battery-side caps in W.
    soc_min / soc_max : battery operating window enforced by dispatch.
    self_power : the inverter's own consumption in W, added to demand.
    battery_capacity : battery capacity in J for energy-aware current
        limits (None disables them).  battery_eta_charge and
        battery_eta_discharge describe the attached battery so the
        projection matches what the battery will actually store or drain.
    """

    _fields = (
        "eta_pv_to_batt",
        "eta_pv_to_load",
        "eta_batt_to_load",
        "max_charge_power",
        "max_discharge_power",
        "soc_min",
        "soc_max",
        "self_power",
        "battery_capacity",
        "battery_eta_charge",
        "battery_eta_discharge",
    )
    __slots__ = _fields

    def __init__(
        self,
        eta_pv_to_batt: float = 0.97,
        eta_pv_to_load: float = 0.95,
        eta_batt_to_load: float = 0.95,
        max_charge_power: float = math.inf,
        max_discharge_power: float = math.inf,
        soc_min: float = 0.1,
        soc_max: float = 1.0,
        self_power: float = 0.0,
        battery_capacity: float | None = None,
        battery_eta_charge: float = 1.0,
        battery_eta_discharge: float = 1.0,
    ) -> None:
        for name, value in (
            ("eta_pv_to_batt", eta_pv_to_batt),
            ("eta_pv_to_load", eta_pv_to_load),
            ("eta_batt_to_load", eta_batt_to_load),
        ):
            _require(0.0 < value <= 1.0, f"{name} must be in (0, 1]")
        _require(max_charge_power >= 0.0, "max_charge_power must be >= 0")
        _require(max_discharge_power >= 0.0, "max_discharge_power must be >= 0")
        _require(0.0 <= soc_min < soc_max <= 1.0, "need 0 <= soc_min < soc_max <= 1")
        _require(self_power >= 0.0, "self_power must be >= 0")
        if battery_capacity is not None:
            _require(battery_capacity > 0.0, "battery_capacity must be > 0")
        _require(0.0 < battery_eta_charge <= 1.0, "battery_eta_charge must be in (0, 1]")
        _require(0.0 < battery_eta_discharge <= 1.0, "battery_eta_discharge must be in (0, 1]")
        self._set_slots(
            eta_pv_to_batt,
            eta_pv_to_load,
            eta_batt_to_load,
            max_charge_power,
            max_discharge_power,
            soc_min,
            soc_max,
            self_power,
            battery_capacity,
            battery_eta_charge,
            battery_eta_discharge,
        )


#: Relative tolerance within which a planned purchase counts as exactly
#: the deficit, the planned charge as fully routed, or the planned
#: discharge as within its cap.
SNAP_REL = 1e-9

# Shared frozen instance; most steps idle the battery and a fresh record
# per step is measurable at scale.
_IDLE_BATTERY_INPUT = BatteryStepInput(BatteryMode.IDLE, 0.0)


def _charge_power_limit(config: InverterPVFirstConfig, soc: float, dt_s: float) -> float:
    """Battery-side W ceiling so projected SOC stays at or below soc_max."""
    limit = config.max_charge_power
    if config.battery_capacity is not None:
        headroom_j = (config.soc_max - soc) * config.battery_capacity
        limit = min(limit, max(headroom_j, 0.0) / (config.battery_eta_charge * dt_s))
    return limit


def _discharge_power_limit(config: InverterPVFirstConfig, soc: float, dt_s: float) -> float:
    """Battery-side W ceiling so projected SOC stays at or above soc_min."""
    limit = config.max_discharge_power
    if config.battery_capacity is not None:
        available_j = (soc - config.soc_min) * config.battery_capacity
        limit = min(limit, max(available_j, 0.0) * config.battery_eta_discharge / dt_s)
    return limit


def inverter_pv_first_step(
    inverter_input: InverterStepInput,
    config: InverterPVFirstConfig,
    dt_s: float,
    planned: float | None = None,
    soc_basis: float | None = None,
) -> InverterStepResult:
    """Allocate one step's power flows, PV-first or along a planned purchase."""
    pv_offered = inverter_input.power_source.power
    load = inverter_input.load
    if soc_basis is None:
        soc_basis = inverter_input.battery.soc

    demand = load.requested_active_power + config.self_power

    # 1. Generation covers demand.
    demand_pv_side = demand / config.eta_pv_to_load
    if pv_offered >= demand_pv_side:
        pv_for_load = demand_pv_side
        deficit = 0.0
    else:
        pv_for_load = pv_offered
        deficit = demand - pv_offered * config.eta_pv_to_load
    pv_surplus = pv_offered - pv_for_load
    pv_drawn = pv_for_load

    charge_power = 0.0  # battery-side W
    discharge_power = 0.0  # battery-side W
    uncovered = 0.0  # demand neither generation nor the battery serves

    # 2. Leftover generation charges the battery.
    if pv_surplus > 0.0 and soc_basis < config.soc_max:
        allowed = _charge_power_limit(config, soc_basis, dt_s)
        charge_power = min(pv_surplus * config.eta_pv_to_batt, allowed)
        pv_drawn += charge_power / config.eta_pv_to_batt

    if planned is None:
        # 3. The battery covers the remaining demand, within its caps and
        # window; the rest is bought.
        uncovered = deficit
        if deficit > 0.0 and soc_basis > config.soc_min:
            wanted = deficit / config.eta_batt_to_load
            allowed = _discharge_power_limit(config, soc_basis, dt_s)
            if wanted <= allowed:
                discharge_power = wanted
                uncovered = 0.0
            else:
                discharge_power = allowed
                uncovered = deficit - discharge_power * config.eta_batt_to_load
                if uncovered < 0.0:
                    uncovered = 0.0
        requested_active = uncovered
    else:
        # 3. The plan's purchase serves the deficit first.
        snap = SNAP_REL * max(1.0, abs(planned), abs(deficit))
        if abs(planned - deficit) <= snap:
            # The plan buys exactly the deficit: grid serves the load,
            # the battery holds (sub-tolerance dust is not dispatched).
            requested_active = planned
        elif planned > deficit:
            # Surplus purchase goes into the battery.
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
            # Short purchase: the battery covers the gap, the grid the rest.
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

    # 4. The grid request; apparent power covers what the load still needs.
    covered_for_load = min(demand - uncovered, load.requested_active_power)
    apparent_residual = load.requested_apparent_power - covered_for_load
    if apparent_residual < 0.0:
        apparent_residual = 0.0
    requested_apparent = max(apparent_residual, requested_active)

    battery_voltage = inverter_input.battery.voltage
    if charge_power > 0.0:
        battery_input = BatteryStepInput(BatteryMode.CHARGE, charge_power / battery_voltage)
    elif discharge_power > 0.0:
        battery_input = BatteryStepInput(BatteryMode.DISCHARGE, discharge_power / battery_voltage)
    else:
        battery_input = _IDLE_BATTERY_INPUT

    return InverterStepResult(
        GridStepInput(requested_active, requested_apparent), battery_input, pv_drawn
    )


class InverterPVFirst(Inverter):
    """Stateful wrapper around :func:`inverter_pv_first_step`."""

    def __init__(self, config: InverterPVFirstConfig | None = None) -> None:
        self._config = config if config is not None else InverterPVFirstConfig()

    def step(self, start_ns: int, end_ns: int, inverter_input: InverterStepInput) -> InverterStepResult:
        return inverter_pv_first_step(inverter_input, self._config, (end_ns - start_ns) / NS_PER_SECOND)
