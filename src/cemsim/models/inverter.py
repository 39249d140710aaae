"""Hybrid inverter dispatch: PV-first, optionally steered by a purchase plan.

One class, :class:`InverterPVFirst`, holds the inverter's parameters and
allocates every step in one method, :meth:`InverterPVFirst.dispatch`.
Without a plan (``planned=None``) the priority is PV-first: generation
covers the AC demand first; leftover generation charges the battery; the
battery covers any remaining demand; whatever is still uncovered is
requested from the grid.

With a planned grid purchase (W) the first two stages are the same and
the plan replaces the third: a purchase within ``SNAP_REL`` of the
deficit buys exactly the deficit and the battery holds; a larger purchase
routes the surplus into the battery (only what the caps let land is
bought); a smaller one lets the battery cover the gap, and any remainder
is added to the grid request, so the load is always served.  The battery
never charges and discharges in the same step.

All efficiencies are multiplicative factors in (0, 1] on the named path.
Power caps are battery-side watts.  The inverter knows the battery's
capacity (``battery_capacity_j`` is required), and the commanded current
is also limited so the projected state of charge stays inside
[soc_min, soc_max] at the step's end.  The projection starts from
``soc_basis`` when given (a planner's SOC that the executed state agrees
with), else from the executed SOC.

The parameters are plain attributes, named after the scenario's
``inverter`` block keys, so building an inverter imports no
:mod:`dataclasses`.  Each is a required keyword: its default is written
once, in the scenario's tables.  ``control.MPCInverter`` is the subclass a planner
steers.
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
    _require,
)

#: Relative tolerance within which a planned purchase counts as exactly
#: the deficit, the planned charge as fully routed, or the planned
#: discharge as within its cap.
SNAP_REL = 1e-9

# Shared frozen instance; most steps idle the battery and a fresh record
# per step is measurable at scale.
_IDLE_BATTERY_INPUT = BatteryStepInput(BatteryMode.IDLE, 0.0)


class InverterPVFirst(Inverter):
    """The PV-first inverter.

    Every parameter is a required keyword: the ``inverter`` block's keys,
    and the ``battery_`` ones the battery block's (``build_bundle`` passes
    1 for the efficiencies of a recorded battery).  Their defaults are
    written once, in ``scenario.BLOCK_TABLES``.

    eta_pv_to_batt / eta_pv_to_load / eta_batt_to_load : path efficiencies.
    max_charge_power_w / max_discharge_power_w : battery-side caps in W
        (None: no cap, held as ``math.inf``).
    soc_min / soc_max : battery operating window enforced by dispatch.
    self_power_w : the inverter's own consumption in W, added to demand.
    battery_capacity_j : the attached battery's capacity in J, which
        limits the current to what keeps the projected SOC inside the
        window.  battery_eta_charge and
        battery_eta_discharge describe the attached battery so the
        projection matches what the battery will actually store or drain.

    Same inputs, same record: :meth:`step` returns the last step's
    :class:`~cemsim.core.InverterStepResult`, the same object, when the
    pv, battery and load records it is handed are the very objects of
    the last step and the step is as long.  The key is identity, not
    value: a component hands back its previous record when nothing
    changed (the synthetic night pv record, the load's last record, the
    idle battery's record), a record is immutable, and :meth:`dispatch`
    is a function of its fields, the step length and the parameters,
    which the constructor sets once.  So a reused result is the one
    dispatch would return, bit for bit, and it passed its record's
    checks when it was built; comparing values would cost a float
    compare a field and take -0.0 for 0.0.  :meth:`dispatch` keeps
    nothing, and ``control.MPCInverter``, which overrides :meth:`step`,
    decides every step.
    """

    def __init__(
        self,
        *,
        battery_capacity_j: float,
        eta_pv_to_batt: float,
        eta_pv_to_load: float,
        eta_batt_to_load: float,
        max_charge_power_w: float | None,
        max_discharge_power_w: float | None,
        soc_min: float,
        soc_max: float,
        self_power_w: float,
        battery_eta_charge: float,
        battery_eta_discharge: float,
    ) -> None:
        if max_charge_power_w is None:
            max_charge_power_w = math.inf
        if max_discharge_power_w is None:
            max_discharge_power_w = math.inf
        for name, value in (
            ("eta_pv_to_batt", eta_pv_to_batt),
            ("eta_pv_to_load", eta_pv_to_load),
            ("eta_batt_to_load", eta_batt_to_load),
        ):
            _require(0.0 < value <= 1.0, f"{name} must be in (0, 1]")
        _require(max_charge_power_w >= 0.0, "max_charge_power_w must be >= 0")
        _require(max_discharge_power_w >= 0.0, "max_discharge_power_w must be >= 0")
        _require(0.0 <= soc_min < soc_max <= 1.0, "need 0 <= soc_min < soc_max <= 1")
        _require(self_power_w >= 0.0, "self_power_w must be >= 0")
        _require(battery_capacity_j > 0.0, "battery_capacity_j must be > 0")
        _require(0.0 < battery_eta_charge <= 1.0, "battery_eta_charge must be in (0, 1]")
        _require(0.0 < battery_eta_discharge <= 1.0, "battery_eta_discharge must be in (0, 1]")
        self.eta_pv_to_batt = eta_pv_to_batt
        self.eta_pv_to_load = eta_pv_to_load
        self.eta_batt_to_load = eta_batt_to_load
        self.max_charge_power_w = max_charge_power_w
        self.max_discharge_power_w = max_discharge_power_w
        self.soc_min = soc_min
        self.soc_max = soc_max
        self.self_power_w = self_power_w
        self.battery_capacity_j = battery_capacity_j
        self.battery_eta_charge = battery_eta_charge
        self.battery_eta_discharge = battery_eta_discharge
        # the last step's pv, battery and load records, its length in ns
        # and its result
        self._last = (None, None, None, None, None)

    def step(self, start_ns: int, end_ns: int, inverter_input: InverterStepInput) -> InverterStepResult:
        pv, battery, load = inverter_input
        step_ns = end_ns - start_ns
        last_pv, last_battery, last_load, last_step_ns, result = self._last
        if pv is last_pv and battery is last_battery and load is last_load and step_ns == last_step_ns:
            return result
        result = self.dispatch(inverter_input, step_ns / NS_PER_SECOND)
        self._last = (pv, battery, load, step_ns, result)
        return result

    def _charge_power_limit(self, soc: float, dt_s: float) -> float:
        """Battery-side W ceiling so projected SOC stays at or below soc_max."""
        headroom_j = (self.soc_max - soc) * self.battery_capacity_j
        return min(self.max_charge_power_w, max(headroom_j, 0.0) / (self.battery_eta_charge * dt_s))

    def _discharge_power_limit(self, soc: float, dt_s: float) -> float:
        """Battery-side W ceiling so projected SOC stays at or above soc_min."""
        available_j = (soc - self.soc_min) * self.battery_capacity_j
        return min(self.max_discharge_power_w, max(available_j, 0.0) * self.battery_eta_discharge / dt_s)

    def dispatch(
        self,
        inverter_input: InverterStepInput,
        dt_s: float,
        planned: float | None = None,
        soc_basis: float | None = None,
    ) -> InverterStepResult:
        """Allocate one step's power flows, PV-first or along a planned purchase."""
        pv_offered = inverter_input.power_source.power
        load = inverter_input.load
        if soc_basis is None:
            soc_basis = inverter_input.battery.soc

        demand = load.requested_active_power + self.self_power_w

        # 1. Generation covers demand.
        demand_pv_side = demand / self.eta_pv_to_load
        if pv_offered >= demand_pv_side:
            pv_for_load = demand_pv_side
            deficit = 0.0
        else:
            pv_for_load = pv_offered
            deficit = demand - pv_offered * self.eta_pv_to_load
        pv_surplus = pv_offered - pv_for_load
        pv_drawn = pv_for_load

        charge_power = 0.0  # battery-side W
        discharge_power = 0.0  # battery-side W
        uncovered = 0.0  # demand neither generation nor the battery serves

        # 2. Leftover generation charges the battery.
        if pv_surplus > 0.0 and soc_basis < self.soc_max:
            allowed = self._charge_power_limit(soc_basis, dt_s)
            charge_power = min(pv_surplus * self.eta_pv_to_batt, allowed)
            pv_drawn += charge_power / self.eta_pv_to_batt

        if planned is None:
            # 3. The battery covers the remaining demand, within its caps and
            # window; the rest is bought.
            uncovered = deficit
            if deficit > 0.0 and soc_basis > self.soc_min:
                wanted = deficit / self.eta_batt_to_load
                allowed = self._discharge_power_limit(soc_basis, dt_s)
                if wanted <= allowed:
                    discharge_power = wanted
                    uncovered = 0.0
                else:
                    discharge_power = allowed
                    uncovered = deficit - discharge_power * self.eta_batt_to_load
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
                if soc_basis < self.soc_max:
                    allowed = self._charge_power_limit(soc_basis, dt_s)
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
                wanted = gap / self.eta_batt_to_load
                allowed = 0.0
                if soc_basis > self.soc_min:
                    allowed = self._discharge_power_limit(soc_basis, dt_s)
                if wanted <= allowed + snap:
                    discharge_power = min(wanted, allowed)
                    requested_active = planned
                else:
                    discharge_power = allowed
                    uncovered = gap - discharge_power * self.eta_batt_to_load
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
