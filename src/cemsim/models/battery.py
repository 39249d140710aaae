"""Linear battery model.

Stored energy integrates the commanded DC current at a constant nominal
voltage, with separate charge and discharge efficiencies:

    charge:     dE = dt * U_N * I * eta_charge
    discharge:  dE = -dt * U_N * I / eta_discharge
    idle:       dE = 0

and the store clamps to [0, capacity].  Reported deltas are post-clamp,
positive when the battery absorbed energy.  Temperature, aging, and
voltage sag are out of scope.

:class:`BatteryLinear` holds its parameters as plain attributes, set
once by its constructor, so building a battery imports no
:mod:`dataclasses`.
"""

from __future__ import annotations

from ..core import (
    NS_PER_SECOND,
    Battery,
    BatteryMode,
    BatteryStepInput,
    BatteryStepResult,
    _require,
)


class BatteryLinear(Battery):
    """The linear battery.

    Its parameters are the ``battery`` block's keys, each a required
    keyword; their defaults are written once, in ``scenario.BLOCK_TABLES``.

    capacity_j : usable capacity in joules.
    eta_charge / eta_discharge : efficiencies in (0, 1].
    nominal_voltage : constant terminal voltage in V.
    initial_soc : starting state of charge, fraction of capacity.
    """

    def __init__(
        self, *, capacity_j: float, eta_charge: float, eta_discharge: float, nominal_voltage: float, initial_soc: float
    ) -> None:
        _require(capacity_j > 0.0, "capacity_j must be > 0")
        _require(0.0 < eta_charge <= 1.0, "eta_charge must be in (0, 1]")
        _require(0.0 < eta_discharge <= 1.0, "eta_discharge must be in (0, 1]")
        _require(nominal_voltage > 0.0, "nominal_voltage must be > 0")
        _require(0.0 <= initial_soc <= 1.0, "initial_soc must be in [0, 1]")
        self.capacity_j = capacity_j
        self.eta_charge = eta_charge
        self.eta_discharge = eta_discharge
        self.nominal_voltage = nominal_voltage
        self.initial_soc = initial_soc
        self._energy_j = initial_soc * capacity_j
        self._idle_result: BatteryStepResult | None = None

    @property
    def energy_j(self) -> float:
        return self._energy_j

    def snapshot(self, now_ns: int) -> BatteryStepResult:
        """Idle result at the current store; it does not change between steps."""
        return BatteryStepResult(
            soc=self._energy_j / self.capacity_j,
            voltage=self.nominal_voltage,
            delta_energy=0.0,
            delta_charge=0.0,
        )

    def step(self, start_ns: int, end_ns: int, battery_input: BatteryStepInput) -> BatteryStepResult:
        if battery_input.mode is BatteryMode.IDLE:
            # Idle leaves the store untouched, so the result only changes
            # when a charge or discharge does; reuse the frozen record.
            result = self._idle_result
            if result is None:
                result = self.snapshot(end_ns)
                self._idle_result = result
            return result
        self._idle_result = None
        dt_s = (end_ns - start_ns) / NS_PER_SECOND
        energy_j = self._energy_j
        voltage = self.nominal_voltage
        if battery_input.mode is BatteryMode.CHARGE:
            delta = dt_s * voltage * battery_input.current * self.eta_charge
        else:
            delta = -dt_s * voltage * battery_input.current / self.eta_discharge
        new_energy = energy_j + delta
        if new_energy > self.capacity_j:
            new_energy = self.capacity_j
        elif new_energy < 0.0:
            new_energy = 0.0
        clamped_delta = new_energy - energy_j
        self._energy_j = new_energy
        return BatteryStepResult(new_energy / self.capacity_j, voltage, clamped_delta, clamped_delta / voltage)
