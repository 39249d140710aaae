"""Linear battery model.

Stored energy integrates the commanded DC current at a constant nominal
voltage, with separate charge and discharge efficiencies:

    charge:     dE = dt * U_N * I * eta_charge
    discharge:  dE = -dt * U_N * I / eta_discharge
    idle:       dE = 0

and the store clamps to [0, capacity].  Reported deltas are post-clamp,
positive when the battery absorbed energy.  Temperature, aging, and
voltage sag are out of scope.

:class:`BatteryLinearConfig`, read on every charging or discharging step,
is a :class:`~cemsim.core.SlotRecord`, not a dataclass, so building a
battery imports no :mod:`dataclasses`.
"""

from __future__ import annotations

from ..core import (
    NS_PER_SECOND,
    Battery,
    BatteryMode,
    BatteryStepInput,
    BatteryStepResult,
    SlotRecord,
    _require,
)


class BatteryLinearConfig(SlotRecord):
    """Parameters of the linear battery.

    capacity_j : usable capacity in joules.
    eta_charge / eta_discharge : efficiencies in (0, 1].
    nominal_voltage : constant terminal voltage in V.
    initial_soc : starting state of charge, fraction of capacity.
    """

    _fields = ("capacity_j", "eta_charge", "eta_discharge", "nominal_voltage", "initial_soc")
    __slots__ = _fields

    def __init__(
        self,
        capacity_j: float = 1.8432e7,  # 5.12 kWh (51.2 V x 100 Ah pack)
        eta_charge: float = 0.95,
        eta_discharge: float = 0.95,
        nominal_voltage: float = 51.2,
        initial_soc: float = 0.5,
    ) -> None:
        _require(capacity_j > 0.0, "capacity_j must be > 0")
        _require(0.0 < eta_charge <= 1.0, "eta_charge must be in (0, 1]")
        _require(0.0 < eta_discharge <= 1.0, "eta_discharge must be in (0, 1]")
        _require(nominal_voltage > 0.0, "nominal_voltage must be > 0")
        _require(0.0 <= initial_soc <= 1.0, "initial_soc must be in [0, 1]")
        self._set_slots(capacity_j, eta_charge, eta_discharge, nominal_voltage, initial_soc)


def battery_linear_step(
    energy_j: float,
    battery_input: BatteryStepInput,
    config: BatteryLinearConfig,
    dt_s: float,
) -> tuple[float, BatteryStepResult]:
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
    result = BatteryStepResult(
        new_energy / config.capacity_j, voltage, clamped_delta, clamped_delta / voltage
    )
    return new_energy, result


class BatteryLinear(Battery):
    """Stateful wrapper around :func:`battery_linear_step`."""

    def __init__(self, config: BatteryLinearConfig | None = None) -> None:
        self._config = config if config is not None else BatteryLinearConfig()
        self._energy_j = self._config.initial_soc * self._config.capacity_j
        self._idle_result: BatteryStepResult | None = None

    @property
    def config(self) -> BatteryLinearConfig:
        return self._config

    @property
    def energy_j(self) -> float:
        return self._energy_j

    def snapshot(self, now_ns: int) -> BatteryStepResult:
        """Idle result at the current store; it does not change between steps."""
        return BatteryStepResult(
            soc=self._energy_j / self._config.capacity_j,
            voltage=self._config.nominal_voltage,
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
        self._energy_j, result = battery_linear_step(
            self._energy_j, battery_input, self._config, (end_ns - start_ns) / NS_PER_SECOND
        )
        return result
