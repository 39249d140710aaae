"""Simulation engine: advances all components in lockstep and keeps books.

The :class:`Simulator` owns time as one plain int, ``now_ns``.  Each step
covers ``[now_ns, now_ns + step_ns)``; every component is handed those two
ints and keeps no clock of its own, and ``now_ns`` moves to the step's end
once the step has run.

Step order within one step: context (if present), power source, load,
inverter, battery, grid.  The inverter sees the generation and load
results just produced for the current step together with the battery
result of the previous step, decides the flows, and its outputs drive the
battery and grid for the same step.

Cumulative energy aggregates are kept in watt-hours with compensated
summation, so the final totals equal the compensated sum of the per-step
deltas exactly.  Maxima (voltages, currents, requested grid power) only
ever grow.

Each step builds a :class:`StepDeltas`, an :class:`Aggregates` and a
:class:`SimulatorStepOutput` on top of the component records.  Like
those, they are :class:`~cemsim.core.StepRecord` tuples, not frozen
dataclasses, because they are built on every step: a tuple is built in
one ``tuple.__new__`` where a frozen dataclass sets each field through
``object.__setattr__``.  They check nothing, so they keep namedtuple's
own ``__new__``.  They keep the dataclass names, fields, ``repr`` and
hash, reject assignment with ``FrozenInstanceError``, and compare equal
only to a record of their own class.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable

from .core import (
    NS_PER_SECOND,
    Battery,
    BatteryStepResult,
    ConfigurationError,
    Context,
    Grid,
    InverterStepInput,
    Inverter,
    Load,
    PowerSource,
    SimulationError,
    StepRecord,
    _require,
)

WH_PER_J = 1.0 / 3600.0

#: Maxima tracked across a run; keys are fixed so artifacts are stable.
MAXIMA_KEYS = (
    "pv_voltage",
    "pv_current",
    "battery_voltage",
    "battery_current",
    "grid_requested_active_power",
)


class ComponentStepError(SimulationError):
    """A component failed mid-run; names the component and the step index."""

    def __init__(self, component: str, step_index: int, cause: BaseException) -> None:
        super().__init__(f"{component} failed at step {step_index}: {cause}")
        self.component = component
        self.step_index = step_index


class _Books:
    """Six Kahan-Neumaier accumulators updated in one call per step.

    The per-value arithmetic is exactly CompensatedSum's, so re-summing
    the streamed deltas with CompensatedSum reproduces every cumulative
    total bitwise.  Inlined here because six method calls per step are a
    measurable cost over million-step runs.
    """

    __slots__ = (
        "generated", "generated_c",
        "consumed", "consumed_c",
        "purchased", "purchased_c",
        "charged", "charged_c",
        "discharged", "discharged_c",
        "cost", "cost_c",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0.0)

    def add(
        self,
        generated: float,
        consumed: float,
        purchased: float,
        charged: float,
        discharged: float,
        cost: float,
    ) -> None:
        s = self.generated
        t = s + generated
        self.generated_c += (s - t) + generated if abs(s) >= abs(generated) else (generated - t) + s
        self.generated = t
        s = self.consumed
        t = s + consumed
        self.consumed_c += (s - t) + consumed if abs(s) >= abs(consumed) else (consumed - t) + s
        self.consumed = t
        s = self.purchased
        t = s + purchased
        self.purchased_c += (s - t) + purchased if abs(s) >= abs(purchased) else (purchased - t) + s
        self.purchased = t
        s = self.charged
        t = s + charged
        self.charged_c += (s - t) + charged if abs(s) >= abs(charged) else (charged - t) + s
        self.charged = t
        s = self.discharged
        t = s + discharged
        self.discharged_c += (s - t) + discharged if abs(s) >= abs(discharged) else (discharged - t) + s
        self.discharged = t
        s = self.cost
        t = s + cost
        self.cost_c += (s - t) + cost if abs(s) >= abs(cost) else (cost - t) + s
        self.cost = t


class StepDeltas(
    StepRecord,
    namedtuple("StepDeltas", "generated_wh consumed_wh purchased_wh charged_wh discharged_wh cost"),
):
    """Per-step energy movements (Wh) and the step's grid cost."""

    __slots__ = ()


class Aggregates(
    StepRecord,
    namedtuple("Aggregates", "generated_wh consumed_wh purchased_wh charged_wh discharged_wh cost"),
):
    """Cumulative totals since the start of the run (Wh and cost units)."""

    __slots__ = ()


class SimulatorStepOutput(
    StepRecord,
    namedtuple(
        "SimulatorStepOutput",
        "step_index time_ns context power_source load inverter battery grid deltas aggregates maxima",
    ),
):
    """Everything one step produced, with books snapshotted after it.

    ``context`` is the tuple of context records the step saw, or None
    without a context component; ``maxima`` maps each of
    :data:`MAXIMA_KEYS` to its running maximum after the step.
    """

    __slots__ = ()


class Simulator:
    """Owns the simulation time, the components, and the running aggregates."""

    def __init__(
        self,
        start_ns: int,
        power_source: PowerSource,
        load: Load,
        battery: Battery,
        inverter: Inverter,
        grid: Grid,
        context: Context | None = None,
    ) -> None:
        self.now_ns = start_ns
        self.power_source = power_source
        self.load = load
        self.battery = battery
        self.inverter = inverter
        self.grid = grid
        self.context = context
        self.step_count = 0
        self.last_battery_result: BatteryStepResult = battery.snapshot(start_ns)
        self._books = _Books()
        self._maxima = {key: 0.0 for key in MAXIMA_KEYS}

    def aggregates(self) -> Aggregates:
        b = self._books
        return Aggregates(
            b.generated + b.generated_c,
            b.consumed + b.consumed_c,
            b.purchased + b.purchased_c,
            b.charged + b.charged_c,
            b.discharged + b.discharged_c,
            b.cost + b.cost_c,
        )

    def maxima(self) -> dict[str, float]:
        return dict(self._maxima)

    def step(self, step_ns: int) -> SimulatorStepOutput:
        """Advance every component over ``[now_ns, now_ns + step_ns)``."""
        start_ns = self.now_ns
        end_ns = start_ns + step_ns
        dt_s = step_ns / NS_PER_SECOND

        stage = "context"
        try:
            context_result = self.context.step(start_ns, end_ns) if self.context is not None else None
            stage = "power_source"
            pv_result = self.power_source.step(start_ns, end_ns)
            stage = "load"
            load_result = self.load.step(start_ns, end_ns)
            stage = "inverter"
            inverter_result = self.inverter.step(
                start_ns,
                end_ns,
                InverterStepInput(pv_result, self.last_battery_result, load_result),
            )
            battery_input = inverter_result.battery_input
            grid_input = inverter_result.grid_input
            stage = "battery"
            battery_result = self.battery.step(start_ns, end_ns, battery_input)
            stage = "grid"
            grid_result = self.grid.step(start_ns, end_ns, grid_input)
        except ConfigurationError:
            raise
        except (SimulationError, ValueError, ArithmeticError) as exc:
            raise ComponentStepError(stage, self.step_count, exc) from exc

        self.now_ns = end_ns
        self.step_count += 1
        self.last_battery_result = battery_result

        delta_e = battery_result.delta_energy
        dt_wh = dt_s * WH_PER_J
        generated = inverter_result.pv_power_drawn * dt_wh
        consumed = load_result.requested_active_power * dt_wh
        purchased = grid_result.delivered_active_power * dt_wh
        charged = delta_e * WH_PER_J if delta_e > 0.0 else 0.0
        discharged = -delta_e * WH_PER_J if delta_e < 0.0 else 0.0
        cost = grid_result.cost
        self._books.add(generated, consumed, purchased, charged, discharged, cost)

        # Maxima rarely grow once a run settles, so test cheaply first and
        # rebuild copy-on-write: step outputs share the current dict, and
        # replacing it on change keeps past outputs' snapshots intact.
        maxima = self._maxima
        requested_active = grid_input.requested_active_power
        if (
            pv_result.voltage > maxima["pv_voltage"]
            or pv_result.current > maxima["pv_current"]
            or battery_result.voltage > maxima["battery_voltage"]
            or battery_input.current > maxima["battery_current"]
            or requested_active > maxima["grid_requested_active_power"]
        ):
            maxima = dict(maxima)
            if pv_result.voltage > maxima["pv_voltage"]:
                maxima["pv_voltage"] = pv_result.voltage
            if pv_result.current > maxima["pv_current"]:
                maxima["pv_current"] = pv_result.current
            if battery_result.voltage > maxima["battery_voltage"]:
                maxima["battery_voltage"] = battery_result.voltage
            if battery_input.current > maxima["battery_current"]:
                maxima["battery_current"] = battery_input.current
            if requested_active > maxima["grid_requested_active_power"]:
                maxima["grid_requested_active_power"] = requested_active
            self._maxima = maxima

        return SimulatorStepOutput(
            self.step_count - 1,
            end_ns,
            context_result,
            pv_result,
            load_result,
            inverter_result,
            battery_result,
            grid_result,
            StepDeltas(generated, consumed, purchased, charged, discharged, cost),
            self.aggregates(),
            maxima,
        )


def run(
    simulator: Simulator,
    total_ns: int,
    step_ns: int,
    sink: Callable[[SimulatorStepOutput], None],
) -> int:
    """Run ``total_ns`` of simulated time in ``step_ns`` steps.

    Every step's output goes to ``sink`` as it is produced, so memory
    stays flat over the horizon; the step count is returned.  A final
    shorter step covers any remainder, so the horizon is honored exactly.
    """
    _require(total_ns >= 1, "total_ns must be >= 1")
    _require(step_ns >= 1, "step_ns must be >= 1")
    remaining = total_ns
    count = 0
    while remaining > 0:
        this_step = step_ns if remaining >= step_ns else remaining
        sink(simulator.step(this_step))
        count += 1
        remaining -= this_step
    return count
