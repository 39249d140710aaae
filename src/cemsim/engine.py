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

A component that raises ``SimulationError``, ``ValueError`` or
``ArithmeticError`` inside a step fails the step as a
:class:`ComponentStepError`, which names the component and the step
index.  Any other exception keeps its own type and passes through
unwrapped, so a configuration error that surfaces mid-step is still
reported as one: it subclasses only ``Exception``.

Same inputs, same record: a component whose step's inputs repeat hands
back its previous record, the same object, instead of building an equal
one.  The synthetic pv returns one night record, the synthetic load its
last record while the demand holds, the linear battery one idle record
while it idles, and a replay component its last record while the knots
it reads repeat bitwise.  The PV-first inverter then returns its last
result while its pv, battery and load records are the same objects and
the step is as long, and the priced grid its last result while its grid
input and price are the same objects and the step is as long.  The books
keep the contract too: a running total whose step moved it by zero is
last step's float object (see :class:`_Books`).  The sink that writes
the artifacts formats a record, and a total, once per object.  Identity is
the key because it costs one pointer compare and cannot be fooled: a
record is immutable, and a step is a function of its input records, its
length and its component's parameters, so the same objects give the
same bits.  A value compare would cost a float compare a field and take
``-0.0`` for ``0.0``, so the replay components, which read knots rather
than records, compare the knots' int64 bits.  A reused record passed its
checks when it was built.

Cumulative energy aggregates are kept in watt-hours with compensated
summation, so the final totals equal the compensated sum of the per-step
energy movements exactly.  Maxima (voltages, currents, requested grid
power) only ever grow; they live on the simulator, updated in place, and
:meth:`Simulator.maxima` hands out a copy.

Each step builds an :class:`Aggregates` and a :class:`SimulatorStepOutput`
on top of the component records: what the run's sinks read.  Like those,
they are :class:`~cemsim.core.StepRecord` tuples, not frozen dataclasses,
because they are built on every step: a tuple is built in one
``tuple.__new__`` where a frozen dataclass sets each field through
``object.__setattr__``.  They check nothing, and neither does the
:class:`~cemsim.core.InverterStepInput` a step hands the inverter, so
:meth:`Simulator.step` builds all three with ``tuple.__new__(cls, (...))``
itself: what namedtuple's generated ``__new__`` does, without its Python
frame (0.31-0.33 µs a record against 0.63-0.74 µs; timeit, CPython 3.11,
2-vCPU VM).  Their public constructors are namedtuple's own.  They keep
the dataclass names, fields, ``repr`` and hash, reject assignment with
``FrozenInstanceError``, and compare equal only to a record of their own
class.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable

from .core import (
    NS_PER_SECOND,
    Battery,
    BatteryStepResult,
    Context,
    Grid,
    InverterStepInput,
    Inverter,
    Load,
    PowerSource,
    SimulationError,
    StepRecord,
    _require,
    _tuple_new,
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
    each step's movements with CompensatedSum reproduces every cumulative
    total bitwise.  Inlined here because six method calls per step are a
    measurable cost over million-step runs.  :meth:`add` returns the
    totals after the step, which the step's output carries as
    ``aggregates``; a run's totals are its last step's.

    A movement of zero, of either sign, leaves its total as it was, so
    :meth:`add` skips it and hands back last step's total object.  That is
    exact: the sums start at +0.0, and a round-to-nearest sum is -0.0 only
    when both addends are, so neither a sum nor its compensation is ever
    -0.0; ``s + ±0.0`` is ``s`` bit for bit and the compensation gains
    +0.0.  A sum that overflows makes its total nan at once, as its
    compensation turns infinite of the other sign, and nan it stays,
    skipped or not.
    """

    __slots__ = (
        "generated", "generated_c",
        "consumed", "consumed_c",
        "purchased", "purchased_c",
        "charged", "charged_c",
        "discharged", "discharged_c",
        "cost", "cost_c",
        "last",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0.0)
        self.last = _tuple_new(Aggregates, (0.0,) * len(Aggregates._fields))

    def add(
        self,
        generated: float,
        consumed: float,
        purchased: float,
        charged: float,
        discharged: float,
        cost: float,
    ) -> Aggregates:
        last = self.last
        if generated:
            s = self.generated
            t = s + generated
            self.generated_c += (s - t) + generated if abs(s) >= abs(generated) else (generated - t) + s
            self.generated = t
            generated = t + self.generated_c
        else:
            generated = last[0]
        if consumed:
            s = self.consumed
            t = s + consumed
            self.consumed_c += (s - t) + consumed if abs(s) >= abs(consumed) else (consumed - t) + s
            self.consumed = t
            consumed = t + self.consumed_c
        else:
            consumed = last[1]
        if purchased:
            s = self.purchased
            t = s + purchased
            self.purchased_c += (s - t) + purchased if abs(s) >= abs(purchased) else (purchased - t) + s
            self.purchased = t
            purchased = t + self.purchased_c
        else:
            purchased = last[2]
        if charged:
            s = self.charged
            t = s + charged
            self.charged_c += (s - t) + charged if abs(s) >= abs(charged) else (charged - t) + s
            self.charged = t
            charged = t + self.charged_c
        else:
            charged = last[3]
        if discharged:
            s = self.discharged
            t = s + discharged
            self.discharged_c += (s - t) + discharged if abs(s) >= abs(discharged) else (discharged - t) + s
            self.discharged = t
            discharged = t + self.discharged_c
        else:
            discharged = last[4]
        if cost:
            s = self.cost
            t = s + cost
            self.cost_c += (s - t) + cost if abs(s) >= abs(cost) else (cost - t) + s
            self.cost = t
            cost = t + self.cost_c
        else:
            cost = last[5]
        self.last = last = _tuple_new(Aggregates, (generated, consumed, purchased, charged, discharged, cost))
        return last


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
        "step_index time_ns context power_source load inverter battery grid aggregates",
    ),
):
    """The component records one step produced and the aggregates after it.

    ``context`` is the tuple of context records the step saw, or None
    without a context component.  The running maxima are not snapshotted
    per step: :meth:`Simulator.maxima` reads them when a run needs them.
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

    def maxima(self) -> dict[str, float]:
        return dict(self._maxima)

    def step(self, step_ns: int) -> SimulatorStepOutput:
        """Advance every component over ``[now_ns, now_ns + step_ns)``."""
        start_ns = self.now_ns
        end_ns = start_ns + step_ns

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
                _tuple_new(InverterStepInput, (pv_result, self.last_battery_result, load_result)),
            )
            battery_input = inverter_result.battery_input
            grid_input = inverter_result.grid_input
            stage = "battery"
            battery_result = self.battery.step(start_ns, end_ns, battery_input)
            stage = "grid"
            grid_result = self.grid.step(start_ns, end_ns, grid_input)
        except (SimulationError, ValueError, ArithmeticError) as exc:
            raise ComponentStepError(stage, self.step_count, exc) from exc

        self.now_ns = end_ns
        self.step_count += 1
        self.last_battery_result = battery_result

        delta_e = battery_result.delta_energy
        dt_wh = step_ns / NS_PER_SECOND * WH_PER_J
        generated = inverter_result.pv_power_drawn * dt_wh
        consumed = load_result.requested_active_power * dt_wh
        purchased = grid_result.delivered_active_power * dt_wh
        charged = delta_e * WH_PER_J if delta_e > 0.0 else 0.0
        discharged = -delta_e * WH_PER_J if delta_e < 0.0 else 0.0
        aggregates = self._books.add(generated, consumed, purchased, charged, discharged, grid_result.cost)

        maxima = self._maxima
        if pv_result.voltage > maxima["pv_voltage"]:
            maxima["pv_voltage"] = pv_result.voltage
        if pv_result.current > maxima["pv_current"]:
            maxima["pv_current"] = pv_result.current
        if battery_result.voltage > maxima["battery_voltage"]:
            maxima["battery_voltage"] = battery_result.voltage
        if battery_input.current > maxima["battery_current"]:
            maxima["battery_current"] = battery_input.current
        if grid_input.requested_active_power > maxima["grid_requested_active_power"]:
            maxima["grid_requested_active_power"] = grid_input.requested_active_power

        return _tuple_new(
            SimulatorStepOutput,
            (
                self.step_count - 1,
                end_ns,
                context_result,
                pv_result,
                load_result,
                inverter_result,
                battery_result,
                grid_result,
                aggregates,
            ),
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
