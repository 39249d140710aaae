"""Core simulation primitives: step records, component contracts, operations.

All timestamps are plain ints, nanoseconds since the Unix epoch (UTC), so
time arithmetic stays exact integer arithmetic end to end.  The simulator
owns the one current time; every component ``step`` is handed the step's
interval ``[start_ns, end_ns)`` and keeps no clock of its own.

Electrical quantities use strict SI units throughout: volts, amperes,
watts, volt-amperes, joules, seconds.  Kilowatt-hours appear only at the
pricing and reporting boundaries.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum
from math import isfinite
from sys import float_info
from types import MappingProxyType

NS_PER_SECOND = 1_000_000_000
NS_PER_HOUR = 3_600_000_000_000
NS_PER_DAY = 86_400_000_000_000
JOULES_PER_KWH = 3.6e6
#: The largest int64: a recording stores its times, and a context file its
#: times and subsystem ids, as int64.
INT64_MAX = 2**63 - 1


class ConfigurationError(Exception):
    """A scenario, schedule, or component configuration is invalid."""


class SimulationError(Exception):
    """A simulation failed at runtime with a valid configuration."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_finite(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# Step records: validated tuples, see StepRecord
# ---------------------------------------------------------------------------


class BatteryMode(Enum):
    IDLE = "idle"
    CHARGE = "charge"
    DISCHARGE = "discharge"


def _frozen_setattr(self, name: str, value: object) -> None:
    # dataclasses is imported only here, on the error path, so that no
    # command that never plans loads it (and inspect, ast, dis, ... with it)
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


class StepRecord(tuple):
    """Base of cemsim's records: immutable, validated tuples.

    Every step builds ten records (eight defined here, two in
    :mod:`cemsim.engine`), so their construction is a per-step cost.  The
    engine builds three of them, the ones that check nothing
    (:class:`InverterStepInput` and its own two), by ``tuple.__new__``
    directly; the components build the other seven through ``__new__``.  A
    frozen slotted dataclass sets each field through
    ``object.__setattr__`` and then makes one more call, to
    ``__post_init__``, to validate.  Built positionally, a 3-field
    :class:`PowerSourceStepResult` took 0.62 µs that way and takes
    0.34 µs as a tuple whose ``__new__`` runs the same checks and ends in
    ``tuple.__new__`` (0.97 against 0.69 µs by keyword; timeit, CPython
    3.11, 2-vCPU VM).  Each record is therefore a subclass of this base
    and of a ``collections.namedtuple`` of its fields, and keeps every
    guarantee the dataclass gave:

    * the same class name, field names, order and defaults, built
      positionally or by keyword;
    * every check, in ``__new__``, with the same ``ValueError`` messages;
      ``_make`` and ``_replace`` build through ``__new__`` too;
    * the same ``repr`` (``Name(field=value, ...)``) and the same hash,
      the hash of the tuple of field values;
    * assigning or deleting a field raises
      ``dataclasses.FrozenInstanceError``;
    * equality is type-strict: a record equals only a record of its own
      class with equal fields, never a record of another class or a plain
      tuple holding the same values.

    Being tuples, records can also be indexed, unpacked and iterated;
    ``_asdict()`` maps field names to values, and ``dataclasses.fields``,
    ``replace`` and ``asdict`` do not apply to them.

    No cemsim module uses dataclasses.  Decorating a class with
    ``dataclass`` generates its methods from source at import, and
    ``import dataclasses`` loads ``inspect``, ``ast``, ``dis``,
    ``tokenize`` and seven more modules; with records, no command loads
    it.  :class:`ContextRecord`, the synthetic ``JobEvent``,
    ``forecast.Predictor``, ``scenario.Scenario`` and
    ``SimulationBundle``, and the planner's ``ChargingProblem``,
    ``ChargingPlan``, ``ForecastWindow`` and ``ControlDecision`` are
    tuple records, and every record is a :class:`StepRecord`.  An object
    that keeps derived state, such as a replay ``Channel`` (its time axis
    and value view) or a ``PriceSchedule`` (its peak window in ns), is a
    plain ``__slots__`` class like the replay ``TimeAxis``, not a record:
    it has no value equality, hash or frozen fields.  The components (the
    linear battery, the priced grid, the synthetic pv and load and the
    inverter among them) are no records either: each takes its scenario
    block's keys as its parameters and holds them as plain attributes.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)


_tuple_new = tuple.__new__


class PowerSourceStepResult(StepRecord, namedtuple("PowerSourceStepResult", "voltage current power")):
    """Generation during the step, reported at the step's end.

    voltage : V, current : A, power : W.  The three fields are carried
    independently; no V*I identity is imposed on recorded data.
    """

    __slots__ = ()

    def __new__(cls, voltage: float, current: float, power: float) -> PowerSourceStepResult:
        # One combined check on the hot path; diagnose the field only on failure.
        if not (
            isfinite(voltage)
            and voltage >= 0.0
            and isfinite(current)
            and current >= 0.0
            and isfinite(power)
            and power >= 0.0
        ):
            for name, value in (("voltage", voltage), ("current", current), ("power", power)):
                if not (isfinite(value) and value >= 0.0):
                    raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        return _tuple_new(cls, (voltage, current, power))


class LoadStepResult(StepRecord, namedtuple("LoadStepResult", "requested_active_power requested_apparent_power")):
    """Power the load demanded during the step (W / VA)."""

    __slots__ = ()

    def __new__(cls, requested_active_power: float, requested_apparent_power: float) -> LoadStepResult:
        active, apparent = requested_active_power, requested_apparent_power
        if not (isfinite(active) and isfinite(apparent) and 0.0 <= active <= apparent):
            _require_finite(active, "requested_active_power")
            _require_finite(apparent, "requested_apparent_power")
            _require(active >= 0.0, "requested_active_power must be >= 0")
            _require(
                apparent >= active,
                "requested_apparent_power must be >= requested_active_power",
            )
        return _tuple_new(cls, (active, apparent))


class GridStepInput(StepRecord, namedtuple("GridStepInput", "requested_active_power requested_apparent_power")):
    """Active/apparent power requested from the grid for the step (W / VA)."""

    __slots__ = ()

    def __new__(cls, requested_active_power: float, requested_apparent_power: float) -> GridStepInput:
        active, apparent = requested_active_power, requested_apparent_power
        if not (isfinite(active) and isfinite(apparent) and active >= 0.0 and apparent >= 0.0):
            _require_finite(active, "requested_active_power")
            _require_finite(apparent, "requested_apparent_power")
            _require(active >= 0.0, "requested_active_power must be >= 0")
            _require(apparent >= 0.0, "requested_apparent_power must be >= 0")
        return _tuple_new(cls, (active, apparent))


class GridStepResult(
    StepRecord,
    namedtuple(
        "GridStepResult",
        "delivered_active_power delivered_apparent_power cost limit_violation",
        defaults=(0.0, False),
    ),
):
    """Power the grid actually delivered during the step (W / VA), the
    metered cost of the delivered energy, and whether a limit clamped it."""

    __slots__ = ()

    def __new__(
        cls,
        delivered_active_power: float,
        delivered_apparent_power: float,
        cost: float = 0.0,
        limit_violation: bool = False,
    ) -> GridStepResult:
        active, apparent = delivered_active_power, delivered_apparent_power
        if not (isfinite(active) and isfinite(apparent) and 0.0 <= active <= apparent):
            _require_finite(active, "delivered_active_power")
            _require_finite(apparent, "delivered_apparent_power")
            _require(active >= 0.0, "delivered_active_power must be >= 0")
            _require(
                apparent >= active,
                "delivered_apparent_power must be >= delivered_active_power",
            )
        return _tuple_new(cls, (active, apparent, cost, limit_violation))


class BatteryStepInput(StepRecord, namedtuple("BatteryStepInput", "mode current")):
    """Commanded battery operation for the step: mode plus DC current (A, >= 0)."""

    __slots__ = ()

    def __new__(cls, mode: BatteryMode, current: float) -> BatteryStepInput:
        if not (type(mode) is BatteryMode and isfinite(current) and current >= 0.0):
            _require(isinstance(mode, BatteryMode), "mode must be a BatteryMode")
            _require_finite(current, "current")
            _require(current >= 0.0, "current must be >= 0")
        return _tuple_new(cls, (mode, current))


class BatteryStepResult(StepRecord, namedtuple("BatteryStepResult", "soc voltage delta_energy delta_charge")):
    """Battery state after the step.

    soc is the state of charge as a fraction of capacity.  delta_energy
    (J) and delta_charge (C) are the post-clamp changes over the step;
    both are positive when the battery absorbed energy and negative when
    it released energy.
    """

    __slots__ = ()

    def __new__(cls, soc: float, voltage: float, delta_energy: float, delta_charge: float) -> BatteryStepResult:
        de, dq = delta_energy, delta_charge
        if not (
            0.0 <= soc <= 1.0
            and isfinite(voltage)
            and voltage > 0.0
            and isfinite(de)
            and isfinite(dq)
            and (de == 0.0 or dq == 0.0 or (de > 0.0) == (dq > 0.0))
        ):
            for name, value in (("soc", soc), ("voltage", voltage), ("delta_energy", de), ("delta_charge", dq)):
                _require_finite(value, name)
            if not 0.0 <= soc <= 1.0:
                raise ValueError(f"soc must be within [0, 1], got {soc!r}")
            _require(voltage > 0.0, "voltage must be > 0")
            _require(
                (de > 0.0) == (dq > 0.0),
                "delta_energy and delta_charge must agree in sign",
            )
        return _tuple_new(cls, (soc, voltage, de, dq))


class InverterStepInput(StepRecord, namedtuple("InverterStepInput", "power_source battery load")):
    """Everything the inverter sees when allocating power for a step.

    Generation and load are the results just produced for the current
    step; the battery result is from the previous step and carries the
    state of charge the dispatch is based on.
    """

    __slots__ = ()


class InverterStepResult(StepRecord, namedtuple("InverterStepResult", "grid_input battery_input pv_power_drawn")):
    """Inverter allocation for the step.

    grid_input is the request forwarded to the grid, battery_input the
    command forwarded to the battery, pv_power_drawn the generation
    actually used (W, source side; at most the offered power).
    """

    __slots__ = ()

    def __new__(
        cls, grid_input: GridStepInput, battery_input: BatteryStepInput, pv_power_drawn: float
    ) -> InverterStepResult:
        drawn = pv_power_drawn
        if not (isfinite(drawn) and drawn >= 0.0):
            _require_finite(drawn, "pv_power_drawn")
            _require(drawn >= 0.0, "pv_power_drawn must be >= 0")
        return _tuple_new(cls, (grid_input, battery_input, drawn))


def _holds_json(value: object) -> bool:
    """Whether a JSON line holds ``value`` and reads it back equal: a str,
    a bool, None, a number finite as a float, or a list or str-keyed dict
    of those."""
    if value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        # abs() of an int too large for a float compares exactly, so it
        # fails the bound as NaN and the infinities do
        return abs(value) <= float_info.max
    if isinstance(value, list):
        return all(map(_holds_json, value))
    if isinstance(value, dict):
        return all(isinstance(key, str) and _holds_json(item) for key, item in value.items())
    return False


class ContextRecord(
    StepRecord, namedtuple("ContextRecord", "recorded_at_ns begins_at_ns ends_at_ns subsystem_id payload")
):
    """A timestamped note about a subsystem, valid over [begins_at, ends_at).

    recorded_at is when the note became known; begins_at/ends_at bound the
    interval it talks about.  recorded_at may lie inside the interval
    (notes about something already running) but never at or after its end:
    a note that only becomes known once its interval is over is rejected.
    payload is a read-only mapping; by convention a "text" key holds the
    human-readable description.

    A record is valid by construction, and its rule is the one a context
    file is read by (``replay.ingest_context``), so a record written to
    one reads back equal.  ``__new__``
    checks, in order, and raises a ``ValueError`` naming the first fault:

    * the three times and ``subsystem_id`` are ints within int64: a
      float, a string or a bool is refused, not coerced, so a record
      replays exactly as written;
    * ``payload`` is a mapping whose keys are strings, and every value
      in it, nested ones included, is a string, a bool, None, a number
      finite as a float, or a list or string-keyed dict of those: what a
      JSON line holds and reads back equal.  NaN, the infinities and an
      int beyond float range are refused, as a forecaster would fail on
      them mid-run, and so are a set, a tuple and a non-string key,
      which a file cannot hold or would read back as another type; the
      message names the payload key;
    * ``begins_at_ns`` precedes ``ends_at_ns``, and so does
      ``recorded_at_ns``.
    """

    __slots__ = ()

    def __new__(
        cls,
        recorded_at_ns: int,
        begins_at_ns: int,
        ends_at_ns: int,
        subsystem_id: int,
        payload: Mapping[str, object],
    ) -> ContextRecord:
        for name, value in (
            ("recorded_at_ns", recorded_at_ns),
            ("begins_at_ns", begins_at_ns),
            ("ends_at_ns", ends_at_ns),
            ("subsystem_id", subsystem_id),
        ):
            if type(value) is not int or not -INT64_MAX - 1 <= value <= INT64_MAX:
                raise ValueError(f"{name} must be an integer within int64, got {value!r}")
        if not isinstance(payload, Mapping):
            raise ValueError(f"payload must be an object, got {payload!r}")
        payload = MappingProxyType(dict(payload))
        for key, value in payload.items():
            if not isinstance(key, str):
                raise ValueError(f"payload key {key!r} must be a string")
            if not _holds_json(value):
                if isinstance(value, (int, float)):
                    raise ValueError(f"payload {key!r} must be a finite number, got {value!r}")
                raise ValueError(
                    f"payload {key!r} must hold only strings, booleans, null, finite numbers, lists and objects"
                    f" with string keys, got {value!r}"
                )
        _require(
            begins_at_ns < ends_at_ns,
            f"begins_at_ns ({begins_at_ns}) must precede ends_at_ns ({ends_at_ns})",
        )
        _require(
            recorded_at_ns < ends_at_ns,
            f"recorded_at_ns ({recorded_at_ns}) must precede ends_at_ns ({ends_at_ns})",
        )
        return _tuple_new(cls, (recorded_at_ns, begins_at_ns, ends_at_ns, subsystem_id, payload))

    def text(self) -> str:
        return str(self.payload.get("text", ""))


# ---------------------------------------------------------------------------
# Component contracts
# ---------------------------------------------------------------------------


class SystemComponent(ABC):
    """A steppable member of a simulated installation.

    Components advance in lockstep: each ``step`` call covers the
    interval ``[start_ns, end_ns)`` the simulator hands every component.
    Generation, load and replayed values are reported for ``end_ns``;
    context and prices are read at ``start_ns``, what is known when the
    step's decisions are made.  The step length in seconds is
    ``(end_ns - start_ns) / NS_PER_SECOND``.
    """

    @abstractmethod
    def step(self, start_ns: int, end_ns: int, *args, **kwargs):
        raise NotImplementedError


class PowerSource(SystemComponent):
    @abstractmethod
    def step(self, start_ns: int, end_ns: int) -> PowerSourceStepResult: ...


class Load(SystemComponent):
    @abstractmethod
    def step(self, start_ns: int, end_ns: int) -> LoadStepResult: ...


class Grid(SystemComponent):
    @abstractmethod
    def step(self, start_ns: int, end_ns: int, grid_input: GridStepInput) -> GridStepResult: ...


class Battery(SystemComponent):
    @abstractmethod
    def step(self, start_ns: int, end_ns: int, battery_input: BatteryStepInput) -> BatteryStepResult: ...

    @abstractmethod
    def snapshot(self, now_ns: int) -> BatteryStepResult:
        """State at ``now_ns`` as an idle result, without stepping.

        Used to seed the first step's dispatch, which needs a state of
        charge before any step has run.
        """


class Inverter(SystemComponent):
    @abstractmethod
    def step(self, start_ns: int, end_ns: int, inverter_input: InverterStepInput) -> InverterStepResult: ...


class Context(SystemComponent):
    @abstractmethod
    def step(self, start_ns: int, end_ns: int) -> tuple[ContextRecord, ...]: ...


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def context_query(index: ContextIndex, now_ns: int) -> list[ContextRecord]:
    """Records of ``index`` known at ``now_ns`` whose interval has not yet ended.

    Keeps records with ``recorded_at <= now_ns < ends_at``: the currently
    active ones and the announced-but-future ones, never records that only
    become known later (no future information leaks into a query at
    ``now_ns``).  Sorted by (begins_at, recorded_at, insertion order).

    The :class:`ContextIndex` updates its answer only when ``now_ns``
    leaves the interval its last answer holds over.  It uses no numpy, so
    a PV-first run that plays context never imports it.  Callers look
    this function up as a module global, so a wrapper installed on it
    sees every query.
    """
    return index.query(now_ns)


class ContextIndex:
    """Fixed context records, indexed by the instants a query can change at.

    A record's visibility flips only at its ``recorded_at_ns`` and its
    ``ends_at_ns``, so between two consecutive such instants (the *edges*)
    every query returns the same records.  The index keeps its answer, in
    order, with the number of edges passed and the edge interval
    ``[low, high)`` it holds over; a query inside that interval returns a
    copy of it.  A query past ``high`` applies the changes of each edge it
    passes: the records recorded there join the answer at their place in
    the (begins_at, recorded_at, insertion) order, the records ending
    there leave it.  So a run, which steps forward, examines each record
    twice over its whole horizon, however many records are visible at
    once.  A query before ``low`` replays the edges from the first one.
    """

    __slots__ = ("_edges", "_changes", "_passed", "_keys", "_answer", "_low", "_high")

    def __init__(self, records: Iterable[ContextRecord]) -> None:
        # edge -> [(sort key, record joining at the edge, or None if leaving)]
        changes: dict[int, list] = {}
        for index, record in enumerate(records):
            recorded = record.recorded_at_ns
            key = (record.begins_at_ns, recorded, index)
            changes.setdefault(recorded, []).append((key, record))
            changes.setdefault(record.ends_at_ns, []).append((key, None))
        self._edges = sorted(changes)
        self._changes = [changes[edge] for edge in self._edges]
        # an empty interval, so the first query applies the edges up to it
        self._low = self._high = 0
        self._passed = 0
        self._keys: list[tuple[int, int, int]] = []
        self._answer: list[ContextRecord] = []

    def query(self, now_ns: int) -> list[ContextRecord]:
        if not self._low <= now_ns < self._high:
            edges = self._edges
            i = bisect_right(edges, now_ns)
            if i < self._passed:
                self._passed = 0
                self._keys = []
                self._answer = []
            keys = self._keys
            answer = self._answer
            for edge in range(self._passed, i):
                for key, record in self._changes[edge]:
                    at = bisect_left(keys, key)
                    if record is None:
                        del keys[at]
                        del answer[at]
                    else:
                        keys.insert(at, key)
                        answer.insert(at, record)
            self._passed = i
            self._low = edges[i - 1] if i else -math.inf
            self._high = edges[i] if i < len(edges) else math.inf
        return self._answer.copy()


def grid_energy_cost(price_per_kwh: float, power_w: float, duration_s: float) -> float:
    """Cost of drawing ``power_w`` for ``duration_s`` at a kWh price.

    Single shared formula so that planning and metering agree bit for bit.
    """
    return price_per_kwh * (power_w * duration_s) / JOULES_PER_KWH


class CompensatedSum:
    """Kahan-Neumaier compensated accumulator.

    Summing the same values in the same order always lands on the same
    float, and the compensation keeps long runs of small increments from
    drifting.  Used for every cumulative energy/cost aggregate so that
    "sum of the parts equals the final total" holds exactly.
    """

    __slots__ = ("_sum", "_compensation")

    def __init__(self, initial: float = 0.0) -> None:
        self._sum = float(initial)
        self._compensation = 0.0

    def add(self, value: float) -> None:
        total = self._sum + value
        if abs(self._sum) >= abs(value):
            self._compensation += (self._sum - total) + value
        else:
            self._compensation += (value - total) + self._sum
        self._sum = total

    @property
    def value(self) -> float:
        return self._sum + self._compensation
