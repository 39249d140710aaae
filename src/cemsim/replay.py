"""Dataset-backed replay: recorded channels played back as components.

A recording is a set of channels keyed by (subsystem_id, channel name),
each a strictly increasing series of (timestamp_ns, value).  Replay
components linearly interpolate their channels at the end of every step
and ignore any commanded inputs beyond the step length itself: they
reproduce what happened, they do not simulate.

File formats (both plain text, floats written with 17 significant digits
so values round-trip bit-exactly):

* time series CSV with header ``timestamp_ns,subsystem_id,channel,value``
* context JSON lines with keys ``recorded_at_ns``, ``begins_at_ns``,
  ``ends_at_ns``, ``subsystem_id``, ``payload`` (payload carries "text"
  plus arbitrary numeric fields)

Channel names follow ``<subsystem>_<measurement>``, e.g. ``battery_soc``
(fraction), ``pv_power`` (W), ``load_active_power`` (W),
``grid_active_power`` (W).

Lookups are O(log n) and copy nothing: each :class:`Channel` keeps its
times in an ``array('q')`` and its values in an ``array('d')`` with a
``memoryview`` of each, :func:`interpolate` bisects the times view with
:mod:`bisect`, and indexing a view yields the plain Python int or float.
Replay components resolve their channels once, at construction, and call
the module-level :func:`interpolate` per step.  Ingestion appends each row
straight into its channel's ``array`` pair, which becomes the channel's
storage; only a channel whose rows arrive out of order is sorted.

Nothing here uses numpy: the checks run as builtins over the arrays
(``all(map(operator.lt, ...))``, ``all(map(math.isfinite, ...))``), so
``validate``, building a replay scenario and an all-replay ``run`` never
import it.
"""

from __future__ import annotations

import csv
import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from math import isfinite
from operator import lt
from typing import Iterable

from .core import (
    Battery,
    BatteryStepInput,
    BatteryStepResult,
    ContextRecord,
    Grid,
    GridStepInput,
    GridStepResult,
    Load,
    LoadStepResult,
    PowerSource,
    PowerSourceStepResult,
    SimulationError,
    _require,
)

#: (subsystem_id, channel name) of every recorded channel, in the order a
#: run writes each step's lines to channels.csv.
CHANNELS = (
    (1, "pv_voltage"),
    (1, "pv_current"),
    (1, "pv_power"),
    (2, "load_active_power"),
    (2, "load_apparent_power"),
    (3, "battery_soc"),
    (3, "battery_voltage"),
    (3, "battery_current"),
    (4, "grid_active_power"),
    (4, "grid_apparent_power"),
)

KNOWN_CHANNELS = frozenset(name for _, name in CHANNELS)

DEFAULT_BOUNDARY_TOLERANCE_S = 120.0

CHANNEL_HEADER = ("timestamp_ns", "subsystem_id", "channel", "value")

#: One channels.csv line, byte for byte as csv.writer writes it with the
#: value as format(value, ".17g"): no field needs quoting, lines end "\r\n".
CHANNEL_ROW = "%d,%d,%s,%.17g\r\n"


def write_csv(path, header: Iterable[str], template: str, rows: Iterable[tuple]) -> None:
    """Write ``header`` and then ``template % row`` for each row to ``path``.

    With ``%d``/``%s`` fields and ``%.17g`` floats, and lines ending
    ``"\r\n"`` as CHANNEL_ROW's do, the bytes are csv.writer's provided no
    field needs quoting.  That holds for every CSV artifact cemsim writes:
    each field is a number or a fixed identifier (a column, channel,
    strategy or family name).
    """
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(template % row for row in rows)


class TimeSeriesRangeError(SimulationError):
    """A replay lookup fell outside the recorded range plus tolerance."""


class IngestError(ValueError):
    """A recording file failed validation; the message carries row context."""


@dataclass(frozen=True, slots=True)
class Channel:
    """One recorded measurement series; times strictly increasing.

    ``times_ns`` is an ``array('q')`` of int64 nanoseconds and ``values``
    an ``array('d')`` of finite floats; ``_times`` and ``_values`` are
    zero-copy memoryviews of them for scalar lookups.  Any sequences of
    ints and floats are accepted and copied into arrays; arrays of those
    types are kept as given.  A time that is not an int within int64 is a
    ``ValueError`` naming the channel, never truncated.
    """

    subsystem_id: int
    name: str
    times_ns: array
    values: array
    _times: memoryview = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_times", memoryview(times))
        object.__setattr__(self, "_values", memoryview(values))


def _as_array(typecode: str, items, message: str) -> array:
    """``items`` as an ``array(typecode)``: kept if it is one, else copied;
    ``message`` is the ValueError for an item the type cannot hold."""
    if isinstance(items, array) and items.typecode == typecode:
        return items
    try:
        return array(typecode, items)
    except (TypeError, OverflowError) as exc:
        raise ValueError(message) from exc


def interpolate(channel: Channel, t_ns: int, boundary_tolerance_s: float = DEFAULT_BOUNDARY_TOLERANCE_S) -> float:
    """Linear interpolation with exact knot hits and bounded clamping.

    Queries at a recorded timestamp return the recorded value exactly.
    Queries within ``boundary_tolerance_s`` before the first or after the
    last sample clamp to the boundary value; anything further out raises
    :class:`TimeSeriesRangeError`.  ``t_ns`` is an int; the lookup bisects
    the channel's memoryviews (O(log n), no copy).
    """
    times = channel._times
    values = channel._values
    first = times[0]
    last = times[-1]
    if t_ns < first or t_ns > last:
        slack_ns = boundary_tolerance_s * 1e9
        if t_ns < first - slack_ns or t_ns > last + slack_ns:
            raise TimeSeriesRangeError(
                f"query at {t_ns} ns is outside channel "
                f"({channel.subsystem_id}, {channel.name!r}) range "
                f"[{first}, {last}] ns by more than {boundary_tolerance_s} s"
            )
        return values[0] if t_ns < first else values[-1]
    # first <= t_ns <= last, so the index is in range and a miss has lo >= 0
    index = bisect_left(times, t_ns)
    t1 = times[index]
    if t1 == t_ns:
        return values[index]
    lo = index - 1
    t0 = times[lo]
    v0 = values[lo]
    fraction = (t_ns - t0) / (t1 - t0)
    return v0 + (values[index] - v0) * fraction


class TimeSeriesTable:
    """All recorded channels of one recording."""

    def __init__(self, channels: Iterable[Channel]) -> None:
        self._channels: dict[tuple[int, str], Channel] = {}
        for channel in channels:
            key = (channel.subsystem_id, channel.name)
            _require(key not in self._channels, f"duplicate channel {key}")
            self._channels[key] = channel

    def channel(self, subsystem_id: int, name: str) -> Channel:
        key = (subsystem_id, name)
        if key not in self._channels:
            raise KeyError(f"recording has no channel {key}")
        return self._channels[key]

    def has_channel(self, subsystem_id: int, name: str) -> bool:
        return (subsystem_id, name) in self._channels

    def keys(self) -> list[tuple[int, str]]:
        return sorted(self._channels)

    def __len__(self) -> int:
        return len(self._channels)


# ---------------------------------------------------------------------------
# Ingestion / emission
# ---------------------------------------------------------------------------


def ingest_timeseries(path) -> TimeSeriesTable:
    """Parse a channel CSV into a table, validating as it goes.

    Rows may arrive unsorted; a channel whose rows are out of order is
    sorted by time.  Malformed rows, timestamps beyond int64 and
    non-finite values are rejected with the offending line number; a
    duplicate timestamp within a channel is rejected naming the timestamp
    and the channel.  Unknown channel names are an error, since a typo
    would otherwise silently drop a measurement.
    Each row goes straight into its channel's ``array('q')``/``array('d')``
    pair, which the channel keeps as its storage.
    """
    collected: dict[tuple[int, str], tuple[array, array]] = {}
    # (subsystem_id text, name) -> the appends of its channel, so a row of
    # a channel already seen parses only its timestamp and value
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
            if not isfinite(value):
                raise IngestError(f"{path}:{line_number}: channel {row[2]!r} value {row[3]!r} is not finite")
            appends[1](value)
    channels = []
    for (subsystem_id, name), (times, values) in sorted(collected.items()):
        try:
            # the row loop checked every time and value, so the channel can
            # only reject its order; an in-order channel is scanned once
            channel = Channel(subsystem_id=subsystem_id, name=name, times_ns=times, values=values)
        except ValueError:
            # out of order, or a repeated timestamp: sort by time, then any
            # repeat sits next to its twin
            order = sorted(range(len(times)), key=times.__getitem__)
            times = array("q", map(times.__getitem__, order))
            values = array("d", map(values.__getitem__, order))
            duplicate = next((later for earlier, later in zip(times, times[1:]) if earlier == later), None)
            if duplicate is not None:
                raise IngestError(
                    f"{path}: duplicate timestamp {duplicate} ns in channel "
                    f"({subsystem_id}, {name!r})"
                ) from None
            channel = Channel(subsystem_id=subsystem_id, name=name, times_ns=times, values=values)
        channels.append(channel)
    return TimeSeriesTable(channels)


def emit_timeseries(path, table: TimeSeriesTable) -> None:
    """Write a table back to channel CSV (sorted by time, then channel)."""
    rows = []
    for subsystem_id, name in table.keys():
        channel = table.channel(subsystem_id, name)
        rows.extend((t_ns, subsystem_id, name, value) for t_ns, value in zip(channel.times_ns, channel.values))
    rows.sort(key=lambda item: (item[0], item[1], item[2]))
    write_csv(path, CHANNEL_HEADER, CHANNEL_ROW, rows)


def ingest_context(path) -> tuple[ContextRecord, ...]:
    """Parse a context JSONL file; line numbers accompany every rejection.

    The three timestamps and ``subsystem_id`` must be JSON integers within
    int64.  A float, a string or a bool is rejected with its line and key,
    not coerced, so a validated file replays exactly as written.
    """
    records = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise IngestError(f"{path}:{line_number}: expected an object")
            for key in ("recorded_at_ns", "begins_at_ns", "ends_at_ns", "subsystem_id"):
                if key not in obj:
                    raise IngestError(f"{path}:{line_number}: missing key {key!r}")
                value = obj[key]
                if type(value) is not int or not -(2**63) <= value < 2**63:
                    raise IngestError(f"{path}:{line_number}: {key} must be an integer within int64, got {value!r}")
            try:
                record = ContextRecord(
                    recorded_at_ns=obj["recorded_at_ns"],
                    begins_at_ns=obj["begins_at_ns"],
                    ends_at_ns=obj["ends_at_ns"],
                    subsystem_id=obj["subsystem_id"],
                    payload=obj.get("payload", {}),
                )
            except (TypeError, ValueError) as exc:
                raise IngestError(f"{path}:{line_number}: {exc}") from exc
            records.append(record)
    return tuple(records)


def emit_context(path, records: Iterable[ContextRecord]) -> None:
    with open(path, "w") as handle:
        for record in records:
            handle.write(
                json.dumps(
                    {
                        "recorded_at_ns": record.recorded_at_ns,
                        "begins_at_ns": record.begins_at_ns,
                        "ends_at_ns": record.ends_at_ns,
                        "subsystem_id": record.subsystem_id,
                        "payload": dict(record.payload),
                    },
                    sort_keys=True,
                )
            )
            handle.write("\n")


# ---------------------------------------------------------------------------
# Replay components
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ReplayComponentConfig:
    """Shared replay settings: which recording, which subsystem, how much
    clamping slack at the recording's edges, and (for batteries) the pack
    capacity used to convert SOC differences back into energy."""

    table: TimeSeriesTable
    subsystem_id: int = 1
    boundary_tolerance_s: float = DEFAULT_BOUNDARY_TOLERANCE_S
    battery_capacity_j: float | None = None

    def __post_init__(self) -> None:
        _require(self.boundary_tolerance_s >= 0.0, "boundary_tolerance_s must be >= 0")
        if self.battery_capacity_j is not None:
            _require(self.battery_capacity_j > 0.0, "battery_capacity_j must be > 0")

    def channels(self, *names: str) -> tuple[Channel, ...]:
        """This subsystem's channels ``names``; ValueError names the first missing one."""
        for name in names:
            if not self.table.has_channel(self.subsystem_id, name):
                raise ValueError(f"replay recording lacks channel ({self.subsystem_id}, {name!r})")
        return tuple(self.table.channel(self.subsystem_id, name) for name in names)


# The components below look up the module-level ``interpolate`` on every
# step, so a wrapper installed on ``cemsim.replay.interpolate`` sees every
# lookup.  Recorded context needs no component of its own:
# ``ScriptedContext`` plays back ingested records.


class ReplayPowerSource(PowerSource):
    def __init__(self, config: ReplayComponentConfig) -> None:
        self._voltage, self._current, self._power = config.channels("pv_voltage", "pv_current", "pv_power")
        self._tolerance_s = config.boundary_tolerance_s

    def step(self, start_ns: int, end_ns: int) -> PowerSourceStepResult:
        # positional: a keyword call costs a step record about 0.3 µs more
        return PowerSourceStepResult(
            max(interpolate(self._voltage, end_ns, self._tolerance_s), 0.0),
            max(interpolate(self._current, end_ns, self._tolerance_s), 0.0),
            max(interpolate(self._power, end_ns, self._tolerance_s), 0.0),
        )


class ReplayLoad(Load):
    """Recorded load.  Apparent power is raised to active power if a
    recorded pair dips below it (measurement jitter), since |S| >= P is a
    hard result invariant."""

    def __init__(self, config: ReplayComponentConfig) -> None:
        self._active, self._apparent = config.channels("load_active_power", "load_apparent_power")
        self._tolerance_s = config.boundary_tolerance_s

    def step(self, start_ns: int, end_ns: int) -> LoadStepResult:
        active = max(interpolate(self._active, end_ns, self._tolerance_s), 0.0)
        apparent = max(interpolate(self._apparent, end_ns, self._tolerance_s), active)
        return LoadStepResult(active, apparent)


class ReplayGrid(Grid):
    """Recorded grid exchange.  The commanded request is ignored, so the
    delivered <= requested relation cannot be enforced here; replays
    reproduce history rather than arbitrate it."""

    def __init__(self, config: ReplayComponentConfig) -> None:
        self._active, self._apparent = config.channels("grid_active_power", "grid_apparent_power")
        self._tolerance_s = config.boundary_tolerance_s

    def step(self, start_ns: int, end_ns: int, grid_input: GridStepInput) -> GridStepResult:
        del grid_input
        active = max(interpolate(self._active, end_ns, self._tolerance_s), 0.0)
        apparent = max(interpolate(self._apparent, end_ns, self._tolerance_s), active)
        return GridStepResult(active, apparent)


class ReplayBattery(Battery):
    """Recorded battery.  delta_energy is the recorded SOC difference
    times the configured capacity; the commanded mode/current is ignored.
    The (soc, voltage) read at the end of one step is kept as the start
    state of the next, so each step interpolates only its end."""

    def __init__(self, config: ReplayComponentConfig) -> None:
        self._soc, self._voltage = config.channels("battery_soc", "battery_voltage")
        _require(
            config.battery_capacity_j is not None,
            "ReplayBattery needs battery_capacity_j in its config",
        )
        self._tolerance_s = config.boundary_tolerance_s
        self._capacity_j = config.battery_capacity_j
        self._state: tuple[int, float, float] | None = None

    def _state_at(self, t_ns: int) -> tuple[float, float]:
        state = self._state
        if state is not None and state[0] == t_ns:
            return state[1], state[2]
        soc = min(max(interpolate(self._soc, t_ns, self._tolerance_s), 0.0), 1.0)
        voltage = interpolate(self._voltage, t_ns, self._tolerance_s)
        self._state = (t_ns, soc, voltage)
        return soc, voltage

    def snapshot(self, now_ns: int) -> BatteryStepResult:
        soc, voltage = self._state_at(now_ns)
        return BatteryStepResult(soc=soc, voltage=voltage, delta_energy=0.0, delta_charge=0.0)

    def step(self, start_ns: int, end_ns: int, battery_input: BatteryStepInput) -> BatteryStepResult:
        del battery_input
        previous_soc, _ = self._state_at(start_ns)
        soc, voltage = self._state_at(end_ns)
        delta_energy = (soc - previous_soc) * self._capacity_j
        return BatteryStepResult(soc, voltage, delta_energy, delta_energy / voltage)
