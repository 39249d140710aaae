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

Lookups copy nothing: each :class:`Channel` keeps its times in an
``array('q')`` and its values in an ``array('d')`` with a ``memoryview``
of each, and indexing a view yields the plain Python int or float.  A
channel also keeps a cursor, the first knot at or after its last lookup.
:func:`interpolate` checks the bracket ending at that knot and the one
ending at its successor first, which is O(1) for a replay walking forward
one step at a time, whether its steps end on knots or between them.  A
query further ahead, as when each step skips knots, gallops forward from
the cursor and bisects only the bracket it finds; any other query, or a
stale cursor, costs one O(log n) :mod:`bisect` of the times view.  The
cursor can never change a result.  Replay components resolve
their channels once, at construction, and call the module-level
:func:`interpolate` per step.

Ingestion reads the file in chunks of lines.  A chunk of plain, valid
rows in one repeating channel order, the layout of every recording
``run`` writes, is parsed by column: one join and one split on commas,
then one C-level pass over each column, and each channel's rows are a
strided slice.  Any other chunk goes to the row loop, which splits a
plain line on commas, reads a line holding a quote, or long enough to
hold a field over csv's size limit, through :mod:`csv`, and is the one
source of every error message and line number.  Rows go straight into
their channel's ``array`` pair, which becomes the channel's storage;
only a channel whose rows arrive out of order is sorted.

:class:`Channel` is a :class:`~cemsim.core.SlotRecord`, not a dataclass:
every lookup reads its views and cursor from slots, and ingesting a
recording imports no :mod:`dataclasses`.

Nothing here uses numpy: the checks run as builtins over the arrays
(``all(map(operator.lt, ...))``, ``all(map(math.isfinite, ...))``), so
``validate``, building a replay scenario and an all-replay ``run`` never
import it.  :mod:`csv` is imported by the first ingest, its only user
here, so a synthetic run that writes a recording never loads it.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from itertools import islice
from math import isfinite
from operator import lt
from sys import float_info
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
    SlotRecord,
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
    """A recording file failed validation; the message starts with the
    file's path and carries row context."""


class Channel(SlotRecord):
    """One recorded measurement series; times strictly increasing.

    ``times_ns`` is an ``array('q')`` of int64 nanoseconds and ``values``
    an ``array('d')`` of finite floats; ``_times`` and ``_values`` are
    zero-copy memoryviews of them for scalar lookups.  ``_cursor`` is a
    one-item list holding the index of the first knot at or after the last
    lookup: a hint :func:`interpolate` verifies, not part of the channel's
    value, so it is mutable in a frozen channel and never compared.  Any
    sequences of ints and floats are accepted and copied into arrays;
    arrays of those types are kept as given.  A time that is not an int
    within int64 is a ``ValueError`` naming the channel, never truncated.
    """

    _fields = ("subsystem_id", "name", "times_ns", "values")
    __slots__ = _fields + ("_times", "_values", "_cursor")

    def __init__(self, subsystem_id: int, name: str, times_ns: array, values: array) -> None:
        times = _as_array("q", times_ns, f"channel {name!r} timestamps must be integers within int64")
        values = _as_array("d", values, f"channel {name!r} values must be floats")
        _require(len(times) == len(values), "times and values must have equal length")
        _require(len(times) >= 1, f"channel {name!r} is empty")
        if not all(map(lt, times, times[1:])):
            raise ValueError(f"channel {name!r} timestamps must be strictly increasing")
        if not all(map(isfinite, values)):
            raise ValueError(f"channel {name!r} contains non-finite values")
        self._set_slots(subsystem_id, name, times, values, memoryview(times), memoryview(values), [0])


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
    :class:`TimeSeriesRangeError`.  ``t_ns`` is an int, and its distance
    from the edge is compared with the tolerance exactly.  The lookup
    first tries the two brackets ending at the channel's cursor and at its
    successor.  A query ahead of both gallops forward (the next knot, then
    16 knots on, then the last) and bisects the bracket found; any other
    query bisects the channel's memoryviews (O(log n), no copy).
    """
    times = channel._times
    values = channel._values
    cursor = channel._cursor
    # The cursor is a hint: the first knot at or after the last query.  A
    # query in the bracket (times[index - 1], times[index]] ending there, or
    # in the bracket after it, needs no bisect.  At index 0, times[-1] is
    # the last knot, so the bracket test fails, as it must.
    index = cursor[0]
    t1 = times[index]
    if t1 < t_ns <= times[-1]:
        index += 1
        t1 = times[index]
        if t_ns > t1:
            # Ahead of the bracket after the cursor, as when each step skips
            # knots: gallop to the next knot, then 16 knots on, then the last
            # (times[-1] >= t_ns), and bisect the bracket found.  A probe in
            # Python costs several of bisect's compares in C, so the gallop
            # stops there.
            index += 1
            t1 = times[index]
            if t_ns > t1:
                lo = index + 1
                hi = index + 16
                end = len(times) - 1
                if hi > end:
                    hi = end
                if times[hi] < t_ns:
                    lo = hi + 1
                    hi = end
                index = bisect_left(times, t_ns, lo, hi)
                t1 = times[index]
    elif not times[index - 1] < t_ns <= t1:
        first = times[0]
        last = times[-1]
        if t_ns < first or t_ns > last:
            if (first - t_ns if t_ns < first else t_ns - last) > boundary_tolerance_s * 1e9:
                raise TimeSeriesRangeError(
                    f"query at {t_ns} ns is outside channel "
                    f"({channel.subsystem_id}, {channel.name!r}) range "
                    f"[{first}, {last}] ns by more than {boundary_tolerance_s} s"
                )
            return values[0] if t_ns < first else values[-1]
        # first <= t_ns <= last, so the index is in range and a miss has lo >= 0
        index = bisect_left(times, t_ns)
        t1 = times[index]
    cursor[0] = index
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
        """The channel ``(subsystem_id, name)``; ValueError if the recording lacks it."""
        key = (subsystem_id, name)
        if key not in self._channels:
            raise ValueError(f"replay recording lacks channel {key}")
        return self._channels[key]

    def keys(self) -> list[tuple[int, str]]:
        return sorted(self._channels)

    def __len__(self) -> int:
        return len(self._channels)


# ---------------------------------------------------------------------------
# Ingestion / emission
# ---------------------------------------------------------------------------


#: Lines ingest_timeseries reads at a time.  Each chunk is offered whole
#: to the column pass; the strings and arrays it builds for one chunk are
#: the pass's only memory beyond the channels themselves.
_CHUNK_LINES = 256

#: Lines of a chunk the column pass splits first.  Most chunks whose keys
#: do not repeat in one order, as in a shuffled recording, show it within
#: them and are declined before the rest is split.
_PROBE_LINES = 32


def ingest_timeseries(path) -> TimeSeriesTable:
    """Parse a channel CSV into a table, validating as it goes.

    Rows may arrive unsorted; a channel whose rows are out of order is
    sorted by time.  Malformed rows, timestamps beyond int64 and
    non-finite values are rejected with the offending line number; a
    duplicate timestamp within a channel is rejected naming the timestamp
    and the channel.  Unknown channel names are an error, since a typo
    would otherwise silently drop a measurement.
    Rows go straight into their channel's ``array('q')``/``array('d')``
    pair, which the channel keeps as its storage.

    The file is read line by line, ``\r``, ``\n`` and ``\r\n`` all ending
    a line, in chunks of ``_CHUNK_LINES`` lines.  Each chunk is first
    offered to :func:`_take_columns`, which parses it column by column in
    C-level passes and takes it only if every row is plain, valid and in
    one repeating channel order, as ``run`` and :func:`emit_timeseries`
    write a recording.  A chunk it declines goes to :func:`_ingest_rows`,
    the row loop, which appends its rows or raises the error of its first
    faulty line; a chunk is never split between the two, so the row loop
    is the one source of every error message and line number.
    """
    import csv

    collected: dict[tuple[int, str], tuple[array, array]] = {}
    # (subsystem_id text, name) -> the appends of its channel, so a row of
    # a channel already seen parses only its timestamp and value
    appenders: dict[tuple[str, str], tuple] = {}
    field_limit = csv.field_size_limit()
    with open(path, newline="") as handle:
        header_line = next(handle, None)
        header = None if header_line is None else _csv_row(path, 1, header_line)
        if header != list(CHANNEL_HEADER):
            raise IngestError(f"{path}: bad header {header!r}")
        line_number = 2
        for chunk in iter(lambda: list(islice(handle, _CHUNK_LINES)), []):
            if not _take_columns(chunk, collected, field_limit):
                _ingest_rows(path, chunk, line_number, collected, appenders, field_limit)
            line_number += len(chunk)
    channels = []
    for (subsystem_id, name), (times, values) in sorted(collected.items()):
        try:
            # every time and value was checked as it was read, so the
            # channel can only reject its order; an in-order channel is
            # scanned once
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


def _take_columns(lines: list[str], collected: dict, field_limit: int) -> bool:
    """Append a chunk of channel-CSV ``lines`` to ``collected`` column by
    column and return True, or return False having appended nothing.

    The chunk is taken only if the row loop would read every line as a
    plain row and append it: no line holds a ``"`` or is longer than
    ``field_limit``, each has exactly three commas, the (subsystem, name)
    texts repeat with the period :func:`_period` finds, that period's keys
    are known channels with distinct ``(int(subsystem), name)``, every
    time fits an ``array('q')`` and every value is a finite float.  Then
    each channel's rows sit one period apart, in file order, and reach its
    arrays by one slice and one extend.  Two texts of one subsystem (``1``
    and ``01``) in one period would interleave their rows, so such a chunk
    is declined.
    """
    count = len(lines)
    text = ",".join(lines[:_PROBE_LINES])
    fields = text.split(",")
    if not _period(fields):
        return False
    if count > _PROBE_LINES:
        rest = ",".join(lines[_PROBE_LINES:])
        text = f"{text},{rest}"
        fields += rest.split(",")
    if '"' in text or len(text) > field_limit and max(map(len, lines)) > field_limit:
        return False
    # Lines of three commas each split into four fields apiece, a line's
    # ending left on its value, which float() reads as whitespace.  Four
    # fields a line, and no line ending outside a value field, hold only
    # if every line has three commas.
    value_texts = fields[3::4]
    ends = "".join(value_texts)
    if len(fields) != 4 * count or ends.count("\n") + ends.count("\r") != text.count("\n") + text.count("\r"):
        return False
    period = _period(fields)
    names = fields[2 : 4 * period : 4]
    if not period or not KNOWN_CHANNELS.issuperset(names):
        return False
    try:
        keys = list(zip(map(int, fields[1 : 4 * period : 4]), names))
        values = array("d", map(float, value_texts))
    except ValueError:
        return False
    if len(set(keys)) != period or not all(map(isfinite, values)):
        return False
    # a recording written by run repeats each time on a step's rows, so
    # the slots share a few time columns: each is parsed once
    time_texts = fields[0::4]
    columns = []
    previous = times = None
    for slot in range(period):
        texts = time_texts[slot::period]
        if texts != previous:
            try:
                times = array("q", map(int, texts))
            except (ValueError, OverflowError):
                return False
            previous = texts
        columns.append(times)
    for slot, key, times in zip(range(period), keys, columns):
        arrays = collected.get(key)
        if arrays is None:
            arrays = collected[key] = (array("q"), array("d"))
        arrays[0].extend(times)
        arrays[1].extend(values[slot::period])
    return True


def _period(fields: list[str]) -> int:
    """The period of the (subsystem, name) texts of channel-CSV ``fields``
    split on commas, four to a row: the offset of the first repeat of row
    0's key, or the row count if it has none.  0 if the texts do not
    repeat with that period, or there is no row."""
    subsystems = fields[1::4]
    names = fields[2::4]
    count = len(names)
    period = next((i for i in range(1, count) if names[i] == names[0] and subsystems[i] == subsystems[0]), count)
    if not count or names[period:] != names[:-period] or subsystems[period:] != subsystems[:-period]:
        return 0
    return period


def _ingest_rows(path, lines: list[str], first_line_number: int, collected: dict, appenders: dict, field_limit: int) -> None:
    """Append ``lines``, numbered from ``first_line_number``, to
    ``collected`` row by row, or raise the ``IngestError`` of the first
    faulty one.

    A plain line is split on commas, as csv reads it (a blank line is a
    row of no fields).  A line holding a ``"``, or too long to be sure no
    field exceeds ``field_limit`` (``csv.field_size_limit()``), is read by
    :func:`_csv_row` with csv's quoting rules, strictly: a quote left open
    at the end of its line or followed by anything but a comma, and a
    field over the limit, are an ``IngestError`` naming the line, so no
    field holds a line break.  A row whose timestamp text repeats the
    previous row's reuses its parsed int.  ``appenders`` maps each
    (subsystem text, name) already seen to its channel's two appends.
    """
    stamp = t_ns = None
    for line_number, line in enumerate(lines, start=first_line_number):
        text = line.rstrip("\r\n")
        if '"' in text or len(text) > field_limit:
            row = _csv_row(path, line_number, line)
        else:
            row = text.split(",") if text else []
        if len(row) != 4:
            raise IngestError(f"{path}:{line_number}: expected 4 fields, got {len(row)}")
        time_text, subsystem_text, name, value_text = row
        appends = appenders.get((subsystem_text, name))
        try:
            if time_text != stamp:
                t_ns = int(time_text)
                stamp = time_text
            if appends is None:
                subsystem_id = int(subsystem_text)
            value = float(value_text)
        except ValueError as exc:
            raise IngestError(f"{path}:{line_number}: {exc}") from exc
        if appends is None:
            if name not in KNOWN_CHANNELS:
                raise IngestError(f"{path}:{line_number}: unknown channel {name!r}")
            columns = collected.get((subsystem_id, name))
            if columns is None:
                columns = collected[(subsystem_id, name)] = (array("q"), array("d"))
            appends = appenders[(subsystem_text, name)] = (columns[0].append, columns[1].append)
        try:
            appends[0](t_ns)
        except OverflowError as exc:
            raise IngestError(f"{path}:{line_number}: timestamp {t_ns} ns does not fit in int64") from exc
        if not isfinite(value):
            raise IngestError(f"{path}:{line_number}: channel {name!r} value {value_text!r} is not finite")
        appends[1](value)


def _csv_row(path, line_number: int, line: str) -> list[str]:
    """The fields of one channel-CSV line under csv's quoting rules, read
    strictly; a csv error is an ``IngestError`` naming the line."""
    import csv

    try:
        return next(csv.reader((line,), strict=True), [])
    except csv.Error as exc:
        raise IngestError(f"{path}:{line_number}: {exc}") from exc


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
    not coerced, so a validated file replays exactly as written.  The
    optional ``payload`` must be an object, and each number directly in
    it finite as a float: NaN, ``Infinity`` and an integer beyond float
    range are rejected with their line and key, as a forecaster would
    fail on them mid-run.
    """
    records = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            # json.loads raises a JSONDecodeError, or a plain ValueError for
            # an integer literal past the interpreter's int digit limit
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise IngestError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise IngestError(f"{path}:{line_number}: expected an object")
            for key in ("recorded_at_ns", "begins_at_ns", "ends_at_ns", "subsystem_id"):
                if key not in obj:
                    raise IngestError(f"{path}:{line_number}: missing key {key!r}")
                value = obj[key]
                if type(value) is not int or not -(2**63) <= value < 2**63:
                    raise IngestError(f"{path}:{line_number}: {key} must be an integer within int64, got {value!r}")
            payload = obj.get("payload", {})
            if type(payload) is not dict:
                raise IngestError(f"{path}:{line_number}: payload must be an object, got {payload!r}")
            for key, value in payload.items():
                # abs() of an integer too large for a float compares exactly,
                # so it fails the bound as NaN and the infinities do
                if type(value) in (int, float) and not abs(value) <= float_info.max:
                    raise IngestError(f"{path}:{line_number}: payload {key!r} must be a finite number, got {value!r}")
            try:
                record = ContextRecord(
                    recorded_at_ns=obj["recorded_at_ns"],
                    begins_at_ns=obj["begins_at_ns"],
                    ends_at_ns=obj["ends_at_ns"],
                    subsystem_id=obj["subsystem_id"],
                    payload=payload,
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


# Each component takes the recording, the subsystem id of its channels and
# the clamping slack at the recording's edges, and resolves its channels
# once; ReplayBattery also takes the pack capacity that turns SOC
# differences back into energy.  The components look up the module-level
# ``interpolate`` on every step, so a wrapper installed on
# ``cemsim.replay.interpolate`` sees every lookup.  Recorded context needs
# no component of its own: ``ScriptedContext`` plays back ingested records.


def _channels(table: TimeSeriesTable, subsystem_id: int, boundary_tolerance_s: float, *names: str) -> list[Channel]:
    """Subsystem ``subsystem_id``'s channels ``names`` after checking the
    tolerance; ValueError names the first missing channel."""
    _require(boundary_tolerance_s >= 0.0, "boundary_tolerance_s must be >= 0")
    return [table.channel(subsystem_id, name) for name in names]


class ReplayPowerSource(PowerSource):
    def __init__(self, table: TimeSeriesTable, subsystem_id: int, boundary_tolerance_s: float) -> None:
        self._voltage, self._current, self._power = _channels(
            table, subsystem_id, boundary_tolerance_s, "pv_voltage", "pv_current", "pv_power"
        )
        self._tolerance_s = boundary_tolerance_s

    def power_at(self, t_ns: int) -> float:
        """The recorded PV power at ``t_ns``, as a step ending there reports it."""
        return max(interpolate(self._power, t_ns, self._tolerance_s), 0.0)

    def step(self, start_ns: int, end_ns: int) -> PowerSourceStepResult:
        # positional: a keyword call costs a step record about 0.3 µs more
        return PowerSourceStepResult(
            max(interpolate(self._voltage, end_ns, self._tolerance_s), 0.0),
            max(interpolate(self._current, end_ns, self._tolerance_s), 0.0),
            self.power_at(end_ns),
        )


class ReplayLoad(Load):
    """Recorded load.  Apparent power is raised to active power if a
    recorded pair dips below it (measurement jitter), since |S| >= P is a
    hard result invariant."""

    def __init__(self, table: TimeSeriesTable, subsystem_id: int, boundary_tolerance_s: float) -> None:
        self._active, self._apparent = _channels(
            table, subsystem_id, boundary_tolerance_s, "load_active_power", "load_apparent_power"
        )
        self._tolerance_s = boundary_tolerance_s

    def power_at(self, t_ns: int) -> float:
        """The recorded active power at ``t_ns``, as a step ending there requests it."""
        return max(interpolate(self._active, t_ns, self._tolerance_s), 0.0)

    def step(self, start_ns: int, end_ns: int) -> LoadStepResult:
        active = self.power_at(end_ns)
        apparent = max(interpolate(self._apparent, end_ns, self._tolerance_s), active)
        return LoadStepResult(active, apparent)


class ReplayGrid(Grid):
    """Recorded grid exchange.  The commanded request is ignored, so the
    delivered <= requested relation cannot be enforced here; replays
    reproduce history rather than arbitrate it."""

    def __init__(self, table: TimeSeriesTable, subsystem_id: int, boundary_tolerance_s: float) -> None:
        self._active, self._apparent = _channels(
            table, subsystem_id, boundary_tolerance_s, "grid_active_power", "grid_apparent_power"
        )
        self._tolerance_s = boundary_tolerance_s

    def step(self, start_ns: int, end_ns: int, grid_input: GridStepInput) -> GridStepResult:
        del grid_input
        active = max(interpolate(self._active, end_ns, self._tolerance_s), 0.0)
        apparent = max(interpolate(self._apparent, end_ns, self._tolerance_s), active)
        return GridStepResult(active, apparent)


class ReplayBattery(Battery):
    """Recorded battery.  delta_energy is the recorded SOC difference
    times ``capacity_j``; the commanded mode/current is ignored.
    The (soc, voltage) read at the end of one step is kept as the start
    state of the next, so each step interpolates only its end."""

    def __init__(self, table: TimeSeriesTable, subsystem_id: int, boundary_tolerance_s: float, capacity_j: float) -> None:
        self._soc, self._voltage = _channels(table, subsystem_id, boundary_tolerance_s, "battery_soc", "battery_voltage")
        _require(capacity_j > 0.0, "capacity_j must be > 0")
        self._tolerance_s = boundary_tolerance_s
        self._capacity_j = capacity_j
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
