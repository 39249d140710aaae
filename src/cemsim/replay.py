"""Dataset-backed replay: recorded channels played back as components.

A recording is a set of channels keyed by (subsystem_id, channel name),
each a strictly increasing series of (timestamp_ns, value).  Replay
components read their channels at the end of every step, linearly
interpolated between recorded knots, and ignore any commanded inputs
beyond the step length itself: they reproduce what happened, they do
not simulate.

File formats (both plain text, floats written with 17 significant digits
so values round-trip bit-exactly):

* time series CSV with header ``timestamp_ns,subsystem_id,channel,value``
* context JSON lines with keys ``recorded_at_ns``, ``begins_at_ns``,
  ``ends_at_ns``, ``subsystem_id``, ``payload`` (payload carries "text"
  plus arbitrary numeric fields); a line holds what a
  :class:`~cemsim.core.ContextRecord` accepts, whose constructor states
  the rule

Channel names follow ``<subsystem>_<measurement>``, e.g. ``battery_soc``
(fraction), ``pv_power`` (W), ``load_active_power`` (W),
``grid_active_power`` (W).

A recording is one time axis wherever its channels allow.  Ingestion
gives each distinct array of timestamps one :class:`TimeAxis`, shared by
every channel recorded at those times (finding an equal array is one
C-level array compare), and checks its strict order once; every
channel's values are still checked.  Lookups copy nothing: an axis keeps
its times in an ``array('q')`` and a channel its values in an
``array('d')``, each with a ``memoryview``, and indexing a view yields
the plain Python int or float.

A time is looked up one way.  :meth:`TimeAxis.search` finds the knot it
falls on, the bracket it falls in, or how far it lies outside the
recording, searching from the axis's cursor, the first knot after the
last time located: a time on or within the bracket after it costs a
compare or two, any other one O(log n) :mod:`bisect` of the times view.
:meth:`TimeAxis.locate` keeps that answer for its time and moves the
cursor, so the replay components of one step, which read their channels
at the step's end, share one search of their axis, and a step ending on
the knot after the cursor costs one int compare.  A channel's value is
then its value on the knot, which a component whose channels share the
axis reads straight from their views, or else what :func:`interpolate`
makes of the answer: the bracket's two values interpolated by a fraction
that depends on the times alone, or an edge clamp or range error of the
channel's own.  :func:`interpolate`, which a forecast also asks for
times ahead, reads the kept answer if it is for its time and otherwise
searches without keeping one, so it never moves the cursor the next step
reads from.  Neither the cursor nor the kept answer, keyed on its time,
can change a result, whoever shares the axis.

Ingestion reads the file line by line through one row loop, which
splits a plain line on commas, reads a line holding a quote, or long
enough to hold a field over csv's size limit, through :mod:`csv`, and is
the one source of every error message and line number.  Rows go straight
into their channel's ``array`` pair, which becomes the channel's
storage, unless an earlier channel holds equal times, whose axis it then
shares; only a channel whose rows arrive out of order is sorted.  Every
input file is read as UTF-8, whatever the locale.

:class:`Channel` is a plain ``__slots__`` class, like :class:`TimeAxis`,
not a dataclass: every lookup reads its axis and views from slots, and
ingesting a recording imports no :mod:`dataclasses`.

A recording is parsed once.  :func:`ingest_timeseries` keeps the
channels it parsed in a column cache beside the CSV, the sidecar
``__cemsim_cache__/<csv name>.columns``, keyed by a blake2b-256 digest
of the CSV's bytes; the next ingest of the same bytes reads the raw
arrays back instead of parsing text.  The sidecar is a short text header
(a magic string, the format version, ``sys.byteorder``, the digest, and
each channel's subsystem id, name and length) followed by each
channel's times and values as raw ``array`` bytes: no pickle, no
marshal.  Trust model: whoever can write the sidecar can already write
the CSV beside it, and every channel read back is built through
:class:`Channel` and :class:`TimeSeriesTable` again, so strict time
order, finite values, known names and distinct keys are checked as for
a parse.  A sidecar that is missing, stale, foreign or damaged in any way
is a silent miss, which parses the file and rewrites the sidecar; a
directory the sidecar cannot be written to is no error.  The cache has
no switch (no flag, environment variable or scenario key): a hit returns
what the parse would, so there is nothing to choose.

Nothing here uses numpy: the checks run as builtins over the arrays
(``all(map(operator.lt, ...))``, and ``math.isfinite(sum(...))`` before
``all(map(math.isfinite, ...))``, see :func:`_all_finite`), so
``validate``, building a replay scenario and an all-replay ``run`` never
import it.  Nor :mod:`hashlib`, which initialises OpenSSL: the digest is
``_blake2``'s blake2b, as for the synthetic noise.  :mod:`csv` is
imported by the first parse, its only user here, so a synthetic run that
writes a recording never loads it.
"""

from __future__ import annotations

import json
import os
from _blake2 import blake2b
from array import array
from bisect import bisect_left
from math import isfinite
from operator import lt
from sys import byteorder
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
    """A recording file failed validation; the message starts with the
    file's path and carries row context."""


class TimeAxis:
    """The strictly increasing times one or more channels were recorded
    at, and where the last time located on them fell.

    ``times_ns`` is the ``array('q')`` of times and ``_times`` a
    memoryview of it.  The answer for a time is ``(index, fraction,
    outside_ns)``: on a knot, ``(knot, None, 0)``; inside a bracket,
    ``(later knot, fraction, 0)``; outside the recording, the nearer edge
    knot, ``None`` and the distance from that edge in ns.  ``t_ns`` and
    ``answer`` are the last time :meth:`locate` found and its answer;
    ``_next`` is the first knot after that time (``len(times_ns)`` past
    the last) and ``_next_ns`` its time (None past the last, which no int
    equals).  Each is a hint keyed on a time, so one axis can serve every
    channel and every replay that reads it.
    """

    __slots__ = ("times_ns", "_times", "t_ns", "answer", "_next", "_next_ns")

    def __init__(self, times_ns: array) -> None:
        self.times_ns = times_ns
        self._times = memoryview(times_ns)
        self.t_ns = self.answer = None
        self._next = 0
        self._next_ns = times_ns[0]

    def search(self, t_ns: int) -> tuple[int, float | None, int]:
        """The answer for ``t_ns``, searched from the cursor, which stays
        where it is.  A time on or within the bracket after the cursor's
        knot costs a compare or two; any other one bisect."""
        times = self._times
        last = len(times) - 1
        if t_ns < times[0]:
            return 0, None, times[0] - t_ns
        if t_ns > times[last]:
            return last, None, t_ns - times[last]
        index = self._next
        if index and t_ns <= times[index - 1]:
            # at or before the last located time
            index = bisect_left(times, t_ns, 0, index)
        elif t_ns > times[index]:
            # past the cursor's knot (so not past the last): the bracket
            # after it, or a bisect of the rest
            index += 1
            if t_ns > times[index]:
                index = bisect_left(times, t_ns, index + 1, last)
        t1 = times[index]
        if t1 == t_ns:
            return index, None, 0
        t0 = times[index - 1]
        return index, (t_ns - t0) / (t1 - t0), 0

    def locate(self, t_ns: int) -> None:
        """Keep the answer for ``t_ns`` as ``answer`` and move the cursor
        to the first knot after ``t_ns``.  A time on the cursor's knot
        costs one int compare."""
        if t_ns == self._next_ns:
            index = self._next
            self.answer = (index, None, 0)
            index += 1
        else:
            self.answer = answer = self.search(t_ns)
            index, fraction, outside_ns = answer
            if outside_ns:
                index = 0 if t_ns < self._times[0] else len(self._times)
            elif fraction is None:
                index += 1
        self.t_ns = t_ns
        self._next = index
        try:
            self._next_ns = self._times[index]
        except IndexError:
            self._next_ns = None


class Channel:
    """One recorded measurement series; times strictly increasing.

    ``times_ns`` is an ``array('q')`` of int64 nanoseconds and ``values``
    an ``array('d')`` of finite floats; ``axis`` is the :class:`TimeAxis`
    that holds ``times_ns`` and locates times on it, and ``_values`` a
    zero-copy memoryview of the values for scalar lookups.  Any sequences
    of ints and floats are accepted and copied into arrays; arrays of
    those types are kept as given.  A time that is not an int within int64
    is a ``ValueError`` naming the channel, never truncated.

    ``axes``, for the channels of one recording, is one list shared by
    every channel built from it: the axes of the channels built so far,
    each with its order checked.  A channel whose times equal one of them
    takes that axis, and its array, unchecked, so channels with equal
    timestamps share one axis, whose order is checked once.  Without
    ``axes`` the times are checked and get an axis of their own.
    """

    __slots__ = ("subsystem_id", "name", "times_ns", "values", "axis", "_values")

    def __init__(
        self, subsystem_id: int, name: str, times_ns: array, values: array, *, axes: list[TimeAxis] | None = None
    ) -> None:
        times = _as_array("q", times_ns, f"channel {name!r} timestamps must be integers within int64")
        values = _as_array("d", values, f"channel {name!r} values must be floats")
        _require(len(times) == len(values), "times and values must have equal length")
        _require(len(times) >= 1, f"channel {name!r} is empty")
        axis = _on_axis(times, name, [] if axes is None else axes)
        if not _all_finite(values):
            raise ValueError(f"channel {name!r} contains non-finite values")
        self.subsystem_id = subsystem_id
        self.name = name
        self.times_ns = axis.times_ns
        self.values = values
        self.axis = axis
        self._values = memoryview(values)


def _on_axis(times: array, name: str, axes: list[TimeAxis]) -> TimeAxis:
    """The axis in ``axes`` whose times equal ``times`` (one C-level
    compare each), or else a new axis of ``times``, checked for strict
    order and added to ``axes``.  Only a checked axis joins ``axes``, so
    times equal to it need no check of their own."""
    for axis in axes:
        if axis.times_ns == times:
            return axis
    if not all(map(lt, times, times[1:])):
        raise ValueError(f"channel {name!r} timestamps must be strictly increasing")
    axis = TimeAxis(times)
    axes.append(axis)
    return axis


def _all_finite(values: array) -> bool:
    """Whether every value is finite, in one C-level pass if so.

    An IEEE sum with an infinite or NaN term is infinite or NaN, so a
    finite sum proves every term finite.  Only a sum that is not finite,
    from such a term or from finite terms that overflow, is checked value
    by value.  A week-long channel of 10,080 values took 136 µs this way
    against 330 µs value by value (timeit, CPython 3.11, 2-vCPU VM).
    """
    return isfinite(sum(values)) or all(map(isfinite, values))


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
    from the edge is compared with the tolerance exactly.  The answer is
    the one the channel's axis keeps if it is for ``t_ns``, else the
    axis's search, which keeps nothing: a lookup here never moves the
    cursor the replay components read from.
    """
    axis = channel.axis
    index, fraction, outside_ns = axis.answer if t_ns == axis.t_ns else axis.search(t_ns)
    values = channel._values
    if fraction is None:
        if outside_ns and outside_ns > boundary_tolerance_s * 1e9:
            raise _out_of_range(channel, t_ns, boundary_tolerance_s)
        return values[index]
    v0 = values[index - 1]
    return v0 + (values[index] - v0) * fraction


def _out_of_range(channel: Channel, t_ns: int, boundary_tolerance_s: float) -> TimeSeriesRangeError:
    times = channel.times_ns
    return TimeSeriesRangeError(
        f"query at {t_ns} ns is outside channel "
        f"({channel.subsystem_id}, {channel.name!r}) range "
        f"[{times[0]}, {times[-1]}] ns by more than {boundary_tolerance_s} s"
    )


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


#: Directory, beside each channel CSV, of the CSVs' column caches.
_CACHE_DIR = "__cemsim_cache__"

#: First line of every sidecar, before its digest: the magic string, the
#: format version and the byte order of the raw arrays after the header.
_CACHE_HEAD = f"cemsim-columns 1 {byteorder}"

#: Bytes the digest reads at a time.  64 KiB, 256 KiB and 1 MiB each
#: digested a 7.7 MB recording in 11.7 ms (best of 9, 2-vCPU VM), so the
#: smallest is used.
_DIGEST_BUFFER = 1 << 16


def ingest_timeseries(path) -> TimeSeriesTable:
    """Parse a channel CSV into a table, validating as it goes, or read
    the table back from the column cache a parse of the same bytes left.

    The cache is the sidecar ``__cemsim_cache__/<csv name>.columns``
    beside the CSV, keyed by the blake2b-256 digest of the CSV's bytes
    (never its mtime or size, which an edit can keep).  A sidecar with
    the CSV's digest, this format version and this machine's byte order
    is a hit: its channels are rebuilt through :class:`Channel` and
    :class:`TimeSeriesTable`, so every check a parse makes on the table
    runs again, and the names must be known channels.  Anything else
    about it, a missing or unreadable file, another digest, a short or
    long file, a failing check, is a miss, and no error.

    A miss parses the CSV with :func:`_parse_timeseries`, whose errors
    reach the caller unchanged.  After a successful parse, if the CSV's
    bytes still have the digest read before it, the sidecar is written to
    a per-process temporary file and renamed over the old one.  An
    ``OSError`` on the way, as in a read-only dataset directory, removes
    the temporary file and is not reported: the cache only saves time.
    Whoever can write the sidecar can write the CSV itself, and each value
    read back is checked as a parsed one is, so the sidecar is trusted no
    further than the CSV.  There is no switch to turn the cache off.
    """
    digest = _digest(path)
    directory, name = os.path.split(os.fspath(path))
    sidecar = os.path.join(directory, _CACHE_DIR, name + ".columns")
    table = _load_columns(sidecar, digest)
    if table is None:
        table = _parse_timeseries(path)
        if _digest(path) == digest:
            _store_columns(sidecar, digest, table)
    return table


def _digest(path) -> str:
    """The hex blake2b-256 digest of the file's bytes, read through one
    buffer of ``_DIGEST_BUFFER`` bytes."""
    hasher = blake2b(digest_size=32)
    buffer = bytearray(_DIGEST_BUFFER)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(buffer):
            hasher.update(view[:size])
    return hasher.hexdigest()


def _load_columns(sidecar: str, digest: str) -> TimeSeriesTable | None:
    """The table the sidecar holds for a CSV of ``digest``, or None if it
    holds none: absent, unreadable, for other bytes, another format or
    byte order, of the wrong size, or failing a check."""
    try:
        with open(sidecar, "rb") as handle:
            if handle.readline() != f"{_CACHE_HEAD} {digest}\n".encode():
                return None
            layout = []
            for _ in range(int(handle.readline())):
                subsystem_text, name, length_text = handle.readline().decode().split()
                if name not in KNOWN_CHANNELS:
                    return None
                layout.append((int(subsystem_text), name, int(length_text)))
            # 8 bytes a time and 8 a value: checked first, so a damaged
            # length never makes fromfile read past the file
            if os.fstat(handle.fileno()).st_size - handle.tell() != 16 * sum(length for *_, length in layout):
                return None
            channels = []
            axes: list[array] = []
            for subsystem_id, name, length in layout:
                times = array("q")
                times.fromfile(handle, length)
                values = array("d")
                values.fromfile(handle, length)
                channels.append(Channel(subsystem_id, name, times, values, axes=axes))
            return TimeSeriesTable(channels)
    except (OSError, ValueError, EOFError):
        return None


def _store_columns(sidecar: str, digest: str, table: TimeSeriesTable) -> None:
    """Write ``table`` as the sidecar of a CSV of ``digest``: to a
    temporary file first, then renamed, so no reader sees half a sidecar.
    An ``OSError`` leaves no temporary file and is not raised."""
    channels = [table.channel(*key) for key in table.keys()]
    header = [f"{_CACHE_HEAD} {digest}\n{len(channels)}\n"]
    header += [f"{channel.subsystem_id} {channel.name} {len(channel.times_ns)}\n" for channel in channels]
    temporary = f"{sidecar}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(sidecar), exist_ok=True)
        with open(temporary, "wb") as handle:
            handle.write("".join(header).encode())
            for channel in channels:
                channel.times_ns.tofile(handle)
                channel.values.tofile(handle)
        os.replace(temporary, sidecar)
    except OSError:
        try:
            os.remove(temporary)
        except OSError:
            pass


def _parse_timeseries(path) -> TimeSeriesTable:
    """Parse a channel CSV into a table, validating as it goes.

    Rows may arrive unsorted; a channel whose rows are out of order is
    sorted by time.  Malformed rows, timestamps beyond int64 and
    non-finite values are rejected with the offending line number; a
    duplicate timestamp within a channel is rejected naming the timestamp
    and the channel.  Unknown channel names are an error, since a typo
    would otherwise silently drop a measurement.
    Rows go straight into their channel's ``array('q')``/``array('d')``
    pair, which the channel keeps as its storage.

    The file is read as UTF-8, line by line, ``\r``, ``\n`` and ``\r\n``
    all ending a line, and every row after the header goes through
    :func:`_ingest_rows`, the row loop, which appends it or raises the
    error of its line; a byte that is not UTF-8 is named by
    :func:`_not_utf8`.
    """
    import csv

    field_limit = csv.field_size_limit()
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            header_line = next(handle, None)
            header = None if header_line is None else _csv_row(path, 1, header_line)
            if header != list(CHANNEL_HEADER):
                raise IngestError(f"{path}: bad header {header!r}")
            collected = _ingest_rows(path, handle, field_limit)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    channels = []
    # the axes of the channels built so far: a channel whose times equal
    # one of them shares it, and only a new axis's order is scanned
    axes: list[TimeAxis] = []
    for (subsystem_id, name), (times, values) in sorted(collected.items()):
        try:
            # every time and value was checked as it was read, so the
            # channel can only reject its order; an in-order channel is
            # scanned at most once
            channel = Channel(subsystem_id, name, times, values, axes=axes)
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
            channel = Channel(subsystem_id, name, times, values, axes=axes)
        channels.append(channel)
    return TimeSeriesTable(channels)


def _ingest_rows(path, lines: Iterable[str], field_limit: int) -> dict[tuple[int, str], tuple[array, array]]:
    """The rows of channel-CSV ``lines``, numbered from 2, as each
    channel's (times, values) arrays in file order, or the
    ``IngestError`` of the first faulty line.

    A plain line is split on commas, as csv reads it (a blank line is a
    row of no fields).  A line holding a ``"``, or too long to be sure no
    field exceeds ``field_limit`` (``csv.field_size_limit()``), is read by
    :func:`_csv_row` with csv's quoting rules, strictly: a quote left open
    at the end of its line or followed by anything but a comma, and a
    field over the limit, are an ``IngestError`` naming the line, so no
    field holds a line break.  A row whose timestamp text repeats the
    previous row's reuses its parsed int, as every row of one step of a
    recording ``run`` wrote does.
    """
    collected: dict[tuple[int, str], tuple[array, array]] = {}
    # (subsystem_id text, name) -> the appends of its channel, so a row of
    # a channel already seen parses only its timestamp and value
    appenders: dict[tuple[str, str], tuple] = {}
    stamp = t_ns = None
    for line_number, line in enumerate(lines, start=2):
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
    return collected


def _not_utf8(path) -> IngestError:
    """The ``IngestError`` naming the first line of ``path`` that is not
    UTF-8, for a read of it as text that failed to decode.

    The file is read again, as bytes: the text layer decodes a block at a
    time, so its error knows neither the line nor the byte's offset in
    the file.  Lines end at ``\r``, ``\n`` or ``\r\n``, as in the text
    read.  A text read decodes ahead of the line it returns, so the error
    is raised before a fault on an earlier line of the same block is
    reached.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode()
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line_number = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        return IngestError(f"{path}:{line_number}: byte {exc.object[exc.start]:#04x} is not UTF-8 ({exc.reason})")
    return IngestError(f"{path}: not UTF-8 when read, but UTF-8 when read again")


def _csv_row(path, line_number: int, line: str) -> list[str]:
    """The fields of one channel-CSV line under csv's quoting rules, read
    strictly; a csv error is an ``IngestError`` naming the line."""
    import csv

    try:
        return next(csv.reader((line,), strict=True), [])
    except csv.Error as exc:
        raise IngestError(f"{path}:{line_number}: {exc}") from exc


def ingest_context(path) -> tuple[ContextRecord, ...]:
    """Parse a context JSONL file; line numbers accompany every rejection.

    Each line is one JSON object holding the four int keys of a
    :class:`~cemsim.core.ContextRecord` and, optionally, its ``payload``
    (an empty one if absent).  A line that is not JSON, not an object or
    misses a key is rejected here; any other fault is the record's own
    ``ValueError``, raised by its constructor, which holds the rule.
    Either is an ``IngestError`` naming the file and the line.
    """
    records = []
    try:
        with open(path, encoding="utf-8") as handle:
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
                try:
                    record = ContextRecord(
                        obj["recorded_at_ns"],
                        obj["begins_at_ns"],
                        obj["ends_at_ns"],
                        obj["subsystem_id"],
                        obj.get("payload", {}),
                    )
                except KeyError as exc:
                    raise IngestError(f"{path}:{line_number}: missing key {exc.args[0]!r}") from None
                except ValueError as exc:
                    raise IngestError(f"{path}:{line_number}: {exc}") from exc
                records.append(record)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return tuple(records)


def emit_context(path, records: Iterable[ContextRecord]) -> None:
    """Write ``records`` to a context JSONL file, one per line.

    Each line is one ASCII JSON object with sorted keys, ending ``"\n"``.
    The file is opened in binary mode and each line is written as bytes,
    so the file is the same on every platform (a text-mode file would
    translate the newlines) and no line waits in a text layer's pending
    chunk: the memory held is the binary buffer's, whatever the file's
    length.  Nothing is checked here: a :class:`~cemsim.core.ContextRecord`
    keeps the rule :func:`ingest_context` reads the file by, its payload
    holding only string keys and values JSON writes, so every record
    can be written and reads back equal.
    """
    with open(path, "wb") as handle:
        for record in records:
            obj = {
                "recorded_at_ns": record.recorded_at_ns,
                "begins_at_ns": record.begins_at_ns,
                "ends_at_ns": record.ends_at_ns,
                "subsystem_id": record.subsystem_id,
                "payload": dict(record.payload),
            }
            handle.write(json.dumps(obj, sort_keys=True).encode() + b"\n")


# ---------------------------------------------------------------------------
# Replay components
# ---------------------------------------------------------------------------


# Each component takes the recording, the subsystem id of its channels and
# the clamping slack at the recording's edges, and resolves its channels
# once, in the one constructor of _ReplayComponent; ReplayBattery also
# takes the pack capacity that turns SOC differences back into energy.  A
# step locates its end on the axis of the component's first channel.  If
# that end is a knot and the channels share the axis, as an ingested
# recording's do, their values are read from their views at that index,
# in the step itself: through a shared function and a list, a 60 s
# replay's four components took about 1 µs more a step (in process,
# CPython 3.11, 2-vCPU VM).  Any other end goes to _read,
# which reads each channel through the module-level ``interpolate``, so a
# wrapper installed on ``cemsim.replay.interpolate`` sees only the reads
# off a knot: ends between knots, outside the recording, or on channels of
# different axes.  ``power_at``, which a forecast asks for times ahead,
# always interpolates.  Recorded context needs no component of its own:
# ``ScriptedContext`` plays back ingested records.  A step's clamps make
# max's or min's own comparison in a conditional, with no call:
# ``0.0 if 0.0 > x else x`` is ``max(x, 0.0)`` and ``a if a > s else s``
# is ``max(s, a)`` for every float, -0.0 and NaN included.


def _read(channels: list[Channel], t_ns: int, boundary_tolerance_s: float) -> list[float]:
    """The channels' values at ``t_ns``, in order, each located on its
    axis and read by :func:`interpolate`, errors included; channels
    sharing an axis search it once."""
    # a loop, not a comprehension, which costs a function call in 3.11
    values = []
    for channel in channels:
        axis = channel.axis
        if t_ns != axis.t_ns:
            axis.locate(t_ns)
        values.append(interpolate(channel, t_ns, boundary_tolerance_s))
    return values


class _ReplayComponent:
    """The constructor every replay component shares.

    It checks the tolerance, then resolves the class's ``_names`` in
    subsystem ``subsystem_id`` of ``table`` (ValueError names the first
    missing channel).  ``_axis`` is the first channel's axis, and
    ``_views`` the channels' value views if they all share it, else None;
    ``_bits`` then views the same values as int64s.

    Same inputs, same record: a step that ends on a knot whose values
    are bitwise those of the knot the component's last record was built
    on returns that record, the same object, instead of building an
    equal one (:class:`ReplayBattery` also compares the step's start
    knot with the record's).  A record is a function of those values, so
    the reused one is the one the step would build, and it passed its
    checks when it was built.  The knots are compared as int64 views of
    the value arrays, never as floats: ``0.0 == -0.0``, and a recorded
    ``-0.0`` replays as written.  A step off a knot, or over channels on
    different axes, builds its record and keeps none.  Handing back the
    same object is what lets the inverter and the grid, which key their
    reuse on their inputs' identity, skip their step too.
    """

    _names: tuple[str, ...] = ()

    def __init__(self, table: TimeSeriesTable, subsystem_id: int, boundary_tolerance_s: float) -> None:
        _require(boundary_tolerance_s >= 0.0, "boundary_tolerance_s must be >= 0")
        channels = [table.channel(subsystem_id, name) for name in self._names]
        axis = channels[0].axis
        self._channels = channels
        self._axis = axis
        self._views = self._bits = None
        if all(channel.axis is axis for channel in channels):
            self._views = tuple([channel._values for channel in channels])
            self._bits = tuple([view.cast("B").cast("q") for view in self._views])
        self._tolerance_s = boundary_tolerance_s
        # the knot the last record built on a knot was read at, and the record
        self._last = (None, None)


class ReplayPowerSource(_ReplayComponent, PowerSource):
    _names = ("pv_voltage", "pv_current", "pv_power")

    def power_at(self, t_ns: int) -> float:
        """The recorded PV power at ``t_ns``, as a step ending there reports it."""
        return max(interpolate(self._channels[2], t_ns, self._tolerance_s), 0.0)

    def step(self, start_ns: int, end_ns: int) -> PowerSourceStepResult:
        axis = self._axis
        if end_ns != axis.t_ns:
            axis.locate(end_ns)
        index, fraction, outside_ns = axis.answer
        on_knot = fraction is None and not outside_ns and self._views
        if on_knot:
            built_on, record = self._last
            voltage_bits, current_bits, power_bits = self._bits
            if (
                built_on is not None
                and power_bits[index] == power_bits[built_on]
                and current_bits[index] == current_bits[built_on]
                and voltage_bits[index] == voltage_bits[built_on]
            ):
                return record
            voltages, currents, powers = self._views
            voltage, current, power = voltages[index], currents[index], powers[index]
        else:
            voltage, current, power = _read(self._channels, end_ns, self._tolerance_s)
        # positional: a keyword call costs a step record about 0.3 µs more
        record = PowerSourceStepResult(
            0.0 if 0.0 > voltage else voltage,
            0.0 if 0.0 > current else current,
            0.0 if 0.0 > power else power,
        )
        if on_knot:
            self._last = (index, record)
        return record


class ReplayLoad(_ReplayComponent, Load):
    """Recorded load.  Apparent power is raised to active power if a
    recorded pair dips below it (measurement jitter), since |S| >= P is a
    hard result invariant."""

    _names = ("load_active_power", "load_apparent_power")

    def power_at(self, t_ns: int) -> float:
        """The recorded active power at ``t_ns``, as a step ending there requests it."""
        return max(interpolate(self._channels[0], t_ns, self._tolerance_s), 0.0)

    def step(self, start_ns: int, end_ns: int) -> LoadStepResult:
        axis = self._axis
        if end_ns != axis.t_ns:
            axis.locate(end_ns)
        index, fraction, outside_ns = axis.answer
        on_knot = fraction is None and not outside_ns and self._views
        if on_knot:
            built_on, record = self._last
            active_bits, apparent_bits = self._bits
            if (
                built_on is not None
                and active_bits[index] == active_bits[built_on]
                and apparent_bits[index] == apparent_bits[built_on]
            ):
                return record
            actives, apparents = self._views
            active, apparent = actives[index], apparents[index]
        else:
            active, apparent = _read(self._channels, end_ns, self._tolerance_s)
        if 0.0 > active:
            active = 0.0
        record = LoadStepResult(active, active if active > apparent else apparent)
        if on_knot:
            self._last = (index, record)
        return record


class ReplayGrid(_ReplayComponent, Grid):
    """Recorded grid exchange.  The commanded request is ignored, so the
    delivered <= requested relation cannot be enforced here; replays
    reproduce history rather than arbitrate it."""

    _names = ("grid_active_power", "grid_apparent_power")

    def step(self, start_ns: int, end_ns: int, grid_input: GridStepInput) -> GridStepResult:
        del grid_input
        axis = self._axis
        if end_ns != axis.t_ns:
            axis.locate(end_ns)
        index, fraction, outside_ns = axis.answer
        on_knot = fraction is None and not outside_ns and self._views
        if on_knot:
            built_on, record = self._last
            active_bits, apparent_bits = self._bits
            if (
                built_on is not None
                and active_bits[index] == active_bits[built_on]
                and apparent_bits[index] == apparent_bits[built_on]
            ):
                return record
            actives, apparents = self._views
            active, apparent = actives[index], apparents[index]
        else:
            active, apparent = _read(self._channels, end_ns, self._tolerance_s)
        if 0.0 > active:
            active = 0.0
        record = GridStepResult(active, active if active > apparent else apparent)
        if on_knot:
            self._last = (index, record)
        return record


class ReplayBattery(_ReplayComponent, Battery):
    """Recorded battery.  delta_energy is the recorded SOC difference
    times ``capacity_j``; the commanded mode/current is ignored.
    The state read at the end of one step, ``(t_ns, soc, voltage, knot)``
    with the knot None off one, is kept as the start state of the next,
    so each step reads only its end.  A step's record is a function of
    its start SOC and its end SOC and voltage, so it is reused when the
    step starts and ends on knots whose SOC and voltage bits are those of
    the knots the last record was built on."""

    _names = ("battery_soc", "battery_voltage")

    def __init__(self, table: TimeSeriesTable, subsystem_id: int, boundary_tolerance_s: float, capacity_j: float) -> None:
        super().__init__(table, subsystem_id, boundary_tolerance_s)
        _require(capacity_j > 0.0, "capacity_j must be > 0")
        self._capacity_j = capacity_j
        self._state: tuple[int, float, float, int | None] | None = None
        # the start and end knots the last record built on knots was read at,
        # and the record
        self._last = (None, None, None)

    def _state_at(self, t_ns: int) -> tuple[int, float, float, int | None]:
        state = self._state
        if state is not None and state[0] == t_ns:
            return state
        axis = self._axis
        if t_ns != axis.t_ns:
            axis.locate(t_ns)
        index, fraction, outside_ns = axis.answer
        if fraction is None and not outside_ns and self._views:
            socs, voltages = self._views
            soc, voltage = socs[index], voltages[index]
        else:
            index = None
            soc, voltage = _read(self._channels, t_ns, self._tolerance_s)
        if 0.0 > soc:
            soc = 0.0
        elif 1.0 < soc:
            soc = 1.0
        self._state = state = (t_ns, soc, voltage, index)
        return state

    def snapshot(self, now_ns: int) -> BatteryStepResult:
        _, soc, voltage, _ = self._state_at(now_ns)
        return BatteryStepResult(soc=soc, voltage=voltage, delta_energy=0.0, delta_charge=0.0)

    def step(self, start_ns: int, end_ns: int, battery_input: BatteryStepInput) -> BatteryStepResult:
        del battery_input
        _, previous_soc, _, start_knot = self._state_at(start_ns)
        _, soc, voltage, end_knot = self._state_at(end_ns)
        on_knots = start_knot is not None and end_knot is not None
        if on_knots:
            built_from, built_on, record = self._last
            soc_bits, voltage_bits = self._bits
            if (
                built_on is not None
                and soc_bits[end_knot] == soc_bits[built_on]
                and soc_bits[start_knot] == soc_bits[built_from]
                and voltage_bits[end_knot] == voltage_bits[built_on]
            ):
                return record
        delta_energy = (soc - previous_soc) * self._capacity_j
        record = BatteryStepResult(soc, voltage, delta_energy, delta_energy / voltage)
        if on_knots:
            self._last = (start_knot, end_knot, record)
        return record
