"""Recorded-channel replay: interpolation, file round-trips, replay components."""
import csv
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemsim import (
    BatteryMode,
    BatteryStepInput,
    Channel,
    GridStepInput,
    IngestError,
    ReplayBattery,
    ReplayGrid,
    ReplayLoad,
    ReplayPowerSource,
    ScriptedContext,
    TimeSeriesRangeError,
    TimeSeriesTable,
    emit_context,
    emit_timeseries,
    ingest_context,
    ingest_timeseries,
    interpolate,
)
from cemsim import replay
from cemsim.core import ContextRecord
from cemsim.replay import CHANNEL_HEADER

from oracles import ingest_timeseries_reference, interpolate_reference

NS = 1_000_000_000


def _channel(name, points, subsystem_id=1):
    times, values = zip(*points)
    return Channel(subsystem_id=subsystem_id, name=name, times_ns=times, values=values)


RAMP = _channel("pv_power", [(0, 100.0), (120 * NS, 200.0)])


def test_interpolation_between_knots():
    """Halfway between 100 W and 200 W reads 150 W."""
    assert interpolate(RAMP, 60 * NS) == 150.0


def test_interpolation_at_a_knot_is_exact():
    tricky = 0.1 + 0.2  # not exactly 0.3; must come back bit-identical
    channel = _channel("pv_power", [(0, tricky), (120 * NS, 7.7)])
    assert interpolate(channel, 0) == tricky
    assert interpolate(channel, 120 * NS) == 7.7


def test_queries_near_the_edges_clamp():
    assert interpolate(RAMP, -30 * NS, boundary_tolerance_s=60.0) == 100.0
    assert interpolate(RAMP, 150 * NS, boundary_tolerance_s=60.0) == 200.0


def test_queries_beyond_tolerance_raise():
    """An hour before a two-minute recording is out of range, not clamped."""
    with pytest.raises(TimeSeriesRangeError):
        interpolate(RAMP, -3600 * NS, boundary_tolerance_s=60.0)
    with pytest.raises(TimeSeriesRangeError):
        interpolate(RAMP, 120 * NS + 121 * NS)


def test_the_edge_tolerance_is_exact_to_the_nanosecond():
    """Times near 1.7e18 ns are 256 ns apart as floats; the distance from
    the edge is compared as an int, so 1 ns past the tolerance raises."""
    first, last = 1704067260000000001, 1704067319999999999
    channel = _channel("pv_power", [(first, 1.0), (last, 2.0)])
    slack = 120 * NS
    assert interpolate(channel, first - slack, 120.0) == 1.0
    assert interpolate(channel, last + slack, 120.0) == 2.0
    with pytest.raises(TimeSeriesRangeError):
        interpolate(channel, first - slack - 1, 120.0)
    with pytest.raises(TimeSeriesRangeError):
        interpolate(channel, last + slack + 1, 120.0)


@given(
    slope=st.floats(min_value=-50.0, max_value=50.0),
    offset=st.floats(min_value=-1000.0, max_value=1000.0),
    query_s=st.integers(min_value=0, max_value=600),
)
@settings(max_examples=150)
def test_interpolating_a_linear_signal_reconstructs_it(slope, offset, query_s):
    points = [(t * 60 * NS, offset + slope * t * 60.0) for t in range(11)]
    channel = _channel("load_active_power", points)
    got = interpolate(channel, query_s * NS)
    expected = offset + slope * query_s
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-6)


def _same_float(a, b):
    """Equal bits for finite results: == plus the sign of zero."""
    return type(a) is float and type(b) is float and a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _lookup(channel, t_ns, tolerance_s, lookup):
    try:
        return lookup(channel, t_ns, tolerance_s)
    except Exception as exc:  # compared by type and message below
        return exc


_finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e15, max_value=1e15)


@st.composite
def _channel_and_queries(draw):
    start = draw(st.integers(min_value=-(10**15), max_value=10**18))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=10**12), max_size=40))
    times = [start]
    for gap in gaps:
        times.append(times[-1] + gap)
    values = draw(st.lists(_finite | st.sampled_from([0.0, -0.0, 5e-324]), min_size=len(times), max_size=len(times)))
    tolerance_s = draw(st.sampled_from([0.0, 1e-9, 0.5, 120.0]) | st.floats(min_value=0.0, max_value=1e4))
    slack_ns = int(tolerance_s * 1e9)
    first, last = times[0], times[-1]
    kinds = st.one_of(
        st.sampled_from(times),
        st.integers(min_value=first, max_value=last),
        st.integers(min_value=first - slack_ns - 2, max_value=first),
        st.integers(min_value=last, max_value=last + slack_ns + 2),
        st.integers(min_value=first - 10**13, max_value=last + 10**13),
    )
    queries = draw(st.lists(kinds, min_size=1, max_size=20))
    if draw(st.booleans()):
        # a replay's traffic: knots and midpoints in time order, every one or
        # every 2nd or 5th (steps coarser than the recording, which skip
        # knots), each asked one to three times, from just before the first
        # to just after the last
        inner = sorted({*times, *((a + b) // 2 for a, b in zip(times, times[1:]))})
        stride = draw(st.sampled_from([1, 2, 5]))
        points = [first - 1, *inner[draw(st.integers(0, stride - 1)) :: stride], last + 1]
        repeats = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
        walk = [t_ns for t_ns, count in zip(points, repeats) for _ in range(count)]
        queries = draw(st.sampled_from([walk + queries, queries + walk]))
    channel = Channel(1, "pv_power", times, values)
    return channel, tolerance_s, queries


@given(_channel_and_queries())
@settings(max_examples=400)
def test_interpolate_matches_the_searchsorted_reference_bitwise(case):
    """Knots, between knots, inside and beyond the edge slack, in any
    order or walked forward as a replay does: the same bits, or the same
    error type and message, whatever the channel's cursor holds."""
    channel, tolerance_s, queries = case
    for t_ns in queries:
        want = _lookup(channel, t_ns, tolerance_s, interpolate_reference)
        got = _lookup(channel, t_ns, tolerance_s, interpolate)
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want), (t_ns, got, want)
        else:
            assert _same_float(got, want), (t_ns, got, want)


@pytest.mark.parametrize("stride", [1, 2, 3, 5, 16, 17, 18, 40])
def test_a_walk_that_skips_knots_matches_the_reference(stride):
    """A replay stepping ``stride`` knots at a time, on knots or between
    them, from every phase: the cursor's gallop ahead lands in the right
    bracket however far each step skips."""
    points = [(i * 60 * NS + (i % 7) * 3, math.sin(i) * 1e3) for i in range(64)]
    times = [t_ns for t_ns, _ in points]
    for phase in range(stride):
        for shift in (0, 30 * NS):
            channel = _channel("pv_power", points)
            for t_ns in times[phase::stride]:
                want = interpolate_reference(channel, t_ns + shift, 60.0)
                assert _same_float(interpolate(channel, t_ns + shift, 60.0), want), (stride, phase, t_ns)


def test_channel_validation():
    with pytest.raises(ValueError):
        _channel("pv_power", [(120 * NS, 1.0), (0, 2.0)])
    with pytest.raises(ValueError):
        _channel("pv_power", [(0, float("nan"))])
    with pytest.raises(ValueError):
        Channel(1, "pv_power", [], [])
    with pytest.raises(ValueError):
        Channel(1, "pv_power", [0, 1], [1.0])


@pytest.mark.parametrize("times", [(0.9, 60.7), (0, 2**63), (-(2**63) - 1, 0)])
def test_channel_accepts_only_int64_integer_times(times):
    """A float time is not truncated and a time beyond int64 does not
    escape as OverflowError: both are a ValueError naming the channel."""
    with pytest.raises(ValueError, match="channel 'pv_power' timestamps must be integers within int64"):
        Channel(1, "pv_power", times, (1.0, 2.0))


def test_channel_keeps_int64_edge_times_and_compares_by_value():
    edges = (-(2**63), 0, 2**63 - 1)
    channel = Channel(1, "pv_power", edges, (1.0, -0.0, 5e-324))
    assert tuple(channel.times_ns) == edges
    assert channel == Channel(1, "pv_power", list(edges), [1.0, -0.0, 5e-324])
    assert channel != Channel(1, "pv_power", edges, (1.0, -0.0, 1e-300))


def test_table_rejects_duplicate_channels():
    with pytest.raises(ValueError):
        TimeSeriesTable([RAMP, RAMP])
    table = TimeSeriesTable([RAMP])
    assert table.channel(1, "pv_power") is RAMP
    with pytest.raises(ValueError, match=r"^replay recording lacks channel \(2, 'pv_power'\)$"):
        table.channel(2, "pv_power")


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------


def test_ingest_well_formed_rows(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text(
        "timestamp_ns,subsystem_id,channel,value\n"
        "0,1,pv_power,100\n"
        f"{60 * NS},1,pv_power,150.5\n"
        f"{120 * NS},1,pv_power,200\n"
    )
    table = ingest_timeseries(path)
    channel = table.channel(1, "pv_power")
    assert list(channel.values) == [100.0, 150.5, 200.0]
    assert list(channel.times_ns) == [0, 60 * NS, 120 * NS]


def test_ingest_sorts_out_of_order_rows(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text(
        "timestamp_ns,subsystem_id,channel,value\n"
        f"{120 * NS},1,pv_power,200\n"
        "0,1,pv_power,100\n"
    )
    channel = ingest_timeseries(path).channel(1, "pv_power")
    assert list(channel.times_ns) == [0, 120 * NS]


def test_ingest_rejects_bad_header(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("time,sub,chan,val\n0,1,pv_power,100\n")
    with pytest.raises(IngestError, match="header"):
        ingest_timeseries(path)


def test_ingest_reports_the_offending_line(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text(
        "timestamp_ns,subsystem_id,channel,value\n"
        "0,1,pv_power,100\n"
        "sixty,1,pv_power,150\n"
    )
    with pytest.raises(IngestError, match=r"rec\.csv:3"):
        ingest_timeseries(path)
    path.write_text("timestamp_ns,subsystem_id,channel,value\n0,1,pv_power\n")
    with pytest.raises(IngestError, match=":2"):
        ingest_timeseries(path)


def test_ingest_rejects_a_timestamp_beyond_int64_with_its_line(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text(
        "timestamp_ns,subsystem_id,channel,value\n"
        "0,1,pv_power,100\n"
        f"{2**63},1,pv_power,150\n"
    )
    with pytest.raises(IngestError, match=r"rec\.csv:3: .*int64"):
        ingest_timeseries(path)


def test_ingest_rejects_unknown_channels_by_default(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text(
        "timestamp_ns,subsystem_id,channel,value\n"
        "0,1,pv_powr,100\n"
    )
    with pytest.raises(IngestError, match="pv_powr"):
        ingest_timeseries(path)


def test_ingest_rejects_duplicate_timestamps(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text(
        "timestamp_ns,subsystem_id,channel,value\n"
        "0,1,pv_power,100\n"
        "0,1,pv_power,101\n"
    )
    with pytest.raises(IngestError, match="duplicate timestamp"):
        ingest_timeseries(path)


def test_ingest_names_the_line_of_a_non_finite_value(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text(
        "timestamp_ns,subsystem_id,channel,value\n"
        "0,1,pv_power,100\n"
        f"{60 * NS},1,pv_power,nan\n"
    )
    with pytest.raises(IngestError, match=r"nan\.csv:3: channel 'pv_power' value 'nan' is not finite"):
        ingest_timeseries(path)


_WIDE = "1" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize(
    ("line", "error"),
    [
        ('120000000000,1,pv_power,"1', "unexpected end of data"),
        ('120000000000,1,pv_power,"1"x', "',' expected after '\"'"),
        ('120000000000,1,pv_power,"1" ', "',' expected after '\"'"),
        ('120000000000,"1"2,pv_power,1', "',' expected after '\"'"),
        (f"120000000000,1,pv_power,{_WIDE}", "field larger than field limit"),
        (f'120000000000,1,pv_power,"{_WIDE}"', "field larger than field limit"),
    ],
    ids=["left-open", "text-after", "space-after", "mid-row", "wide", "wide-quoted"],
)
@pytest.mark.parametrize("last", [True, False], ids=["last-line", "mid-file"])
def test_ingest_rejects_a_line_csv_cannot_read_naming_it(tmp_path, line, error, last):
    """A quote left open at the end of its line, or followed by anything
    but a comma, is an error at that line: it neither swallows the lines
    after it nor reads as the number inside it.  A field longer than
    ``csv.field_size_limit()`` is an IngestError too, not a csv error."""
    path = tmp_path / "rec.csv"
    tail = "" if last else f"\n{180 * NS},1,pv_power,3\n"
    path.write_text(f"timestamp_ns,subsystem_id,channel,value\n0,1,pv_power,1\n{line}{tail}")
    with pytest.raises(IngestError, match=re.escape(f"rec.csv:3: {error}")):
        ingest_timeseries(path)
    path.write_text(f"{line}{tail}")
    with pytest.raises(IngestError, match=re.escape(f"rec.csv:1: {error}")):
        ingest_timeseries(path)


def test_ingest_sorts_a_channel_spanning_the_int64_range(tmp_path):
    """Consecutive times further apart than 2**63 - 1 ns are compared as
    ints; an int64 difference of them would wrap and misjudge the order."""
    path = tmp_path / "edges.csv"
    path.write_text(
        "timestamp_ns,subsystem_id,channel,value\n"
        f"{2**63 - 1},1,pv_power,1\n"
        f"{-(2**63)},1,pv_power,2\n"
        "-1,1,pv_power,3\n"
    )
    channel = ingest_timeseries(path).channel(1, "pv_power")
    assert list(channel.times_ns) == [-(2**63), -1, 2**63 - 1]
    assert list(channel.values) == [2.0, 3.0, 1.0]


# Each channel's times come from one band no wider than 2**62, so the
# reference's int64 np.diff never wraps; the test above covers wider spans.
_BANDS = ((-(2**63), -(2**63) + 2**62), (-(2**40), 2**40), (2**63 - 1 - 2**62, 2**63 - 1))
_KEYS = ((1, "pv_power"), (2, "pv_power"), (3, "battery_soc"), (4, "grid_active_power"))
_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 0.1 + 0.2, 1 / 3, 123456.78901234567]
)
_FAULTS = (
    ("non-finite", lambda row: [*row[:3], "nan"]),
    ("non-finite", lambda row: [*row[:3], "-Infinity"]),
    ("overflow", lambda row: [str(2**63), *row[1:]]),
    ("overflow", lambda row: [str(-(2**63) - 1), *row[1:]]),
    ("unparsable", lambda row: ["1.5", *row[1:]]),
    ("unknown channel", lambda row: [*row[:2], "pv_powr", row[3]]),
    ("unknown channel", lambda row: [*row[:2], '"pv_""power"', row[3]]),
    ("short row", lambda row: row[:3]),
    ("long row", lambda row: [*row, row[3]]),
    ("blank row", lambda row: []),
)


# Besides as they are, a row's fields may be written each one quoted, or
# (in a row without a fault) with whitespace around the numbers, which
# int() and float() accept.
def _quoted(row):
    return [f'"{field}"' for field in row]


def _padded(row):
    return [f" {row[0]}", f"{row[1]}\t", row[2], f" {row[3]} "]


def _times(draw, lo, hi):
    times = st.integers(lo, hi) | st.sampled_from([lo, lo + 1, hi - 1, hi])
    return draw(st.lists(times, min_size=1, max_size=8, unique=draw(st.booleans())))


def _row(draw, t_ns, subsystem_id, name):
    value = draw(_VALUES)
    return [str(t_ns), str(subsystem_id), name, draw(st.sampled_from([repr(value), "%.17g" % value]))]


@st.composite
def _recording(draw):
    """(text, rows, {line: fault}): one to three channels' rows, with
    int64-edge times, repeated times, signed zeros, subnormals and
    17-digit values, and up to two faulty rows.  The rows are laid out
    either permuted, each channel's times from its own band and the rows
    in any order, or periodic, every time's rows in one fixed key order as
    ``run`` writes them.  Lines end in any mix of ``\\n``, ``\\r`` and
    ``\\r\\n``, the last maybe in none; in some recordings rows are
    quoted or padded."""
    keys = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=3, unique=True))
    rows = []
    if draw(st.booleans()):
        for subsystem_id, name in keys:
            lo, hi = draw(st.sampled_from(_BANDS))
            rows.extend(_row(draw, t_ns, subsystem_id, name) for t_ns in _times(draw, lo, hi))
        rows = draw(st.permutations(rows))
    else:
        lo, hi = draw(st.sampled_from(_BANDS))
        for t_ns in _times(draw, lo, hi):
            rows.extend(_row(draw, t_ns, subsystem_id, name) for subsystem_id, name in keys)
    faults = {}
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.integers(0, len(rows) - 1))
        if index + 2 not in faults:
            faults[index + 2], spoil = draw(st.sampled_from(_FAULTS))
            rows[index] = spoil(rows[index])
    styled = draw(st.booleans())
    lines = [",".join(CHANNEL_HEADER)]
    for line_number, row in enumerate(rows, start=2):
        if any('"' in field for field in row):
            styles = [list]
        elif line_number in faults:
            styles = [list, _quoted]
        elif styled:
            styles = [list, _quoted, _padded]
        else:
            styles = [list]
        lines.append(",".join(draw(st.sampled_from(styles))(row)))
    # a blank line never ends in a bare "\n", which would join the "\r"
    # ending the line before it into one "\r\n"
    endings = [draw(st.sampled_from(["\r", "\r\n"] if not line else ["\n", "\r", "\r\n"])) for line in lines]
    if lines[-1] and draw(st.booleans()):
        endings[-1] = ""
    return "".join(map(str.__add__, lines, endings)), rows, faults


def _ingest(ingest, path):
    try:
        return ingest(path)
    except Exception as exc:  # compared by type and message below
        return exc


@given(
    _recording(),
    st.integers(1, 7) | st.just(replay._CHUNK_LINES),
    st.integers(1, 3) | st.just(replay._PROBE_LINES),
)
@settings(max_examples=300)
def test_ingest_matches_the_numpy_reference(tmp_path_factory, recording, chunk_lines, probe_lines):
    """The same channels, times and value bits (sign of zero included) as
    the numpy ingest, or the same error type and message.  A non-finite
    value is the one change: it is reported at its line, in row order.
    Chunks of one to seven lines put chunk edges mid-period, on an
    unterminated last line and next to a fault, and a probe of one to
    three lines leaves the column pass lines to split after it."""
    text, rows, faults = recording
    path = tmp_path_factory.mktemp("ingest") / "rec.csv"
    path.write_bytes(text.encode())
    want = _ingest(ingest_timeseries_reference, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay, "_CHUNK_LINES", chunk_lines)
        patch.setattr(replay, "_PROBE_LINES", probe_lines)
        got = _ingest(ingest_timeseries, path)
    if faults:
        assert isinstance(want, IngestError), want
    if faults and faults[min(faults)] == "non-finite":
        row = rows[min(faults) - 2]
        want = IngestError(f"{path}:{min(faults)}: channel {row[2]!r} value {row[3]!r} is not finite")
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert got.keys() == sorted(want)
    for key, (times, values) in want.items():
        channel = got.channel(*key)
        assert channel.times_ns.tobytes() == times.tobytes(), key
        assert channel.values.tobytes() == values.tobytes(), key


@pytest.mark.parametrize(
    "keys",
    [
        [("1", "pv_power"), ("01", "pv_power")] * 3,
        [("1", "pv_power"), ("1", "pv_power"), ("2", "pv_power"), ("1", "pv_power")],
        [("1", "pv_power"), ("1", "pv_power"), ("1", "pv_voltage"), ("1", "pv_power")],
        [("1", "pv_power"), ("2", "pv_power")] * 2 + [("2", "pv_power"), ("1", "pv_power")],
    ],
    ids=["one-subsystem-spelt-two-ways", "subsystems-break-the-period", "names-break-the-period", "period-breaks-later"],
)
def test_ingest_reads_a_chunk_without_one_repeating_key_order_by_row(tmp_path, row_loop_chunks, keys):
    """The column pass takes only a chunk whose (subsystem, name) texts
    repeat with one period, each slot of it a distinct channel: '1' and
    '01' are one channel, and alternating they would fill it from two
    slots out of file order.  The row loop reads the others."""
    path = tmp_path / "rec.csv"
    rows = "".join(f"{t * NS},{subsystem},{name},{t}\n" for t, (subsystem, name) in enumerate(keys))
    path.write_text("timestamp_ns,subsystem_id,channel,value\n" + rows)
    want = ingest_timeseries_reference(path)
    got = ingest_timeseries(path)
    assert row_loop_chunks == [2]
    assert got.keys() == sorted(want)
    for key, (times, values) in want.items():
        assert got.channel(*key).times_ns.tobytes() == times.tobytes(), key
        assert got.channel(*key).values.tobytes() == values.tobytes(), key


def test_ingest_names_a_short_line_that_a_long_one_makes_up_for(tmp_path, row_loop_chunks):
    """Joined and split on commas, a two-field and a six-field line give
    two rows of four known, parsable fields.  The ending of the first line
    then sits on a subsystem, not a value, so the pass declines the chunk
    and the row loop names the short line."""
    path = tmp_path / "rec.csv"
    path.write_text(f"timestamp_ns,subsystem_id,channel,value\n0,1\npv_power,1,{60 * NS},2,pv_power,2\n")
    with pytest.raises(IngestError, match=r"rec\.csv:2: expected 4 fields, got 2$"):
        ingest_timeseries(path)
    assert row_loop_chunks == [2]


def test_ingest_names_a_fault_in_the_chunk_after_a_clean_one(tmp_path, monkeypatch, row_loop_chunks):
    monkeypatch.setattr(replay, "_CHUNK_LINES", 4)
    path = tmp_path / "rec.csv"
    rows = [f"{t * NS},{subsystem_id},{name},{t}" for t in range(4) for subsystem_id, name in _KEYS[:2]]
    rows[6] = rows[6].rpartition(",")[0] + ",nan"
    path.write_text("\n".join(["timestamp_ns,subsystem_id,channel,value", *rows]) + "\n")
    with pytest.raises(IngestError, match=r"rec\.csv:8: channel 'pv_power' value 'nan' is not finite$"):
        ingest_timeseries(path)
    assert row_loop_chunks == [6]


def test_timeseries_round_trip_is_bit_exact(tmp_path):
    values = [0.1, 1/3, 2.0**-40, 123456.789012345678, 9.99e-300]
    table = TimeSeriesTable(
        [_channel("battery_soc", list(zip(range(0, 5 * NS, NS), values)))]
    )
    path = tmp_path / "out.csv"
    emit_timeseries(path, table)
    back = ingest_timeseries(path).channel(1, "battery_soc")
    assert [v for v in back.values] == values


@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50)
def test_timeseries_round_trip_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("roundtrip") / "rec.csv"
    points = list(zip(range(0, len(values) * NS, NS), values))
    emit_timeseries(path, TimeSeriesTable([_channel("load_active_power", points)]))
    back = ingest_timeseries(path).channel(1, "load_active_power")
    assert list(back.values) == values


def test_context_round_trip(tmp_path):
    records = (
        ContextRecord(0, NS, 2 * NS, 1, {"text": "nightly build", "cores": 4}),
        ContextRecord(NS, 3 * NS, 9 * NS, 2, {"text": "gpu sweep"}),
    )
    path = tmp_path / "ctx.jsonl"
    emit_context(path, records)
    assert ingest_context(path) == records


def test_context_ingest_diagnostics(tmp_path):
    path = tmp_path / "ctx.jsonl"
    path.write_text("")
    assert ingest_context(path) == ()
    path.write_text('{"recorded_at_ns": 0, "begins_at_ns": 1, "ends_at_ns": 2, "subsystem_id": 1}\nnot json\n')
    with pytest.raises(IngestError, match=":2"):
        ingest_context(path)
    # Interval ends before it begins: rejected with the line number.
    path.write_text('{"recorded_at_ns": 0, "begins_at_ns": 5, "ends_at_ns": 4, "subsystem_id": 1}\n')
    with pytest.raises(IngestError, match=":1"):
        ingest_context(path)
    path.write_text("[1, 2]\n")
    with pytest.raises(IngestError, match="object"):
        ingest_context(path)
    path.write_text('{"begins_at_ns": 1, "ends_at_ns": 2, "subsystem_id": 1}\n')
    with pytest.raises(IngestError, match=":1"):
        ingest_context(path)


@pytest.mark.parametrize(
    ("key", "value"),
    [
        ("recorded_at_ns", 0.9),
        ("begins_at_ns", "5"),
        ("ends_at_ns", 1.0e19),
        ("ends_at_ns", 2**63),
        ("subsystem_id", True),
    ],
)
def test_context_ingest_accepts_only_int64_integers(tmp_path, key, value):
    """A float, a string, a bool or an int beyond int64 is rejected with
    its line and key instead of being coerced by ``int()``."""
    fields = {"recorded_at_ns": 0, "begins_at_ns": 1, "ends_at_ns": 2, "subsystem_id": 1}
    path = tmp_path / "ctx.jsonl"
    good = json.dumps(fields)
    path.write_text(good + "\n" + json.dumps({**fields, key: value, "payload": {"text": "x"}}) + "\n")
    with pytest.raises(IngestError, match=rf"ctx\.jsonl:2: {key} must be an integer within int64"):
        ingest_context(path)
    path.write_text(good + "\n")
    assert len(ingest_context(path)) == 1


@pytest.mark.parametrize(
    ("payload", "message"),
    [
        ('[["text", "gpu job"]]', "payload must be an object"),
        ('"gpu job"', "payload must be an object"),
        ("null", "payload must be an object"),
        ('{"text": "gpu job", "cores": NaN}', "payload 'cores' must be a finite number"),
        ('{"cores": Infinity}', "payload 'cores' must be a finite number"),
        ('{"cores": -Infinity}', "payload 'cores' must be a finite number"),
        ('{"cores": 2' + "0" * 400 + "}", "payload 'cores' must be a finite number"),
        # past the int digit limit (CPython 3.10.7+) json.loads itself fails
        ('{"cores": 2' + "0" * 5000 + "}", "(invalid JSON: Exceeds the limit|payload 'cores' must be a finite)"),
    ],
    ids=["pairs", "string", "null", "nan", "infinity", "-infinity", "int-beyond-float", "int-beyond-digit-limit"],
)
def test_context_ingest_rejects_a_payload_a_forecast_cannot_read(tmp_path, payload, message):
    """A payload that is not an object, or holds a number that is not finite
    as a float, is rejected with its line instead of being rewritten as an
    object or failing a forecast mid-run."""
    fields = '"recorded_at_ns": 0, "begins_at_ns": 1, "ends_at_ns": 2, "subsystem_id": 1'
    path = tmp_path / "ctx.jsonl"
    path.write_text("{" + fields + "}\n{" + fields + ', "payload": ' + payload + "}\n")
    with pytest.raises(IngestError, match=rf"ctx\.jsonl:2: {message}"):
        ingest_context(path)
    # finite numbers of any size a float holds, bools, strings and nested
    # values pass as written
    path.write_text("{" + fields + ', "payload": {"cores": 1' + "0" * 300 + ', "f": 1e308, "ok": true, "n": [NaN]}}\n')
    (record,) = ingest_context(path)
    assert record.payload["cores"] == 10**300 and record.payload["ok"] is True


def test_context_ingest_skips_blank_lines(tmp_path):
    path = tmp_path / "ctx.jsonl"
    path.write_text('\n{"recorded_at_ns": 0, "begins_at_ns": 1, "ends_at_ns": 2, "subsystem_id": 1}\n\n')
    assert len(ingest_context(path)) == 1


# ---------------------------------------------------------------------------
# Replay components
# ---------------------------------------------------------------------------


def _battery_table(soc_points, voltage=51.2):
    times = [t for t, _ in soc_points]
    return TimeSeriesTable(
        [
            _channel("battery_soc", soc_points),
            _channel("battery_voltage", [(t, voltage) for t in times]),
        ]
    )


def test_replay_battery_holds_recorded_soc():
    """A constant recorded SOC of 0.55 replays as 0.55, with zero deltas."""
    table = _battery_table([(0, 0.55), (7200 * NS, 0.55)])
    battery = ReplayBattery(table, 1, 120.0, 3.6e6)
    assert battery.snapshot(0).soc == 0.55
    result = battery.step(0, 1800 * NS, BatteryStepInput(BatteryMode.CHARGE, 10.0))
    assert result.soc == 0.55
    assert result.delta_energy == 0.0


def test_replay_battery_ignores_commanded_inputs():
    """Replay reproduces the recording whatever the inverter asked for."""
    table = _battery_table([(0, 0.5), (3600 * NS, 0.75)])
    charged = ReplayBattery(table, 1, 120.0, 3.6e6).step(0, 3600 * NS, BatteryStepInput(BatteryMode.CHARGE, 10.0))
    idled = ReplayBattery(table, 1, 120.0, 3.6e6).step(0, 3600 * NS, BatteryStepInput(BatteryMode.IDLE, 0.0))
    assert charged == idled


def test_replay_battery_converts_soc_delta_to_energy():
    table = _battery_table([(0, 0.5), (3600 * NS, 0.75)])
    result = ReplayBattery(table, 1, 120.0, 3.6e6).step(0, 3600 * NS, BatteryStepInput(BatteryMode.IDLE, 0.0))
    assert result.delta_energy == pytest.approx(0.25 * 3.6e6, rel=1e-12)
    assert result.delta_charge == pytest.approx(0.25 * 3.6e6 / 51.2, rel=1e-12)


def test_replay_battery_requires_capacity():
    table = _battery_table([(0, 0.5)])
    with pytest.raises(ValueError, match="capacity_j"):
        ReplayBattery(table, 1, 120.0, 0.0)


def test_replay_load_repairs_apparent_below_active():
    table = TimeSeriesTable(
        [
            _channel("load_active_power", [(0, 100.0), (3600 * NS, 100.0)]),
            _channel("load_apparent_power", [(0, 80.0), (3600 * NS, 80.0)]),
        ]
    )
    result = ReplayLoad(table, 1, 120.0).step(0, 1800 * NS)
    assert result.requested_active_power == 100.0
    assert result.requested_apparent_power == 100.0


def test_replay_power_source_clamps_negative_readings():
    table = TimeSeriesTable(
        [
            _channel("pv_voltage", [(0, 400.0), (3600 * NS, 400.0)]),
            _channel("pv_current", [(0, -0.2), (3600 * NS, -0.2)]),
            _channel("pv_power", [(0, -5.0), (3600 * NS, -5.0)]),
        ]
    )
    result = ReplayPowerSource(table, 1, 120.0).step(0, 1800 * NS)
    assert result.power == 0.0
    assert result.current == 0.0


def test_replay_grid_reports_recording_not_request():
    table = TimeSeriesTable(
        [
            _channel("grid_active_power", [(0, 250.0), (3600 * NS, 250.0)]),
            _channel("grid_apparent_power", [(0, 260.0), (3600 * NS, 260.0)]),
        ]
    )
    grid = ReplayGrid(table, 1, 120.0)
    result = grid.step(0, 1800 * NS, GridStepInput(9999.0, 9999.0))
    assert result.delivered_active_power == 250.0
    assert result.delivered_apparent_power == 260.0


def test_replay_component_names_missing_channels():
    table = TimeSeriesTable([_channel("pv_power", [(0, 1.0)])])
    with pytest.raises(ValueError, match="pv_voltage"):
        ReplayPowerSource(table, 1, 120.0)


def test_replay_beyond_recording_raises_range_error():
    table = _battery_table([(0, 0.5), (3600 * NS, 0.5)])
    battery = ReplayBattery(table, 1, 120.0, 3.6e6)
    battery.step(0, 3600 * NS, BatteryStepInput(BatteryMode.IDLE, 0.0))
    # Next step's end is an hour past the recording: beyond the default
    # two-minute tolerance.
    with pytest.raises(TimeSeriesRangeError):
        battery.step(3600 * NS, 7200 * NS, BatteryStepInput(BatteryMode.IDLE, 0.0))


def test_replay_context_reveals_records_at_step_start():
    records = (
        ContextRecord(0, 0, 7200 * NS, 1, {"text": "running"}),
        ContextRecord(1800 * NS, 0, 7200 * NS, 1, {"text": "late note"}),
    )
    context = ScriptedContext(records)
    first = context.step(0, 3600 * NS)
    second = context.step(3600 * NS, 7200 * NS)
    assert [r.text() for r in first] == ["running"]
    assert [r.text() for r in second] == ["running", "late note"]


def test_replay_is_deterministic():
    table = _battery_table([(i * 900 * NS, 0.4 + 0.01 * i) for i in range(9)])
    a = ReplayBattery(table, 1, 120.0, 3.6e6)
    b = ReplayBattery(table, 1, 120.0, 3.6e6)
    command = BatteryStepInput(BatteryMode.DISCHARGE, 3.0)
    for i in range(8):
        start, end = i * 900 * NS, (i + 1) * 900 * NS
        assert a.step(start, end, command) == b.step(start, end, command)
