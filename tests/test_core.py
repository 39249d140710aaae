"""Step-record validation, context queries, compensated sums."""
import dataclasses
import math
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cemsim.core
from cemsim import (
    Aggregates,
    BatteryMode,
    BatteryStepInput,
    BatteryStepResult,
    CompensatedSum,
    ContextIndex,
    ContextRecord,
    GridStepInput,
    GridStepResult,
    InverterStepInput,
    InverterStepResult,
    LoadStepResult,
    PowerSourceStepResult,
    SimulatorStepOutput,
    compensated_total,
    context_query,
    grid_energy_cost,
)
from cemsim.core import NS_PER_SECOND, StepRecord
import oracles
from oracles import brute_force_context

NS_PER_HOUR = 3600 * NS_PER_SECOND


# ---------------------------------------------------------------------------
# Electrical helpers
# ---------------------------------------------------------------------------


def test_grid_energy_cost_examples():
    assert grid_energy_cost(0.5, 1000.0, 3600.0) == 0.5
    assert grid_energy_cost(0.25, 0.0, 3600.0) == 0.0
    assert grid_energy_cost(0.1, 500.0, 7200.0) == pytest.approx(0.1, rel=1e-12)


# ---------------------------------------------------------------------------
# Step records
# ---------------------------------------------------------------------------


def test_power_source_result_bounds():
    result = PowerSourceStepResult(voltage=230.0, current=2.0, power=460.0)
    assert result.power == 460.0
    for kwargs in (
        dict(voltage=-1.0, current=2.0, power=460.0),
        dict(voltage=230.0, current=-2.0, power=460.0),
        dict(voltage=230.0, current=2.0, power=float("nan")),
        dict(voltage=float("inf"), current=2.0, power=460.0),
    ):
        with pytest.raises(ValueError):
            PowerSourceStepResult(**kwargs)


def test_load_result_requires_apparent_at_least_active():
    LoadStepResult(100.0, 100.0)
    LoadStepResult(100.0, 120.0)
    with pytest.raises(ValueError):
        LoadStepResult(120.0, 100.0)
    with pytest.raises(ValueError):
        LoadStepResult(-1.0, 10.0)


def test_grid_records_validation():
    GridStepInput(0.0, 0.0)
    with pytest.raises(ValueError):
        GridStepInput(-1.0, 0.0)
    GridStepResult(100.0, 110.0)
    with pytest.raises(ValueError):
        GridStepResult(110.0, 100.0)


def test_battery_input_validation():
    BatteryStepInput(BatteryMode.IDLE, 0.0)
    with pytest.raises(ValueError):
        BatteryStepInput(BatteryMode.CHARGE, -1.0)
    with pytest.raises(ValueError):
        BatteryStepInput("charge", 1.0)


def test_battery_result_validation():
    BatteryStepResult(soc=0.5, voltage=51.2, delta_energy=10.0, delta_charge=0.2)
    BatteryStepResult(soc=0.0, voltage=51.2, delta_energy=-10.0, delta_charge=-0.2)
    with pytest.raises(ValueError):
        BatteryStepResult(soc=1.5, voltage=51.2, delta_energy=0.0, delta_charge=0.0)
    with pytest.raises(ValueError):
        BatteryStepResult(soc=0.5, voltage=0.0, delta_energy=0.0, delta_charge=0.0)
    # Energy absorbed while charge released makes no physical sense.
    with pytest.raises(ValueError):
        BatteryStepResult(soc=0.5, voltage=51.2, delta_energy=10.0, delta_charge=-0.2)


def test_inverter_records_validation():
    grid_in = GridStepInput(0.0, 0.0)
    batt_in = BatteryStepInput(BatteryMode.IDLE, 0.0)
    InverterStepResult(grid_in, batt_in, pv_power_drawn=0.0)
    with pytest.raises(ValueError):
        InverterStepResult(grid_in, batt_in, pv_power_drawn=-1.0)


# Field values at and around every check's edges: signed zeros, the
# smallest subnormal and normal, infinities, nan, negatives, and values of
# the wrong kind (a mode where a number belongs, a string or None where a
# mode belongs).
_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 0.5, 1.0000000000000002, 1e308)
_FIELD_VALUES = st.one_of(
    st.sampled_from(_EDGE_VALUES + (math.inf, -math.inf, math.nan)),
    st.floats(),
    st.integers(-2, 2),
    st.sampled_from(BatteryMode),
    st.sampled_from(("charge", None)),
)
# A nested record, built from each side's own classes: (class name, fields).
_NESTED = st.sampled_from(
    (
        ("PowerSourceStepResult", (48.0, 2.0, 96.0)),
        ("LoadStepResult", (100.0, 120.0)),
        ("BatteryStepResult", (0.5, 48.0, -10.0, -0.2)),
        ("GridStepInput", (0.0, -0.0)),
        ("BatteryStepInput", (BatteryMode.CHARGE, 5e-324)),
    )
)


def _built(classes, name, args, kwargs):
    """(record, None) or (None, (exception type, message))."""

    def resolve(value):
        return getattr(classes, value[0])(*value[1]) if type(value) is tuple else value

    try:
        return getattr(classes, name)(*map(resolve, args), **{k: resolve(v) for k, v in kwargs.items()}), None
    except Exception as exc:  # every failure is compared, whatever its type
        return None, (type(exc), str(exc))


@pytest.mark.parametrize(
    "name",
    [
        "PowerSourceStepResult",
        "LoadStepResult",
        "GridStepInput",
        "GridStepResult",
        "BatteryStepInput",
        "BatteryStepResult",
        "InverterStepInput",
        "InverterStepResult",
    ],
)
@given(data=st.data())
@settings(max_examples=200)
def test_step_records_behave_as_their_dataclass_references(name, data):
    """Each tuple record accepts, rejects, prints and hashes as the frozen
    dataclass it replaced (kept verbatim in oracles)."""
    fields = dataclasses.fields(getattr(oracles, name))
    required = sum(f.default is dataclasses.MISSING for f in fields)
    count = data.draw(st.integers(required, len(fields)), label="fields given")
    values = data.draw(st.lists(st.one_of(_FIELD_VALUES, _NESTED), min_size=count, max_size=count), label="values")
    by_keyword = data.draw(st.booleans(), label="by keyword")
    args, kwargs = ((), {f.name: v for f, v in zip(fields, values)}) if by_keyword else (values, {})

    record, failure = _built(cemsim.core, name, args, kwargs)
    reference, reference_failure = _built(oracles, name, args, kwargs)
    assert failure == reference_failure
    if reference is None:
        return
    assert repr(record) == repr(reference)
    assert hash(record) == hash(reference)
    for f, value in zip(fields, record):
        assert getattr(record, f.name) is value
        expected = getattr(reference, f.name)
        assert value is expected or repr(value) == repr(expected)


def _one_of_each_record():
    pv = PowerSourceStepResult(48.0, 2.0, 96.0)
    load = LoadStepResult(100.0, 120.0)
    battery = BatteryStepResult(0.5, 48.0, 0.0, 0.0)
    grid_input = GridStepInput(4.0, 4.0)
    battery_input = BatteryStepInput(BatteryMode.IDLE, 0.0)
    inverter = InverterStepResult(grid_input, battery_input, 96.0)
    grid = GridStepResult(4.0, 4.0, 0.25, True)
    aggregates = Aggregates(1.6, 1.7, 0.1, 0.0, 0.0, 0.25)
    return [
        pv,
        load,
        InverterStepInput(pv, battery, load),
        grid_input,
        battery_input,
        inverter,
        battery,
        grid,
        aggregates,
        SimulatorStepOutput(0, 60 * NS_PER_SECOND, None, pv, load, inverter, battery, grid, aggregates),
    ]


@pytest.mark.parametrize("record", _one_of_each_record(), ids=lambda record: type(record).__name__)
def test_step_records_are_frozen_and_compare_only_within_their_type(record):
    cls = type(record)
    for name in cls._fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.not_a_field = 1.0

    assert record == cls(*record) and not record != cls(*record)
    # the same values as another record type, or as a plain tuple, never compare equal
    twin_cls = type("Twin", (StepRecord, namedtuple("Twin", cls._fields)), {"__slots__": ()})
    for other in (twin_cls(*record), tuple(record)):
        assert record != other and other != record
        assert not record == other and not other == record


def test_records_with_the_same_fields_are_unequal_across_types():
    assert LoadStepResult(1.0, 2.0) != GridStepInput(1.0, 2.0)


# ---------------------------------------------------------------------------
# Context records and queries
# ---------------------------------------------------------------------------


def _record(recorded_h, begins_h, ends_h, subsystem=1, **payload):
    return ContextRecord(
        recorded_at_ns=recorded_h * NS_PER_HOUR,
        begins_at_ns=begins_h * NS_PER_HOUR,
        ends_at_ns=ends_h * NS_PER_HOUR,
        subsystem_id=subsystem,
        payload=payload,
    )


def test_context_record_rejects_empty_or_inverted_interval():
    with pytest.raises(ValueError):
        _record(0, 5, 5)
    with pytest.raises(ValueError):
        _record(0, 6, 5)


def test_context_record_rejects_notes_recorded_after_the_fact():
    with pytest.raises(ValueError):
        _record(recorded_h=5, begins_h=1, ends_h=2)
    # Recording mid-interval is fine: a note about a job already running.
    record = _record(recorded_h=12, begins_h=10, ends_h=14)
    assert record.recorded_at_ns == 12 * NS_PER_HOUR


def test_context_record_payload_is_read_only():
    record = _record(0, 1, 2, text="maintenance window")
    assert record.text() == "maintenance window"
    with pytest.raises(TypeError):
        record.payload["text"] = "rewritten"
    assert _record(0, 1, 2).text() == ""


def test_context_query_returns_announced_future_work():
    """A note recorded at 10:00 about 12:00-13:00 is visible at 11:00."""
    record = _record(recorded_h=10, begins_h=12, ends_h=13)
    assert context_query([record], 11 * NS_PER_HOUR) == [record]


def test_context_query_drops_ended_records():
    record = _record(recorded_h=10, begins_h=12, ends_h=13)
    assert context_query([record], 13 * NS_PER_HOUR) == []
    # Half-open interval: the very last nanosecond inside still counts.
    assert context_query([record], 13 * NS_PER_HOUR - 1) == [record]


def test_context_query_never_leaks_future_records():
    """A note recorded at 14:00 must be invisible to any query before 14:00."""
    record = _record(recorded_h=14, begins_h=12, ends_h=18)
    assert context_query([record], 11 * NS_PER_HOUR) == []
    assert context_query([record], 14 * NS_PER_HOUR) == [record]


def test_context_query_orders_by_begin_then_recorded_then_arrival():
    late_start = _record(0, 3, 9, text="c")
    early_recorded = _record(0, 2, 9, text="a")
    tie_one = _record(1, 2, 9, text="b1")
    tie_two = _record(1, 2, 9, text="b2")
    records = [late_start, tie_two, tie_one, early_recorded]
    got = [r.text() for r in context_query(records, 5 * NS_PER_HOUR)]
    assert got == ["a", "b2", "b1", "c"]


@st.composite
def _record_lists(draw):
    count = draw(st.integers(min_value=0, max_value=12))
    records = []
    for index in range(count):
        begins = draw(st.integers(min_value=0, max_value=30))
        ends = draw(st.integers(min_value=begins + 1, max_value=40))
        recorded = draw(st.integers(min_value=0, max_value=ends - 1))
        records.append(
            ContextRecord(
                recorded_at_ns=recorded * NS_PER_HOUR,
                begins_at_ns=begins * NS_PER_HOUR,
                ends_at_ns=ends * NS_PER_HOUR,
                subsystem_id=index,
                payload={"text": f"r{index}"},
            )
        )
    return records


@given(records=_record_lists(), now_h=st.integers(min_value=0, max_value=40))
@settings(max_examples=200)
def test_context_query_matches_brute_force(records, now_h):
    """Query result equals plain filter-then-stable-sort on every input."""
    now = now_h * NS_PER_HOUR
    assert context_query(records, now) == brute_force_context(records, now)


# Query instants on every hour an edge can sit on, and one ns either side.
_QUERY_TIMES = st.lists(
    st.builds(lambda hour, offset: hour * NS_PER_HOUR + offset, st.integers(-1, 41), st.sampled_from((-1, 0, 1))),
    min_size=1,
    max_size=30,
)


@given(records=_record_lists(), times=_QUERY_TIMES)
@settings(max_examples=200)
def test_context_index_answers_like_the_scan_in_any_time_order(records, times):
    """Through a ContextIndex, queries at times in any order (backwards
    across edges and exactly on them included) return the very objects
    the plain scan and the brute-force oracle return, in their order."""
    index = ContextIndex(records)
    for now in times:
        got = context_query(index, now)
        assert list(map(id, got)) == list(map(id, context_query(records, now)))
        assert list(map(id, got)) == list(map(id, brute_force_context(records, now)))
        got.clear()  # each answer is the caller's own list


# ---------------------------------------------------------------------------
# Compensated summation
# ---------------------------------------------------------------------------


def test_compensated_sum_recovers_cancelled_small_term():
    acc = CompensatedSum()
    for value in (1e16, 1.0, -1e16):
        acc.add(value)
    assert acc.value == 1.0


def test_compensated_total_matches_manual_accumulation():
    values = [0.1] * 10 + [-0.5, 1e9, -1e9]
    acc = CompensatedSum()
    for value in values:
        acc.add(value)
    assert compensated_total(values) == acc.value


def test_compensated_sum_initial_value():
    acc = CompensatedSum(2.5)
    acc.add(0.5)
    assert acc.value == 3.0


@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        max_size=64,
    )
)
@settings(max_examples=200)
def test_compensated_sum_tracks_fsum(values):
    """Stays within a few ulps of the exactly rounded sum."""
    total = compensated_total(values)
    exact = math.fsum(values)
    scale = math.fsum(abs(v) for v in values)
    assert abs(total - exact) <= 1e-12 * scale + 1e-12


@given(
    st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        max_size=32,
    )
)
def test_compensated_sum_is_deterministic(values):
    """Same values, same order, same float, bit for bit."""
    assert compensated_total(values) == compensated_total(list(values))
