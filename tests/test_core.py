"""Step-record validation, context queries, compensated sums."""
import dataclasses
import math
from array import array
from collections import namedtuple
from types import SimpleNamespace

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
from cemsim.control import ChargingPlan, ChargingProblem, ControlDecision, ForecastWindow
from cemsim.core import NS_PER_SECOND, StepRecord
from cemsim.forecast import FAMILIES, Predictor
from cemsim.models.grid import PriceSchedule
from cemsim.models.synthetic import JobEvent
from cemsim.replay import Channel
from cemsim.scenario import Scenario, SimulationBundle
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


# ---------------------------------------------------------------------------
# Configuration, context and scenario records against their dataclasses
# ---------------------------------------------------------------------------


_RECORDS = SimpleNamespace(
    ContextRecord=ContextRecord,
    PriceSchedule=PriceSchedule,
    JobEvent=JobEvent,
    Channel=Channel,
    Predictor=Predictor,
    Scenario=Scenario,
    SimulationBundle=SimulationBundle,
    ChargingProblem=ChargingProblem,
    ChargingPlan=ChargingPlan,
    ForecastWindow=ForecastWindow,
    ControlDecision=ControlDecision,
)
_NUMBER = st.one_of(
    st.sampled_from(_EDGE_VALUES + (math.inf, -math.inf, math.nan, 6.0, 18.0, 24.0, 400.0)),
    st.floats(),
    st.integers(-2, 30),
)
_ANY = st.one_of(_NUMBER, st.sampled_from((None, "x", True)))
_NS = st.one_of(st.integers(-3, 3), st.sampled_from((2**63, 1.5, None, True)))
_PAYLOAD = st.one_of(
    st.dictionaries(st.sampled_from(("text", "cores")), st.one_of(st.text(max_size=2), st.integers())),
    st.sampled_from((None, 5, [("text", "x")])),
)
_TIMES = st.one_of(
    st.lists(_NS, max_size=4),
    st.lists(st.integers(-3, 3), max_size=4, unique=True).map(sorted),
    st.lists(st.integers(-3, 3), max_size=4, unique=True).map(lambda times: array("q", sorted(times))),
    st.sampled_from((None, "ab")),
)
_BLOCK = {"kind": "synthetic"}
_SERIES = st.one_of(
    st.lists(_NUMBER, max_size=3),
    st.lists(_NUMBER, max_size=3).map(tuple),
    st.sampled_from((None, "ab", "12", 1.0)),
)
_SOC = st.one_of(st.floats(0.0, 1.0), st.sampled_from((-1e-9, 1.0 + 1e-9, 1.0 + 2e-9)), _ANY)
_PLAN = (60.0, (100.0, 0.0), (0.5, 0.6, 0.6), (0.25, 0.1), 6000.0)

#: For each record, valid values of its fields and a strategy per field;
#: an example replaces a few of the valid values, so every check is reached.
_ARGUMENTS = {
    "ContextRecord": ((0, 1, 2, 1, {"text": "x"}), (_NS, _NS, _NS, _NS, _PAYLOAD)),
    "PriceSchedule": ((0.1, 0.4, 8, 20), (_ANY,) * 4),
    "JobEvent": ((0, 1, "job", 2.0, 250.0), (_NS, _NS, st.text(max_size=2), _ANY, _ANY)),
    "Channel": (
        (1, "pv_power", [0, 1, 2], [0.5, 1.0, 2.0]),
        (_ANY, st.text(max_size=2), _TIMES, st.lists(_NUMBER, max_size=4)),
    ),
    "Predictor": (
        ("none", [1.0, 2.0, 3.0]),
        (
            st.sampled_from(FAMILIES + ("bogus", 1)),
            st.one_of(st.lists(_NUMBER, min_size=3, max_size=8), st.sampled_from((None, "123", "abc"))),
        ),
    ),
    "Scenario": ((7, 0, 86400, 60) + (_BLOCK,) * 7 + ("base", None), (st.one_of(_ANY, st.just(_BLOCK)),) * 13),
    "SimulationBundle": ((None, "default", None, (), None, None), (_ANY,) * 6),
    "ChargingProblem": (
        (60.0, (0.25, 0.1), (100.0, 50.0), (0.0, 20.0), 3.6e6, 0.1, 0.9, 0.5, None),
        (_ANY, _SERIES, _SERIES, _SERIES, _ANY, _SOC, _SOC, _SOC, _ANY),
    ),
    "ChargingPlan": (_PLAN, (_ANY, _SERIES, _SERIES, _SERIES, _ANY)),
    "ForecastWindow": (
        (0, 60 * NS_PER_SECOND, (100.0, 50.0), (0, 20), (0.25, 0.1)),
        (_NS, _NS, _SERIES, _SERIES, _SERIES),
    ),
    "ControlDecision": (
        (100.0, ChargingPlan(*_PLAN), 0.5),
        (_ANY, st.sampled_from((None, ChargingPlan(*_PLAN))), _ANY),
    ),
}

#: The properties read from a record and its dataclass, where reading one
#: costs little whatever the fields hold (a Scenario's step_ns would repeat
#: a string step_seconds 10**9 times).
_PROPERTIES = {
    "ChargingProblem": ("horizon",),
    "ChargingPlan": ("total_cost",),
    "ForecastWindow": ("step_seconds",),
    "ControlDecision": ("fallback",),
}


def _hash_outcome(record):
    try:
        return hash(record)
    except TypeError as exc:
        return TypeError, str(exc)


def _plain(value):
    return value.tolist() if type(value) is memoryview else value


def _read(record, name):
    """``repr`` of the attribute ``name`` of ``record``, or the error reading it raises."""
    try:
        return repr(_plain(getattr(record, name)))
    except Exception as exc:  # every failure is compared, whatever its type
        return type(exc), str(exc)


#: The classes that keep derived state: plain ``__slots__`` classes, not
#: records, with no value equality, hash or frozen fields.
_PLAIN = ("Channel", "PriceSchedule")


def _draw_arguments(name, data):
    """A builder of ``name`` from one drawn set of arguments, and the
    dataclass fields: a few valid values replaced, given positionally or by
    keyword.  The builder returns (instance, None) or (None, the failure)."""
    fields = dataclasses.fields(getattr(oracles, name))
    given_fields = [f for f in fields if f.init]
    required = sum(f.default is dataclasses.MISSING for f in given_fields)
    valid, strategies = _ARGUMENTS[name]
    changed = data.draw(st.sets(st.integers(0, len(valid) - 1), max_size=3), label="fields changed")
    values = [data.draw(strategies[i], label=given_fields[i].name) if i in changed else v for i, v in enumerate(valid)]
    count = data.draw(st.integers(required, len(given_fields)), label="fields given")
    by_keyword = data.draw(st.booleans(), label="by keyword")

    def built(classes):
        try:
            chosen = values[:count]
            args, kwargs = ((), {f.name: v for f, v in zip(given_fields, chosen)}) if by_keyword else (chosen, {})
            return getattr(classes, name)(*args, **kwargs), None
        except Exception as exc:  # every failure is compared, whatever its type
            return None, (type(exc), str(exc))

    return built, fields


@pytest.mark.parametrize("name", sorted(set(_ARGUMENTS) - set(_PLAIN)))
@given(data=st.data())
@settings(max_examples=300)
def test_records_behave_as_the_dataclasses_they_replace(name, data):
    """Each configuration, context, scenario and planner record accepts,
    rejects, prints, compares and hashes as the dataclass it replaced (kept
    verbatim in oracles), derives the same hidden attributes, reads the
    same planner properties (a plan's total_cost among them), has no
    instance dict, and raises FrozenInstanceError on any assignment or
    deletion (SimulationBundle was a mutable dataclass; it is frozen now)."""
    built, fields = _draw_arguments(name, data)
    record, failure = built(_RECORDS)
    reference, reference_failure = built(oracles)
    assert failure == reference_failure
    if reference is None:
        return
    assert repr(record) == repr(reference)
    assert _hash_outcome(record) == _hash_outcome(reference)
    again, _ = built(_RECORDS)
    reference_again, _ = built(oracles)
    assert (record == again) == (reference == reference_again)
    assert (record != again) == (reference != reference_again)
    assert record != reference and not record == reference
    for f in fields:
        value, expected = _plain(getattr(record, f.name)), _plain(getattr(reference, f.name))
        assert value is expected or repr(value) == repr(expected), f.name
    for key in _PROPERTIES.get(name, ()):
        assert _read(record, key) == _read(reference, key), key
    assert not hasattr(record, "__dict__")
    for field_name in [f.name for f in fields] + ["not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field_name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, field_name)


@pytest.mark.parametrize("name", _PLAIN)
@given(data=st.data())
@settings(max_examples=300)
def test_slot_classes_accept_and_reject_as_the_dataclasses_they_replace(name, data):
    """``Channel`` and ``PriceSchedule`` accept and reject their arguments
    with the messages of the dataclasses they replaced (kept verbatim in
    oracles) and derive the same field values.  They are plain
    ``__slots__`` classes: no instance dict, and an instance equals only
    itself."""
    built, fields = _draw_arguments(name, data)
    instance, failure = built(_RECORDS)
    reference, reference_failure = built(oracles)
    assert failure == reference_failure
    if reference is None:
        return
    for f in fields:
        value, expected = _plain(getattr(instance, f.name)), _plain(getattr(reference, f.name))
        assert value is expected or repr(value) == repr(expected), f.name
    assert not hasattr(instance, "__dict__")
    again, _ = built(_RECORDS)
    assert instance == instance and instance != again


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
    the brute-force oracle's scan returns, in its order."""
    index = ContextIndex(records)
    for now in times:
        got = context_query(index, now)
        assert list(map(id, got)) == list(map(id, brute_force_context(records, now)))
        got.clear()  # each answer is the caller's own list


def test_a_forward_walk_reads_each_context_record_a_bounded_number_of_times():
    """Walking a ContextIndex forward over N records reads their times
    O(N) times in total, however many records are visible at once: only a
    record whose visibility changes is examined.  (A rescan at every edge
    reads every record at each of the 2N edges.)"""
    reads = [0]

    class Counted(ContextRecord):
        __slots__ = ()

        def _read(position):
            def read(self):
                reads[0] += 1
                return tuple.__getitem__(self, position)

            return property(read)

        recorded_at_ns = _read(0)
        begins_at_ns = _read(1)
        ends_at_ns = _read(2)

    count = 400
    records = [
        Counted(
            recorded_at_ns=i * NS_PER_HOUR,
            begins_at_ns=(i + 5) * NS_PER_HOUR,
            ends_at_ns=(i + 40) * NS_PER_HOUR,
            subsystem_id=1,
            payload={"text": f"r{i}"},
        )
        for i in range(count)
    ]
    times = [step * NS_PER_HOUR // 2 for step in range(2 * (count + 45))]
    reads[0] = 0
    index = ContextIndex(records)
    answers = [index.query(now) for now in times]
    assert reads[0] <= 6 * count
    assert max(map(len, answers)) == 40
    assert answers == [brute_force_context(records, now) for now in times]


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
