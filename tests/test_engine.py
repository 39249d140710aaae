"""Simulation engine: step order, bookkeeping exactness, maxima, error wrapping."""
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemsim import (
    Aggregates,
    BatteryLinear,
    BatteryStepResult,
    CompensatedSum,
    ComponentStepError,
    ConfigurationError,
    Grid,
    GridPriced,
    GridStepInput,
    InverterPVFirst,
    InverterStepInput,
    Load,
    LoadStepResult,
    PowerSource,
    PowerSourceStepResult,
    PriceSchedule,
    ScriptedContext,
    Simulator,
    SyntheticLoad,
    SyntheticPowerSource,
    build_bundle,
    context_query,
    context_records_for_jobs,
    generate_job_events,
    run,
    scenario_from_dict,
)
from cemsim.core import NS_PER_SECOND as NS
from cemsim.engine import WH_PER_J

NS_PER_DAY = 86_400 * NS

LOSSLESS_INVERTER = dict(
    eta_pv_to_batt=1.0, eta_pv_to_load=1.0, eta_batt_to_load=1.0, soc_min=0.1
)


class SequencePV(PowerSource):
    """Plays back ``powers`` and notes the interval of every step."""

    def __init__(self, powers):
        self._powers = list(powers)
        self._index = 0
        self.intervals = []

    def step(self, start_ns, end_ns):
        self.intervals.append((start_ns, end_ns))
        power = self._powers[self._index]
        self._index += 1
        return PowerSourceStepResult(400.0, power / 400.0, power)


class SequenceLoad(Load):
    def __init__(self, powers):
        self._powers = list(powers)
        self._index = 0

    def step(self, start_ns, end_ns):
        power = self._powers[self._index]
        self._index += 1
        return LoadStepResult(power, power)


class FailingLoad(Load):
    def __init__(self, fail_at):
        self._fail_at = fail_at
        self._count = 0

    def step(self, start_ns, end_ns):
        if self._count == self._fail_at:
            raise ValueError("sensor went away")
        self._count += 1
        return LoadStepResult(10.0, 10.0)


def _simulator(loads=(), pvs=None, price=0.5, battery_soc=0.1, context=None, start_ns=0):
    count = len(loads)
    battery = BatteryLinear(
        capacity_j=3.6e6, eta_charge=1.0, eta_discharge=1.0, nominal_voltage=50.0, initial_soc=battery_soc
    )
    grid = GridPriced(PriceSchedule(price, price))
    return Simulator(
        start_ns,
        power_source=SequencePV(pvs if pvs is not None else [0.0] * count),
        load=SequenceLoad(loads),
        battery=battery,
        inverter=InverterPVFirst(**LOSSLESS_INVERTER),
        grid=grid,
        context=context,
    )


def _synthetic_simulator(seed=0, day_count=1, jobs=True):
    events = generate_job_events(seed, day_count) if jobs else ()
    return Simulator(
        0,
        power_source=SyntheticPowerSource(seed=seed, noise_amplitude=0.1),
        load=SyntheticLoad(seed=seed, base_power_w=800.0, job_events=events, noise_amplitude=0.05),
        battery=BatteryLinear(),
        inverter=InverterPVFirst(battery_capacity_j=1.8432e7),
        grid=GridPriced(PriceSchedule(0.3, 0.3)),
        context=ScriptedContext(context_records_for_jobs(events)),
    )


def _outputs(simulator, total_ns, step_ns):
    outputs = []
    run(simulator, total_ns, step_ns, outputs.append)
    return outputs


def test_purchased_energy_accumulates_in_watt_hours():
    """Two hour-long steps drawing 100 W from the grid purchase 200 Wh."""
    simulator = _simulator(loads=[100.0, 100.0])
    simulator.step(3600 * NS)
    output = simulator.step(3600 * NS)
    assert output.aggregates.purchased_wh == 200.0
    assert output.aggregates.consumed_wh == 200.0
    assert output.aggregates.generated_wh == 0.0
    assert output.aggregates.cost == pytest.approx(0.1, rel=1e-12)


def test_all_zero_run_produces_zero_aggregates():
    simulator = _simulator(loads=[0.0, 0.0, 0.0])
    for _ in range(3):
        output = simulator.step(3600 * NS)
    agg = output.aggregates
    assert (agg.generated_wh, agg.consumed_wh, agg.purchased_wh) == (0.0, 0.0, 0.0)
    assert (agg.charged_wh, agg.discharged_wh, agg.cost) == (0.0, 0.0, 0.0)


def test_running_maximum_of_grid_requests():
    """Requests of 0, 500, 200 W leave a running maximum of 500 W."""
    simulator = _simulator(loads=[0.0, 500.0, 200.0])
    seen = []
    for _ in range(3):
        simulator.step(3600 * NS)
        seen.append(simulator.maxima()["grid_requested_active_power"])
    assert seen == [0.0, 500.0, 500.0]


def test_maxima_snapshots_are_isolated_from_later_growth():
    """A snapshot is a copy: editing it changes nothing in the simulator."""
    simulator = _simulator(loads=[100.0, 200.0, 300.0])
    for _ in range(3):
        simulator.step(3600 * NS)
    exported = simulator.maxima()
    exported["grid_requested_active_power"] = -1.0
    assert simulator.maxima()["grid_requested_active_power"] == 300.0


def test_step_outputs_are_immutable():
    simulator = _simulator(loads=[100.0])
    output = simulator.step(3600 * NS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        output.step_index = 5


def test_clock_and_indices_advance_per_step():
    simulator = _simulator(loads=[1.0, 1.0])
    first = simulator.step(3600 * NS)
    second = simulator.step(3600 * NS)
    assert (first.step_index, second.step_index) == (0, 1)
    assert first.time_ns == 3600 * NS
    assert second.time_ns == 7200 * NS
    assert simulator.now_ns == 7200 * NS


def test_day_run_has_720_steps_of_two_minutes():
    simulator = _synthetic_simulator()
    outputs = _outputs(simulator, total_ns=86400 * NS, step_ns=120 * NS)
    assert len(outputs) == 720
    assert outputs[-1].time_ns == NS_PER_DAY
    assert [o.step_index for o in outputs[:3]] == [0, 1, 2]


def test_run_covers_the_remainder_with_a_shorter_step():
    simulator = _simulator(loads=[5.0, 5.0, 5.0])
    outputs = _outputs(simulator, total_ns=250 * NS, step_ns=100 * NS)
    assert len(outputs) == 3
    assert [o.time_ns for o in outputs] == [100 * NS, 200 * NS, 250 * NS]


def test_steps_far_from_epoch_end_on_the_exact_nanosecond():
    """~31 years out, beyond double precision, every step (the shorter
    remainder included) covers the exact integer interval after the last."""
    start = 10**18
    simulator = _simulator(loads=[5.0, 5.0, 5.0], start_ns=start)
    outputs = _outputs(simulator, total_ns=250 * NS + 1, step_ns=125 * NS)
    ends = [start + 125 * NS, start + 250 * NS, start + 250 * NS + 1]
    assert [o.time_ns for o in outputs] == ends
    assert simulator.power_source.intervals == list(zip([start] + ends[:-1], ends))
    assert simulator.now_ns == ends[-1]


def _interval_components():
    """(name, component factory, step call) for each component whose step
    reads only its interval: synthetic PV and load, context, priced grid
    and the PV-first inverter."""
    events = generate_job_events(seed=4, day_count=3)
    records = context_records_for_jobs(events)
    schedule = PriceSchedule()
    request = GridStepInput(500.0, 600.0)
    dispatch = InverterStepInput(
        PowerSourceStepResult(400.0, 1.0, 400.0),
        BatteryStepResult(0.5, 51.2, 0.0, 0.0),
        LoadStepResult(900.0, 950.0),
    )
    return [
        ("pv", lambda: SyntheticPowerSource(seed=4, noise_amplitude=0.1), lambda c, a, b: c.step(a, b)),
        (
            "load",
            lambda: SyntheticLoad(seed=4, job_events=events, noise_amplitude=0.05),
            lambda c, a, b: c.step(a, b),
        ),
        ("context", lambda: ScriptedContext(records), lambda c, a, b: c.step(a, b)),
        (
            "grid",
            lambda: GridPriced(schedule),
            lambda c, a, b: c.step(a, b, request),
        ),
        (
            "inverter",
            lambda: InverterPVFirst(battery_capacity_j=1.8432e7),
            lambda c, a, b: c.step(a, b, dispatch),
        ),
    ]


_SECONDS = st.integers(min_value=0, max_value=3 * 86_400)
_LENGTHS = st.integers(min_value=1, max_value=7_200)


@given(
    earlier=st.lists(st.tuples(_SECONDS, _LENGTHS), max_size=6),
    start_s=_SECONDS,
    length_s=_LENGTHS,
)
@settings(max_examples=60, deadline=None)
def test_component_results_depend_only_on_the_step_interval(earlier, start_s, length_s):
    """The same [start_ns, end_ns) gives the same result whatever steps the
    component took before."""
    start, end = start_s * NS, (start_s + length_s) * NS
    for name, make, step in _interval_components():
        used = make()
        for begin_s, span_s in earlier:
            step(used, begin_s * NS, (begin_s + span_s) * NS)
        assert step(used, start, end) == step(make(), start, end), name


def test_run_streams_to_a_sink():
    collected = []
    simulator = _synthetic_simulator()
    count = run(simulator, total_ns=7200 * NS, step_ns=120 * NS, sink=collected.append)
    assert count == 60
    assert len(collected) == 60
    assert collected[-1].time_ns == 7200 * NS


def test_run_validates_arguments():
    simulator = _simulator(loads=[1.0])
    with pytest.raises(ValueError):
        run(simulator, total_ns=0, step_ns=100 * NS, sink=print)
    with pytest.raises(ValueError):
        run(simulator, total_ns=100 * NS, step_ns=0, sink=print)


def test_runs_are_deterministic():
    first = _outputs(_synthetic_simulator(seed=5), total_ns=NS_PER_DAY, step_ns=300 * NS)
    second = _outputs(_synthetic_simulator(seed=5), total_ns=NS_PER_DAY, step_ns=300 * NS)
    for a, b in zip(first, second):
        assert a.power_source == b.power_source
        assert a.load == b.load
        assert a.battery == b.battery
        assert a.grid == b.grid
        assert a.aggregates == b.aggregates


def test_aggregates_equal_compensated_resum_of_deltas():
    """Re-summing each step's energy movements, recomputed from the step's
    own records and length, reproduces every cumulative total bit for bit,
    at every step."""
    outputs = _outputs(_synthetic_simulator(seed=3), total_ns=NS_PER_DAY, step_ns=120 * NS)
    dt_wh = 120.0 * WH_PER_J
    accumulators = [CompensatedSum() for _ in Aggregates._fields]
    for output in outputs:
        delta_e = output.battery.delta_energy
        deltas = (
            output.inverter.pv_power_drawn * dt_wh,
            output.load.requested_active_power * dt_wh,
            output.grid.delivered_active_power * dt_wh,
            delta_e * WH_PER_J if delta_e > 0.0 else 0.0,
            -delta_e * WH_PER_J if delta_e < 0.0 else 0.0,
            output.grid.cost,
        )
        for accumulator, delta, total in zip(accumulators, deltas, output.aggregates):
            accumulator.add(delta)
            assert accumulator.value == total


def test_context_records_flow_into_outputs():
    events = generate_job_events(seed=1, day_count=1)
    records = context_records_for_jobs(events)
    simulator = _synthetic_simulator(seed=1)
    outputs = _outputs(simulator, total_ns=NS_PER_DAY, step_ns=900 * NS)
    for index, output in enumerate(outputs):
        step_start_ns = index * 900 * NS
        assert output.context == tuple(context_query(records, step_start_ns))


def test_component_failure_names_component_and_step():
    simulator = _simulator(loads=[10.0] * 5)
    simulator.load = FailingLoad(fail_at=2)
    simulator.step(3600 * NS)
    simulator.step(3600 * NS)
    with pytest.raises(ComponentStepError) as excinfo:
        simulator.step(3600 * NS)
    assert excinfo.value.component == "load"
    assert excinfo.value.step_index == 2
    assert "load" in str(excinfo.value)
    assert "step 2" in str(excinfo.value)


def test_configuration_errors_pass_through_unwrapped():
    """A setup problem that surfaces mid-step is not a step failure: a
    ConfigurationError keeps its type instead of becoming a
    ComponentStepError."""

    class MisconfiguredGrid(Grid):
        def step(self, start_ns, end_ns, grid_input):
            raise ConfigurationError("grid tariff is not set up")

    simulator = _simulator(loads=[10.0])
    simulator.grid = MisconfiguredGrid()
    with pytest.raises(ConfigurationError, match="grid tariff is not set up") as excinfo:
        simulator.step(3600 * NS)
    assert type(excinfo.value) is ConfigurationError


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=20)
def test_lossless_steps_balance_energy(seed):
    """With unit efficiencies, load energy equals drawn PV plus grid delivery
    minus the battery's energy change, every step: under PV-first dispatch
    and when a receding-horizon plan drives the inverter (purchases beyond
    the deficit land in the battery, short ones are covered by it)."""
    scenario = scenario_from_dict(
        {
            "seed": seed,
            "horizon_seconds": 86_400,
            "step_seconds": 1800,
            "pv": {"noise_amplitude": 0.1},
            "load": {"base_power_w": 600.0, "noise_amplitude": 0.05},
            "battery": {"capacity_j": 3.6e6, "eta_charge": 1.0, "eta_discharge": 1.0},
            "inverter": {"eta_pv_to_batt": 1.0, "eta_pv_to_load": 1.0, "eta_batt_to_load": 1.0},
            "forecast": {"train_days": 1},
        },
        Path("."),
    )
    dt_s = 1800.0
    for strategy in ("default", "mpc-perfect", "mpc-context"):
        bundle = build_bundle(scenario, strategy)
        for output in _outputs(bundle.simulator, scenario.horizon_ns, scenario.step_ns):
            load_j = output.load.requested_active_power * dt_s
            supplied_j = (
                output.inverter.pv_power_drawn * dt_s
                + output.grid.delivered_active_power * dt_s
                - output.battery.delta_energy
            )
            assert abs(load_j - supplied_j) <= 1e-6 * max(load_j, 1.0)


def test_maxima_keys_are_stable():
    simulator = _synthetic_simulator()
    simulator.step(120)
    assert sorted(simulator.maxima()) == [
        "battery_current",
        "battery_voltage",
        "grid_requested_active_power",
        "pv_current",
        "pv_voltage",
    ]
