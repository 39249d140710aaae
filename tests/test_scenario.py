"""Scenario schema validation and simulator assembly."""
import inspect
import json
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cemsim import (
    BatteryLinear,
    Channel,
    ConfigurationError,
    GridPriced,
    InverterPVFirst,
    MPCInverter,
    PriceSchedule,
    RecedingHorizonController,
    ReplayLoad,
    STRATEGIES,
    TimeSeriesTable,
    build_bundle,
    estimate_effort_remote,
    evaluate_families,
    load_scenario,
    run,
    scenario_from_dict,
)
from cemsim.cli import run_to_directory
from cemsim.forecast import MAX_TIMEOUT_S
from cemsim.models.synthetic import (
    SyntheticLoad,
    SyntheticPowerSource,
    context_records_for_jobs,
    generate_job_events,
)
from cemsim.scenario import (
    _ORDERED_KEYS,
    BLOCK_TABLES,
    DOCUMENT_TABLE,
    TRAIN_SEED_OFFSET,
    _integer,
    _number,
    price_schedule,
    training_series,
)

from recordings import write_recording

NS = 1_000_000_000
NS_PER_DAY = 86_400 * NS


def _scenario(data=None, base_dir=None, **overrides):
    document = dict(data or {})
    document.update(overrides)
    return scenario_from_dict(document, base_dir)


def _load_recording(tmp_path, hours=24, watts=500.0):
    times = [h * 3600 * NS for h in range(hours + 1)]
    table = TimeSeriesTable([
        Channel(2, "load_active_power", tuple(times), tuple([watts] * len(times))),
        Channel(2, "load_apparent_power", tuple(times), tuple([watts] * len(times))),
    ])
    path = tmp_path / "load.csv"
    write_recording(path, table)
    return path


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def test_empty_document_gets_all_defaults():
    scenario = _scenario({})
    assert scenario.seed == 0
    assert scenario.start_ns == 0
    assert scenario.horizon_seconds == 86_400
    assert scenario.step_seconds == 120
    assert scenario.pv["kind"] == "synthetic"
    assert scenario.load["kind"] == "synthetic"
    assert scenario.battery["kind"] == "linear"
    assert scenario.grid["kind"] == "priced"
    assert scenario.context["kind"] == "synthetic"
    assert scenario.inverter["kind"] == "pv-first"
    assert scenario.forecast["train_days"] == 3
    assert scenario.forecast["families"] == ["none", "numeric", "effort", "combined"]
    assert scenario.forecast["context_family"] == "combined"
    assert scenario.forecast["effort_estimator"]["kind"] == "heuristic"


def test_derived_clock_quantities():
    scenario = _scenario({}, horizon_seconds=90_000, step_seconds=600)
    assert scenario.step_ns == 600 * NS
    assert scenario.horizon_ns == 90_000 * NS
    assert scenario.end_ns == 90_000 * NS
    assert scenario.day_count == 2
    assert _scenario({}, horizon_seconds=3600).day_count == 1


def test_unknown_keys_are_rejected_everywhere():
    with pytest.raises(ConfigurationError, match="scenario.*unknown keys.*'stepseconds'"):
        _scenario({}, stepseconds=60)
    # time is whole seconds stepped on int nanoseconds; there is no tick size
    with pytest.raises(ConfigurationError, match="scenario.*unknown keys.*'tick_resolution_ns'"):
        _scenario({}, tick_resolution_ns=NS)
    with pytest.raises(ConfigurationError, match="pv.*unknown keys"):
        _scenario({}, pv={"kind": "synthetic", "peak_output": 100})
    with pytest.raises(ConfigurationError, match="battery.*unknown keys"):
        _scenario({}, battery={"kind": "linear", "capacity": 1.0})
    with pytest.raises(ConfigurationError, match="forecast.*unknown keys"):
        _scenario({}, forecast={"train_dayz": 2})


def test_component_kind_choices_are_validated():
    with pytest.raises(ConfigurationError, match="kind"):
        _scenario({}, battery={"kind": "quantum"})
    with pytest.raises(ConfigurationError, match="kind"):
        _scenario({}, grid={"kind": "free"})
    with pytest.raises(ConfigurationError, match="kind"):
        _scenario({}, inverter={"kind": "hybrid"})


def test_numeric_bounds_are_enforced():
    with pytest.raises(ConfigurationError, match="peak_price"):
        _scenario({}, grid={"peak_price": -0.1})
    with pytest.raises(ConfigurationError, match="initial_soc"):
        _scenario({}, battery={"initial_soc": 1.5})
    with pytest.raises(ConfigurationError, match="noise_amplitude"):
        _scenario({}, pv={"noise_amplitude": 2.0})
    with pytest.raises(ConfigurationError, match="seed"):
        _scenario({}, seed="zero")
    with pytest.raises(ConfigurationError, match="^pv: 'peak_power_w' must be finite"):
        _scenario({}, pv={"peak_power_w": 10**400})
    for block, key, maximum in [
        ("pv", "peak_power_w", 1e9),
        ("load", "base_power_w", 1e9),
        ("load", "watts_per_effort", 1e9),
        ("inverter", "self_power_w", 1e9),
        ("grid", "off_peak_price", 1e3),
        ("grid", "peak_price", 1e3),
    ]:
        with pytest.raises(ConfigurationError, match=f"^{block}: '{key}' must be <= {maximum}, got 1e\\+300$"):
            _scenario({}, **{block: {key: 1e300}})
        assert _scenario({}, **{block: {key: maximum}}) is not None
    with pytest.raises(ConfigurationError, match="^context: 'announce_lead_hours' must be <="):
        _scenario({}, context={"announce_lead_hours": 1e308})
    with pytest.raises(ConfigurationError, match="^load: 'jobs_per_day' must be <= 100, got 101$"):
        _scenario({}, load={"jobs_per_day": 101})
    with pytest.raises(ConfigurationError, match="^load: 'jobs_per_day' must be <= 100"):
        _scenario({}, load={"jobs_per_day": 10**9})
    with pytest.raises(ConfigurationError, match="^forecast: 'train_days' must be <= 366, got 367$"):
        _scenario({}, forecast={"train_days": 367})
    with pytest.raises(ConfigurationError, match="^forecast: 'resamples' must be <= 100, got 101$"):
        _scenario({}, forecast={"resamples": 101})
    with pytest.raises(ConfigurationError, match="^grid: 'peak_end_hour' must be <= 24, got 25$"):
        _scenario({}, grid={"peak_end_hour": 25})
    with pytest.raises(ConfigurationError, match="^grid: 'peak_start_hour' must be < 'peak_end_hour', got 20 and 8$"):
        _scenario({}, grid={"peak_start_hour": 20, "peak_end_hour": 8})
    with pytest.raises(ConfigurationError, match="^grid: 'peak_start_hour' must be < 'peak_end_hour', got 8 and 8$"):
        _scenario({}, grid={"peak_start_hour": 8, "peak_end_hour": 8})
    with pytest.raises(ConfigurationError, match="^pv: 'sunrise_hour' must be < 'sunset_hour', got 19.0 and 6.0$"):
        _scenario({}, pv={"sunrise_hour": 19, "sunset_hour": 6})
    with pytest.raises(ConfigurationError, match="^inverter: 'soc_min' must be < 'soc_max', got 0.9 and 0.2$"):
        _scenario({}, inverter={"soc_min": 0.9, "soc_max": 0.2})
    whole_day = _scenario({}, grid={"peak_start_hour": 0, "peak_end_hour": 24}, pv={"sunrise_hour": 0, "sunset_hour": 24})
    assert (whole_day.grid["peak_end_hour"], whole_day.pv["sunset_hour"]) == (24, 24.0)
    capped = _scenario({}, load={"jobs_per_day": 100}, forecast={"train_days": 366, "resamples": 100})
    assert (capped.load["jobs_per_day"], capped.forecast["train_days"], capped.forecast["resamples"]) == (100, 366, 100)


def test_schema_version_must_match():
    assert _scenario({}, schema_version=1).seed == 0
    with pytest.raises(ConfigurationError, match="schema_version"):
        _scenario({}, schema_version=2)


def test_overrides_replace_document_values():
    scenario = scenario_from_dict({"seed": 3, "step_seconds": 120}, None, seed_override=9, step_seconds_override=60)
    assert scenario.seed == 9
    assert scenario.step_seconds == 60


def test_replay_blocks_need_an_existing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="ghost.csv"):
        _scenario({}, base_dir=tmp_path, load={"kind": "replay", "file": "ghost.csv"})
    path = _load_recording(tmp_path)
    scenario = _scenario({}, base_dir=tmp_path, load={"kind": "replay", "file": "load.csv"},
                         context={"kind": "none"})
    assert scenario.load["file"] == str(path)
    assert scenario.load["subsystem_id"] == 2
    assert scenario.load["boundary_tolerance_s"] == 120.0


def test_synthetic_context_requires_a_synthetic_load(tmp_path):
    _load_recording(tmp_path)
    with pytest.raises(ConfigurationError, match="synthetic context"):
        _scenario({}, base_dir=tmp_path,
                  load={"kind": "replay", "file": "load.csv"},
                  context={"kind": "synthetic"})
    # without an explicit context block the default downgrades to none
    scenario = _scenario({}, base_dir=tmp_path, load={"kind": "replay", "file": "load.csv"})
    assert scenario.context["kind"] == "none"


def test_forecast_block_validation():
    with pytest.raises(ConfigurationError, match="train_fraction"):
        _scenario({}, forecast={"train_fraction": 1.0})
    with pytest.raises(ConfigurationError, match="families"):
        _scenario({}, forecast={"families": []})
    with pytest.raises(ConfigurationError, match="psychic"):
        _scenario({}, forecast={"families": ["psychic"]})
    with pytest.raises(ConfigurationError, match="'none' is listed twice"):
        _scenario({}, forecast={"families": ["none", "effort", "none"]})
    with pytest.raises(ConfigurationError, match="context_family"):
        _scenario({}, forecast={"context_family": "none"})
    with pytest.raises(ConfigurationError, match="url"):
        _scenario({}, forecast={"effort_estimator": {"kind": "remote"}})
    remote = _scenario({}, forecast={"effort_estimator": {"kind": "remote", "url": "http://x/score"}})
    assert remote.forecast["effort_estimator"]["url"] == "http://x/score"
    for forecast in ([], False, 0, ""):
        with pytest.raises(ConfigurationError, match="^forecast: must be an object"):
            _scenario({}, forecast=forecast)


def test_a_remote_estimator_needs_a_positive_timeout():
    def remote(timeout_s):
        return _scenario({}, forecast={"effort_estimator": {"kind": "remote", "url": "http://x/score", "timeout_s": timeout_s}})

    for timeout_s in (0, -1.0):
        with pytest.raises(ConfigurationError, match=r"forecast\.effort_estimator.*'timeout_s' must be >= 1e-09"):
            remote(timeout_s)
    assert remote(1e-9).forecast["effort_estimator"]["timeout_s"] == 1e-9
    # at most a day, well within what a socket accepts
    for timeout_s in (86_400.5, 9.3e9, 1e300):
        with pytest.raises(ConfigurationError, match=r"forecast\.effort_estimator.*'timeout_s' must be <= 86400\.0"):
            remote(timeout_s)
    assert remote(86_400).forecast["effort_estimator"]["timeout_s"] == MAX_TIMEOUT_S == 86_400.0


def test_validated_blocks_hold_exactly_their_kinds_keys(tmp_path):
    (tmp_path / "recording.csv").write_text("")
    (tmp_path / "notes.jsonl").write_text("")
    replay = {"kind": "replay", "file": "recording.csv"}
    scenarios = [
        _scenario({}),
        _scenario({}, context={"kind": "none"}),
        _scenario(
            {},
            base_dir=tmp_path,
            pv=replay,
            load=replay,
            battery=replay,
            grid=replay,
            context={"kind": "replay", "file": "notes.jsonl"},
            forecast={"effort_estimator": {"kind": "remote", "url": "http://x/score"}},
        ),
    ]
    seen = set()
    for scenario in scenarios:
        blocks = {name: getattr(scenario, name) for name in ("pv", "load", "battery", "grid", "context", "inverter")}
        blocks["forecast.effort_estimator"] = scenario.forecast["effort_estimator"]
        for name, block in blocks.items():
            assert set(block) == {"kind", *BLOCK_TABLES[name][block["kind"]]}, (name, block)
            seen.add((name, block["kind"]))
    assert seen == {(name, kind) for name, kinds in BLOCK_TABLES.items() for kind in kinds}
    for scenario in scenarios:
        assert set(scenario.forecast) == set(DOCUMENT_TABLE["forecast"])
    remote = scenarios[-1].forecast["effort_estimator"]
    assert remote["timeout_s"] == 10.0
    assert [scenarios[-1].pv["subsystem_id"], scenarios[-1].battery["subsystem_id"], scenarios[-1].grid["subsystem_id"]] == [1, 3, 4]


#: the model blocks and their kinds whose keys are their components' parameters
_MODEL_KINDS = {"pv": "synthetic", "load": "synthetic", "battery": "linear", "grid": "priced", "inverter": "pv-first"}
#: the scenario block -> the simulator's component slot it builds
_SLOT_OF_BLOCK = {"pv": "power_source", "load": "load", "battery": "battery", "grid": "grid", "inverter": "inverter"}


def _held(component, block, key):
    """What ``component``, built from ``block``, holds for ``key``: the
    attribute of the key's name, a tariff key on the grid's schedule, and
    the load's job keys through the jobs drawn for one day."""
    if block == "load" and key == "jobs_per_day":
        return len(component.job_events)
    if block == "load" and key == "watts_per_effort":
        (watts,) = {job.watts_per_effort for job in component.job_events}
        return watts
    if block == "grid" and not key.startswith("max_"):
        return getattr(component.schedule, key)
    return getattr(component, key)


def _as_held(value):
    """A block value as its component holds it: a None cap is no cap."""
    return math.inf if value is None else value


#: each constructor or function a scenario key feeds -> the parameters the
#: keys feed (the load's jobs through jobs_per_day and watts_per_effort,
#: the inverter's battery_ keys through the battery block)
_FED_BY_KEYS = {
    SyntheticPowerSource: {"seed", *BLOCK_TABLES["pv"]["synthetic"]},
    SyntheticLoad: {"seed", "base_power_w", "job_events", "noise_amplitude"},
    generate_job_events: {"start_ns", "jobs_per_day", "watts_per_effort"},
    context_records_for_jobs: {"announce_lead_ns"},
    BatteryLinear: set(BLOCK_TABLES["battery"]["linear"]),
    PriceSchedule: {key for key in BLOCK_TABLES["grid"]["priced"] if not key.startswith("max_")},
    GridPriced: {key for key in BLOCK_TABLES["grid"]["priced"] if key.startswith("max_")},
    InverterPVFirst: {*BLOCK_TABLES["inverter"]["pv-first"], "battery_capacity_j", "battery_eta_charge", "battery_eta_discharge"},
    MPCInverter: {"max_grid_power_w"},
    RecedingHorizonController: {"capacity_j", "soc_min", "soc_max", "max_grid_power_w"},
    estimate_effort_remote: {"timeout_s"},
    evaluate_families: {"train_fraction"},
}


def test_no_constructor_or_function_restates_a_table_default():
    """BLOCK_TABLES and DOCUMENT_TABLE are the one home of a default: no
    parameter a scenario key feeds has a default of its own, so a default
    changes in one place."""
    for target, names in _FED_BY_KEYS.items():
        parameters = inspect.signature(target).parameters
        assert names <= set(parameters), (target, names - set(parameters))
        defaulted = {name for name in names if parameters[name].default is not inspect.Parameter.empty}
        assert not defaulted, (target, defaulted)


def _other_than(value, index):
    """A valid value other than a key's default ``value``, distinct for
    each ``index`` (the key's place in its table), so that two keys with
    one default get different values: a cap for no cap, one less for an
    int, a little under seven eighths for a float (1/8 and up for zero)."""
    if value is None:
        return 1000.0 + index
    if isinstance(value, int):
        return value - 1 if value > 0 else 1
    return value * (0.875 - index / 64) if value else 0.125 + index / 64


@pytest.mark.parametrize("strategy", ["default", "mpc-perfect"])
def test_every_block_key_reaches_its_component_under_its_own_name(strategy):
    """Each key of the pv, load, battery, grid and inverter blocks, taken
    from BLOCK_TABLES, is held by the component built from its block under
    the key's own name (the load's job keys through the jobs drawn): its
    table default when the document names no key, and a value other than
    its default when the document gives one.  The announcements lead their
    jobs by the context block's lead, and an MPC inverter's controller
    plans with the inverter's capacity and SOC band and the grid's cap."""
    defaults = scenario_from_dict({}, None)
    document = {
        block: {key: _other_than(getattr(defaults, block)[key], i) for i, key in enumerate(BLOCK_TABLES[block][kind])}
        for block, kind in _MODEL_KINDS.items()
    }
    for block, values in document.items():
        assert len(set(values.values())) == len(values), block
        assert all(value != getattr(defaults, block)[key] for key, value in values.items()), block
    table_defaults = {block: {key: getattr(defaults, block)[key] for key in values} for block, values in document.items()}
    lead_h = _other_than(defaults.context["announce_lead_hours"], 0)
    for given_document, values in (({}, table_defaults), ({**document, "context": {"announce_lead_hours": lead_h}}, document)):
        bundle = build_bundle(scenario_from_dict(given_document, None), strategy)
        for block, block_values in values.items():
            component = getattr(bundle.simulator, _SLOT_OF_BLOCK[block])
            for key, value in block_values.items():
                assert _held(component, block, key) == _as_held(value), (block, key)
        lead_ns = int(bundle.scenario.context["announce_lead_hours"] * 3600) * NS
        assert bundle.records == context_records_for_jobs(bundle.simulator.load.job_events, announce_lead_ns=lead_ns)
        if strategy != "default":
            inverter, controller = bundle.simulator.inverter, bundle.controller
            assert controller is inverter.controller
            assert (controller.capacity_j, controller.soc_min, controller.soc_max) == (
                values["battery"]["capacity_j"],
                values["inverter"]["soc_min"],
                values["inverter"]["soc_max"],
            )
            assert controller.max_grid_power_w == values["grid"]["max_active_power_w"]


def _accepted(entry):
    """Values the numeric table ``entry`` accepts: its default, its minimum
    and maximum, values between them, and None where it allows none."""
    assert entry.func in (_number, _integer), entry
    bounds = entry.keywords
    low, high = bounds.get("minimum"), bounds.get("maximum")
    if entry.func is _integer:
        between = st.integers(low, high)
    else:
        between = st.floats(low, high, allow_nan=False, allow_infinity=False)
    values = st.sampled_from([value for value in (bounds.get("default"), low, high) if value is not None]) | between
    return st.none() | values if bounds.get("allow_none") else values


@st.composite
def _table_blocks(draw):
    """Each kinded block of its default kind, every key drawn from its own
    BLOCK_TABLES entry, each ordered pair of _ORDERED_KEYS in order."""
    blocks = {
        block: {key: draw(_accepted(entry)) for key, entry in BLOCK_TABLES[block][kind].items()}
        for block, kind in DOCUMENT_TABLE.items()
        if isinstance(kind, str)
    }
    for block, low, high in _ORDERED_KEYS:
        pair = sorted((blocks[block][low], blocks[block][high]))
        assume(pair[0] < pair[1])
        blocks[block][low], blocks[block][high] = pair
    return blocks


@given(blocks=_table_blocks())
def test_the_tables_bounds_lie_within_the_constructors_bounds(blocks):
    """The public constructors check their parameters again, so each bound
    is written twice: once in BLOCK_TABLES, once in a constructor.  Every
    value a table accepts (its default, its bounds and values between them,
    ordered pairs in order) builds a bundle, PV-first and planned, without
    a constructor raising.  A key added to a table is drawn as it is."""
    scenario = scenario_from_dict({"horizon_seconds": 3600, **blocks}, None)
    for strategy in ("default", "mpc-perfect"):
        build_bundle(scenario, strategy)


def test_load_scenario_reads_and_validates(tmp_path):
    path = tmp_path / "day.json"
    path.write_text(json.dumps({"seed": 5, "horizon_seconds": 3600}))
    scenario = load_scenario(path)
    assert scenario.seed == 5
    assert scenario.base_dir == tmp_path
    with pytest.raises(ConfigurationError, match="does not exist"):
        load_scenario(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_scenario(bad)


# ---------------------------------------------------------------------------
# Derived configuration
# ---------------------------------------------------------------------------


def test_synthetic_config_mirrors_the_blocks():
    scenario = _scenario(
        {},
        seed=7,
        horizon_seconds=2 * 86_400,
        pv={"peak_power_w": 900.0},
        load={"base_power_w": 300.0, "jobs_per_day": 3},
    )
    simulator = build_bundle(scenario).simulator
    pv, load = simulator.power_source, simulator.load
    assert pv.seed == load.seed == 7
    assert pv.peak_power_w == 900.0
    assert load.base_power_w == 300.0
    assert len(load.job_events) == 2 * 3


def test_price_schedule_follows_the_grid_block(tmp_path):
    scenario = _scenario({}, grid={"off_peak_price": 0.25, "peak_price": 0.75})
    schedule = price_schedule(scenario)
    assert schedule.price_at(0) == 0.25
    assert schedule.price_at(12 * 3600 * NS) == 0.75


def test_price_schedule_covers_every_day_the_horizon_touches():
    # 24 h from noon: the next morning's 08:00-12:00 is peak too
    schedule = price_schedule(_scenario({}, start_epoch_seconds=12 * 3600))
    assert schedule.price_at(12 * 3600 * NS) == 0.40
    assert schedule.price_at(NS_PER_DAY + 7 * 3600 * NS) == 0.10
    assert schedule.price_at(NS_PER_DAY + 9 * 3600 * NS) == 0.40
    assert schedule.price_at(NS_PER_DAY + 12 * 3600 * NS - 1) == 0.40
    # and so is every day past it
    assert schedule.price_at(9 * NS_PER_DAY + 9 * 3600 * NS) == 0.40


def test_training_series_runs_on_a_shifted_seed():
    scenario = _scenario({}, seed=2, step_seconds=1800, forecast={"train_days": 1})
    records, times, loads = training_series(scenario)
    assert len(times) == 48
    assert times[0] == 1800 * NS
    assert all(load >= 0.0 for load in loads)
    # the training jobs come from seed + offset, not the evaluated seed
    evaluated = build_bundle(scenario).simulator.load
    train_texts = {r.text() for r in records}
    eval_texts = {r.description for r in evaluated.job_events}
    assert TRAIN_SEED_OFFSET == 1_000_003
    assert records  # non-empty
    assert train_texts != eval_texts or len(train_texts) != len(eval_texts)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _small(strategy="default", **overrides):
    data = dict(
        seed=4,
        horizon_seconds=7200,
        step_seconds=600,
        load={"noise_amplitude": 0.05},
        pv={"noise_amplitude": 0.1},
    )
    data.update(overrides)
    return build_bundle(_scenario(data), strategy)


def test_default_bundle_runs_end_to_end():
    bundle = _small()
    assert bundle.strategy == "default"
    assert bundle.controller is None
    assert isinstance(bundle.simulator.inverter, InverterPVFirst)
    assert bundle.records  # announced jobs
    results = []
    run(bundle.simulator, bundle.scenario.horizon_ns, bundle.scenario.step_ns, results.append)
    assert len(results) == 12
    assert results[-1].aggregates.consumed_wh > 0.0


def test_unknown_strategy_is_rejected():
    with pytest.raises(ConfigurationError, match="tomorrow"):
        _small(strategy="tomorrow")
    assert STRATEGIES == ("default", "mpc-perfect", "mpc-context", "mpc-nocontext")


def test_mpc_bundle_wires_a_controller():
    bundle = _small(strategy="mpc-perfect")
    assert bundle.controller is not None
    assert isinstance(bundle.simulator.inverter, MPCInverter)
    results = []
    run(bundle.simulator, bundle.scenario.horizon_ns, bundle.scenario.step_ns, results.append)
    assert len(results) == 12
    assert bundle.controller.first_plan is not None


def test_mpc_context_bundle_trains_a_predictor():
    bundle = _small(strategy="mpc-context", forecast={"train_days": 1})
    results = []
    run(bundle.simulator, bundle.scenario.horizon_ns, bundle.scenario.step_ns, results.append)
    assert len(results) == 12


def test_mpc_preconditions_are_spelled_out(tmp_path):
    _load_recording(tmp_path, hours=3)
    times = tuple(h * 3600 * NS for h in range(4))
    write_recording(tmp_path / "plant.csv", TimeSeriesTable([
        Channel(3, "battery_soc", times, (0.5,) * 4),
        Channel(3, "battery_voltage", times, (51.2,) * 4),
        Channel(4, "grid_active_power", times, (0.0,) * 4),
        Channel(4, "grid_apparent_power", times, (0.0,) * 4),
    ]))
    replay_load = {"load": {"kind": "replay", "file": "load.csv"}}
    cases = [
        ({"battery": {"kind": "replay", "file": "plant.csv"}}, "mpc-perfect", "needs a linear battery model"),
        ({"grid": {"kind": "replay", "file": "plant.csv"}}, "mpc-perfect", "needs a priced grid"),
        # predictors train on load samples from the generator
        (replay_load, "mpc-context", "^load: predictor training"),
        (replay_load, "mpc-nocontext", "^load: predictor training"),
    ]

    def scenario(blocks):
        return scenario_from_dict({"horizon_seconds": 7200, "step_seconds": 600, **blocks}, tmp_path)

    for blocks, strategy, message in cases:
        with pytest.raises(ConfigurationError, match=message):
            build_bundle(scenario(blocks), strategy)
    # the oracle forecast reads the recorded load itself
    bundle = build_bundle(scenario(replay_load), "mpc-perfect")
    horizon_ns, step_ns = bundle.scenario.horizon_ns, bundle.scenario.step_ns
    results = []
    run(bundle.simulator, horizon_ns, step_ns, results.append)
    assert [r.load.requested_active_power for r in results] == [500.0] * 12
    assert bundle.controller.forecast_provider(bundle.scenario.start_ns).load_w == (500.0,) * 12
    with pytest.raises(ConfigurationError, match="day"):
        _small(strategy="mpc-perfect", horizon_seconds=14_000, step_seconds=7000)
    with pytest.raises(ConfigurationError, match="horizon"):
        _small(strategy="mpc-perfect", horizon_seconds=5400, step_seconds=3600)


def test_replay_load_bundle_uses_the_recording(tmp_path):
    _load_recording(tmp_path, hours=2, watts=640.0)
    scenario = scenario_from_dict(
        {"horizon_seconds": 3600, "step_seconds": 600, "load": {"kind": "replay", "file": "load.csv"}},
        tmp_path,
    )
    bundle = build_bundle(scenario)
    assert isinstance(bundle.simulator.load, ReplayLoad)
    results = []
    run(bundle.simulator, scenario.horizon_ns, scenario.step_ns, results.append)
    assert all(r.load.requested_active_power == 640.0 for r in results)


@pytest.fixture(scope="module")
def plant_recording(tmp_path_factory):
    """channels.csv and context.jsonl of a 2 h @ 600 s PV-first run."""
    out = tmp_path_factory.mktemp("plant") / "rec"
    run_to_directory(_small(), out)
    return {
        # a recording starts at its first step's end
        "channels": {"kind": "replay", "file": str(out / "channels.csv"), "boundary_tolerance_s": 600},
        "context": {"kind": "replay", "file": str(out / "context.jsonl")},
    }


def test_the_inverter_block_reaches_dispatch_and_planning(plant_recording):
    """Every key of the inverter block is a parameter of the inverter each
    strategy steps, the battery block gives the capacity and efficiencies
    it projects with, and each controller plans in the block's SOC band."""
    block = dict(
        eta_pv_to_batt=0.91,
        eta_pv_to_load=0.92,
        eta_batt_to_load=0.93,
        max_charge_power_w=1500.0,
        max_discharge_power_w=1200.0,
        soc_min=0.2,
        soc_max=0.8,
        self_power_w=15.0,
    )
    battery = dict(capacity_j=7.2e6, eta_charge=0.9, eta_discharge=0.85)
    projection = ("battery_capacity_j", "battery_eta_charge", "battery_eta_discharge")
    for strategy in STRATEGIES:
        bundle = _small(strategy, inverter=block, battery=battery, forecast={"train_days": 1})
        inverter = bundle.simulator.inverter
        assert type(inverter) is (InverterPVFirst if strategy == "default" else MPCInverter)
        assert {key: getattr(inverter, key) for key in block} == block
        assert [getattr(inverter, name) for name in projection] == [7.2e6, 0.9, 0.85]
        if strategy != "default":
            controller = bundle.controller
            assert (controller.soc_min, controller.soc_max, controller.capacity_j) == (0.2, 0.8, 7.2e6)
    recorded = _small(battery=dict(plant_recording["channels"], capacity_j=7.2e6)).simulator.inverter
    assert [getattr(recorded, name) for name in projection] == [7.2e6, 1.0, 1.0]


#: the simulator's component slot -> the scenario block that builds it
_BLOCK_OF_SLOT = {"power_source": "pv", "load": "load", "battery": "battery", "grid": "grid", "context": "context"}


def test_every_component_and_controller_takes_instance_patches(plant_recording):
    """The benchmark's tracer wraps ``step`` on every component build_bundle
    builds, and ``decide`` and ``forecast_provider`` on the controller, by
    assigning instance attributes (a class with ``__slots__`` would refuse
    them); the run then calls each wrapper."""
    channels, context = plant_recording["channels"], plant_recording["context"]
    replayed = dict(pv=channels, load=channels, battery=channels, grid=channels, context=context)
    cases = [({"forecast": {"train_days": 1}}, strategy) for strategy in STRATEGIES]
    cases += [(replayed, "default"), (dict(pv=channels, load=channels), "mpc-perfect")]
    kinds = set()
    for blocks, strategy in cases:
        bundle = _small(strategy, **blocks)
        calls = []

        def patch(owner, name):
            method = getattr(owner, name)

            def counted(*args):
                calls.append((owner, name))
                return method(*args)

            setattr(owner, name, counted)
            return owner, name

        simulator = bundle.simulator
        wanted = set()
        for slot, block in _BLOCK_OF_SLOT.items():
            kind = getattr(bundle.scenario, block)["kind"]
            kinds.add((block, kind))
            if kind != "none":
                wanted.add(patch(getattr(simulator, slot), "step"))
        wanted.add(patch(simulator.inverter, "step"))
        if bundle.controller is not None:
            wanted.add(patch(bundle.controller, "decide"))
            wanted.add(patch(bundle.controller, "forecast_provider"))
        run(simulator, bundle.scenario.horizon_ns, bundle.scenario.step_ns, [].append)
        assert set(calls) == wanted, strategy
    assert kinds == {(block, kind) for block in _BLOCK_OF_SLOT.values() for kind in BLOCK_TABLES[block]}
