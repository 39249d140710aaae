"""Forecast providers: one window per planning day whose tail at each
``now`` equals direct recomputation, kept as one object while unrevised."""
from functools import partial

import pytest

import cemsim.control
import cemsim.scenario
from cemsim import (
    ContextRecord,
    Predictor,
    build_bundle,
    context_query,
    run,
    scenario_from_dict,
    train_predictor,
)
from cemsim.core import NS_PER_DAY
from cemsim.models.synthetic import load_power_at, pv_power_at
from cemsim.scenario import (
    effort_estimator,
    forecast_provider,
    price_schedule,
    training_series,
)

NS = 1_000_000_000
MIDNIGHT = 1_704_067_200
STEP_S = 600

# Two days from 05:00, so planning days start off the horizon start.
TWO_DAYS = {
    "seed": 5,
    "start_epoch_seconds": MIDNIGHT + 5 * 3600,
    "horizon_seconds": 2 * 86_400,
    "step_seconds": STEP_S,
    "load": {"kind": "synthetic", "jobs_per_day": 4, "noise_amplitude": 0.1},
}


def _steps_left(scenario, now_ns):
    bound = min((now_ns // NS_PER_DAY + 1) * NS_PER_DAY, scenario.end_ns)
    return (bound - now_ns) // scenario.step_ns


def _windows_of_a_run(scenario, strategy):
    """(now, window) for every decision of a closed-loop run."""
    bundle = build_bundle(scenario, strategy)
    controller = bundle.controller
    provider = controller.forecast_provider
    seen = []

    def recording(now_ns):
        window = provider(now_ns)
        seen.append((now_ns, window))
        return window

    controller.forecast_provider = recording
    run(bundle.simulator, scenario.horizon_ns, scenario.step_ns, lambda output: None)
    assert len(seen) == scenario.horizon_ns // scenario.step_ns
    return bundle, seen


def _assert_tail(window, now_ns, loads, pvs, prices):
    """The window's tail from ``now``'s offset equals the given series."""
    assert window.step_seconds == float(STEP_S)
    offset, misaligned = divmod(now_ns - window.start_ns, window.step_ns)
    assert offset >= 0 and not misaligned
    assert window.load_w[offset:] == tuple(loads)
    assert window.pv_w[offset:] == tuple(pvs)
    assert window.prices[offset:] == tuple(prices)


def test_perfect_windows_equal_direct_sampling():
    scenario = scenario_from_dict(TWO_DAYS, None)
    bundle, seen = _windows_of_a_run(scenario, "mpc-perfect")
    load_config, pv_config = bundle.simulator.load._config, bundle.simulator.power_source._config
    for now_ns, window in seen:
        count = _steps_left(scenario, now_ns)
        times = [now_ns + i * scenario.step_ns for i in range(1, count + 1)]
        loads = [load_power_at(load_config, t) for t in times]
        pvs = [pv_power_at(pv_config, t) for t in times]
        prices = bundle.schedule.prices_for_window(now_ns, scenario.step_ns, count)
        _assert_tail(window, now_ns, loads, pvs, prices)


def test_a_perfect_forecast_is_one_window_object_per_planning_day():
    scenario = scenario_from_dict(TWO_DAYS, None)
    _, seen = _windows_of_a_run(scenario, "mpc-perfect")
    by_day = {}
    for now_ns, window in seen:
        assert by_day.setdefault(now_ns // NS_PER_DAY, window) is window
    # 05:00 to midnight, a whole day, and midnight to 05:00
    assert len(by_day) == 3
    assert [window.start_ns for window in by_day.values()] == [
        scenario.start_ns,
        (scenario.start_ns // NS_PER_DAY + 1) * NS_PER_DAY,
        (scenario.start_ns // NS_PER_DAY + 2) * NS_PER_DAY,
    ]


def test_a_lossless_perfect_forecast_solves_once_per_planning_day(monkeypatch):
    """With every efficiency at 1.0 the plant executes the plan exactly,
    so the controller reuses each day's first plan to the day's end."""
    scenario = scenario_from_dict(
        {
            **TWO_DAYS,
            "step_seconds": 120,
            "battery": {"kind": "linear", "eta_charge": 1.0, "eta_discharge": 1.0},
            "inverter": {"eta_pv_to_batt": 1.0, "eta_pv_to_load": 1.0, "eta_batt_to_load": 1.0},
        },
        None,
    )
    horizons = []
    solve = cemsim.control.solve_charging

    def counted(problem):
        horizons.append(problem.horizon)
        return solve(problem)

    monkeypatch.setattr(cemsim.control, "solve_charging", counted)
    bundle = build_bundle(scenario, "mpc-perfect")
    run(bundle.simulator, scenario.horizon_ns, scenario.step_ns, lambda output: None)
    # 19 h, 24 h and 5 h of 120 s steps
    assert horizons == [570, 720, 150]


def test_context_windows_equal_direct_prediction():
    scenario = scenario_from_dict(TWO_DAYS, None)
    bundle, seen = _windows_of_a_run(scenario, "mpc-context")
    effort_fn = effort_estimator(scenario)
    predictor = train_predictor(
        *training_series(scenario),
        scenario.forecast["context_family"],
        effort_fn=effort_fn,
    )
    known_sets = set()
    for now_ns, window in seen:
        count = _steps_left(scenario, now_ns)
        known = context_query(bundle.records, now_ns)
        known_sets.add((now_ns // NS_PER_DAY, tuple(map(id, known))))
        times = [now_ns + i * scenario.step_ns for i in range(1, count + 1)]
        loads = [max(predictor.predict(known, t, effort_fn), 0.0) for t in times]
        pvs = [pv_power_at(bundle.simulator.power_source._config, t) for t in times]
        prices = bundle.schedule.prices_for_window(now_ns, scenario.step_ns, count)
        _assert_tail(window, now_ns, loads, pvs, prices)
    # the known-record set changes inside planning days, not only at their start
    assert len(known_sets) > 3 * scenario.day_count


@pytest.mark.parametrize("strategy", ["mpc-context", "mpc-perfect"])
def test_every_step_queries_the_context_once_through_the_scenario_module(monkeypatch, strategy):
    """The provider looks ``context_query`` up as a ``cemsim.scenario``
    global on every call, so a wrapper installed there (the name the
    benchmark's tracer patches) sees one query per step, the oracle's
    queries of its empty index included."""
    scenario = scenario_from_dict({**TWO_DAYS, "horizon_seconds": 86_400}, None)
    calls = []
    query = cemsim.scenario.context_query

    def counted(records, now_ns):
        calls.append(now_ns)
        return query(records, now_ns)

    monkeypatch.setattr(cemsim.scenario, "context_query", counted)
    bundle = build_bundle(scenario, strategy)
    run(bundle.simulator, scenario.horizon_ns, scenario.step_ns, lambda output: None)
    steps = scenario.horizon_ns // scenario.step_ns
    assert calls == [scenario.start_ns + i * scenario.step_ns for i in range(steps)]


def _record(recorded_s, begins_s, ends_s, text):
    return ContextRecord(
        recorded_at_ns=recorded_s * NS,
        begins_at_ns=begins_s * NS,
        ends_at_ns=ends_s * NS,
        subsystem_id=2,
        payload={"text": text},
    )


def _tail(window, now_ns):
    offset = (now_ns - window.start_ns) // window.step_ns
    return window.load_w[offset:], window.pv_w[offset:], window.prices[offset:]


def test_records_recorded_after_now_do_not_change_the_window():
    scenario = scenario_from_dict({**TWO_DAYS, "start_epoch_seconds": 0}, None)
    config = build_bundle(scenario).simulator.power_source._config
    schedule = price_schedule(scenario)
    predictor = Predictor("effort", (800.0, 0.0, 0.0, 250.0))
    known = _record(0, 3_600, 7_200, "nightly build")
    late = _record(2 * STEP_S, 4 * 3_600, 6 * 3_600, "GPU training run")
    tomorrow = _record(3 * STEP_S, 86_400 + 3_600, 86_400 + 7_200, "nightly build")

    def provider(records):
        return forecast_provider(
            lambda known, t_ns: max(predictor.predict(known, t_ns), 0.0),
            partial(pv_power_at, config),
            schedule,
            scenario.end_ns,
            scenario.step_ns,
            records,
        )

    without = provider((known,))
    with_late, fresh_late = provider((known, late, tomorrow)), provider((known, late, tomorrow))
    now, later = STEP_S * NS, 2 * STEP_S * NS
    assert with_late(now) == without(now)
    # once recorded the record does move the forecast, and the cached
    # window from before is not served again
    window = with_late(later)
    assert _tail(window, later) != _tail(without(later), later)
    assert window == fresh_late(later)
    # a record for a later day becomes known, then the first record
    # expires: each changes the known set but no value of this day's
    # window, so the window object stays
    assert with_late(3 * STEP_S * NS) is window
    expired = 7_200 * NS
    assert with_late(expired) is window
    assert _tail(window, expired) == _tail(provider((late, tomorrow))(expired), expired)


def test_remote_estimator_scores_each_text_once(estimator_server):
    scenario = scenario_from_dict(
        {
            "seed": 7,
            "start_epoch_seconds": MIDNIGHT,
            "horizon_seconds": 86_400,
            "step_seconds": 240,
            "forecast": {"effort_estimator": {"kind": "remote", "url": f"{estimator_server.url}/ok"}},
        },
        None,
    )
    estimator_server.texts.clear()
    bundle = build_bundle(scenario, "mpc-context")
    run(bundle.simulator, scenario.horizon_ns, scenario.step_ns, lambda output: None)
    texts = estimator_server.texts
    assert texts, "the estimator was never asked"
    assert len(texts) == len(set(texts))

