"""Forecast providers: cached per-day windows equal direct recomputation."""
from dataclasses import replace

from cemsim import (
    ContextRecord,
    Predictor,
    build_bundle,
    context_query,
    run,
    sample_series,
    scenario_from_dict,
    train_predictor,
)
from cemsim.models.synthetic import NS_PER_DAY, pv_power_at
from cemsim.scenario import (
    effort_estimator,
    predictor_forecast_provider,
    price_schedule,
    synthetic_config,
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
    run(bundle.simulator, scenario.total_ticks, scenario.step_ticks)
    assert len(seen) == scenario.total_ticks // scenario.step_ticks
    return bundle, seen


def _assert_window(window, loads, pvs, prices):
    assert window.step_seconds == float(STEP_S)
    assert window.load_w == tuple(loads)
    assert window.pv_w == tuple(pvs)
    assert window.prices == tuple(prices)


def test_perfect_windows_equal_direct_sampling():
    scenario = scenario_from_dict(TWO_DAYS, None)
    bundle, seen = _windows_of_a_run(scenario, "mpc-perfect")
    for now_ns, window in seen:
        count = _steps_left(scenario, now_ns)
        loads, pvs = sample_series(bundle.synthetic, now_ns, float(STEP_S), count)
        prices = bundle.schedule.prices_for_window(now_ns, float(STEP_S), count)
        _assert_window(window, loads, pvs, prices)


def test_context_windows_equal_direct_prediction():
    scenario = scenario_from_dict(TWO_DAYS, None)
    bundle, seen = _windows_of_a_run(scenario, "mpc-context")
    effort_fn = effort_estimator(scenario)
    predictor = train_predictor(
        *training_series(scenario),
        scenario.forecast["context_family"],
        effort_fn=effort_fn,
        allow_ridge=True,
    )
    known_sets = set()
    for now_ns, window in seen:
        count = _steps_left(scenario, now_ns)
        known = context_query(bundle.records, now_ns)
        known_sets.add((now_ns // NS_PER_DAY, tuple(map(id, known))))
        times = [now_ns + i * scenario.step_ns for i in range(1, count + 1)]
        loads = [max(predictor.predict(known, t, effort_fn), 0.0) for t in times]
        pvs = [pv_power_at(bundle.synthetic, t) for t in times]
        prices = bundle.schedule.prices_for_window(now_ns, float(STEP_S), count)
        _assert_window(window, loads, pvs, prices)
    # the known-record set changes inside planning days, not only at their start
    assert len(known_sets) > 3 * scenario.day_count


def _record(recorded_s, begins_s, ends_s, text):
    return ContextRecord(
        recorded_at_ns=recorded_s * NS,
        begins_at_ns=begins_s * NS,
        ends_at_ns=ends_s * NS,
        subsystem_id=2,
        payload={"text": text},
    )


def test_records_recorded_after_now_do_not_change_the_window():
    scenario = scenario_from_dict({**TWO_DAYS, "start_epoch_seconds": 0}, None)
    config = replace(synthetic_config(scenario), job_events=())
    schedule = price_schedule(scenario)
    predictor = Predictor("effort", (800.0, 0.0, 0.0, 250.0))
    known = _record(0, 3_600, 7_200, "nightly build")
    late = _record(2 * STEP_S, 4 * 3_600, 6 * 3_600, "GPU training run")

    def provider(records):
        return predictor_forecast_provider(
            predictor, records, config, schedule, scenario.end_ns, STEP_S
        )

    without, with_late, fresh_late = provider((known,)), provider((known, late)), provider((known, late))
    now, later = STEP_S * NS, 2 * STEP_S * NS
    assert with_late(now) == without(now)
    # once recorded the record does move the forecast, and the cached
    # window from before is not served again
    assert with_late(later) != without(later)
    assert with_late(later) == fresh_late(later)


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
    run(bundle.simulator, scenario.total_ticks, scenario.step_ticks)
    texts = estimator_server.texts
    assert texts, "the estimator was never asked"
    assert len(texts) == len(set(texts))

