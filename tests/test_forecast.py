"""Load forecasting: effort heuristic, feature families, OLS fits, remote scoring."""
import json
import math
import re
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cemsim.core
from cemsim import (
    FAMILIES,
    ContextIndex,
    ContextRecord,
    NUMERIC_FIELD_CATALOG,
    Predictor,
    RemoteEstimatorError,
    build_features,
    estimate_effort_heuristic,
    estimate_effort_remote,
    evaluate_families,
    feature_names,
    fit_least_squares,
    rmse,
    train_predictor,
)
from cemsim.forecast import MAX_TIMEOUT_S
from cemsim.models.synthetic import (
    JOB_TEMPLATES,
    SyntheticLoad,
    context_records_for_jobs,
)
import oracles
from defaults import default_announcements, default_jobs, defaults
from oracles import evaluate_families_reference

NS_PER_HOUR = 3_600_000_000_000
NS_PER_DAY = 24 * NS_PER_HOUR


def _record(begins_h, ends_h, text, recorded_h=0.0, **numeric):
    payload = {"text": text, **numeric}
    return ContextRecord(
        recorded_at_ns=int(recorded_h * NS_PER_HOUR),
        begins_at_ns=int(begins_h * NS_PER_HOUR),
        ends_at_ns=int(ends_h * NS_PER_HOUR),
        subsystem_id=1,
        payload=payload,
    )


# ---------------------------------------------------------------------------
# Effort heuristic
# ---------------------------------------------------------------------------


def test_heuristic_scores_worked_examples():
    assert estimate_effort_heuristic("CPU-intensive, multi-core numeric robustness test") == 4.0
    assert estimate_effort_heuristic("Extending test to 48h (multi-core numeric robustness)") == 4.0
    assert estimate_effort_heuristic("GPU training run with a nightly build step") == 5.0
    assert estimate_effort_heuristic("") == 1.0
    assert estimate_effort_heuristic("routine telemetry rotation") == 1.0


def test_heuristic_is_case_insensitive():
    assert estimate_effort_heuristic("gpu COMPILE") == estimate_effort_heuristic("GPU compile") == 5.0


def test_heuristic_counts_repeated_keywords():
    assert estimate_effort_heuristic("build then build again") == 3.0


def test_duration_token_scales_the_score():
    # (1 + 1) * 12/24
    assert estimate_effort_heuristic("6h compile") == 2.0 * 6.0 / 24.0
    assert estimate_effort_heuristic("12h compile") == 1.0


def test_job_templates_agree_with_the_heuristic():
    """Every canned job description scores exactly its template effort."""
    for effort, texts in JOB_TEMPLATES.items():
        for text in texts:
            assert estimate_effort_heuristic(text) == effort, text


# ---------------------------------------------------------------------------
# Feature construction
# ---------------------------------------------------------------------------


def test_feature_names_per_family():
    assert feature_names("none") == ("intercept", "hour_sin", "hour_cos")
    assert feature_names("effort") == ("intercept", "hour_sin", "hour_cos", "effort")
    assert feature_names("numeric") == (
        "intercept", "hour_sin", "hour_cos",
        "cores_sum", "cores_present", "files_sum", "files_present",
    )
    assert feature_names("combined") == feature_names("numeric") + ("effort",)
    with pytest.raises(ValueError):
        feature_names("fancy")


def test_effort_feature_sums_active_records():
    records = [
        _record(2, 8, "CPU-intensive, multi-core numeric robustness test"),  # 4.0
        _record(3, 6, "Incremental build of the firmware tree"),  # 2.0
        _record(20, 23, "GPU training run with a nightly build step"),  # inactive
    ]
    features = build_features(records, "effort", 4 * NS_PER_HOUR)
    assert features[-1] == 6.0
    assert build_features(records, "effort", 21 * NS_PER_HOUR)[-1] == 5.0
    assert build_features(records, "effort", 10 * NS_PER_HOUR)[-1] == 0.0


def test_none_family_ignores_records_entirely():
    records = [_record(0, 24, "GPU blitz", cores=64)]
    t = 5 * NS_PER_HOUR
    assert np.array_equal(build_features(records, "none", t), build_features([], "none", t))


def test_numeric_features_sum_fields_and_flag_presence():
    records = [
        _record(0, 10, "a", cores=8, files=400),
        _record(0, 10, "b", cores=4),
        _record(0, 10, "c", cores="many"),  # non-numeric: ignored
    ]
    features = build_features(records, "numeric", NS_PER_HOUR)
    names = feature_names("numeric")
    byname = dict(zip(names, features))
    assert byname["cores_sum"] == 12.0
    assert byname["cores_present"] == 1.0
    assert byname["files_sum"] == 400.0
    assert byname["files_present"] == 1.0
    quiet = build_features([], "numeric", NS_PER_HOUR)
    assert list(quiet[3:]) == [0.0, 0.0, 0.0, 0.0]


def test_hour_encoding_is_on_the_unit_circle():
    for hour in (0, 6, 13, 23):
        features = build_features([], "none", hour * NS_PER_HOUR)
        assert features[0] == 1.0
        assert features[1] ** 2 + features[2] ** 2 == pytest.approx(1.0, rel=1e-12)


@given(
    family=st.sampled_from(FAMILIES),
    hour=st.integers(0, 47),
    count=st.integers(0, 3),
    cores=st.one_of(st.integers(0, 64), st.floats(0.0, 64.0), st.just("many")),
    integer_effort=st.booleans(),
)
@settings(max_examples=100)
def test_every_feature_is_a_float(family, hour, count, cores, integer_effort):
    """A row holds only floats for every family, with active records (the
    first day) or none (the second, or no records at all), also when a
    payload value or the effort estimator gives an int."""
    records = [_record(0, 24, "GPU blitz compile", cores=cores) for _ in range(count)]

    def effort_fn(text):
        effort = estimate_effort_heuristic(text)
        return int(effort) if integer_effort else effort

    row = build_features(records, family, hour * NS_PER_HOUR, effort_fn)
    assert len(row) == len(feature_names(family))
    assert [type(value) for value in row] == [float] * len(row)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def _linear_samples(slope=50.0, intercept=100.0):
    records = [
        _record(2, 5, "GPU blitz"),  # effort 4.0
        _record(4, 8, "compile pass"),  # effort 2.0
    ]
    times = [h * NS_PER_HOUR for h in range(24)]
    observed = []
    for t in times:
        effort = build_features(records, "effort", t)[-1]
        observed.append(intercept + slope * effort)
    return records, times, observed


def test_fit_recovers_a_noiseless_linear_signal():
    records, times, observed = _linear_samples()
    predictor = train_predictor(records, times, observed, "effort")
    assert predictor.coefficients == pytest.approx((100.0, 0.0, 0.0, 50.0), abs=1e-6)
    assert predictor.predict(records, 3 * NS_PER_HOUR) == pytest.approx(300.0, abs=1e-6)


def test_constant_load_fits_a_flat_model():
    records, times, _ = _linear_samples()
    predictor = train_predictor(records, times, [250.0] * len(times), "effort")
    assert predictor.coefficients == pytest.approx((250.0, 0.0, 0.0, 0.0), abs=1e-6)


def test_ridge_fallback_still_predicts():
    # no record ever carries numeric fields, so those columns are all zero
    records, times, _ = _linear_samples()
    predictor = train_predictor(records, times, [250.0] * len(times), "numeric")
    prediction = predictor.predict(records, 3 * NS_PER_HOUR)
    assert prediction == pytest.approx(250.0, rel=1e-4)
    # repeated sample times leave the hour columns collinear
    repeated = train_predictor([], [NS_PER_HOUR] * 8, [100.0] * 8, "none")
    assert repeated.predict([], NS_PER_HOUR) == pytest.approx(100.0, rel=1e-4)


def test_fewer_samples_than_features_is_rejected():
    with pytest.raises(ValueError):
        train_predictor([], [0, NS_PER_HOUR], [1.0, 2.0], "none")
    with pytest.raises(ValueError):
        train_predictor([], [0, NS_PER_HOUR], [1.0], "none")


def test_fit_least_squares_validates_shapes():
    with pytest.raises(ValueError):
        fit_least_squares(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        fit_least_squares(np.ones((3, 2)), np.ones((3, 1)))


def test_training_never_uses_future_announcements():
    """A record that is active during the samples but only recorded after
    them cannot influence the fit; activity alone is not knowledge."""
    records, times, observed = _linear_samples()
    times, observed = times[:12], observed[:12]
    late = _record(10, 14, "GPU GPU GPU surprise", recorded_h=12.0)
    with_late = train_predictor(list(records) + [late], times, observed, "effort")
    without = train_predictor(records, times, observed, "effort")
    assert with_late.coefficients == without.coefficients


# ---------------------------------------------------------------------------
# RMSE and family comparison
# ---------------------------------------------------------------------------


def test_rmse_worked_examples():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([2.0, 4.0], [1.0, 3.0]) == 1.0
    assert rmse([0.0, 5.0], [5.0, 0.0]) == 5.0


def test_rmse_validates_input():
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        rmse([], [])


def _job_driven_samples(seed=11, day_count=10, noise=0.0, base_power_w=400.0, announce_lead_ns=None):
    """Announcements of the default load block's jobs (with the default
    context block's lead unless ``announce_lead_ns`` is given), half-hourly
    sample times and the load at each."""
    jobs = default_jobs(seed, day_count)
    if announce_lead_ns is None:
        records = default_announcements(jobs)
    else:
        records = context_records_for_jobs(jobs, announce_lead_ns=announce_lead_ns)
    load = SyntheticLoad(seed=seed, base_power_w=base_power_w, job_events=jobs, noise_amplitude=noise)
    times = [k * NS_PER_HOUR // 2 for k in range(1, day_count * 48)]
    observed = [load.power_at(t) for t in times]
    return records, times, observed


#: the default forecast block's training share of the samples
TRAIN_FRACTION = defaults("forecast")["train_fraction"]


def test_effort_family_beats_the_context_free_baseline():
    records, times, observed = _job_driven_samples(noise=0.05)
    report = evaluate_families(records, times, observed, TRAIN_FRACTION)
    assert set(report) == {"none", "numeric", "effort", "combined"}
    assert report["effort"] < report["none"]
    assert report["combined"] < report["none"]


def test_families_tie_when_context_carries_no_signal():
    # flat 300 W signal: every family should fit it essentially perfectly
    # (ridge shrinkage leaves sub-0.1 W residue on rank-deficient families)
    records, times, _ = _job_driven_samples()
    flat = [300.0] * len(times)
    report = evaluate_families(records, times, flat, TRAIN_FRACTION)
    assert max(report.values()) <= 0.1


def test_the_announcement_lead_moves_no_fit_and_no_score():
    """Training and scoring read each sample's records at the sample's own
    time and keep only the records active then, which every lead >= 0 has
    already announced.  So announcements made 0, 10 or 100 h ahead give
    every family the same coefficients and the same RMSE, bit for bit: the
    lead the scenario's training samples are announced with cannot move a
    forecast."""
    outcomes = []
    for lead_h in (0, 10, 100):
        records, times, observed = _job_driven_samples(day_count=3, noise=0.05, announce_lead_ns=lead_h * NS_PER_HOUR)
        early = [record for record in records if record.recorded_at_ns < record.begins_at_ns]
        assert len(early) == (0 if lead_h == 0 else len(records))
        coefficients = [train_predictor(records, times, observed, family).coefficients for family in FAMILIES]
        report = evaluate_families(records, times, observed, TRAIN_FRACTION)
        outcomes.append(repr((coefficients, report)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_evaluate_families_validation():
    records, times, observed = _job_driven_samples(day_count=2)
    with pytest.raises(ValueError):
        evaluate_families(records, times, observed, TRAIN_FRACTION, families=("effort", "psychic"))
    with pytest.raises(ValueError):
        evaluate_families(records, times, observed, train_fraction=0.0)
    with pytest.raises(ValueError):
        evaluate_families(records, times, observed, train_fraction=1.0)
    with pytest.raises(ValueError):
        evaluate_families(records, times[:6], observed[:6], train_fraction=0.5)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    day_count=st.integers(min_value=2, max_value=4),
    noise=st.sampled_from((0.0, 0.05, 0.2)),
    train_fraction=st.sampled_from((0.5, 0.7, 0.9)),
    families=st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=40)
def test_evaluate_families_matches_the_per_family_reference(seed, day_count, noise, train_fraction, families):
    """Sharing one feature row per sample time among the families gives
    every family's RMSE bit for bit as training and scoring it alone did,
    for any subset of families in any order, and queries the context once
    per sample time."""
    records, times, observed = _job_driven_samples(seed, day_count, noise)
    query = cemsim.core.context_query
    queried = []

    def counted(index, t_ns):
        queried.append(t_ns)
        return query(index, t_ns)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cemsim.core, "context_query", counted)
        report = evaluate_families(records, times, observed, train_fraction, families)
    assert queried == times
    expected = evaluate_families_reference(records, times, observed, train_fraction, families)
    assert list(report) == list(expected) == families
    assert {family: value.hex() for family, value in report.items()} == {
        family: value.hex() for family, value in expected.items()
    }


def _hexes(values):
    return [float(value).hex() for value in values]


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    noise=st.sampled_from((0.0, 0.05, 0.2)),
    family=st.sampled_from(FAMILIES),
)
@settings(max_examples=20)
def test_feature_rows_and_fits_match_the_ndarray_reference(seed, noise, family):
    """A feature row is a list holding, bit for bit, the values of the
    ndarray the reference builds; a fit on one array of those rows gives
    the coefficients of the reference's fit on their vstack, and its
    predictions those of the reference predictor, bit for bit."""
    records, times, observed = _job_driven_samples(seed, 2, noise)
    index = ContextIndex(records)
    known = [cemsim.core.context_query(index, t) for t in times]
    for records_known, t in zip(known, times):
        row = build_features(records_known, family, t)
        assert type(row) is list
        assert _hexes(row) == _hexes(oracles.build_features(records_known, family, t).tolist())
    predictor = train_predictor(records, times, observed, family)
    reference = oracles.train_predictor(records, times, observed, family)
    assert _hexes(predictor.coefficients) == _hexes(reference.coefficients)
    predicted = [predictor.predict(records_known, t) for records_known, t in zip(known, times)]
    assert _hexes(predicted) == _hexes(reference.predict(records_known, t) for records_known, t in zip(known, times))


def test_watts_per_effort_recovered_within_two_percent():
    """With 5% load noise the fitted effort slope lands within 2% of the
    250 W per effort unit the generator actually used."""
    records, times, observed = _job_driven_samples(noise=0.05)
    predictor = train_predictor(records, times, observed, "effort")
    slope = predictor.coefficients[3]
    assert abs(slope - 250.0) <= 5.0


def test_predictor_coefficient_count_is_checked():
    with pytest.raises(ValueError):
        Predictor("none", (1.0, 2.0))
    with pytest.raises(ValueError):
        Predictor("effort", (1.0, 2.0, 3.0))


# ---------------------------------------------------------------------------
# Remote effort estimation
# ---------------------------------------------------------------------------


def test_remote_estimator_happy_path(estimator_server):
    score = estimate_effort_remote("48h GPU sweep", f"{estimator_server.url}/ok", timeout_s=5.0)
    assert score == 2.5


def test_remote_estimator_sends_the_text_as_json(estimator_server):
    estimate_effort_remote("big compile", f"{estimator_server.url}/ok", timeout_s=5.0)
    assert json.loads(estimator_server.last_body) == {"text": "big compile"}


def test_remote_estimator_rejects_bad_responses(estimator_server):
    with pytest.raises(RemoteEstimatorError, match="non-JSON"):
        estimate_effort_remote("x", f"{estimator_server.url}/not-json", timeout_s=5.0)
    with pytest.raises(RemoteEstimatorError, match="effort"):
        estimate_effort_remote("x", f"{estimator_server.url}/missing-key", timeout_s=5.0)
    with pytest.raises(RemoteEstimatorError, match="negative"):
        estimate_effort_remote("x", f"{estimator_server.url}/negative", timeout_s=5.0)
    with pytest.raises(RemoteEstimatorError, match="non-numeric"):
        estimate_effort_remote("x", f"{estimator_server.url}/stringy", timeout_s=5.0)
    with pytest.raises(RemoteEstimatorError, match="failed"):
        estimate_effort_remote("x", f"{estimator_server.url}/boom", timeout_s=5.0)
    with pytest.raises(RemoteEstimatorError, match="non-numeric effort: 9{400}$"):
        estimate_effort_remote("x", f"{estimator_server.url}/huge", timeout_s=5.0)


def test_remote_estimator_opens_only_http_and_https_urls(tmp_path, estimator_server):
    """A file, ftp or scheme-less URL is refused before anything is
    opened (a file holding a well-formed answer is not read), and so are
    a malformed URL and a redirect to an ftp URL."""
    answer = tmp_path / "answer.json"
    answer.write_text('{"effort": 2.5}')
    for url in (answer.as_uri(), "ftp://127.0.0.1/answer.json", "127.0.0.1:80/ok"):
        refused = f"effort estimator request to {url!r} failed: {url!r} is not an http or https URL"
        with pytest.raises(RemoteEstimatorError, match=f"^{re.escape(refused)}$"):
            estimate_effort_remote("x", url, timeout_s=5.0)
    with pytest.raises(RemoteEstimatorError, match=re.escape("'http://[::1/ok' failed: Invalid IPv6 URL")):
        estimate_effort_remote("x", "http://[::1/ok", timeout_s=5.0)
    with pytest.raises(RemoteEstimatorError, match=re.escape("failed: 'ftp://127.0.0.1/answer.json' is not an http")):
        estimate_effort_remote("x", f"{estimator_server.url}/to-ftp", timeout_s=5.0)


def test_remote_estimator_needs_a_positive_timeout(estimator_server):
    """Both ends of the timeout's range are one check, a ValueError."""
    for timeout_s in (0.0, -1.0, math.nan, 1e300):
        with pytest.raises(ValueError, match=f"^{re.escape(f'timeout_s must be in (0, {MAX_TIMEOUT_S}], got {timeout_s!r}')}$"):
            estimate_effort_remote("x", f"{estimator_server.url}/ok", timeout_s=timeout_s)


def test_a_timeout_past_the_maximum_opens_no_socket(estimator_server, monkeypatch):
    """A timeout longer than MAX_TIMEOUT_S, which a socket need not accept,
    or not positive, is a ValueError raised before a socket is opened;
    the maximum itself is sent."""
    opened = []

    class Spied(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(socket, "socket", Spied)
    url = f"{estimator_server.url}/ok"
    refused = f"timeout_s must be in (0, {MAX_TIMEOUT_S}], got "
    for timeout_s in (math.nextafter(MAX_TIMEOUT_S, math.inf), 9.3e9, 1e300, math.inf, 0.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^{re.escape(refused + repr(timeout_s))}$"):
            estimate_effort_remote("x", url, timeout_s=timeout_s)
    assert opened == []
    assert estimate_effort_remote("x", url, timeout_s=MAX_TIMEOUT_S) == 2.5
    assert opened


def test_remote_estimator_unreachable_endpoint():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(RemoteEstimatorError, match="failed"):
        estimate_effort_remote("x", f"http://127.0.0.1:{port}/ok", timeout_s=0.5)
