"""Synthetic scenario generators: PV bell, job-driven load, announcements, tiers."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemsim import (
    PriceSchedule,
    ScriptedContext,
    SyntheticLoad,
    SyntheticPowerSource,
    SyntheticScenarioConfig,
    context_records_for_jobs,
    generate_job_events,
    unit_noise,
)
from cemsim.models.synthetic import JobEvent, load_power_at, pv_power_at
from oracles import load_power_reference

NS_PER_HOUR = 3_600_000_000_000
HALF_HOUR = NS_PER_HOUR // 2
NS_PER_DAY = 24 * NS_PER_HOUR


def _config(**overrides):
    defaults = dict(seed=3, pv_peak_power=600.0, pv_noise_amplitude=0.0,
                    base_load=100.0, load_noise_amplitude=0.0)
    return SyntheticScenarioConfig(**{**defaults, **overrides})


def test_pv_is_dark_at_midnight_and_peaks_at_noon():
    config = _config()
    assert pv_power_at(config, 0) == 0.0
    assert pv_power_at(config, 12 * NS_PER_HOUR) == 600.0
    assert pv_power_at(config, NS_PER_DAY + 12 * NS_PER_HOUR) == 600.0


def test_pv_is_zero_outside_daylight():
    config = _config()
    for hour in (0, 3, 5, 6, 18, 19, 23):
        assert pv_power_at(config, hour * NS_PER_HOUR) == 0.0
    assert pv_power_at(config, 9 * NS_PER_HOUR) > 0.0


@given(hour_ns=st.integers(min_value=0, max_value=3 * NS_PER_DAY))
@settings(max_examples=200)
def test_pv_noise_only_dims(hour_ns):
    """Cloud noise multiplies the clear-sky bell by a factor in (0.9, 1]."""
    clear = pv_power_at(_config(), hour_ns)
    dimmed = pv_power_at(_config(pv_noise_amplitude=0.1), hour_ns)
    assert 0.0 <= dimmed <= clear
    if clear > 0.0:
        assert dimmed > 0.89 * clear


def test_load_is_base_without_jobs():
    config = _config()
    for hour in range(0, 24, 3):
        assert load_power_at(config, hour * NS_PER_HOUR) == 100.0


def test_job_window_adds_effort_times_watts():
    """A 4-effort job at 50 W per effort unit lifts a 100 W base to 300 W."""
    job = JobEvent(
        begins_at_ns=10 * NS_PER_HOUR,
        ends_at_ns=14 * NS_PER_HOUR,
        description="CPU-intensive, multi-core numeric robustness test",
        true_effort=4.0,
        watts_per_effort=50.0,
    )
    config = _config(job_events=(job,))
    assert load_power_at(config, 9 * NS_PER_HOUR) == 100.0
    assert load_power_at(config, 10 * NS_PER_HOUR) == 300.0
    assert load_power_at(config, 14 * NS_PER_HOUR - 1) == 300.0
    assert load_power_at(config, 14 * NS_PER_HOUR) == 100.0


# Efforts whose products do not add associatively, so a sum taken in
# another order than the job list's lands on other bits.
_EFFORTS = st.sampled_from((0.1, 0.2, 0.3, 1.0 / 3.0, 1e-9, 7.0))


@st.composite
def _overlapping_jobs(draw):
    jobs = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        begins = draw(st.integers(min_value=0, max_value=10))
        ends = draw(st.integers(min_value=begins + 1, max_value=12))
        jobs.append(JobEvent(begins * NS_PER_HOUR, ends * NS_PER_HOUR, "job", draw(_EFFORTS), draw(_EFFORTS)))
    return jobs


@given(
    jobs=_overlapping_jobs(),
    base_load=st.sampled_from((0.1, 100.0, 800)),
    noise=st.sampled_from((0.0, 0.05)),
)
@settings(max_examples=200)
def test_load_table_equals_the_job_loop_bit_for_bit(jobs, base_load, noise):
    """The job table gives the job loop's bits at every edge, one ns either
    side of it, and between edges, with jobs overlapping in any pattern."""
    config = _config(base_load=base_load, load_noise_amplitude=noise, job_events=jobs)
    for hour in range(-1, 14):
        for t in (hour * NS_PER_HOUR - 1, hour * NS_PER_HOUR, hour * NS_PER_HOUR + 1, hour * NS_PER_HOUR + HALF_HOUR):
            assert repr(load_power_at(config, t)) == repr(load_power_reference(config, t)), t


def test_load_table_equals_the_job_loop_over_a_generated_month():
    jobs = generate_job_events(seed=8, day_count=30, jobs_per_day=4)
    config = _config(job_events=jobs)
    edges = sorted({job.begins_at_ns for job in jobs} | {job.ends_at_ns for job in jobs})
    for edge in edges:
        for t in (edge - 1, edge, edge + 1):
            assert repr(load_power_at(config, t)) == repr(load_power_reference(config, t)), t


def test_load_noise_stays_within_amplitude():
    config = _config(load_noise_amplitude=0.05)
    for hour in range(24):
        power = load_power_at(config, hour * NS_PER_HOUR)
        assert abs(power - 100.0) <= 5.0 + 1e-9


def test_unit_noise_is_deterministic_and_unit_range():
    a = unit_noise(7, "pv", 123_456_789)
    assert a == unit_noise(7, "pv", 123_456_789)
    assert 0.0 <= a < 1.0
    assert a != unit_noise(7, "load", 123_456_789)
    assert a != unit_noise(8, "pv", 123_456_789)


# the end of each of a day's half-hour steps
STEP_ENDS = [(i + 1) * HALF_HOUR for i in range(48)]


def test_power_source_component_realizes_the_sampled_series():
    """Stepping the component reproduces pv_power_at at each step end, bit
    for bit, and power_at is that sample."""
    config = _config(pv_noise_amplitude=0.1)
    source = SyntheticPowerSource(config)
    realized = [source.step(i * HALF_HOUR, (i + 1) * HALF_HOUR).power for i in range(48)]
    assert realized == [pv_power_at(config, t) for t in STEP_ENDS]
    assert realized == [source.power_at(t) for t in STEP_ENDS]


def test_load_component_realizes_the_sampled_series():
    jobs = generate_job_events(seed=11, day_count=1)
    config = _config(job_events=jobs, load_noise_amplitude=0.05)
    load = SyntheticLoad(config)
    results = [load.step(i * HALF_HOUR, (i + 1) * HALF_HOUR) for i in range(48)]
    assert [r.requested_active_power for r in results] == [load_power_at(config, t) for t in STEP_ENDS]
    assert [r.requested_active_power for r in results] == [load.power_at(t) for t in STEP_ENDS]
    for result in results:
        assert result.requested_apparent_power == result.requested_active_power


def test_power_source_reports_voltage_and_current():
    config = _config()
    source = SyntheticPowerSource(config)
    result = source.step(11 * NS_PER_HOUR, 12 * NS_PER_HOUR)
    assert result.voltage == 400.0
    assert result.current == result.power / 400.0
    night = source.step(0, NS_PER_HOUR)
    assert night.power == 0.0
    assert night.voltage == 400.0


def test_scripted_context_reveals_records_at_step_start():
    """A record becomes visible on the first step that starts at or after
    its recording time, never earlier."""
    records = context_records_for_jobs(
        generate_job_events(seed=5, day_count=1), announce_lead_ns=0
    )
    record = records[0]
    context = ScriptedContext(records)
    before = context.step(record.recorded_at_ns - NS_PER_HOUR, record.recorded_at_ns)
    at = context.step(record.recorded_at_ns, record.recorded_at_ns + NS_PER_HOUR)
    assert record not in before
    assert record in at


def test_generate_job_events_is_seeded():
    a = generate_job_events(seed=4, day_count=3)
    b = generate_job_events(seed=4, day_count=3)
    c = generate_job_events(seed=5, day_count=3)
    assert a == b
    assert a != c
    assert len(a) == 6


def test_generated_jobs_fall_in_their_day_window():
    for job in generate_job_events(seed=9, day_count=2, jobs_per_day=3):
        begin_hour = (job.begins_at_ns % NS_PER_DAY) / NS_PER_HOUR
        duration_h = (job.ends_at_ns - job.begins_at_ns) / NS_PER_HOUR
        assert 7.0 <= begin_hour <= 19.0
        assert 2.0 <= duration_h <= 6.0
        assert job.watts_per_effort == 250.0
        assert job.true_effort >= 1.0


def test_job_announcements_carry_numeric_hints():
    """Announcements lead by ten hours; cores always present, files only for
    the heavier jobs."""
    jobs = generate_job_events(seed=2, day_count=2)
    records = context_records_for_jobs(jobs)
    assert len(records) == len(jobs)
    for job, record in zip(jobs, records):
        assert record.recorded_at_ns == max(job.begins_at_ns - 10 * NS_PER_HOUR, 0)
        assert record.begins_at_ns == job.begins_at_ns
        assert record.ends_at_ns == job.ends_at_ns
        assert record.text() == job.description
        assert record.payload["cores"] == int(round(2 * job.true_effort))
        if job.true_effort >= 3.0:
            assert record.payload["files"] == int(100 * job.true_effort)
        else:
            assert "files" not in record.payload


def test_two_tier_price_schedule():
    schedule = PriceSchedule()
    assert schedule.price_at(7 * NS_PER_HOUR) == 0.10
    assert schedule.price_at(8 * NS_PER_HOUR) == 0.40
    assert schedule.price_at(20 * NS_PER_HOUR - 1) == 0.40
    assert schedule.price_at(20 * NS_PER_HOUR) == 0.10
    assert schedule.price_at(NS_PER_DAY + 9 * NS_PER_HOUR) == 0.40
    # Every day is priced: there is no last day to fall back to off-peak after.
    assert schedule.price_at(5 * NS_PER_DAY) == 0.10
    assert schedule.price_at(5 * NS_PER_DAY + 9 * NS_PER_HOUR) == 0.40


def test_peak_to_midnight_needs_no_trailing_breakpoint():
    schedule = PriceSchedule(peak_start_hour=8, peak_end_hour=24)
    assert schedule.price_at(NS_PER_DAY - 1) == 0.40
    assert schedule.price_at(NS_PER_DAY) == 0.10


def test_tier_and_job_validation():
    with pytest.raises(ValueError):
        PriceSchedule(peak_start_hour=20, peak_end_hour=8)
    with pytest.raises(ValueError):
        PriceSchedule(off_peak_price=-0.1)
    with pytest.raises(ValueError):
        JobEvent(10, 10, "x", 1.0, 1.0)
    with pytest.raises(ValueError):
        JobEvent(0, 10, "x", -1.0, 1.0)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        _config(pv_noise_amplitude=1.5)
    with pytest.raises(ValueError):
        _config(sunrise_hour=19.0, sunset_hour=6.0)
