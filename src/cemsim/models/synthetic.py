"""Seeded synthetic scenario components.

Stands in for a real installation's measurements: a diurnal PV bell with
multiplicative cloud noise, a workstation-style load driven by scheduled
compute jobs, and job announcements as context records.  The two-tier
(peak/off-peak) tariff the grid prices against is
:class:`cemsim.models.grid.PriceSchedule`, which prices every day itself.

Determinism contract: identical seed and config produce bitwise-identical
series.  Per-sample noise is derived from blake2b over (seed, channel,
timestamp), so a value depends only on the sampled instant, never on how
many steps were taken to reach it.

blake2b comes from CPython's built-in :mod:`_blake2`, which is the very
function :mod:`hashlib` re-exports (``hashlib.blake2b is
_blake2.blake2b``), so the digests are the same.  ``_blake2`` is cheap
to import, while importing :mod:`hashlib` initialises OpenSSL, which no
noise sample needs.

:class:`JobEvent` is a :class:`~cemsim.core.StepRecord` tuple and
:class:`SyntheticScenarioConfig`, whose job table every load step reads,
a :class:`~cemsim.core.SlotRecord`; neither is a dataclass, so building
a synthetic scenario imports no :mod:`dataclasses`.
"""

from __future__ import annotations

import math
import random
from _blake2 import blake2b
from bisect import bisect_right, insort
from collections import namedtuple

from ..core import (
    NS_PER_DAY,
    NS_PER_HOUR,
    Context,
    ContextIndex,
    ContextRecord,
    Load,
    LoadStepResult,
    PowerSource,
    PowerSourceStepResult,
    SlotRecord,
    StepRecord,
    _require,
    context_query,
)


def unit_noise(seed: int, channel: str, t_ns: int) -> float:
    """Deterministic pseudo-random value in [0, 1) for (seed, channel, t)."""
    key = f"{seed}:{channel}:{t_ns}".encode()
    digest = blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0**64


class JobEvent(
    StepRecord,
    namedtuple("JobEvent", "begins_at_ns ends_at_ns description true_effort watts_per_effort"),
):
    """A scheduled compute job contributing load over its window."""

    __slots__ = ()

    def __new__(
        cls,
        begins_at_ns: int,
        ends_at_ns: int,
        description: str,
        true_effort: float,
        watts_per_effort: float,
    ) -> JobEvent:
        _require(begins_at_ns < ends_at_ns, "job must begin before it ends")
        _require(true_effort >= 0.0, "true_effort must be >= 0")
        _require(watts_per_effort >= 0.0, "watts_per_effort must be >= 0")
        return tuple.__new__(cls, (begins_at_ns, ends_at_ns, description, true_effort, watts_per_effort))


class SyntheticScenarioConfig(SlotRecord):
    """Everything the synthetic generator needs for one scenario.

    The job table is derived once, when the config is built:
    ``_job_edges`` holds every instant a job begins or ends, sorted, and
    ``_job_power[i]`` the base load plus the active jobs' power over
    ``[_job_edges[i - 1], _job_edges[i])`` (the base load alone before the
    first edge and from the last one on).
    """

    _fields = (
        "seed",
        "pv_peak_power",
        "pv_noise_amplitude",
        "base_load",
        "job_events",
        "load_noise_amplitude",
        "pv_voltage",
        "sunrise_hour",
        "sunset_hour",
    )
    __slots__ = _fields + ("_job_edges", "_job_power")

    def __init__(
        self,
        seed: int = 0,
        pv_peak_power: float = 600.0,
        pv_noise_amplitude: float = 0.1,
        base_load: float = 800.0,
        job_events: tuple[JobEvent, ...] = (),
        load_noise_amplitude: float = 0.0,
        pv_voltage: float = 400.0,
        sunrise_hour: float = 6.0,
        sunset_hour: float = 18.0,
    ) -> None:
        _require(pv_peak_power >= 0.0, "pv_peak_power must be >= 0")
        _require(0.0 <= pv_noise_amplitude <= 1.0, "pv_noise_amplitude must be in [0, 1]")
        _require(base_load >= 0.0, "base_load must be >= 0")
        _require(0.0 <= load_noise_amplitude <= 1.0, "load_noise_amplitude must be in [0, 1]")
        _require(pv_voltage > 0.0, "pv_voltage must be > 0")
        _require(
            0.0 <= sunrise_hour < sunset_hour <= 24.0,
            "need 0 <= sunrise_hour < sunset_hour <= 24",
        )
        jobs = tuple(job_events)
        edges = sorted({job.begins_at_ns for job in jobs} | {job.ends_at_ns for job in jobs})
        self._set_slots(
            seed,
            pv_peak_power,
            pv_noise_amplitude,
            base_load,
            jobs,
            load_noise_amplitude,
            pv_voltage,
            sunrise_hour,
            sunset_hour,
            tuple(edges),
            _job_power_table(base_load, jobs, edges),
        )


def _job_power_table(base_load: float, jobs: tuple[JobEvent, ...], edges: list[int]) -> tuple[float, ...]:
    """Base load plus active jobs' power on each segment between ``edges``.

    One sweep over the edges: jobs join an active list of job indices as
    they begin and leave it as they end.  The list stays in job order, so
    each segment's sum adds the same terms in the same order as a loop
    over every job testing ``begins_at_ns <= t < ends_at_ns``, bit for bit.
    """
    by_begin = sorted(range(len(jobs)), key=lambda i: jobs[i].begins_at_ns)
    power_table = [base_load]
    active: list[int] = []
    joined = 0
    for edge in edges:
        active = [i for i in active if jobs[i].ends_at_ns > edge]
        while joined < len(by_begin) and jobs[by_begin[joined]].begins_at_ns <= edge:
            insort(active, by_begin[joined])
            joined += 1
        power = base_load
        for i in active:
            power += jobs[i].true_effort * jobs[i].watts_per_effort
        power_table.append(power)
    return tuple(power_table)


# ---------------------------------------------------------------------------
# Pure sampling functions (behind each synthetic component's ``power_at``,
# which forecasts read too, so a perfect forecast is the realized series)
# ---------------------------------------------------------------------------


def hour_of_day(t_ns: int) -> float:
    return (t_ns % NS_PER_DAY) / NS_PER_HOUR


def pv_power_at(config: SyntheticScenarioConfig, t_ns: int) -> float:
    """PV power at an instant: cosine bell over daylight, cloud-dimmed."""
    hour = (t_ns % NS_PER_DAY) / NS_PER_HOUR
    if hour <= config.sunrise_hour or hour >= config.sunset_hour:
        return 0.0
    span = config.sunset_hour - config.sunrise_hour
    power = config.pv_peak_power * math.cos(math.pi * (hour - 12.0) / span)
    if power <= 0.0:
        return 0.0
    if config.pv_noise_amplitude > 0.0:
        dimming = config.pv_noise_amplitude * unit_noise(config.seed, "pv", t_ns)
        power *= 1.0 - dimming
    return power


def load_power_at(config: SyntheticScenarioConfig, t_ns: int) -> float:
    """Load power at an instant: base plus active jobs plus noise.

    Base plus jobs is one bisect into the config's job table, so a step
    costs the same however many jobs the horizon holds.  Like every
    sampling function here it is plain Python: the synthetic components
    never import numpy.
    """
    power = config._job_power[bisect_right(config._job_edges, t_ns)]
    if config.load_noise_amplitude > 0.0:
        wobble = 2.0 * unit_noise(config.seed, "load", t_ns) - 1.0
        power += config.load_noise_amplitude * config.base_load * wobble
        if power < 0.0:
            return 0.0
    return power


# ---------------------------------------------------------------------------
# Job and context generation
# ---------------------------------------------------------------------------

# Description templates keyed by the effort their wording conveys.  The
# text is what a forecaster sees; true_effort is what the load actually
# draws.  Keeping them consistent is what makes language context useful.
JOB_TEMPLATES: dict[float, tuple[str, ...]] = {
    1.0: (
        "Routine telemetry archive rotation",
        "Nightly documentation refresh",
    ),
    2.0: (
        "Incremental build of the firmware tree",
        "Multi-core regression smoke test",
    ),
    3.0: (
        "CPU-intensive robustness sweep",
        "CPU-intensive geometry verification pass",
    ),
    4.0: (
        "CPU-intensive, multi-core numeric robustness test",
        "Extending test to 48h (multi-core numeric robustness)",
    ),
    5.0: (
        "GPU training run with a nightly build step",
        "GPU inference benchmark plus full compile",
    ),
    6.0: (
        "48h CPU-intensive robustness test",
        "GPU training sweep with multi-core preprocessing and build",
    ),
    8.0: (
        "48h GPU model training campaign",
        "48h GPU hyperparameter sweep",
    ),
}


#: (earliest, latest) hour of the day a generated job begins, and
#: (shortest, longest) duration in hours; both drawn uniformly.
JOB_START_HOURS = (7.0, 19.0)
JOB_DURATION_HOURS = (2.0, 6.0)


def generate_job_events(
    seed: int,
    day_count: int,
    start_ns: int = 0,
    jobs_per_day: int = 2,
    watts_per_effort: float = 250.0,
) -> tuple[JobEvent, ...]:
    """Seeded random jobs, one batch per day, drawn from the template table."""
    rng = random.Random(seed)
    efforts = sorted(JOB_TEMPLATES)
    events = []
    for day in range(day_count):
        for _ in range(jobs_per_day):
            effort = rng.choice(efforts)
            text = rng.choice(JOB_TEMPLATES[effort])
            begin_hour = rng.uniform(*JOB_START_HOURS)
            duration_h = rng.uniform(*JOB_DURATION_HOURS)
            begins = start_ns + day * NS_PER_DAY + int(begin_hour * NS_PER_HOUR)
            ends = begins + int(duration_h * NS_PER_HOUR)
            events.append(
                JobEvent(
                    begins_at_ns=begins,
                    ends_at_ns=ends,
                    description=text,
                    true_effort=effort,
                    watts_per_effort=watts_per_effort,
                )
            )
    return tuple(events)


def context_records_for_jobs(
    job_events: tuple[JobEvent, ...],
    subsystem_id: int = 1,
    announce_lead_ns: int = 10 * NS_PER_HOUR,
) -> tuple[ContextRecord, ...]:
    """One announcement record per job, recorded ``announce_lead_ns`` early.

    The payload carries the description text plus numeric hints (core and
    file counts) loosely derived from the job size; "files" is only
    present for the larger jobs, exercising missing-feature handling.
    """
    records = []
    for job in job_events:
        payload: dict[str, object] = {
            "text": job.description,
            "cores": int(round(2 * job.true_effort)),
        }
        if job.true_effort >= 3.0:
            payload["files"] = int(100 * job.true_effort)
        records.append(
            ContextRecord(
                recorded_at_ns=max(job.begins_at_ns - announce_lead_ns, 0),
                begins_at_ns=job.begins_at_ns,
                ends_at_ns=job.ends_at_ns,
                subsystem_id=subsystem_id,
                payload=payload,
            )
        )
    return tuple(records)


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


class SyntheticPowerSource(PowerSource):
    """PV array following the scenario's diurnal bell."""

    def __init__(self, config: SyntheticScenarioConfig) -> None:
        self._config = config
        # Night steps all produce this exact record; share one instance.
        self._night = PowerSourceStepResult(config.pv_voltage, 0.0, 0.0)

    def power_at(self, t_ns: int) -> float:
        """The PV power a step ending at ``t_ns`` reports."""
        return pv_power_at(self._config, t_ns)

    def step(self, start_ns: int, end_ns: int) -> PowerSourceStepResult:
        power = self.power_at(end_ns)
        if power == 0.0:
            return self._night
        voltage = self._config.pv_voltage
        return PowerSourceStepResult(voltage, power / voltage, power)


class SyntheticLoad(Load):
    """Workstation load: base draw plus scheduled jobs, unity power factor."""

    def __init__(self, config: SyntheticScenarioConfig) -> None:
        self._config = config
        self._last = LoadStepResult(config.base_load, config.base_load)

    def power_at(self, t_ns: int) -> float:
        """The active power a step ending at ``t_ns`` requests."""
        return load_power_at(self._config, t_ns)

    def step(self, start_ns: int, end_ns: int) -> LoadStepResult:
        power = self.power_at(end_ns)
        # Demand is flat outside job windows; reuse the previous record
        # (immutable) instead of building an identical one every step.
        last = self._last
        if power == last.requested_active_power:
            return last
        result = LoadStepResult(power, power)
        self._last = result
        return result


class ScriptedContext(Context):
    """Plays back a fixed set of context records: generated job
    announcements or records ingested from a recording.

    Each step returns the records known at the step's *start* time whose
    interval has not yet ended, so a consumer acting on the step never
    sees notes from its own future.  The records sit in a
    :class:`~cemsim.core.ContextIndex`, so a step updates its answer only
    when its start crosses a record's ``recorded_at_ns`` or
    ``ends_at_ns``, and then only by the records whose visibility changed;
    a step anywhere else, backwards in time included, reuses the last
    answer.
    ``context_query`` is looked up as a module global on every step, so a
    wrapper installed on ``cemsim.models.synthetic.context_query`` sees
    every query.  Like every synthetic component, this one uses no numpy.
    """

    def __init__(self, records: tuple[ContextRecord, ...]) -> None:
        self._index = ContextIndex(records)

    @property
    def records(self) -> tuple[ContextRecord, ...]:
        return self._index.records

    def step(self, start_ns: int, end_ns: int) -> tuple[ContextRecord, ...]:
        return tuple(context_query(self._index, start_ns))
