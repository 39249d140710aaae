"""Seeded synthetic scenario components.

Stands in for a real installation's measurements: a diurnal PV bell with
multiplicative cloud noise, a workstation-style load driven by scheduled
compute jobs, and job announcements as context records.  The two-tier
(peak/off-peak) tariff the grid prices against is
:class:`cemsim.models.grid.PriceSchedule`, which prices every day itself.

Determinism contract: identical seed and parameters produce bitwise-identical
series.  Per-sample noise is derived from blake2b over (seed, channel,
timestamp), so a value depends only on the sampled instant, never on how
many steps were taken to reach it.

blake2b comes from CPython's built-in :mod:`_blake2`, which is the very
function :mod:`hashlib` re-exports (``hashlib.blake2b is
_blake2.blake2b``), so the digests are the same.  ``_blake2`` is cheap
to import, while importing :mod:`hashlib` initialises OpenSSL, which no
noise sample needs.

:class:`JobEvent` is a :class:`~cemsim.core.StepRecord` tuple, not a
dataclass, and each component holds its parameters (the load its job
table too) as plain attributes, so building a synthetic scenario imports
no :mod:`dataclasses`.  The parameters are named after the scenario
block keys: :class:`SyntheticPowerSource` takes the ``pv`` block's
(``peak_power_w``, ``noise_amplitude``, ``voltage``, ``sunrise_hour``,
``sunset_hour``) and :class:`SyntheticLoad` the ``load`` block's
``base_power_w`` and ``noise_amplitude``, with the jobs that the block's
``jobs_per_day`` and ``watts_per_effort`` draw as ``job_events``.  Every
parameter a scenario key feeds is a required keyword: its default is
written once, in the scenario's tables.
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
    StepRecord,
    _require,
    context_query,
)


def unit_noise(seed: int, channel: str, t_ns: int) -> float:
    """Deterministic pseudo-random value in [0, 1) for (seed, channel, t)."""
    key = f"{seed}:{channel}:{t_ns}".encode()
    digest = blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0**64


def hour_of_day(t_ns: int) -> float:
    return (t_ns % NS_PER_DAY) / NS_PER_HOUR


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


def _job_power_table(base_power_w: float, jobs: tuple[JobEvent, ...], edges: list[int]) -> tuple[float, ...]:
    """Base load plus active jobs' power on each segment between ``edges``.

    One sweep over the edges: jobs join an active list of job indices as
    they begin and leave it as they end.  The list stays in job order, so
    each segment's sum adds the same terms in the same order as a loop
    over every job testing ``begins_at_ns <= t < ends_at_ns``, bit for bit.
    """
    by_begin = sorted(range(len(jobs)), key=lambda i: jobs[i].begins_at_ns)
    power_table = [base_power_w]
    active: list[int] = []
    joined = 0
    for edge in edges:
        active = [i for i in active if jobs[i].ends_at_ns > edge]
        while joined < len(by_begin) and jobs[by_begin[joined]].begins_at_ns <= edge:
            insort(active, by_begin[joined])
            joined += 1
        power = base_power_w
        for i in active:
            power += jobs[i].true_effort * jobs[i].watts_per_effort
        power_table.append(power)
    return tuple(power_table)


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
    seed: int, day_count: int, *, start_ns: int, jobs_per_day: int, watts_per_effort: float
) -> tuple[JobEvent, ...]:
    """Seeded random jobs, one batch per day from ``start_ns``, drawn from
    the template table.

    ``jobs_per_day`` and ``watts_per_effort`` are the ``load`` block's
    keys and ``start_ns`` the scenario's start, each a required keyword;
    their defaults are written once, in the scenario's tables.
    """
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
    job_events: tuple[JobEvent, ...], *, announce_lead_ns: int, subsystem_id: int = 1
) -> tuple[ContextRecord, ...]:
    """One announcement record per job, recorded ``announce_lead_ns`` early
    (never before time 0).  The lead is the ``context`` block's
    ``announce_lead_hours``, a required keyword whose default is written
    once, in ``scenario.BLOCK_TABLES``.

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
    """PV array following a diurnal bell, cloud-dimmed by seeded noise.

    Its parameters are the scenario's ``seed`` and the ``pv`` block's keys,
    each a required keyword; their defaults are written once, in the
    scenario's tables.
    """

    def __init__(
        self,
        *,
        seed: int,
        peak_power_w: float,
        noise_amplitude: float,
        voltage: float,
        sunrise_hour: float,
        sunset_hour: float,
    ) -> None:
        _require(peak_power_w >= 0.0, "peak_power_w must be >= 0")
        _require(0.0 <= noise_amplitude <= 1.0, "noise_amplitude must be in [0, 1]")
        _require(voltage > 0.0, "voltage must be > 0")
        _require(
            0.0 <= sunrise_hour < sunset_hour <= 24.0,
            "need 0 <= sunrise_hour < sunset_hour <= 24",
        )
        self.seed = seed
        self.peak_power_w = peak_power_w
        self.noise_amplitude = noise_amplitude
        self.voltage = voltage
        self.sunrise_hour = sunrise_hour
        self.sunset_hour = sunset_hour
        # Night steps all produce this exact record; share one instance.
        self._night = PowerSourceStepResult(voltage, 0.0, 0.0)

    def power_at(self, t_ns: int) -> float:
        """PV power at an instant: cosine bell over daylight, cloud-dimmed.

        It is what a step ending at ``t_ns`` reports, and what forecasts
        read, so a perfect forecast is the realized series.
        """
        hour = (t_ns % NS_PER_DAY) / NS_PER_HOUR
        if hour <= self.sunrise_hour or hour >= self.sunset_hour:
            return 0.0
        span = self.sunset_hour - self.sunrise_hour
        power = self.peak_power_w * math.cos(math.pi * (hour - 12.0) / span)
        if power <= 0.0:
            return 0.0
        if self.noise_amplitude > 0.0:
            dimming = self.noise_amplitude * unit_noise(self.seed, "pv", t_ns)
            power *= 1.0 - dimming
        return power

    def step(self, start_ns: int, end_ns: int) -> PowerSourceStepResult:
        power = self.power_at(end_ns)
        if power == 0.0:
            return self._night
        voltage = self.voltage
        return PowerSourceStepResult(voltage, power / voltage, power)


class SyntheticLoad(Load):
    """Workstation load: base draw plus scheduled jobs, unity power factor.

    Its parameters are the scenario's ``seed``, the ``load`` block's
    ``base_power_w`` and ``noise_amplitude``, and the ``job_events`` its
    ``jobs_per_day`` and ``watts_per_effort`` draw, each a required
    keyword; their defaults are written once, in the scenario's tables.

    The job table is derived once, when the load is built:
    ``_job_edges`` holds every instant a job begins or ends, sorted, and
    ``_job_power[i]`` the base load plus the active jobs' power over
    ``[_job_edges[i - 1], _job_edges[i])`` (the base load alone before the
    first edge and from the last one on).
    """

    def __init__(
        self, *, seed: int, base_power_w: float, job_events: tuple[JobEvent, ...], noise_amplitude: float
    ) -> None:
        _require(base_power_w >= 0.0, "base_power_w must be >= 0")
        _require(0.0 <= noise_amplitude <= 1.0, "noise_amplitude must be in [0, 1]")
        jobs = tuple(job_events)
        edges = sorted({job.begins_at_ns for job in jobs} | {job.ends_at_ns for job in jobs})
        self.seed = seed
        self.base_power_w = base_power_w
        self.job_events = jobs
        self.noise_amplitude = noise_amplitude
        self._job_edges = tuple(edges)
        self._job_power = _job_power_table(base_power_w, jobs, edges)
        self._last = LoadStepResult(base_power_w, base_power_w)

    def power_at(self, t_ns: int) -> float:
        """Load power at an instant: base plus active jobs plus noise.

        It is the active power a step ending at ``t_ns`` requests.  Base
        plus jobs is one bisect into the job table, so a step costs the
        same however many jobs the horizon holds.  Like every synthetic
        component it is plain Python and never imports numpy.
        """
        power = self._job_power[bisect_right(self._job_edges, t_ns)]
        if self.noise_amplitude > 0.0:
            wobble = 2.0 * unit_noise(self.seed, "load", t_ns) - 1.0
            power += self.noise_amplitude * self.base_power_w * wobble
            if power < 0.0:
                return 0.0
        return power

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

    def step(self, start_ns: int, end_ns: int) -> tuple[ContextRecord, ...]:
        return tuple(context_query(self._index, start_ns))
