"""Scenario files: schema validation and simulation assembly.

A scenario is a JSON document choosing an implementation per component
(``synthetic`` | ``replay`` | ``linear`` ...), their parameter blocks, the
start time, the horizon, the step length, and the grid's tariff.  Unknown
keys anywhere are rejected so typos fail loudly, and referenced recording
files must exist before anything runs.

Start, horizon and step are whole seconds.  :class:`Scenario` hands them
to the simulator as the int nanoseconds it steps on (``start_ns``,
``horizon_ns``, ``step_ns``); there is no separate tick size.

Every key is written once, in a table mapping it to its parser, default
and bounds.  ``DOCUMENT_TABLE`` holds the top-level keys and, nested, the
forecast block's.  Each component block (pv, load, battery, grid, context,
inverter, and the forecast block's effort_estimator) names a ``kind``: its
entry there is its default kind, and ``BLOCK_TABLES`` holds one table per
block kind.  One walk checks every block against its table and writes
every default back, so a validated block holds exactly its table's keys
and assembly reads plain ``block[key]``.  A pair of keys that must be
ordered (sunrise before sunset, peak start before peak end, ``soc_min``
below ``soc_max``) is checked once after the walk, in ``_ORDERED_KEYS``.
The ``--seed`` and
``--step-seconds`` overrides are written into the document before the
walk.

The tables are the one home of every default: no component constructor
or generator has a default for a parameter a key feeds, so a default
changes in one place.  Bounds are checked twice on purpose: the public
constructors, which library users call directly, check their parameters
again, and the property
``test_the_tables_bounds_lie_within_the_constructors_bounds``
(``tests/test_scenario.py``) builds every value a table accepts, so no
constructor is stricter than its table.

The same scenario can be assembled under different dispatch strategies:

* ``default``        - plain PV-first dispatch.
* ``mpc-perfect``    - receding-horizon purchases with oracle forecasts.
* ``mpc-context``    - forecasts from a predictor that reads context
                       records (announced jobs), trained on a separate
                       seeded scenario.
* ``mpc-nocontext``  - same, but the predictor only sees hour-of-day.

Forecasts read the series the pv and load components step on, synthetic
or recorded alike: the oracle reads both, the predictors read pv.  So
every MPC strategy runs on a recorded pv block, and ``mpc-perfect`` on a
recorded load too; the predictors are trained on load samples drawn from
the generator, so they need a synthetic load block.

Every MPC strategy plans on windows from one :func:`forecast_provider`,
which is also the forecast-window cache; the strategies differ only in
the load it is given: the load component's own series for the oracle, a
predictor reading the known context records for the others.  Their
prices come from the grid's tariff, which :func:`price_schedule` builds
straight from the priced grid block: a
:class:`~cemsim.models.grid.PriceSchedule` prices every instant by its
time of day, so nothing is sized to the days the horizon touches.

The planner (:mod:`cemsim.control`) is imported only where a bundle
plans: the MPC branch of :func:`build_bundle` and
:func:`forecast_provider`.  A ``default`` set-up, which every ``run``
builds, never steps a controller, so it does not pay the planner's
import.  :class:`Scenario` and :class:`SimulationBundle` are
:class:`~cemsim.core.StepRecord` tuples, and the components a set-up
builds hold their parameters as plain attributes or in records, so no
set-up, planning or not, imports :mod:`dataclasses`.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from functools import lru_cache, partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from .core import (
    ConfigurationError,
    ContextIndex,
    ContextRecord,
    INT64_MAX,
    NS_PER_DAY,
    NS_PER_HOUR,
    NS_PER_SECOND,
    StepRecord,
    context_query,
)
from .engine import Simulator
from .forecast import (
    FAMILIES,
    MAX_TIMEOUT_S,
    EffortEstimator,
    estimate_effort_heuristic,
    estimate_effort_remote,
    train_predictor,
)
from .models.battery import BatteryLinear
from .models.grid import GridPriced, PriceSchedule
from .models.inverter import InverterPVFirst
from .models.synthetic import (
    ScriptedContext,
    SyntheticLoad,
    SyntheticPowerSource,
    context_records_for_jobs,
    generate_job_events,
)
from .replay import (
    CHANNELS,
    DEFAULT_BOUNDARY_TOLERANCE_S,
    ReplayBattery,
    ReplayGrid,
    ReplayLoad,
    ReplayPowerSource,
    TimeSeriesTable,
    ingest_context,
    ingest_timeseries,
)

if TYPE_CHECKING:
    from .control import ForecastWindow

STRATEGIES = ("default", "mpc-perfect", "mpc-context", "mpc-nocontext")

#: Seed offset separating the forecaster's training scenario from the
#: evaluated scenario, so predictors never see the data they are run on.
TRAIN_SEED_OFFSET = 1_000_003

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def _fail(where: str, message: str) -> None:
    raise ConfigurationError(f"{where}: {message}")


def _number(block: Mapping[str, Any], key: str, where: str, default=None, minimum=None, maximum=None, allow_none=False):
    value = block.get(key, default)
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"{key!r} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        _fail(where, f"{key!r} must be finite, got an integer too large for a float")
    if not math.isfinite(value):
        _fail(where, f"{key!r} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(where, f"{key!r} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        _fail(where, f"{key!r} must be <= {maximum}, got {value!r}")
    return value


def _integer(block: Mapping[str, Any], key: str, where: str, default=None, minimum=None, maximum=None):
    value = block.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, f"{key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(where, f"{key!r} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        _fail(where, f"{key!r} must be <= {maximum}, got {value!r}")
    return value


def _string(block: Mapping[str, Any], key: str, where: str, default=None, choices=None, allow_none=False):
    value = block.get(key, default)
    if value is None and allow_none:
        return None
    if not isinstance(value, str):
        _fail(where, f"{key!r} must be a string, got {value!r}")
    if choices is not None and value not in choices:
        _fail(where, f"{key!r} must be one of {sorted(choices)}, got {value!r}")
    return value


def checked_names(names: Any, known: tuple[str, ...], where: str) -> list[str]:
    """``names`` as a non-empty list of distinct members of ``known``.

    One check for every name list: the scenario's ``forecast.families`` and
    the comma-separated ``--strategies`` and ``--families`` flags.
    ConfigurationError names the first unknown or repeated entry.
    """
    if not isinstance(names, list) or not names:
        _fail(where, f"must be a non-empty list, got {names!r}")
    for index, name in enumerate(names):
        if name not in known:
            _fail(where, f"unknown name {name!r}; known: {list(known)}")
        if name in names[:index]:
            _fail(where, f"{name!r} is listed twice")
    return list(names)


def _fraction(block: Mapping[str, Any], key: str, where: str, default: float) -> float:
    value = _number(block, key, where, default=default)
    if not 0.0 < value < 1.0:
        _fail(where, f"{key!r} must be in (0, 1), got {value}")
    return value


def _names(block: Mapping[str, Any], key: str, where: str, known: tuple[str, ...]) -> list[str]:
    """:func:`checked_names` of ``block[key]``, every known name by default."""
    return checked_names(block.get(key, list(known)), known, f"{where}.{key}")


def _schema_version(block: Mapping[str, Any], key: str, where: str) -> int:
    version = block.get(key, SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        _fail(where, f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    return version


def checked_path(path: Path, what: str) -> Path:
    """``path``, if the file-system encoding can encode it; otherwise a
    ``ConfigurationError`` naming it as ``{what} {path}``, raised before
    any path operation fails on it (``données`` under an ASCII locale)."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise ConfigurationError(
            f"{what} {path} cannot be encoded in the file-system encoding ({sys.getfilesystemencoding()})"
        ) from None
    return path


def _resolve_file(block: Mapping[str, Any], key: str, where: str, base_dir: Path) -> str:
    """The path ``block[key]`` names, resolved against ``base_dir``; it must
    be a file.  A name the file-system encoding cannot encode is named as
    such (:func:`checked_path`), not reported missing."""
    path = Path(_string(block, key, where))
    if not path.is_absolute():
        path = base_dir / path
    checked_path(path, f"{where}: referenced file")
    if not path.is_file():
        _fail(where, f"referenced file does not exist: {path}")
    return str(path)


# ---------------------------------------------------------------------------
# Key tables
# ---------------------------------------------------------------------------

# A parser is called as parser(block, key, where); _resolve_file also takes
# the scenario's base directory.


def _replay_keys(subsystem_id: int) -> dict[str, Callable]:
    return {
        "file": _resolve_file,
        "subsystem_id": partial(_integer, default=subsystem_id),
        "boundary_tolerance_s": partial(_number, default=DEFAULT_BOUNDARY_TOLERANCE_S, minimum=0.0),
    }


# block name -> the subsystem id of its recorded channels (pv 1, load 2, ...)
_SUBSYSTEM_ID = {name.partition("_")[0]: subsystem_id for subsystem_id, name in CHANNELS}
_CAPACITY_J = partial(_number, default=1.8432e7, minimum=1e-9)  # 5.12 kWh (51.2 V x 100 Ah pack)
_OPTIONAL_LIMIT = partial(_number, default=None, minimum=0.0, allow_none=True)
# Maxima far above any microgrid (a gigawatt, a thousand per kWh) that keep
# every power, energy and cost a run sums finite.
_MAX_POWER_W = 1e9
_MAX_PRICE = 1e3

#: block name -> kind -> key -> parser(block, key, where)
BLOCK_TABLES: dict[str, dict[str, dict[str, Callable]]] = {
    "pv": {
        "synthetic": {
            "peak_power_w": partial(_number, default=600.0, minimum=0.0, maximum=_MAX_POWER_W),
            "noise_amplitude": partial(_number, default=0.1, minimum=0.0, maximum=1.0),
            "voltage": partial(_number, default=400.0, minimum=1e-9),
            "sunrise_hour": partial(_number, default=6.0, minimum=0.0, maximum=24.0),
            "sunset_hour": partial(_number, default=18.0, minimum=0.0, maximum=24.0),
        },
        "replay": _replay_keys(_SUBSYSTEM_ID["pv"]),
    },
    "load": {
        "synthetic": {
            "base_power_w": partial(_number, default=800.0, minimum=0.0, maximum=_MAX_POWER_W),
            "noise_amplitude": partial(_number, default=0.0, minimum=0.0, maximum=1.0),
            # 50x the default; each job is drawn, announced and stepped
            "jobs_per_day": partial(_integer, default=2, minimum=0, maximum=100),
            "watts_per_effort": partial(_number, default=250.0, minimum=0.0, maximum=_MAX_POWER_W),
        },
        "replay": _replay_keys(_SUBSYSTEM_ID["load"]),
    },
    "battery": {
        "linear": {
            "capacity_j": _CAPACITY_J,
            "eta_charge": partial(_number, default=0.95, minimum=1e-9, maximum=1.0),
            "eta_discharge": partial(_number, default=0.95, minimum=1e-9, maximum=1.0),
            "nominal_voltage": partial(_number, default=51.2, minimum=1e-9),
            "initial_soc": partial(_number, default=0.5, minimum=0.0, maximum=1.0),
        },
        "replay": {**_replay_keys(_SUBSYSTEM_ID["battery"]), "capacity_j": _CAPACITY_J},
    },
    "grid": {
        "priced": {
            "off_peak_price": partial(_number, default=0.10, minimum=0.0, maximum=_MAX_PRICE),
            "peak_price": partial(_number, default=0.40, minimum=0.0, maximum=_MAX_PRICE),
            "peak_start_hour": partial(_integer, default=8, minimum=0, maximum=24),
            "peak_end_hour": partial(_integer, default=20, minimum=0, maximum=24),
            "max_active_power_w": _OPTIONAL_LIMIT,
            "max_apparent_power_va": _OPTIONAL_LIMIT,
        },
        "replay": _replay_keys(_SUBSYSTEM_ID["grid"]),
    },
    "context": {
        "synthetic": {
            "announce_lead_hours": partial(_number, default=10.0, minimum=0.0, maximum=INT64_MAX / NS_PER_HOUR)
        },
        "replay": {"file": _resolve_file},
        "none": {},
    },
    "inverter": {
        "pv-first": {
            "eta_pv_to_batt": partial(_number, default=0.97, minimum=1e-9, maximum=1.0),
            "eta_pv_to_load": partial(_number, default=0.95, minimum=1e-9, maximum=1.0),
            "eta_batt_to_load": partial(_number, default=0.95, minimum=1e-9, maximum=1.0),
            "max_charge_power_w": _OPTIONAL_LIMIT,
            "max_discharge_power_w": _OPTIONAL_LIMIT,
            "soc_min": partial(_number, default=0.1, minimum=0.0, maximum=1.0),
            "soc_max": partial(_number, default=1.0, minimum=0.0, maximum=1.0),
            "self_power_w": partial(_number, default=0.0, minimum=0.0, maximum=_MAX_POWER_W),
        },
    },
    "forecast.effort_estimator": {
        "heuristic": {},
        "remote": {"url": _string, "timeout_s": partial(_number, default=10.0, minimum=1e-9, maximum=MAX_TIMEOUT_S)},
    },
}

#: (block, low key, high key): each pair of bounds a block's kind may hold,
#: checked after the walk, so a pair out of order fails at load naming both
_ORDERED_KEYS = (
    ("pv", "sunrise_hour", "sunset_hour"),
    ("grid", "peak_start_hour", "peak_end_hour"),
    ("inverter", "soc_min", "soc_max"),
)

#: scenario key -> parser.  A kinded block's entry is its default kind (its
#: kinds are in BLOCK_TABLES); the forecast block's entry is its key table.
DOCUMENT_TABLE: dict[str, Any] = {
    "schema_version": _schema_version,
    "seed": partial(_integer, default=0),
    "start_epoch_seconds": partial(_integer, default=0, minimum=0),
    "horizon_seconds": partial(_integer, default=86_400, minimum=1),
    "step_seconds": partial(_integer, default=120, minimum=1),
    "output_dir": partial(_string, default=None, allow_none=True),
    "pv": "synthetic",
    "load": "synthetic",
    "battery": "linear",
    "grid": "priced",
    "context": "synthetic",  # "none" beside a replay load (scenario_from_dict)
    "inverter": "pv-first",
    "forecast": {
        # a year: training samples train_days x 86400 / step_seconds steps
        "train_days": partial(_integer, default=3, minimum=1, maximum=366),
        "train_fraction": partial(_fraction, default=0.7),
        # forecast-eval trains and scores every family once per resample
        "resamples": partial(_integer, default=5, minimum=1, maximum=100),
        "families": partial(_names, known=FAMILIES),
        "context_family": partial(_string, default="combined", choices=set(FAMILIES) - {"none"}),
        "effort_estimator": "heuristic",
    },
}


# ---------------------------------------------------------------------------
# Scenario model
# ---------------------------------------------------------------------------


class Scenario(
    StepRecord,
    namedtuple(
        "Scenario",
        "seed start_ns horizon_seconds step_seconds pv load battery grid context inverter forecast"
        " base_dir output_dir",
        defaults=(None,),
    ),
):
    """A validated scenario: blocks are plain dicts holding every key of
    their kind's table, defaults filled.

    seed, start_ns, horizon_seconds, step_seconds : ints.
    pv, load, battery, grid, context, inverter, forecast : the blocks.
    base_dir : the directory relative recording paths resolve against.
    output_dir : the document's ``output_dir``, or None.
    """

    __slots__ = ()

    @property
    def step_ns(self) -> int:
        return self.step_seconds * NS_PER_SECOND

    @property
    def horizon_ns(self) -> int:
        return self.horizon_seconds * NS_PER_SECOND

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.horizon_ns

    @property
    def day_count(self) -> int:
        return max(1, -(-self.horizon_seconds // 86_400))


def _fields(block: Any, table: Mapping[str, Any], where: str, base_dir: Path) -> dict:
    """The block ``where`` walked against its key ``table``: an object (null
    reads as empty) with no key outside the table, every key parsed and its
    default written back.  A string entry is a kinded block's default kind,
    a dict entry a nested block's table; each is walked as ``where.key``
    (plain ``key`` at the top of the document)."""
    if block is None:
        block = {}
    if not isinstance(block, Mapping):
        _fail(where, f"must be an object, got {block!r}")
    unknown = sorted(set(block) - set(table))
    if unknown:
        _fail(where, f"unknown keys {unknown}; allowed: {sorted(table)}")
    fields = {}
    for key, entry in table.items():
        name = key if where == "scenario" else f"{where}.{key}"
        if isinstance(entry, str):
            fields[key] = _validated_block(block.get(key), name, entry, base_dir)
        elif isinstance(entry, dict):
            fields[key] = _fields(block.get(key), entry, name, base_dir)
        elif entry is _resolve_file:
            fields[key] = entry(block, key, where, base_dir)
        else:
            fields[key] = entry(block, key, where)
    return fields


def _validated_block(block: Any, where: str, default_kind: str, base_dir: Path) -> dict:
    """The kinded block ``where`` walked against its kind's table, the kind
    being ``default_kind`` unless the block names one."""
    kinds = BLOCK_TABLES[where]
    kind = partial(_string, default=default_kind, choices=set(kinds))
    table = kinds[kind(block, "kind", where) if isinstance(block, Mapping) else default_kind]
    return _fields(block, {"kind": kind, **table}, where, base_dir)


def scenario_from_dict(
    data: Mapping[str, Any],
    base_dir: Path,
    seed_override: int | None = None,
    step_seconds_override: int | None = None,
) -> Scenario:
    """Validate a parsed scenario document and fill in defaults.

    The overrides (the ``--seed`` and ``--step-seconds`` flags) are edits
    of the document: each replaces its key before the walk, so it passes
    the same checks with the same messages as the key it replaces.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError("scenario document must be a JSON object")
    overrides = {"seed": seed_override, "step_seconds": step_seconds_override}
    data = {**data, **{key: value for key, value in overrides.items() if value is not None}}
    fields = _fields(data, DOCUMENT_TABLE, "scenario", base_dir)
    del fields["schema_version"]
    for block, low, high in _ORDERED_KEYS:
        values = fields[block]
        if low in values and not values[low] < values[high]:
            _fail(block, f"{low!r} must be < {high!r}, got {values[low]!r} and {values[high]!r}")

    # a replay load announces no jobs, so its context defaults to none
    if fields["load"]["kind"] != "synthetic":
        fields["context"] = _validated_block(data.get("context"), "context", "none", base_dir)
        if fields["context"]["kind"] == "synthetic":
            _fail("context", "synthetic context needs a synthetic load (it announces its jobs)")
    start_seconds = fields.pop("start_epoch_seconds")
    scenario = Scenario(start_ns=start_seconds * NS_PER_SECOND, base_dir=base_dir, **fields)
    # Every time a run writes must fit int64: the steps end by the horizon's
    # end, and generated jobs by 1 h past the last day the horizon touches.
    latest = (INT64_MAX - scenario.day_count * NS_PER_DAY - NS_PER_HOUR) // NS_PER_SECOND
    if start_seconds > latest:
        _fail("scenario", f"'start_epoch_seconds' must be <= {latest} for times to fit int64 ns, got {start_seconds}")
    return scenario


def load_scenario(
    path,
    seed_override: int | None = None,
    step_seconds_override: int | None = None,
) -> Scenario:
    """Read, parse and validate a scenario JSON file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"scenario file does not exist: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"scenario file {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data, path.parent, seed_override, step_seconds_override)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _synthetic_load(scenario: Scenario, seed: int, day_count: int) -> SyntheticLoad:
    """The scenario's synthetic load re-seeded with ``seed``, its jobs
    drawn for ``day_count`` days from the scenario's start."""
    block = scenario.load
    jobs = generate_job_events(
        seed,
        day_count,
        start_ns=scenario.start_ns,
        jobs_per_day=block["jobs_per_day"],
        watts_per_effort=block["watts_per_effort"],
    )
    return SyntheticLoad(
        seed=seed, base_power_w=block["base_power_w"], job_events=jobs, noise_amplitude=block["noise_amplitude"]
    )


def synthetic_load_samples(
    scenario: Scenario,
    seed: int,
    day_count: int,
    count: int,
) -> tuple[tuple[ContextRecord, ...], list[int], list[float]]:
    """Job announcements and load samples of the scenario's load generator
    re-seeded with ``seed``.

    Jobs are drawn for ``day_count`` days from the scenario's start; the
    load is sampled at the end of each of the first ``count`` steps.
    Predictor training and ``forecast-eval`` draw their samples here, so
    both need a synthetic load block.
    """
    kind = scenario.load["kind"]
    if kind != "synthetic":
        _fail("load", f"predictor training and forecast-eval sample the load generator, so kind must be 'synthetic', got {kind!r}")
    load = _synthetic_load(scenario, seed, day_count)
    step_ns = scenario.step_ns
    times = [scenario.start_ns + (i + 1) * step_ns for i in range(count)]
    loads = [load.power_at(t) for t in times]
    # Any lead gives the same samples: a sample reads only the records
    # active at its own time, which every lead >= 0 has already announced.
    return context_records_for_jobs(load.job_events, announce_lead_ns=0), times, loads


def price_schedule(scenario: Scenario) -> PriceSchedule | None:
    """The priced grid block's two-tier tariff, which prices every instant."""
    if scenario.grid["kind"] != "priced":
        return None
    tariff = ("off_peak_price", "peak_price", "peak_start_hour", "peak_end_hour")
    return PriceSchedule(**{key: scenario.grid[key] for key in tariff})


def effort_estimator(scenario: Scenario) -> EffortEstimator:
    """The scenario's effort estimator, memoized per record text.

    Training and the forecast provider of one bundle share the returned
    callable, so each distinct job text is scored once (one POST for a
    remote estimator) however many samples and windows read it.
    """
    spec = scenario.forecast["effort_estimator"]
    if spec["kind"] == "heuristic":
        estimate = estimate_effort_heuristic
    else:
        url = spec["url"]
        timeout_s = spec["timeout_s"]

        def estimate(text: str) -> float:
            return estimate_effort_remote(text, url, timeout_s)

    return lru_cache(maxsize=None)(estimate)


class SimulationBundle(
    StepRecord, namedtuple("SimulationBundle", "scenario strategy simulator records controller")
):
    """Everything a runner needs: the simulator plus scenario artifacts.

    scenario, strategy (a name of ``STRATEGIES``), simulator, the context
    records the plant plays, which the CLI writes, and the controller
    (None for ``default``), which the CLI reads the first plan from.  The
    price schedule is the priced grid's own ``schedule``.  Unhashable,
    like the mutable dataclass it replaces (its scenario holds dicts
    anyway).
    """

    __slots__ = ()
    __hash__ = None


#: The recordings ingested while a ``shared_recordings()`` block is open,
#: by (ingest, resolved path); None outside one, when each bundle ingests
#: its own.
_shared: dict[tuple[Callable, str], Any] | None = None


@contextmanager
def shared_recordings() -> Iterator[None]:
    """Within the block, every bundle built reads each recording, a
    channel table or a context file, from one ingest per resolved path,
    made by the first bundle that replays it.

    ``compare`` builds one bundle per strategy from one scenario, so it
    ingests each recording once.  Channels and context records are
    read-only, and the cursor and the answer a lookup leaves on a time
    axis are hints keyed on the time, so sharing cannot change a value.
    The recordings are a scope, not a ``build_bundle`` argument, because
    ``bench/trace_cli.py`` replaces ``build_bundle`` with a wrapper taking
    (scenario, strategy) alone (ROADMAP item 13).
    The block restores the state it found, so blocks nest, an inner one
    sharing the outer recordings, and the shared dict ends with its block.
    """
    global _shared
    outer = _shared
    if outer is None:
        _shared = {}
    try:
        yield
    finally:
        _shared = outer


def _ingested(recordings: dict, ingest: Callable[[str], Any], file: str) -> Any:
    """``ingest(file)``, made once per bundle, or once per
    ``shared_recordings()`` block.  ``recordings`` is keyed by the ingest
    too, so a table and a context file never collide.  The callers pass
    the module-global ``ingest_timeseries`` or ``ingest_context``, looked
    up at the call, so a wrapper installed on either sees every ingest."""
    key = (ingest, file)
    if key not in recordings:
        recordings[key] = ingest(file)
    return recordings[key]


def _recorded(block: Mapping[str, Any], recordings: dict) -> tuple[TimeSeriesTable, int, float]:
    """A replay block's (recording, subsystem id, boundary tolerance): the
    leading arguments of every replay component."""
    table = _ingested(recordings, ingest_timeseries, block["file"])
    return table, block["subsystem_id"], block["boundary_tolerance_s"]


def _parameters(block: Mapping[str, Any]) -> dict[str, Any]:
    """A component block without its ``kind``: the pv, battery and inverter
    blocks' keys are their components' parameters, under the same names."""
    return {key: value for key, value in block.items() if key != "kind"}


def forecast_provider(
    load_at: Callable[[list[ContextRecord], int], float],
    pv_at: Callable[[int], float],
    schedule: PriceSchedule,
    end_ns: int,
    step_ns: int,
    records: Iterable[ContextRecord],
) -> Callable[[int], ForecastWindow | None]:
    """Forecast windows to the planning bound: expected load, oracle PV and
    scheduled prices.

    ``load_at(known, t_ns)`` is the expected load for the step ending at
    ``t_ns``, given the records ``known`` at ``now``: those ``context_query``
    returns at ``now`` from a :class:`ContextIndex` over ``records``, so a
    record recorded after ``now`` never reaches a forecast.  The oracle
    (``mpc-perfect``) passes the load component's ``power_at`` and no
    records, so its forecast equals the realized series by construction;
    the predictors pass their clamped prediction and the plant's records.
    ``pv_at`` maps a step's end time to the power the pv component reports
    for that step: the ``power_at`` of the component the plant steps on,
    synthetic or recorded.  Prices are the schedule's, sampled at each
    step's start.

    The window at ``now`` covers the ``count`` steps from ``now`` to the
    planning bound: the earlier of the next day boundary and the horizon
    end (None when no whole step is left).  Each value depends only on its
    step's time and the known records, never on ``now``, so the window
    built at one ``now`` holds, from a later ``now``'s offset on, what a
    fresh computation there would give.

    So the forecast-window cache keeps one window object per planning bound
    and known-record set.  The window is returned as it is while the bound
    and the identities of the known records hold.  A new bound (a new day),
    or a ``now`` the window does not cover on its step grid, builds a new
    window from ``now``.  A new known set (a record became known or
    expired) recomputes the series from ``now``: when it equals the
    window's tail at ``now``, the window object is kept, else a new window
    is built.  So a record that changes no value of the day (one that
    expired, or one for a later day) keeps the window object, one object
    always means one set of values, and a controller can tell an unrevised
    forecast by identity.
    """
    from .control import ForecastWindow

    index = ContextIndex(records)
    window = ForecastWindow(0, step_ns, (), (), ())
    # the planning bound and the known records' identities the window holds
    held_bound: int | None = None
    held_ids: tuple[int, ...] = ()

    def provider(now_ns: int) -> ForecastWindow | None:
        nonlocal window, held_bound, held_ids
        known = context_query(index, now_ns)
        bound = min((now_ns // NS_PER_DAY + 1) * NS_PER_DAY, end_ns)
        count = (bound - now_ns) // step_ns
        if count < 1:
            return None
        ids = tuple(map(id, known))
        offset, misaligned = divmod(now_ns - window.start_ns, step_ns)
        covered = bound == held_bound and offset >= 0 and not misaligned
        if covered and ids == held_ids:
            return window
        times = [now_ns + i * step_ns for i in range(1, count + 1)]
        series = (
            tuple([load_at(known, t) for t in times]),
            tuple(map(pv_at, times)),
            tuple(schedule.prices_for_window(now_ns, step_ns, count)),
        )
        if not covered or series != (window.load_w[offset:], window.pv_w[offset:], window.prices[offset:]):
            window = ForecastWindow(now_ns, step_ns, *series)
        held_bound, held_ids = bound, ids
        return window

    return provider


def training_series(
    scenario: Scenario,
) -> tuple[tuple[ContextRecord, ...], list[int], list[float]]:
    """Load samples from a derived-seed scenario for predictor training.

    The training world shares the scenario's load generator settings but
    runs on seed + TRAIN_SEED_OFFSET with its own jobs, so the fitted model
    has never seen the evaluated timeline.
    """
    train_days = scenario.forecast["train_days"]
    return synthetic_load_samples(
        scenario,
        scenario.seed + TRAIN_SEED_OFFSET,
        train_days,
        train_days * NS_PER_DAY // scenario.step_ns,
    )


def build_bundle(scenario: Scenario, strategy: str = "default") -> SimulationBundle:
    """Assemble a ready-to-run simulator for one scenario and strategy."""
    if strategy not in STRATEGIES:
        raise ConfigurationError(f"unknown strategy {strategy!r}; known: {list(STRATEGIES)}")
    recordings = {} if _shared is None else _shared
    schedule = price_schedule(scenario)

    # Every component takes its block's keys under their own names: the pv,
    # battery and inverter blocks pass as they are; the load's jobs_per_day
    # and watts_per_effort draw its job_events, and the grid's tariff keys
    # its schedule.
    if scenario.pv["kind"] == "synthetic":
        pv = SyntheticPowerSource(seed=scenario.seed, **_parameters(scenario.pv))
    else:
        pv = ReplayPowerSource(*_recorded(scenario.pv, recordings))

    if scenario.load["kind"] == "synthetic":
        load = _synthetic_load(scenario, scenario.seed, scenario.day_count)
    else:
        load = ReplayLoad(*_recorded(scenario.load, recordings))

    if scenario.battery["kind"] == "linear":
        battery = BatteryLinear(**_parameters(scenario.battery))
    else:
        battery = ReplayBattery(*_recorded(scenario.battery, recordings), scenario.battery["capacity_j"])

    if scenario.grid["kind"] == "priced":
        limits = ("max_active_power_w", "max_apparent_power_va")
        grid = GridPriced(schedule, **{key: scenario.grid[key] for key in limits})
    else:
        grid = ReplayGrid(*_recorded(scenario.grid, recordings))

    # generated announcements and recorded notes play back the same way
    records: tuple[ContextRecord, ...] = ()
    if scenario.context["kind"] == "synthetic":
        lead_ns = int(scenario.context["announce_lead_hours"] * 3600) * NS_PER_SECOND
        # synthetic context needs a synthetic load, whose jobs it announces
        records = context_records_for_jobs(load.job_events, announce_lead_ns=lead_ns)
    elif scenario.context["kind"] == "replay":
        records = _ingested(recordings, ingest_context, scenario.context["file"])
    context = None if scenario.context["kind"] == "none" else ScriptedContext(records)

    # the inverter takes the battery it projects storage limits for too (a
    # recorded battery names no efficiencies, so the projection takes 1);
    # an MPC inverter plans with the same capacity and SOC band
    linear = scenario.battery["kind"] == "linear"
    inverter_parameters = _parameters(scenario.inverter)
    inverter_parameters.update(
        battery_capacity_j=scenario.battery["capacity_j"],
        battery_eta_charge=scenario.battery["eta_charge"] if linear else 1.0,
        battery_eta_discharge=scenario.battery["eta_discharge"] if linear else 1.0,
    )
    controller = None
    if strategy == "default":
        inverter = InverterPVFirst(**inverter_parameters)
    else:
        from .control import MPCInverter

        if schedule is None:
            raise ConfigurationError(f"strategy {strategy!r} needs a priced grid")
        if scenario.battery["kind"] != "linear":
            raise ConfigurationError(f"strategy {strategy!r} needs a linear battery model")
        if NS_PER_DAY % scenario.step_ns != 0:
            raise ConfigurationError("mpc strategies need step_seconds to divide one day evenly")
        if scenario.horizon_ns % scenario.step_ns != 0:
            raise ConfigurationError("mpc strategies need step_seconds to divide the horizon evenly")
        if strategy == "mpc-perfect":

            def load_at(known: list[ContextRecord], t_ns: int) -> float:
                return load.power_at(t_ns)

            forecast_records: tuple[ContextRecord, ...] = ()
        else:
            family = "none" if strategy == "mpc-nocontext" else scenario.forecast["context_family"]
            effort_fn = effort_estimator(scenario)
            train_records, train_times, train_loads = training_series(scenario)
            predictor = train_predictor(
                train_records,
                train_times,
                train_loads,
                family,
                effort_fn=effort_fn,
            )

            def load_at(known: list[ContextRecord], t_ns: int) -> float:
                return max(predictor.predict(known, t_ns, effort_fn), 0.0)

            forecast_records = records
        provider = forecast_provider(load_at, pv.power_at, schedule, scenario.end_ns, scenario.step_ns, forecast_records)
        inverter = MPCInverter(provider, max_grid_power_w=scenario.grid["max_active_power_w"], **inverter_parameters)
        controller = inverter.controller

    simulator = Simulator(
        scenario.start_ns,
        power_source=pv,
        load=load,
        battery=battery,
        inverter=inverter,
        grid=grid,
        context=context,
    )
    return SimulationBundle(
        scenario=scenario,
        strategy=strategy,
        simulator=simulator,
        records=records,
        controller=controller,
    )
