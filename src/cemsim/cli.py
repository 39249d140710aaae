"""Command-line interface: scenario runs, strategy comparison, forecast
evaluation, and recording validation.

Exit codes: 0 success, 1 configuration error, 2 runtime simulation error.
A flag argparse rejects exits 1 with the usage message.  Past that, one
failure policy covers every command but ``validate`` (which prints PASS
or FAIL per file and exits 1 if any fails): a ``SimulationError`` (a
component failing mid-run, an infeasible plan, an unreachable effort
estimator) exits 2, and a ``ConfigurationError``, ``ValueError`` or
``OSError`` (a bad scenario or name list, a missing file, an invalid
recording, an artifact that cannot be written) exits 1.  Either prints
one ``error:`` line to stderr, which names the scenario whenever the
command was given exactly one; ``run`` names each failing scenario and
goes on with the next.  Any other exception is a bug and keeps its
traceback.

All commands are deterministic for fixed seeds and inputs; artifacts are
byte-identical across reruns.  ``run`` takes repeatable ``--scenario``
flags and runs the scenarios one after another, each into its own
directory (``<out>/<stem>/`` under ``--out``); two scenarios that would
write the same resolved directory are rejected before any runs.  ``run``
and ``compare`` stream the engine's step outputs through a sink instead
of keeping them.

Besides their artifacts, ``validate`` and ``run`` (and any command whose
scenario replays a recording) may write ``__cemsim_cache__/`` beside a
channel CSV they read: the column cache of
:func:`cemsim.replay.ingest_timeseries`, which lets the next command
read the same bytes without parsing them.  A directory that cannot be
written to is no error; the CSV is then parsed every time.

Only ``compare`` logs: its MPC strategies step the planner, whose
infeasible-window warning (``WARNING cemsim.control: ...`` on stderr)
is the package's only log record.  The ``CEMSIM_LOG`` environment
variable sets the level (debug/info/warning/error).  So ``compare``
alone imports and configures :mod:`logging`; ``run`` and ``validate``
load neither it nor the planner.

Run as a process (``python -m cemsim.cli`` or the ``cemsim`` script), a
command goes through :func:`console_entry`: once :func:`main` returns, it
flushes stdout and stderr and leaves through ``os._exit``, without the
interpreter's teardown, which clears every module and collects the heap
that numpy and the package built.  That teardown took 31-33 ms of CPU
after each ``compare`` or ``forecast-eval`` and 14-16 ms after each
``run`` or ``validate`` (bench-sized seed-7 inputs, medians of 8,
CPython 3.11 on a 2-vCPU VM); the exit now takes 1-3 ms.  A stdout that
cannot be flushed exits 120.  Skipping teardown loses nothing only while
these hold:

- every artifact is closed before ``main`` returns: each is written
  inside a ``with`` block or by ``Path.write_text``;
- nothing registers an ``atexit`` hook, which would never run;
- ``main`` itself never exits, so tests and tracers call it in process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from array import array
from bisect import bisect_right
from operator import itemgetter
from pathlib import Path
from typing import NoReturn

from .core import NS_PER_DAY, NS_PER_HOUR, BatteryMode, ConfigurationError, SimulationError
from .engine import SimulatorStepOutput, run
from .forecast import FAMILIES, evaluate_families
from .replay import (
    CHANNEL_HEADER,
    CHANNEL_ROW,
    CHANNELS,
    IngestError,
    emit_context,
    ingest_context,
    ingest_timeseries,
    write_csv,
)
from .scenario import (
    STRATEGIES,
    Scenario,
    SimulationBundle,
    build_bundle,
    checked_names,
    checked_path,
    effort_estimator,
    load_scenario,
    shared_recordings,
    synthetic_load_samples,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
#: what CPython's shutdown returns when it cannot flush a standard stream
EXIT_UNFLUSHED = 120

STEP_HEADER = (
    "step_index",
    "time_ns",
    "pv_voltage",
    "pv_current",
    "pv_power",
    "load_active_power",
    "load_apparent_power",
    "battery_mode",
    "battery_current",
    "battery_soc",
    "battery_voltage",
    "battery_delta_energy_j",
    "battery_delta_charge_c",
    "grid_requested_active_power",
    "grid_requested_apparent_power",
    "grid_delivered_active_power",
    "grid_delivered_apparent_power",
    "grid_cost",
    "pv_power_drawn",
    "generated_wh",
    "consumed_wh",
    "purchased_wh",
    "charged_wh",
    "discharged_wh",
    "cost",
)

SUMMARY_SCHEMA_VERSION = 1

#: What a command reports as an ``error:`` line instead of a traceback.
_FAILURES = (ConfigurationError, SimulationError, ValueError, OSError)


def _failed(exc: Exception, where: str = "") -> int:
    """Print ``error: {where}{exc}`` to stderr; return the exit code of ``exc``."""
    print(f"error: {where}{exc}", file=sys.stderr)
    return EXIT_RUNTIME if isinstance(exc, SimulationError) else EXIT_CONFIG


# A step's line of steps.csv, byte for byte as csv.writer writes it:
# "%.17g" is format(v, ".17g"), no field needs quoting, and lines end "\r\n".
# The sink keeps the bytes of every field of the line and formats a field
# again only when what it was formatted from is another object than last
# step's.  A component hands back the same record object while its inputs
# repeat (see cemsim.engine), so the pv, load, battery and grid records and
# the inverter result's battery input, grid input and drawn power are
# keyed on their record objects; the six running totals are keyed on their
# float objects, which the books hand back unchanged for a zero movement.
# A line then costs at most thirteen identity tests, two ints formatted
# and two joins, the second for its channels.csv lines (below).  Equal
# non-zero binary64 values have identical bits, so when a record is
# formatted, a field that equals a field the step already holds and is
# not zero takes that field's bytes: the grid request's apparent power its
# active power's, the delivered active power the requested one's, the
# delivered apparent power the delivered active one's, and the drawn power
# the pv power's.  A zero is formatted afresh, as 0.0 equals -0.0.  On a
# PV-first week (seed 7) each pair is equal on every step; a 17-digit
# "%.17g" costs 0.37 µs, a zero 0.11 µs and the join of a line's 25 fields
# 0.35 µs (timeit, CPython 3.11, 2-vCPU VM), and the writer alone takes
# 5.6-5.7 µs a line over the week's captured outputs (best of 21), 7.1
# keying records alone.  Only those four pairs are
# compared: keying on values in general does not pay.  Over the same
# 10,080 lines (best of 31) a line formatted as str whole took 5.7-5.8 µs,
# 6.8-7.1 µs with a last-value memo per field (22 float compares, a zero
# formatted again for its sign) and 8.0-8.5 µs with a dict of texts by
# value, which grew to 55,000 entries.  The templates are bytes, encoded
# once here, and the artifacts are opened "wb": bytes %-formatting prints
# the same digits, and no line goes through a TextIOWrapper's encoding and
# pending-chunk list on its way to the file.
_TWO_FLOATS = b"%.17g,%.17g"
_THREE_FLOATS = b"%.17g,%.17g,%.17g"
_FOUR_FLOATS = b"%.17g,%.17g,%.17g,%.17g"

# Lines reach the two files in blocks of this many steps, one write a
# file a block, instead of two writes a line: a block of a PV-first week
# holds about 66 kB of steps.csv and 120 kB of channels.csv.
_BLOCK_LINES = 256

# The battery mode's bytes on a step line, keyed by the mode's ``_value_``:
# a plain attribute read, where Enum's ``.value`` is a Python-level
# property (0.29 µs) and an Enum key would hash through Python code too.
_MODE_BYTES = {mode._value_: mode._value_.encode() for mode in BatteryMode}

# The step-line field each recorded channel repeats: the channels share
# their step-field names but for the grid's, which steps.csv qualifies
# as delivered.
_STEP_FIELD_OF_CHANNEL = {
    "grid_active_power": "grid_delivered_active_power",
    "grid_apparent_power": "grid_delivered_apparent_power",
}

# A step's channels.csv lines are its time's bytes joined over ten pieces,
# CHANNEL_ROW less its leading time, once per recorded channel in CHANNELS
# order, its subsystem_id and name filled in and its value the step
# line's bytes.  The pieces change only when a pv, load, battery,
# battery-input or grid record does; they are then cut out of one
# %-template, "|" (which no number's bytes hold) parting them, and a
# leading "|" makes the first piece b"", so the join starts with the time.
# _channel_values picks the ten values out of the step line's fields.
_CHANNEL_PIECES = "".join(
    "|" + CHANNEL_ROW.removeprefix("%d").replace("%d,%s", f"{subsystem_id},{name}").replace("%.17g", "%s")
    for subsystem_id, name in CHANNELS
).encode()
_channel_values = itemgetter(*(STEP_HEADER.index(_STEP_FIELD_OF_CHANNEL.get(name, name)) for _, name in CHANNELS))


def _summary_payload(scenario: Scenario, bundle: SimulationBundle, last: SimulatorStepOutput, steps: int) -> dict:
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "strategy": bundle.strategy,
        "seed": scenario.seed,
        "start_epoch_seconds": scenario.start_ns // 1_000_000_000,
        "horizon_seconds": scenario.horizon_seconds,
        "step_seconds": scenario.step_seconds,
        "steps": steps,
        "final_soc": last.battery.soc,
        "aggregates": last.aggregates._asdict(),
        "maxima": bundle.simulator.maxima(),
    }


def _write_json(path: Path, payload: dict) -> None:
    # nan and the infinities are not JSON: a non-finite value fails the write
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def run_to_directory(bundle: SimulationBundle, out_dir: Path) -> dict:
    """Run one assembled simulation, streaming artifacts to ``out_dir``.

    Emits steps.csv (every step-result field plus running aggregates),
    channels.csv (replay-ingestible recording), context.jsonl (the
    scenario's context records) and summary.json; returns the summary.

    Both CSVs are written as the steps happen, so memory stays flat over
    the horizon.  They are opened in binary mode and written as bytes, in
    blocks of ``_BLOCK_LINES`` steps; a run that fails writes the steps
    before the failing one all the same.  steps.csv holds one line per
    step, the join of the bytes of its fields: each record's fields are
    formatted once however many steps hand back the same record object,
    each running aggregate once however many steps hand back the same
    total object, and a field equal to a non-zero field the step already
    holds (the grid request's apparent power, the delivered grid powers,
    the drawn pv power) takes its bytes.  channels.csv holds each step's
    lines in ``replay.CHANNELS`` order, so its rows are sorted by time and
    ingest without a sort.  Every value on them (the time and ten of the
    step's floats) is on the step line, so they are the time's bytes
    joined over ten pieces holding the step line's value bytes, cut anew
    only when a record they show changes.  context.jsonl is written as
    bytes too, by :func:`~cemsim.replay.emit_context`, so all three have
    the same bytes on every platform.
    """
    scenario = bundle.scenario
    out_dir.mkdir(parents=True, exist_ok=True)
    last_output: SimulatorStepOutput | None = None

    with open(out_dir / "steps.csv", "wb") as steps_handle, open(out_dir / "channels.csv", "wb") as channels_handle:
        steps_handle.write((",".join(STEP_HEADER) + "\r\n").encode())
        channels_handle.write((",".join(CHANNEL_HEADER) + "\r\n").encode())
        block_lines = _BLOCK_LINES
        step_lines: list[bytes] = []
        channel_blocks: list[bytes] = []

        def write_pending() -> None:
            steps_handle.write(b"".join(step_lines))
            channels_handle.write(b"".join(channel_blocks))
            step_lines.clear()
            channel_blocks.clear()

        # the bytes of each field of a step line, in STEP_HEADER order (0 the
        # index, 1 the time, 2-4 pv, 5-6 load, 7-8 battery input, 9-12
        # battery, 13-14 grid input, 15-17 grid, 18 drawn power, 19-24 the
        # totals, the last ending the line), and what they were formatted from
        fields = [b""] * len(STEP_HEADER)
        pv = load = battery = grid = inverter = battery_input = grid_input = pieces = None
        totals = (None,) * 6

        def sink(output: SimulatorStepOutput) -> None:
            nonlocal last_output, pv, load, battery, grid, inverter, battery_input, grid_input, pieces, totals
            last_output = output
            step_index, time_ns, _, step_pv, step_load, step_inverter, step_battery, step_grid, aggregates = output
            fields[0] = b"%d" % step_index
            fields[1] = time = b"%d" % time_ns
            stale = False
            if step_pv is not pv:
                pv = step_pv
                fields[2:5] = (_THREE_FLOATS % pv).split(b",")
                stale = True
            if step_load is not load:
                load = step_load
                fields[5:7] = (_TWO_FLOATS % load).split(b",")
                stale = True
            if step_inverter is not inverter:
                inverter = step_inverter
                step_grid_input, step_battery_input, drawn = inverter
                if step_battery_input is not battery_input:
                    battery_input = step_battery_input
                    fields[7] = _MODE_BYTES[battery_input.mode._value_]
                    fields[8] = b"%.17g" % battery_input.current
                    stale = True
                if step_grid_input is not grid_input:
                    grid_input = step_grid_input
                    active, apparent = grid_input
                    fields[13] = b"%.17g" % active
                    fields[14] = fields[13] if apparent == active and apparent else b"%.17g" % apparent
                fields[18] = fields[4] if drawn == pv.power and drawn else b"%.17g" % drawn
            if step_battery is not battery:
                battery = step_battery
                fields[9:13] = (_FOUR_FLOATS % battery).split(b",")
                stale = True
            if step_grid is not grid:
                grid = step_grid
                active, apparent, cost, _ = grid
                fields[15] = fields[13] if active == grid_input.requested_active_power and active else b"%.17g" % active
                fields[16] = fields[15] if apparent == active and apparent else b"%.17g" % apparent
                fields[17] = b"%.17g" % cost
                stale = True
            generated, consumed, purchased, charged, discharged, cost = aggregates
            if generated is not totals[0]:
                fields[19] = b"%.17g" % generated
            if consumed is not totals[1]:
                fields[20] = b"%.17g" % consumed
            if purchased is not totals[2]:
                fields[21] = b"%.17g" % purchased
            if charged is not totals[3]:
                fields[22] = b"%.17g" % charged
            if discharged is not totals[4]:
                fields[23] = b"%.17g" % discharged
            if cost is not totals[5]:
                fields[24] = b"%.17g\r\n" % cost
            totals = aggregates
            if stale:
                pieces = (_CHANNEL_PIECES % _channel_values(fields)).split(b"|")
            step_lines.append(b",".join(fields))
            channel_blocks.append(time.join(pieces))
            if len(step_lines) == block_lines:
                write_pending()

        try:
            steps = run(bundle.simulator, scenario.horizon_ns, scenario.step_ns, sink=sink)
        finally:
            write_pending()

    emit_context(out_dir / "context.jsonl", bundle.records)
    summary = _summary_payload(scenario, bundle, last_output, steps)
    _write_json(out_dir / "summary.json", summary)
    return summary


def _default_out_dir(scenario_path: Path, scenario: Scenario, out_flag: str | None, multi: bool) -> Path:
    """The directory a command writes its artifacts to.

    A name the file-system encoding cannot encode (``résultats`` under
    an ASCII locale) is a ``ConfigurationError`` naming the directory
    (:func:`~cemsim.scenario.checked_path`).
    """
    if out_flag is not None:
        base = Path(out_flag)
        out_dir = base / scenario_path.stem if multi else base
    elif scenario.output_dir is not None:
        configured = Path(scenario.output_dir)
        out_dir = configured if configured.is_absolute() else scenario.base_dir / configured
    else:
        out_dir = scenario_path.parent / f"{scenario_path.stem}.out"
    return checked_path(out_dir, "output directory")


def cmd_run(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.scenario]
    multi = len(paths) > 1
    codes = []
    # every output directory is known before the first run, so no
    # scenario can overwrite another's artifacts
    planned: dict[Path, tuple[Path, Scenario]] = {}
    for path in paths:
        try:
            scenario = load_scenario(path, args.seed, args.step_seconds)
            out_dir = _default_out_dir(path, scenario, args.out, multi).resolve()
        except _FAILURES as exc:
            codes.append(_failed(exc, f"{path}: "))
            continue
        if out_dir in planned:
            raise ConfigurationError(f"--scenario {planned[out_dir][0]} and {path} would both write {out_dir}")
        planned[out_dir] = (path, scenario)

    for out_dir, (path, scenario) in planned.items():
        try:
            summary = run_to_directory(build_bundle(scenario, "default"), out_dir)
        except _FAILURES as exc:
            codes.append(_failed(exc, f"{path}: "))
            continue
        print(f"{path}: {summary['steps']} steps, cost {summary['aggregates']['cost']:.6f} -> {out_dir}")
    return max(codes, default=EXIT_OK)


class _CostTrace:
    """Sink keeping one strategy's per-step (time_ns, running cost) and its last output."""

    __slots__ = ("times", "costs", "last")

    def __init__(self) -> None:
        self.times = array("q")
        self.costs = array("d")
        self.last: SimulatorStepOutput | None = None

    def __call__(self, output: SimulatorStepOutput) -> None:
        self.times.append(output.time_ns)
        self.costs.append(output.aggregates.cost)
        self.last = output

    def cost_at(self, t_ns: int) -> float:
        """Running cost at the last step boundary at or before ``t_ns``."""
        index = bisect_right(self.times, t_ns)
        return self.costs[index - 1] if index else 0.0


def _listed(flag: str, text: str | None, known: tuple[str, ...], default: list[str]) -> list[str]:
    """The comma-separated names of ``flag`` (``default`` when it is not given)."""
    if text is None:
        return default
    return checked_names([name.strip() for name in text.split(",") if name.strip()], known, flag)


def _single_scenario(args: argparse.Namespace) -> Path:
    if len(args.scenario) != 1:
        raise ConfigurationError("this command takes exactly one --scenario")
    return Path(args.scenario[0])


def cmd_compare(args: argparse.Namespace) -> int:
    _configure_logging()
    path = _single_scenario(args)
    strategies = _listed("--strategies", args.strategies, STRATEGIES, list(STRATEGIES))
    scenario = load_scenario(path, args.seed, args.step_seconds)
    out_dir = _default_out_dir(path, scenario, args.out, False)
    out_dir.mkdir(parents=True, exist_ok=True)
    results: dict[str, _CostTrace] = {}
    bundles: dict[str, SimulationBundle] = {}
    # one ingest of each recording for all the strategies
    with shared_recordings():
        for strategy in strategies:
            bundle = build_bundle(scenario, strategy)
            trace = _CostTrace()
            run(bundle.simulator, scenario.horizon_ns, scenario.step_ns, sink=trace)
            results[strategy] = trace
            bundles[strategy] = bundle

    costs = [results[s].costs for s in strategies]
    write_csv(
        out_dir / "running_cost.csv",
        ["step_index", "time_ns"] + [f"cost_{s}" for s in strategies],
        "%d,%d" + ",%.17g" * len(strategies) + "\r\n",
        ((i, t_ns, *(column[i] for column in costs)) for i, t_ns in enumerate(results[strategies[0]].times)),
    )

    # Per-day, per-hour cumulative savings of context-aware MPC over the
    # PV-first default (cumulative within each day).
    if "default" in results and "mpc-context" in results:
        default, context = results["default"], results["mpc-context"]
        rows = []
        for day in range(scenario.day_count):
            day_start = scenario.start_ns + day * NS_PER_DAY
            base = default.cost_at(day_start)
            base_ctx = context.cost_at(day_start)
            row = [day]
            for hour in range(24):
                boundary = min(day_start + (hour + 1) * NS_PER_HOUR, scenario.end_ns)
                row.append((default.cost_at(boundary) - base) - (context.cost_at(boundary) - base_ctx))
            rows.append(tuple(row))
        header = ["day"] + [f"h{h:02d}" for h in range(24)]
        write_csv(out_dir / "savings.csv", header, "%d" + ",%.17g" * 24 + "\r\n", rows)

    for strategy, bundle in bundles.items():
        if bundle.controller is not None and bundle.controller.first_plan is not None:
            plan = bundle.controller.first_plan
            write_csv(
                out_dir / f"plan_{strategy}.csv",
                ("step_index", "grid_power_w", "soc_after", "price_per_kwh"),
                "%d,%.17g,%.17g,%.17g\r\n",
                zip(range(len(plan.grid_power_w)), plan.grid_power_w, plan.soc_trajectory[1:], plan.prices),
            )

    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "seed": scenario.seed,
        "horizon_seconds": scenario.horizon_seconds,
        "step_seconds": scenario.step_seconds,
        "strategies": {
            strategy: {
                "cost": results[strategy].last.aggregates.cost,
                "purchased_wh": results[strategy].last.aggregates.purchased_wh,
                "final_soc": results[strategy].last.battery.soc,
            }
            for strategy in strategies
        },
    }
    _write_json(out_dir / "summary.json", summary)
    for strategy in strategies:
        print(f"{strategy}: cost {summary['strategies'][strategy]['cost']:.6f}")
    return EXIT_OK


def cmd_forecast_eval(args: argparse.Namespace) -> int:
    path = _single_scenario(args)
    scenario = load_scenario(path, args.seed, args.step_seconds)
    out_dir = _default_out_dir(path, scenario, args.out, False)
    families = _listed("--families", args.families, FAMILIES, scenario.forecast["families"])
    effort_fn = effort_estimator(scenario)

    rows = []
    means: dict[str, list[float]] = {family: [] for family in families}
    count = (scenario.end_ns - scenario.start_ns) // scenario.step_ns
    for resample in range(scenario.forecast["resamples"]):
        records, times, loads = synthetic_load_samples(scenario, scenario.seed + resample, scenario.day_count, count)
        report = evaluate_families(
            records,
            times,
            loads,
            train_fraction=scenario.forecast["train_fraction"],
            families=families,
            effort_fn=effort_fn,
        )
        for family in families:
            rows.append((family, resample, report[family]))
            means[family].append(report[family])

    rows.sort(key=lambda item: (families.index(item[0]), item[1]))
    # made only now, so a scenario that cannot be sampled leaves no directory
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "rmse.csv", ("family", "resample", "rmse_w"), "%s,%d,%.17g\r\n", rows)

    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "seed": scenario.seed,
        "resamples": scenario.forecast["resamples"],
        "mean_rmse_w": {family: sum(values) / len(values) for family, values in means.items()},
    }
    _write_json(out_dir / "summary.json", summary)
    for family in families:
        print(f"{family}: mean rmse {summary['mean_rmse_w'][family]:.3f} W")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    all_ok = True
    for raw in args.files:
        path = Path(raw)
        try:
            if not path.is_file():
                raise IngestError(f"{path}: file does not exist")
            if path.suffix == ".csv":
                table = ingest_timeseries(path)
                detail = f"{len(table)} channels"
            elif path.suffix == ".jsonl":
                records = ingest_context(path)
                detail = f"{len(records)} context records"
            else:
                raise IngestError(f"{path}: unsupported file type {path.suffix!r} (expected .csv or .jsonl)")
        except (IngestError, ValueError, OSError) as exc:
            # an IngestError's message starts with the file's path
            print(f"FAIL {exc}" if isinstance(exc, IngestError) else f"FAIL {path}: {exc}")
            all_ok = False
            continue
        print(f"PASS {path}: {detail}")
    return EXIT_OK if all_ok else EXIT_CONFIG


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; flag misuse is a config error here
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cemsim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, many_scenarios: bool) -> None:
        p.add_argument(
            "--scenario",
            action="append",
            required=True,
            metavar="PATH",
            help="scenario JSON file" + (" (repeatable)" if many_scenarios else ""),
        )
        p.add_argument("--out", metavar="DIR", help="output directory (default: from the scenario)")
        p.add_argument("--seed", type=int, help="override the scenario's seed")
        p.add_argument("--step-seconds", type=int, metavar="N", help="override the scenario's step length")

    p_run = sub.add_parser("run", help="run one or more scenarios under PV-first dispatch")
    add_common(p_run, True)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run one scenario under several dispatch strategies")
    add_common(p_cmp, False)
    p_cmp.add_argument(
        "--strategies",
        metavar="LIST",
        help=f"comma-separated subset of {','.join(STRATEGIES)} (default: all)",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_fe = sub.add_parser("forecast-eval", help="evaluate forecast feature families on synthetic data")
    add_common(p_fe, False)
    p_fe.add_argument("--families", metavar="LIST", help="comma-separated subset of feature families")
    p_fe.set_defaults(func=cmd_forecast_eval)

    p_val = sub.add_parser("validate", help="validate recording files (channel CSV / context JSONL)")
    p_val.add_argument("files", nargs="+", metavar="FILE", help="files to validate")
    p_val.set_defaults(func=cmd_validate)

    return parser


def _configure_logging() -> None:
    import logging

    level_name = os.environ.get("CEMSIM_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _FAILURES as exc:
        scenarios = getattr(args, "scenario", ())
        return _failed(exc, f"{Path(scenarios[0])}: " if len(scenarios) == 1 else "")


def console_entry() -> NoReturn:
    """Run :func:`main` on ``sys.argv`` as the whole process, then end it.

    The entry of ``python -m cemsim.cli`` and of the ``cemsim`` script.
    It flushes stdout, then stderr, and leaves through ``os._exit``, with
    no interpreter teardown; see the module docstring for what that
    skips and what must hold for it to lose nothing.  A flush that fails
    (stdout a pipe whose reader has gone) exits 120, as CPython's own
    shutdown does, with one ``error:`` line on stderr in place of its
    unraisable-exception report.  An exception that escapes ``main`` is
    a bug: it propagates, with its traceback and the interpreter's normal
    exit.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            # None when the descriptor was closed before start-up
            if stream is not None:
                stream.flush()
        except OSError as exc:
            code = EXIT_UNFLUSHED
            try:
                os.write(2, f"error: {stream.name}: {exc}\n".encode())
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    console_entry()
