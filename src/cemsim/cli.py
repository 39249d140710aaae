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

Only ``compare`` logs: its MPC strategies step the planner, whose
infeasible-window warning (``WARNING cemsim.control: ...`` on stderr)
is the package's only log record.  The ``CEMSIM_LOG`` environment
variable sets the level (debug/info/warning/error).  So ``compare``
alone imports and configures :mod:`logging`; ``run`` and ``validate``
load neither it nor the planner.
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

from .core import NS_PER_DAY, NS_PER_HOUR, ConfigurationError, SimulationError
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
    effort_estimator,
    load_scenario,
    synthetic_load_samples,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

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
_STEP_TEMPLATE = ",".join(["%d", "%d"] + ["%.17g"] * 5 + ["%s"] + ["%.17g"] * 17) + "\r\n"

# The step-line field each recorded channel repeats: the channels share
# their step-field names but for the grid's, which steps.csv qualifies
# as delivered.
_STEP_FIELD_OF_CHANNEL = {
    "grid_active_power": "grid_delivered_active_power",
    "grid_apparent_power": "grid_delivered_apparent_power",
}

# CHANNEL_ROW once per recorded channel, its subsystem_id and name filled
# in, its time and value left as "%s" for text already formatted.
# _channel_fields picks each line's (time_ns, value) out of the split step
# line, in CHANNELS order.  The step line formats time_ns with "%d" and
# every value with "%.17g", as CHANNEL_ROW does, so the reused text is
# byte for byte what formatting the numbers again would print.
_CHANNEL_TEMPLATE = "".join(
    CHANNEL_ROW.replace("%d,%s", f"{subsystem_id},{name}").replace("%d", "%s").replace("%.17g", "%s")
    for subsystem_id, name in CHANNELS
)
_channel_fields = itemgetter(
    *(
        position
        for _, name in CHANNELS
        for position in (STEP_HEADER.index("time_ns"), STEP_HEADER.index(_STEP_FIELD_OF_CHANNEL.get(name, name)))
    )
)


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
        "aggregates": bundle.simulator.aggregates()._asdict(),
        "maxima": bundle.simulator.maxima(),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_to_directory(bundle: SimulationBundle, out_dir: Path) -> dict:
    """Run one assembled simulation, streaming artifacts to ``out_dir``.

    Emits steps.csv (every step-result field plus running aggregates),
    channels.csv (replay-ingestible recording), context.jsonl (the
    scenario's context records) and summary.json; returns the summary.

    Both CSVs are written as the steps happen, so memory stays flat over
    the horizon.  steps.csv holds one line per step, formatted by one
    ``%``-template.  channels.csv holds each step's lines in
    ``replay.CHANNELS`` order, so its rows are sorted by time and ingest
    without a sort.  Every value on them (the time and ten of the step's
    floats) is already on the step line, so the channel lines reuse the
    step line's formatted fields, split out by position, instead of
    formatting each number a second time.
    """
    scenario = bundle.scenario
    out_dir.mkdir(parents=True, exist_ok=True)
    last_output: SimulatorStepOutput | None = None

    with open(out_dir / "steps.csv", "w", newline="") as steps_handle, open(
        out_dir / "channels.csv", "w", newline=""
    ) as channels_handle:
        steps_handle.write(",".join(STEP_HEADER) + "\r\n")
        channels_handle.write(",".join(CHANNEL_HEADER) + "\r\n")
        write_step = steps_handle.write
        write_channels = channels_handle.write

        def sink(output: SimulatorStepOutput) -> None:
            nonlocal last_output
            last_output = output
            pv = output.power_source
            load = output.load
            inverter = output.inverter
            battery = output.battery
            grid = output.grid
            aggregates = output.aggregates
            line = (
                _STEP_TEMPLATE
                % (
                    output.step_index,
                    output.time_ns,
                    pv.voltage,
                    pv.current,
                    pv.power,
                    load.requested_active_power,
                    load.requested_apparent_power,
                    inverter.battery_input.mode.value,
                    inverter.battery_input.current,
                    battery.soc,
                    battery.voltage,
                    battery.delta_energy,
                    battery.delta_charge,
                    inverter.grid_input.requested_active_power,
                    inverter.grid_input.requested_apparent_power,
                    grid.delivered_active_power,
                    grid.delivered_apparent_power,
                    grid.cost,
                    inverter.pv_power_drawn,
                    aggregates.generated_wh,
                    aggregates.consumed_wh,
                    aggregates.purchased_wh,
                    aggregates.charged_wh,
                    aggregates.discharged_wh,
                    aggregates.cost,
                )
            )
            write_step(line)
            write_channels(_CHANNEL_TEMPLATE % _channel_fields(line.split(",")))

        steps = run(bundle.simulator, scenario.horizon_ns, scenario.step_ns, sink=sink)

    emit_context(out_dir / "context.jsonl", bundle.records)
    summary = _summary_payload(scenario, bundle, last_output, steps)
    _write_json(out_dir / "summary.json", summary)
    return summary


def _default_out_dir(scenario_path: Path, scenario: Scenario, out_flag: str | None, multi: bool) -> Path:
    if out_flag is not None:
        base = Path(out_flag)
        return base / scenario_path.stem if multi else base
    if scenario.output_dir is not None:
        configured = Path(scenario.output_dir)
        return configured if configured.is_absolute() else scenario.base_dir / configured
    return scenario_path.parent / f"{scenario_path.stem}.out"


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
        except _FAILURES as exc:
            codes.append(_failed(exc, f"{path}: "))
            continue
        out_dir = _default_out_dir(path, scenario, args.out, multi).resolve()
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
    out_dir = _default_out_dir(path, scenario, args.out, False)
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


if __name__ == "__main__":
    sys.exit(main())
