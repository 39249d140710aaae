"""cemsim benchmark: seeded CLI workloads, timed end to end, traced per layer.

  python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every CLI command runs as its own fresh
``python -m cemsim.cli`` process on inputs generated from --seed, one
process at a time.  With --trace 0 the workload repeats for about S
seconds (at least 3 times) and each end-to-end metric summarises the
repetitions (median; CPU times scaled by calibrate.py to a fixed machine
speed); with --trace 1 one untraced and one traced repetition give the
per-layer metrics.  Every command's output is checked against the
reference values in reference.json.  The last line of standard output is
the result as JSON; the full record, with the environment, goes to
.bench_work/<workload>/seed<N>/result-trace<T>.json.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

#: --seed folds onto this many scenario seeds, whose outputs were recorded
#: on the seed commit (make_reference.py) so every run can be checked.
SEED_POOL = 32
#: 2024-01-01T00:00Z: a UTC midnight, so planning days start at the horizon start.
START_EPOCH_S = 1_704_067_200
DAY_S = 86_400
#: Workloads are sized so one command takes about 0.5-2 s: contention on a
#: shared VM comes in bursts, and a median over many short samples is
#: steadier than one over a few long ones.
WEEK_S = 7 * DAY_S
PLAN_STRATEGIES = ("default", "mpc-perfect", "mpc-context")
MIN_REPETITIONS = 3
#: set-up probes per repetition: each is a short process, so one repetition
#: takes several to give the median set-up enough samples
SETUP_SAMPLES = 2
#: calibrate.py's CPU time at the reference machine speed: about its median
#: on a 2-vCPU Intel Xeon VM, where it ranged 0.22-0.43 s as other tenants
#: came and went.  Each CPU time in cpu_s and setup_s is scaled by
#: CALIBRATION_REF_S over the mean of the calibrations around it; see README.md.
CALIBRATION_REF_S = 0.35
SCALED = ("cpu_s", "setup_s")
LOAD_NOTE = "one CLI process at a time; no threads, no --jobs; BLAS pools pinned to 1 thread"


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, failed set-up)."""


class Outcome(NamedTuple):
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    output: str


class Command(NamedTuple):
    name: str
    args: list[str]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # bytecode caching on, as for an installed package; logging at its default
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("CEMSIM_LOG", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def timed_process(argv: list[str], log: Path) -> Outcome:
    """Run one process to completion; wall time, CPU time and max RSS via wait4."""
    with open(log, "w") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_s = usage.ru_utime + usage.ru_stime
    return Outcome(proc.returncode, wall_s, cpu_s, usage.ru_maxrss / 1024.0, log.read_text())


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "cemsim.cli", *args]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _summary(out_dir: Path) -> dict:
    return json.loads((out_dir / "summary.json").read_text())


def _run_values(out_dir: Path) -> dict:
    summary = _summary(out_dir)
    return {key: summary[key] for key in ("steps", "final_soc", "aggregates")}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Writes its inputs from a scenario seed, names its commands, checks outputs."""

    strategies: tuple[str, ...] = ("default",)
    #: battery_current rows a replay re-decided differently (replay-week only)
    current_mismatch_rows = 0

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.out = work / "out"

    def scenario(self, name: str, **fields) -> Path:
        path = self.work / name
        _write_json(path, {"schema_version": 1, "seed": self.seed, "start_epoch_seconds": START_EPOCH_S, **fields})
        return path

    def prepare(self) -> None:
        """Write the inputs; untimed."""

    @property
    def setup_scenario(self) -> Path:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def values(self, command: Command) -> dict:
        """What the command produced that must equal the recorded reference."""
        raise NotImplementedError

    def verify(self, command: Command, outcome: Outcome) -> list[str]:
        """Checks that need no reference; a list of problems."""
        return []


class PVFirstWeek(Workload):
    def prepare(self) -> None:
        self.week = self.scenario("week.json", horizon_seconds=WEEK_S, step_seconds=60)

    @property
    def setup_scenario(self) -> Path:
        return self.week

    def commands(self) -> list[Command]:
        return [Command("run", ["run", "--scenario", str(self.week), "--out", str(self.out / "run")])]

    def values(self, command: Command) -> dict:
        return _run_values(self.out / "run")


class PlanDay(Workload):
    strategies = PLAN_STRATEGIES

    def prepare(self) -> None:
        self.day = self.scenario("day.json", horizon_seconds=DAY_S, step_seconds=240)

    @property
    def setup_scenario(self) -> Path:
        return self.day

    def commands(self) -> list[Command]:
        common = ["--scenario", str(self.day)]
        return [
            Command(
                "compare",
                ["compare", *common, "--strategies", ",".join(PLAN_STRATEGIES), "--out", str(self.out / "compare")],
            ),
            Command("forecast-eval", ["forecast-eval", *common, "--out", str(self.out / "forecast-eval")]),
        ]

    def values(self, command: Command) -> dict:
        summary = _summary(self.out / command.name)
        return summary["strategies"] if command.name == "compare" else summary["mean_rmse_w"]


class ReplayWeek(Workload):
    def prepare(self) -> None:
        self.recording = self.work / "recording"
        source = self.scenario("week.json", horizon_seconds=WEEK_S, step_seconds=60)
        outcome = timed_process(
            cli_argv(["run", "--scenario", str(source), "--out", str(self.recording)]), self.work / "recording.log"
        )
        if outcome.code != 0:
            raise BenchError(f"recording run failed ({outcome.code}): {outcome.output[-2000:]}")
        replay = {"kind": "replay", "file": "recording/channels.csv"}
        self.replay = self.scenario(
            "replay.json",
            horizon_seconds=WEEK_S,
            step_seconds=60,
            pv=replay,
            load=replay,
            battery=replay,
            grid=replay,
            context={"kind": "replay", "file": "recording/context.jsonl"},
        )
        self.channels_digest: str | None = None

    @property
    def setup_scenario(self) -> Path:
        return self.replay

    def commands(self) -> list[Command]:
        return [
            Command("validate", ["validate", str(self.recording / "channels.csv"), str(self.recording / "context.jsonl")]),
            Command("run", ["run", "--scenario", str(self.replay), "--out", str(self.out / "run")]),
        ]

    def values(self, command: Command) -> dict:
        return _run_values(self.out / "run") if command.name == "run" else {}

    def verify(self, command: Command, outcome: Outcome) -> list[str]:
        if command.name == "validate":
            lines = outcome.output.splitlines()
            passed = [line for line in lines if line.startswith("PASS ")]
            if len(passed) != 2 or len(lines) != 2:
                return [f"validate did not PASS both recording files: {outcome.output[-500:]!r}"]
            return []
        channels = self.out / "run" / "channels.csv"
        digest = hashlib.sha256(channels.read_bytes()).hexdigest()
        if self.channels_digest is None:
            problems = self._compare_channels(channels)
            if problems:
                return problems
            self.channels_digest = digest
        elif digest != self.channels_digest:
            return ["replayed channels.csv differs from the previous repetition's"]
        return []

    def _compare_channels(self, replayed: Path) -> list[str]:
        """The closed-loop invariant: replaying a recording reproduces it.

        Every pv_*, load_*, grid_* and battery_soc/voltage value must be
        bitwise the recorded one.  battery_current is not part of the
        invariant (the inverter re-decides it from replayed inputs); its
        differing rows are counted, not checked.
        """
        mismatches = Counter()
        with open(self.recording / "channels.csv") as recorded, open(replayed) as replay:
            for line, (want, got) in enumerate(zip(recorded, replay), start=1):
                if want == got:
                    continue
                want_fields, got_fields = want.split(","), got.split(",")
                if want_fields[:3] != got_fields[:3]:
                    return [f"replayed channels.csv line {line} is {got.strip()!r}, recording has {want.strip()!r}"]
                mismatches[want_fields[2]] += 1
            if recorded.readline() or replay.readline():
                return ["replayed channels.csv and the recording differ in length"]
        self.current_mismatch_rows = mismatches.pop("battery_current", 0)
        if mismatches:
            return [f"replay does not reproduce the recording bitwise: differing rows per channel {dict(mismatches)}"]
        return []


WORKLOADS: dict[str, type[Workload]] = {
    "pvfirst-week": PVFirstWeek,
    "plan-day": PlanDay,
    "replay-week": ReplayWeek,
}


# ---------------------------------------------------------------------------
# Running and checking
# ---------------------------------------------------------------------------


class Run:
    """One workload at one seed: its inputs, its operations, their checks."""

    def __init__(self, name: str, seed: int, reference: dict | None) -> None:
        self.name = name
        self.seed = seed
        self.scenario_seed = seed % SEED_POOL
        self.work = WORK / name / f"seed{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.workload = WORKLOADS[name](self.work, self.scenario_seed)
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._logs = 0

    def log(self, label: str) -> Path:
        self._logs += 1
        return self.work / f"{self._logs:04d}-{label}.log"

    def prepare(self) -> None:
        self.workload.prepare()
        # compile and cache the package's bytecode outside any timing
        warm = timed_process([sys.executable, "-c", "import cemsim.cli"], self.log("warm-up"))
        if warm.code != 0:
            raise BenchError(f"cannot import cemsim from {SRC}: {warm.output[-2000:]}")

    def setup_probe(self) -> Outcome:
        workload = self.workload
        outcome = timed_process(
            [sys.executable, str(BENCH / "probe.py"), "setup", str(workload.setup_scenario), *workload.strategies],
            self.log("setup"),
        )
        if outcome.code != 0:
            raise BenchError(f"set-up probe failed ({outcome.code}): {outcome.output[-2000:]}")
        return outcome

    def calibration(self) -> Outcome:
        outcome = timed_process(
            [sys.executable, str(BENCH / "calibrate.py"), str(self.work / "calibration.csv")], self.log("calibration")
        )
        if outcome.code != 0:
            raise BenchError(f"calibration failed ({outcome.code}): {outcome.output[-2000:]}")
        return outcome

    def operation(self, command: Command, argv: list[str]) -> Outcome:
        """Run one command as one operation and check what it wrote."""
        outcome = timed_process(argv, self.log(command.name))
        self.attempted += 1
        problems = self.check(command, outcome)
        if problems:
            self.failed += 1
            self.problems.extend(f"{command.name}: {problem}" for problem in problems)
        return outcome

    def check(self, command: Command, outcome: Outcome) -> list[str]:
        if outcome.code != 0:
            return [f"exit code {outcome.code}: {outcome.output[-2000:]}"]
        try:
            problems = self.workload.verify(command, outcome)
            values = self.workload.values(command)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]
        if self.reference is not None:
            expected = self.reference[self.name][command.name]
            if values != expected:
                problems.append(f"output {values} differs from the reference {expected}")
        return problems

    def repetition(self) -> float:
        """All commands once, untraced; their summed wall time."""
        return sum(self.operation(command, cli_argv(command.args)).wall_s for command in self.workload.commands())


def timed(run: Run, seconds: int) -> tuple[dict, dict]:
    """Repeat the workload for ``seconds``; medians of CPU times scaled to the reference speed.

    A calibration runs before the first repetition, after the set-up probes
    and after every command, so each timed process sits between two.  Its
    CPU time is scaled by CALIBRATION_REF_S over the mean of those two.
    """
    samples: dict[str, list[float]] = defaultdict(list)

    def calibrate() -> float:
        samples["calibration_cpu_s"].append(run.calibration().cpu_s)
        return samples["calibration_cpu_s"][-1]

    before = calibrate()
    started = time.perf_counter()
    while True:
        setups = [run.setup_probe() for _ in range(SETUP_SAMPLES)]
        after = calibrate()
        for outcome in setups:
            samples["setup_s"].append(outcome.cpu_s * 2 * CALIBRATION_REF_S / (before + after))
            samples["unscaled.setup_s"].append(outcome.cpu_s)
        cpu_s = scaled_cpu_s = wall_s = rss_mb = 0.0
        for command in run.workload.commands():
            before = after
            outcome = run.operation(command, cli_argv(command.args))
            after = calibrate()
            scaled_cpu_s += outcome.cpu_s * 2 * CALIBRATION_REF_S / (before + after)
            cpu_s += outcome.cpu_s
            wall_s += outcome.wall_s
            rss_mb = max(rss_mb, outcome.rss_mb)
        before = after
        samples["cpu_s"].append(scaled_cpu_s)
        samples["unscaled.cpu_s"].append(cpu_s)
        samples["wall_s"].append(wall_s)
        samples["peak_rss_mb"].append(rss_mb)
        count = len(samples["cpu_s"])
        if seconds == 0 or (count >= MIN_REPETITIONS and time.perf_counter() - started >= seconds):
            break
    metrics = {name: statistics.median(samples[name]) for name in ("cpu_s", "setup_s", "peak_rss_mb")}
    return metrics, dict(samples)


def solver_probe(run: Run) -> list[dict]:
    """Time solve_charging on fixed full-day windows (one operation)."""
    outcome = timed_process(
        [sys.executable, str(BENCH / "probe.py"), "solver", str(run.workload.setup_scenario)],
        run.log("solver"),
    )
    run.attempted += 1
    problems = []
    points = []
    if outcome.code != 0:
        problems.append(f"exit code {outcome.code}: {outcome.output[-2000:]}")
    else:
        points = [json.loads(line) for line in outcome.output.splitlines()]
        costs = solver_costs(points)
        if run.reference is not None and costs != run.reference[run.name]["solver"]:
            problems.append(f"plan costs {costs} differ from the reference")
    if problems:
        run.failed += 1
        run.problems.extend(f"solver probe: {problem}" for problem in problems)
    return points


def solver_costs(points: list[dict]) -> dict[str, float]:
    return {f"T{point['T']}": point["total_cost"] for point in points}


def traced(run: Run) -> tuple[dict, dict]:
    untraced_s = run.repetition()
    artifact_bytes = sum(path.stat().st_size for path in run.workload.out.rglob("*") if path.is_file())
    traced_s = 0.0
    span_files = []
    for command in run.workload.commands():
        spans = run.work / f"spans-{command.name}.npz"
        outcome = run.operation(command, [sys.executable, str(BENCH / "trace_cli.py"), str(spans), *command.args])
        traced_s += outcome.wall_s
        span_files.append(spans)
    metrics = layer_metrics(span_files)
    metrics["cli.artifact_mb"] = artifact_bytes / 1e6
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["replay.current_mismatch_rows"] = run.workload.current_mismatch_rows
    solver = {point["T"]: point["ms"] for point in solver_probe(run)} if run.name == "plan-day" else {}
    for horizon in (720, 1440, 2880):
        metrics[f"control.solve_ms.T{horizon}"] = solver.get(horizon, 0.0)
    return metrics, {"untraced_s": untraced_s, "traced_s": traced_s}


# ---------------------------------------------------------------------------
# Spans to per-layer metrics
# ---------------------------------------------------------------------------

US = 1e3
MS = 1e6


def load_spans(paths: list[Path]) -> tuple[dict, dict, Counter]:
    """Per span name: [count, total ns, self ns]; command tails; counters.

    A span's self time is its duration minus its direct children's.  A
    tail is the time a CLI command spends after its last engine.run ends.
    """
    stats: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
    tails: dict[str, list[int]] = defaultdict(list)
    counters: Counter = Counter()
    for path in paths:
        if not path.is_file():
            continue
        with np.load(path) as data:
            names = [str(name) for name in data["names"]]
            name, start, end, parent = data["name"], data["start"], data["end"], data["parent"]
            counters.update(json.loads(str(data["counters"])))
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_ns = duration - children
        for index, label in enumerate(names):
            mask = name == index
            entry = stats[label]
            entry[0] += int(mask.sum())
            entry[1] += int(duration[mask].sum())
            entry[2] += float(self_ns[mask].sum())
        if "engine.run" not in names:
            continue
        runs = np.flatnonzero(name == names.index("engine.run"))
        for owner in ("cli.run_to_directory", "cli.compare"):
            if owner in names:
                for span in np.flatnonzero(name == names.index(owner)):
                    inside = runs[parent[runs] == span]
                    if len(inside):
                        tails[owner].append(int(end[span] - end[inside].max()))
    return stats, tails, counters


def layer_metrics(paths: list[Path]) -> dict:
    stats, tails, counters = load_spans(paths)

    def count(name: str) -> int:
        return stats[name][0] if name in stats else 0

    def mean(name: str, unit: float, self_time: bool = False) -> float:
        entry = stats.get(name)
        if not entry or not entry[0]:
            return 0.0
        return entry[2 if self_time else 1] / entry[0] / unit

    def mean_tail(owner: str) -> float:
        values = tails.get(owner)
        return sum(values) / len(values) / MS if values else 0.0

    # engine.step spans are named per strategy; the engine metrics cover all of them
    stats["engine.step"] = [sum(column) for column in zip(*(stats[f"engine.step.{s}"] for s in PLAN_STRATEGIES))]
    ingest_s = stats["replay.ingest_timeseries"][1] / 1e9 if count("replay.ingest_timeseries") else 0.0
    decisions = count("control.decide")
    metrics = {
        "scenario.load_ms": mean("scenario.load", MS),
        "replay.ingest_timeseries_ms": mean("replay.ingest_timeseries", MS),
        "replay.ingest_rows_per_s": counters["replay.ingest_rows"] / ingest_s if ingest_s else 0.0,
        "replay.ingest_context_ms": mean("replay.ingest_context", MS),
        "replay.interpolate_calls": count("replay.interpolate"),
        "replay.interpolate_us": mean("replay.interpolate", US),
        "replay.step_us": mean("replay.step", US, self_time=True),
        "engine.steps": count("engine.step"),
        "engine.step_us": mean("engine.step", US),
        "engine.self_us": mean("engine.step", US, self_time=True),
        "engine.step_us.default": mean("engine.step.default", US),
        "core.context_query_calls": count("core.context_query"),
        "core.context_query_us": mean("core.context_query", US),
        "control.decide_calls": decisions,
        "control.decide_us": mean("control.decide", US),
        "control.solves": count("control.solve"),
        "control.solve_ms": mean("control.solve", MS),
        "control.reuse_ratio": counters["control.reused"] / decisions if decisions else 0.0,
        "control.fallbacks": counters["control.fallbacks"],
        "forecast.window_calls": sum(count(f"forecast.window.{s}") for s in PLAN_STRATEGIES),
        "forecast.predict_calls": count("forecast.predict"),
        "forecast.train_ms": mean("forecast.train", MS),
        "forecast.evaluate_ms": mean("forecast.evaluate", MS),
        "cli.sink_us": mean("cli.sink", US),
        "cli.write_tail_ms": mean_tail("cli.run_to_directory"),
        "cli.compare_tail_ms": mean_tail("cli.compare"),
    }
    for strategy in PLAN_STRATEGIES:
        metrics[f"scenario.build_bundle_ms.{strategy}"] = mean(f"scenario.build_bundle.{strategy}", MS)
    for strategy in ("mpc-perfect", "mpc-context"):
        metrics[f"forecast.window_ms.{strategy}"] = mean(f"forecast.window.{strategy}", MS)
    for layer in ("models.synthetic.pv", "models.synthetic.load", "models.synthetic.context"):
        metrics[f"{layer}_step_us"] = mean(layer, US, self_time=True)
    for layer in ("models.inverter", "models.battery", "models.grid"):
        metrics[f"{layer}.step_us"] = mean(layer, US, self_time=True)
    return metrics


# ---------------------------------------------------------------------------
# Environment and reporting
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        git_sha = None
    source = hashlib.sha256()
    for path in sorted((SRC / "cemsim").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "scenario_seed": seed % SEED_POOL,
        "load": LOAD_NOTE,
    }


def bench_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = json.loads(SPEC.read_text())
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}
    why = next(workload["why"] for workload in spec["workloads"] if workload["name"] == name)
    reference = json.loads(REFERENCE.read_text())
    run = Run(name, seed, reference["seeds"][str(seed % SEED_POOL)])
    run.prepare()
    metrics, samples = traced(run) if trace else timed(run, seconds)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with {SPEC.name}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    record = {
        "workload": name,
        "why": why,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed),
        "samples": samples,
        "fail_ratio": run.failed / run.attempted,
        "problems": run.problems,
        **result,
    }
    record_path = run.work / f"result-trace{int(trace)}.json"
    _write_json(record_path, record)

    print(f"== {name}  seed {seed} (scenario seed {run.scenario_seed})  trace {int(trace)}")
    for key, unit in units.items():
        line = f"{key:36s} {metrics[key]:14.6g} {unit}"
        if not trace:
            values = samples[key]
            line += f"   median of n={len(values)}; min {min(values):.6g}, max {max(values):.6g}"
            if key in SCALED:
                line += f"; unscaled median {statistics.median(samples['unscaled.' + key]):.6g}"
        print(line)
    if not trace:
        for key in ("calibration_cpu_s", "wall_s"):
            print(f"{key + ' (not gated)':36s} {statistics.median(samples[key]):14.6g} s   median of n={len(samples[key])}")
    print(f"{'fail_ratio':36s} {run.failed}/{run.attempted}")
    for problem in run.problems:
        print(f"FAILED {problem[:2000]}")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"record: {record_path.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="timed duration per workload; 0 runs each once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cemsim" / "cli.py").is_file():
        print(f"error: no cemsim sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # a terminated benchmark still kills and reaps the CLI process it waits on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        results = {name: bench_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}/{key}": metric for name, result in results.items() for key, metric in result["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
