"""CLI contract: exit codes, byte-identical reruns, and the closed
record -> validate -> replay loop."""
from __future__ import annotations

import contextlib
import csv
import json
import os
import random
import re
import socket
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cemsim
from cemsim import cli, ingest_timeseries, replay
from cemsim import scenario as scenario_module
from cemsim.core import (
    BatteryMode,
    BatteryStepInput,
    BatteryStepResult,
    GridStepInput,
    GridStepResult,
    InverterStepResult,
    LoadStepResult,
    PowerSourceStepResult,
)
from cemsim.engine import Aggregates, ComponentStepError, SimulatorStepOutput, run
from cemsim.replay import TimeSeriesRangeError
from cemsim.scenario import Scenario, SimulationBundle, build_bundle, load_scenario
from oracles import channel_lines, step_line
from test_golden import GOLDEN, artifact_hashes

MIDNIGHT = 1_704_067_200
DAY = {"seed": 7, "start_epoch_seconds": MIDNIGHT, "horizon_seconds": 86_400, "step_seconds": 60}
ARTIFACTS = ("steps.csv", "channels.csv", "context.jsonl", "summary.json")
# The inverter re-decides battery_current from the replayed inputs, so
# only these channels are part of the replay invariant.
REPRODUCED = (
    "pv_voltage",
    "pv_current",
    "pv_power",
    "load_active_power",
    "load_apparent_power",
    "battery_soc",
    "battery_voltage",
    "grid_active_power",
    "grid_apparent_power",
)


def _scenario(tmp_path, name, **fields):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"schema_version": 1, **DAY, **fields}))
    return path


def _replay_scenario(tmp_path, recording, **fields):
    replay = {"kind": "replay", "file": f"{recording}/channels.csv"}
    return _scenario(
        tmp_path,
        "replay",
        pv=replay,
        load=replay,
        battery=replay,
        grid=replay,
        context={"kind": "replay", "file": f"{recording}/context.jsonl"},
        **fields,
    )


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """A 1 d @ 60 s PV-first run; its directory is named ``rec``."""
    work = tmp_path_factory.mktemp("cli")
    assert cli.main(["run", "--scenario", str(_scenario(work, "day")), "--out", str(work / "rec")]) == cli.EXIT_OK
    return work


# ---------------------------------------------------------------------------
# Record -> validate -> replay
# ---------------------------------------------------------------------------


def test_validate_passes_a_runs_own_recording(recording, capsys):
    files = [str(recording / "rec" / "channels.csv"), str(recording / "rec" / "context.jsonl")]
    assert cli.main(["validate", *files]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["PASS", "PASS"]
    assert lines[0].endswith("10 channels")


def test_validate_fails_a_context_line_with_coerced_fields(tmp_path, capsys):
    """Floats, strings, bools and out-of-range ints in a context line fail
    validation (exit 1) instead of passing as the ints ``int()`` makes."""
    path = tmp_path / "coerced.jsonl"
    line = {"recorded_at_ns": 0.9, "begins_at_ns": "5", "ends_at_ns": 1.0e19, "subsystem_id": True, "payload": {}}
    path.write_text(json.dumps(line) + "\n")
    assert cli.main(["validate", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("FAIL") and "coerced.jsonl:1: recorded_at_ns" in out


def test_validate_names_a_failing_file_once(recording, tmp_path, capsys):
    """Each FAIL line names its file once: an ingest error's message starts
    with the path, and so do validate's own for a missing file and an
    unsupported type, so validate prefixes no second copy."""
    lines = (recording / "rec" / "channels.csv").read_bytes().decode().splitlines(keepends=True)
    time_text, subsystem_text, name, _ = lines[1999].split(",")
    lines[1999] = f"{time_text},{subsystem_text},{name},nan\r\n"
    bad = tmp_path / "nan.csv"
    bad.write_bytes("".join(lines).encode())
    missing = tmp_path / "missing.csv"
    other = tmp_path / "notes.txt"
    other.write_text("")
    assert cli.main(["validate", str(bad), str(missing), str(other)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL {bad}:2000: channel {name!r} value 'nan' is not finite",
        f"FAIL {missing}: file does not exist",
        f"FAIL {other}: unsupported file type '.txt' (expected .csv or .jsonl)",
    ]


def test_a_field_beyond_the_csv_limit_fails_validate_and_run_with_its_line(recording, tmp_path, capsys):
    """A channels.csv field longer than ``csv.field_size_limit()`` is an
    ingest error at its line: ``validate`` prints FAIL and still checks
    the next file, and a replay ``run`` prints one error line; both exit 1."""
    wide = tmp_path / "wide"
    wide.mkdir()
    header, first, *rest = (recording / "rec" / "channels.csv").read_text().splitlines(keepends=True)
    (wide / "channels.csv").write_text(header + first + f"60000000000,1,pv_power,{'1' * 140_000}\r\n" + "".join(rest))
    (wide / "context.jsonl").write_bytes((recording / "rec" / "context.jsonl").read_bytes())
    assert cli.main(["validate", str(wide / "channels.csv"), str(wide / "context.jsonl")]) == cli.EXIT_CONFIG
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["FAIL", "PASS"]
    assert lines[0].endswith("channels.csv:3: field larger than field limit (131072)")
    scenario = _replay_scenario(tmp_path, wide)
    assert cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert err[0].endswith("channels.csv:3: field larger than field limit (131072)")


# Runs the CLI with the modules named in argv[1] (comma-separated)
# unimportable: any module-level import of one on the package's import
# path, or a call into one on the command's path, fails it.
_WITHOUT = """
import sys
for name in filter(None, sys.argv[1].split(",")):
    sys.modules[name] = None
from cemsim import cli
sys.exit(cli.main(sys.argv[2:]))
"""

# What a run or validate must never load: the planner, the logging
# configured only by compare, numpy, hashlib, which initialises OpenSSL
# (the noise hash is _blake2's blake2b), and dataclasses with the inspect
# it imports (every cemsim record is a StepRecord, so no command loads
# dataclasses, a planning one included).
_NOT_LOADED_BY_RUN = ("cemsim.control", "logging", "numpy", "hashlib", "dataclasses", "inspect")


def _python(*argv, stdout=subprocess.PIPE, **environ):
    """``python argv...`` in a fresh interpreter that imports this cemsim;
    ``environ`` is added to the environment, which holds no CEMSIM_LOG,
    and a variable it sets to None is removed."""
    src = str(Path(cemsim.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "CEMSIM_LOG"}
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **environ)
    env = {key: value for key, value in env.items() if value is not None}
    return subprocess.run(
        [sys.executable, *map(str, argv)], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True
    )


def _main_without(blocked, *args, **environ):
    return _python("-c", _WITHOUT, ",".join(blocked), *args, **environ)


def test_a_pv_first_run_needs_no_numpy(recording, tmp_path):
    """A synthetic PV-first run never imports numpy and writes the same
    bytes as a run in a process where numpy is importable."""
    out = tmp_path / "no-numpy"
    done = _main_without(("numpy",), "run", "--scenario", _scenario(tmp_path, "day"), "--out", out)
    assert done.returncode == cli.EXIT_OK, done.stderr
    for name in ARTIFACTS:
        assert (out / name).read_bytes() == (recording / "rec" / name).read_bytes(), name


def _fresh_recording(recording, tmp_path):
    """A copy of the recording's channels.csv and context.jsonl in its own
    directory, with no column cache yet, and the path its sidecar gets."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for name in ("channels.csv", "context.jsonl"):
        (fresh / name).write_bytes((recording / "rec" / name).read_bytes())
    return fresh, fresh / "__cemsim_cache__" / "channels.csv.columns"


def test_validate_and_an_all_replay_run_need_no_numpy(recording, tmp_path):
    """Validating a recording and replaying it with every component never
    import numpy, and the replay writes the same bytes as a replay in a
    process where numpy is importable.  A fresh copy is replayed twice:
    the first run parses it and writes its column cache, the second reads
    the cache, and neither loads numpy."""
    files = (recording / "rec" / "channels.csv", recording / "rec" / "context.jsonl")
    done = _main_without(("numpy",), "validate", *files)
    assert done.returncode == cli.EXIT_OK, done.stderr
    fresh, sidecar = _fresh_recording(recording, tmp_path)
    scenario = _replay_scenario(tmp_path, fresh)
    for attempt in ("miss", "hit"):
        assert sidecar.exists() == (attempt == "hit"), attempt
        done = _main_without(("numpy",), "run", "--scenario", scenario, "--out", tmp_path / f"no-numpy-{attempt}")
        assert done.returncode == cli.EXIT_OK, done.stderr
    assert cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "with-numpy")]) == cli.EXIT_OK
    for name in ARTIFACTS:
        want = (tmp_path / "with-numpy" / name).read_bytes()
        for attempt in ("miss", "hit"):
            assert (tmp_path / f"no-numpy-{attempt}" / name).read_bytes() == want, (attempt, name)


def test_run_and_validate_need_no_planner_logging_or_numpy(recording, tmp_path):
    """With the planner, logging, numpy, hashlib, dataclasses and inspect
    all unimportable, a noisy PV-first run writes the same artifacts and
    validate prints the same lines as with everything importable.  A
    fresh copy of the recording is validated twice, once parsing it and
    writing its column cache and once reading the cache."""
    out = tmp_path / "planner-free"
    done = _main_without(_NOT_LOADED_BY_RUN, "run", "--scenario", _scenario(tmp_path, "day"), "--out", out)
    assert done.returncode == cli.EXIT_OK, done.stderr
    for name in ARTIFACTS:
        assert (out / name).read_bytes() == (recording / "rec" / name).read_bytes(), name
    fresh, sidecar = _fresh_recording(recording, tmp_path)
    files = (fresh / "channels.csv", fresh / "context.jsonl")
    printed = []
    for attempt in ("miss", "hit"):
        assert sidecar.exists() == (attempt == "hit"), attempt
        done = _main_without(_NOT_LOADED_BY_RUN, "validate", *files)
        assert done.returncode == cli.EXIT_OK, done.stderr
        printed.append(done.stdout)
    assert printed == [_main_without((), "validate", *files).stdout] * 2


def test_a_default_set_up_loads_no_planner_logging_hashlib_or_numpy(tmp_path):
    """Importing cemsim.scenario and building a ``default`` bundle loads
    neither the planner, logging, hashlib (OpenSSL) nor numpy: a set-up
    samples no noise and plans nothing.  Nor does it load dataclasses or
    inspect: its configs and the scenario are records, not dataclasses."""
    probe = (
        "import sys\n"
        "from cemsim.scenario import build_bundle, load_scenario\n"
        "build_bundle(load_scenario(sys.argv[1]), 'default')\n"
        "print(sorted(name for name in sys.argv[2:] if name in sys.modules))\n"
    )
    modules = ("cemsim.control", "logging", "hashlib", "numpy", "dataclasses", "inspect")
    done = _python("-c", probe, _scenario(tmp_path, "day"), *modules)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_compare_and_forecast_eval_need_no_dataclasses(tmp_path):
    """The planner's records are StepRecords too: with dataclasses
    unimportable, a compare of PV-first and both MPC strategies and a
    forecast-eval exit 0 and write the same bytes as in-process runs."""
    scenario = _scenario(tmp_path, "day240", step_seconds=240, forecast={"resamples": 2})
    for command, *options in (("compare", "--strategies", "default,mpc-perfect,mpc-context"), ("forecast-eval",)):
        out, without = tmp_path / f"{command}-in-process", tmp_path / f"{command}-without"
        assert cli.main([command, "--scenario", str(scenario), *options, "--out", str(out)]) == cli.EXIT_OK
        done = _main_without(("dataclasses",), command, "--scenario", scenario, *options, "--out", without)
        assert done.returncode == cli.EXIT_OK, done.stderr
        names = sorted(path.name for path in out.iterdir())
        assert names and names == sorted(path.name for path in without.iterdir()), command
        for name in names:
            assert (without / name).read_bytes() == (out / name).read_bytes(), (command, name)


def test_compare_warns_of_an_infeasible_planning_window_on_stderr(tmp_path):
    """A grid that can deliver nothing makes every planning window
    infeasible.  compare still exits 0 and prints the planner's warning
    on stderr as ``LEVEL logger: message``; CEMSIM_LOG=error silences it
    and changes nothing else."""
    scenario = _scenario(tmp_path, "no-grid", step_seconds=3600, grid={"kind": "priced", "max_active_power_w": 0})
    args = ("-m", "cemsim.cli", "compare", "--scenario", scenario, "--strategies", "mpc-perfect")
    done = _python(*args, "--out", tmp_path / "warned")
    assert done.returncode == cli.EXIT_OK, done.stderr
    lines = done.stderr.splitlines()
    assert lines and all(
        re.fullmatch(
            r"WARNING cemsim\.control: planning window infeasible at \d+ ns, dispatching PV-first: "
            r"charging problem infeasible at step \d+: .+",
            line,
        )
        for line in lines
    ), done.stderr
    assert lines[0].startswith(f"WARNING cemsim.control: planning window infeasible at {MIDNIGHT}000000000 ns, ")
    quiet = _python(*args, "--out", tmp_path / "quiet", CEMSIM_LOG="error")
    assert quiet.returncode == cli.EXIT_OK and quiet.stderr == ""
    assert quiet.stdout == done.stdout
    for name in ("running_cost.csv", "summary.json"):
        assert (tmp_path / "quiet" / name).read_bytes() == (tmp_path / "warned" / name).read_bytes(), name


def _peak_of_run(tmp_path, name, days):
    """tracemalloc peak (bytes) of ``run_to_directory`` for a PV-first run
    of ``days`` days at 300 s; the bundle is built before tracing starts."""
    scenario = load_scenario(_scenario(tmp_path, name, horizon_seconds=days * 86_400, step_seconds=300))
    bundle = build_bundle(scenario)
    tracemalloc.start()
    try:
        cli.run_to_directory(bundle, tmp_path / name)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_pv_first_runs_memory_stays_flat_over_its_horizon(tmp_path):
    """Four times the horizon stays within 1.5x the peak memory: artifacts
    stream to disk and no per-step state is kept.  A week runs first, so
    the interpreter's free lists (up to 2,000 tuples of each size) are
    already full and no compared peak holds their one-time fill."""
    _peak_of_run(tmp_path, "warm-up", 7)
    week = _peak_of_run(tmp_path, "week", 7)
    month = _peak_of_run(tmp_path, "month", 28)
    assert month <= 1.5 * week, (week, month)


def test_replaying_a_recording_reproduces_it_bitwise(recording):
    out = recording / "replayed"
    assert cli.main(["run", "--scenario", str(_replay_scenario(recording, "rec")), "--out", str(out)]) == cli.EXIT_OK
    recorded = ingest_timeseries(recording / "rec" / "channels.csv")
    replayed = ingest_timeseries(out / "channels.csv")
    assert recorded.keys() == replayed.keys()
    for key in recorded.keys():
        want, got = recorded.channel(*key), replayed.channel(*key)
        assert got.times_ns.tobytes() == want.times_ns.tobytes(), key
        if key[1] in REPRODUCED:
            assert got.values.tobytes() == want.values.tobytes(), key
    assert (out / "context.jsonl").read_bytes() == (recording / "rec" / "context.jsonl").read_bytes()


def test_two_ingests_of_one_file_give_equal_channels(recording):
    path = recording / "rec" / "channels.csv"
    first, second = replay._parse_timeseries(path), replay._parse_timeseries(path)
    assert first.keys() == second.keys()
    for key in first.keys():
        want, got = first.channel(*key), second.channel(*key)
        assert (got.times_ns, got.values) == (want.times_ns, want.values), key


def test_ingesting_shuffled_rows_equals_ingesting_the_sorted_file(recording, tmp_path):
    header, *rows = (recording / "rec" / "channels.csv").read_text().splitlines(keepends=True)
    random.Random(3).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows))
    want = replay._parse_timeseries(recording / "rec" / "channels.csv")
    got = replay._parse_timeseries(shuffled)
    assert got.keys() == want.keys()
    for key in want.keys():
        assert got.channel(*key).times_ns.tobytes() == want.channel(*key).times_ns.tobytes()
        assert got.channel(*key).values.tobytes() == want.channel(*key).values.tobytes()


def _recording_at_600_s(tmp_path):
    """channels.csv of a 1 d @ 600 s run: 144 steps of all ten channels."""
    scenario = _scenario(tmp_path, "day600", step_seconds=600)
    assert cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "rec")]) == cli.EXIT_OK
    return tmp_path / "rec" / "channels.csv"


def test_a_runs_recording_shares_one_time_axis_after_a_parse_and_a_hit(tmp_path, monkeypatch):
    """The ten channels of a recording run wrote hold one ``times_ns``
    array, whether parsed or read back from the column cache, and its
    order is scanned once."""
    path = _recording_at_600_s(tmp_path)
    sidecar = path.parent / "__cemsim_cache__" / "channels.csv.columns"
    scans = []
    on_axis = replay._on_axis

    def counted(times, name, axes):
        scans.append(not any(axis.times_ns == times for axis in axes))
        return on_axis(times, name, axes)

    monkeypatch.setattr(replay, "_on_axis", counted)
    for attempt in ("parse", "hit"):
        assert sidecar.exists() == (attempt == "hit"), attempt
        table = ingest_timeseries(path)
        axes = {id(table.channel(*key).times_ns) for key in table.keys()}
        assert len(table) == 10 and len(axes) == 1, attempt
        assert scans == [True] + [False] * 9, attempt
        scans.clear()


def test_validate_names_the_line_of_a_nan_on_a_shared_axis(tmp_path, capsys):
    """After a clean validate leaves the column cache, a nan written into
    one channel of the shared axis fails validate with its line."""
    path = _recording_at_600_s(tmp_path)
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    lines = path.read_bytes().decode().splitlines(keepends=True)
    time_text, subsystem_text, name, _ = lines[99].split(",")
    lines[99] = f"{time_text},{subsystem_text},{name},nan\r\n"
    path.write_bytes("".join(lines).encode())
    capsys.readouterr()
    assert cli.main(["validate", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().out == f"FAIL {path}:100: channel '{name}' value 'nan' is not finite\n"


def test_a_non_finite_value_past_the_first_chunk_is_named_by_the_row_loop(tmp_path):
    """A nan deep in a clean recording run wrote is named with its line."""
    path = _recording_at_600_s(tmp_path)
    lines = path.read_bytes().decode().splitlines(keepends=True)
    time_text, subsystem_text, name, _ = lines[699].split(",")
    lines[699] = f"{time_text},{subsystem_text},{name},nan\r\n"
    path.write_bytes("".join(lines).encode())
    with pytest.raises(replay.IngestError, match=rf"channels\.csv:700: channel '{name}' value 'nan' is not finite$"):
        replay._parse_timeseries(path)


# ---------------------------------------------------------------------------
# Exit codes and reruns
# ---------------------------------------------------------------------------


def test_a_bad_flag_exits_1(tmp_path, capsys):
    argv = ["run", "--scenario", str(_scenario(tmp_path, "day")), "--no-such-flag"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "--no-such-flag" in capsys.readouterr().err


def test_an_unknown_strategy_exits_1(tmp_path, capsys):
    path = _scenario(tmp_path, "day")
    argv = ["compare", "--scenario", str(path), "--strategies", "default,psychic", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "psychic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, names",
    [
        ("compare", "--strategies", ","),
        ("compare", "--strategies", "default,default"),
        ("forecast-eval", "--families", ","),
        ("forecast-eval", "--families", "none,none"),
        ("forecast-eval", "--families", "none,psychic"),
    ],
)
def test_an_empty_unknown_or_repeated_name_list_exits_1(tmp_path, capsys, command, flag, names):
    out = tmp_path / "o"
    argv = [command, "--scenario", str(_scenario(tmp_path, "day")), flag, names, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert not out.exists()


def test_run_rejects_scenarios_that_would_write_the_same_directory(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, second = _scenario(tmp_path / "a", "x"), _scenario(tmp_path / "b", "x")
    out = tmp_path / "o"
    argv = ["run", "--scenario", str(first), "--scenario", str(second), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out / "x") in err
    assert not out.exists()


def test_run_rejects_scenarios_whose_output_dirs_resolve_to_one_directory(tmp_path, capsys):
    """Without --out, each scenario's own ``output_dir`` counts too."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _scenario(tmp_path / "a", "x", seed=1, output_dir="../shared")
    second = _scenario(tmp_path / "b", "y", seed=2, output_dir="../shared")
    assert cli.main(["run", "--scenario", str(first), "--scenario", str(second)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and str((tmp_path / "shared").resolve()) in err
    assert not (tmp_path / "shared").exists()


def test_a_missing_scenario_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert cli.main(["run", "--scenario", str(missing), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "absent.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, artifact, flags",
    [("compare", "running_cost.csv", ["--strategies", "default"]), ("forecast-eval", "rmse.csv", [])],
    ids=["compare", "forecast-eval"],
)
def test_an_artifact_that_cannot_be_written_exits_1_naming_the_scenario(tmp_path, capsys, command, artifact, flags):
    """A failed artifact write is one ``error:`` line naming the scenario
    and exit 1, not a traceback."""
    path = _scenario(tmp_path, "day", step_seconds=240)
    out = tmp_path / "o"
    (out / artifact).mkdir(parents=True)
    assert cli.main([command, "--scenario", str(path), *flags, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and artifact in err
    assert len(err.splitlines()) == 1


def test_compares_plan_csv_parses_back_to_the_first_plan(tmp_path, monkeypatch):
    """plan_<strategy>.csv holds the controller's first plan, every float
    round-tripping bit for bit."""
    bundles = []

    def keep(scenario, strategy="default"):
        bundles.append(build_bundle(scenario, strategy))
        return bundles[-1]

    monkeypatch.setattr(cli, "build_bundle", keep)
    path = _scenario(tmp_path, "day", step_seconds=240)
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--scenario", str(path), "--strategies", "mpc-perfect", "--out", str(out)]) == cli.EXIT_OK
    plan = bundles[0].controller.first_plan
    with open(out / "plan_mpc-perfect.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(plan.grid_power_w) > 1
    assert [int(r["step_index"]) for r in rows] == list(range(len(rows)))
    assert [float(r["grid_power_w"]) for r in rows] == list(plan.grid_power_w)
    assert [float(r["soc_after"]) for r in rows] == list(plan.soc_trajectory[1:])
    assert [float(r["price_per_kwh"]) for r in rows] == list(plan.prices)


def test_a_replay_compare_ingests_its_recording_once(recording, tmp_path, monkeypatch):
    """compare builds one bundle per strategy; on a scenario replaying pv
    and load from one channel file and the context from a context file,
    they share one ingest of each file, and write the bytes a compare
    whose bundles each ingest the files write."""
    block = {"kind": "replay", "file": str(recording / "rec" / "channels.csv")}
    context = {"kind": "replay", "file": str(recording / "rec" / "context.jsonl")}
    path = _scenario(tmp_path, "recorded", pv=block, load=block, context=context)
    ingests = []

    def counted(ingest):
        def ingest_and_count(file):
            ingests.append(file)
            return ingest(file)

        return ingest_and_count

    for name in ("ingest_timeseries", "ingest_context"):
        monkeypatch.setattr(scenario_module, name, counted(getattr(scenario_module, name)))
    argv = ["compare", "--scenario", str(path), "--strategies", "default,mpc-perfect", "--out"]
    assert cli.main([*argv, str(tmp_path / "shared")]) == cli.EXIT_OK
    assert sorted(ingests) == [block["file"], context["file"]]
    monkeypatch.setattr(cli, "shared_recordings", contextlib.nullcontext)
    assert cli.main([*argv, str(tmp_path / "own")]) == cli.EXIT_OK
    assert sorted(ingests) == [block["file"]] * 3 + [context["file"]] * 3
    for name in ("summary.json", "running_cost.csv", "plan_mpc-perfect.csv"):
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "own" / name).read_bytes(), name


def test_replaying_past_the_recordings_end_exits_2_naming_the_channel(recording, capsys):
    path = _replay_scenario(recording, "rec", horizon_seconds=2 * 86_400)
    assert cli.main(["run", "--scenario", str(path), "--out", str(recording / "too-long")]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "outside channel (1, 'pv_voltage')" in err
    bundle = build_bundle(load_scenario(path, None, None))
    with pytest.raises(ComponentStepError) as failure:
        run(bundle.simulator, bundle.scenario.horizon_ns, bundle.scenario.step_ns, lambda output: None)
    assert isinstance(failure.value.__cause__, TimeSeriesRangeError)
    # steps count from 0: step 1442 ends 180 s after the last sample, past the 120 s tolerance
    assert failure.value.step_index == 1442


def test_a_recording_without_a_components_channel_exits_1_naming_it(recording, tmp_path, capsys):
    lacking = tmp_path / "lacking"
    lacking.mkdir()
    lines = (recording / "rec" / "channels.csv").read_text().splitlines(keepends=True)
    (lacking / "channels.csv").write_text("".join(line for line in lines if ",pv_voltage," not in line))
    (lacking / "context.jsonl").write_bytes((recording / "rec" / "context.jsonl").read_bytes())
    path = _replay_scenario(tmp_path, "lacking")
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path}: replay recording lacks channel (1, 'pv_voltage')\n"


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_timeline_past_int64_exits_1(tmp_path, capsys, command):
    """A run whose timestamps would not fit int64 nanoseconds is refused at
    load: one ``error:`` line and exit 1, and nothing is written."""
    path = _scenario(tmp_path, "late", start_epoch_seconds=10_000_000_000, horizon_seconds=3600, step_seconds=600)
    out = tmp_path / "o"
    assert cli.main([command, "--scenario", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: scenario: 'start_epoch_seconds' must be <= ")
    assert not out.exists()


@pytest.mark.parametrize("step_seconds", [0, -60])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_step_seconds_override_below_1_exits_1_as_the_key_would(tmp_path, capsys, command, step_seconds):
    """``--step-seconds`` edits the document, so it fails the key's own check."""
    path = _scenario(tmp_path, "day", horizon_seconds=3600, step_seconds=600)
    argv = [command, "--scenario", str(path), "--out", str(tmp_path / "o"), "--step-seconds", str(step_seconds)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path}: scenario: 'step_seconds' must be >= 1, got {step_seconds}\n"
    assert not (tmp_path / "o").exists()


def test_too_many_jobs_per_day_exit_1_before_any_job_is_drawn(tmp_path, capsys):
    """``jobs_per_day`` is capped, so 10**9 fails at load instead of drawing
    10**9 jobs for one hour."""
    path = _scenario(tmp_path, "busy", horizon_seconds=3600, step_seconds=600, load={"jobs_per_day": 10**9})
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: {path}: load: 'jobs_per_day' must be <= 100, got 1000000000\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "compare", "forecast-eval"])
def test_a_load_of_1e300_w_exits_1_at_load_and_writes_no_summary(tmp_path, capsys, command):
    """A finite load too large to sum once loaded: ``forecast-eval`` wrote
    ``Infinity`` into summary.json after a numpy overflow, and ``run``
    printed a 300-digit cost.  The key's maximum refuses it at load."""
    path = _scenario(tmp_path, "huge", seed=87, horizon_seconds=86_400, step_seconds=600, load={"base_power_w": 1e300})
    out = tmp_path / "o"
    assert cli.main([command, "--scenario", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: load: 'base_power_w' must be <= ")
    assert not (out / "summary.json").exists()


def test_the_latest_start_runs_and_its_recording_validates(tmp_path, capsys):
    """At the latest start a 1 d horizon allows, the last job ends at most
    1 h after that day, and the whole recording holds int64 times."""
    latest = (2**63 - 1 - 86_400 * 10**9 - 3600 * 10**9) // 10**9
    fields = {"horizon_seconds": 3600, "step_seconds": 600}
    path = _scenario(tmp_path, "latest", start_epoch_seconds=latest, **fields)
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "rec")]) == cli.EXIT_OK
    files = [str(tmp_path / "rec" / "channels.csv"), str(tmp_path / "rec" / "context.jsonl")]
    capsys.readouterr()
    assert cli.main(["validate", *files]) == cli.EXIT_OK
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["PASS", "PASS"]
    late = _scenario(tmp_path, "late", start_epoch_seconds=latest + 1, **fields)
    assert cli.main(["run", "--scenario", str(late), "--out", str(tmp_path / "late")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("horizon_seconds", [3600, 3630])
def test_the_summarys_aggregates_are_the_last_steps(tmp_path, horizon_seconds):
    """summary.json's six aggregates are the running totals on the last
    line of steps.csv, bit for bit, whether the horizon ends on a whole
    60 s step or in a shorter final one (30 s): a run's totals are read
    once, from its last step."""
    scenario = _scenario(tmp_path, "noon", start_epoch_seconds=MIDNIGHT + 43_200, horizon_seconds=horizon_seconds)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(scenario), "--out", str(out)]) == cli.EXIT_OK
    with open(out / "steps.csv", newline="") as handle:
        *_, last = csv.DictReader(handle)
    aggregates = json.loads((out / "summary.json").read_text())["aggregates"]
    assert sorted(aggregates) == sorted(Aggregates._fields)
    assert int(last["time_ns"]) == (MIDNIGHT + 43_200 + horizon_seconds) * 1_000_000_000
    assert {key: float(last[key]).hex() for key in aggregates} == {key: value.hex() for key, value in aggregates.items()}
    assert aggregates["generated_wh"] > 0.0 and aggregates["consumed_wh"] > 0.0


def test_reruns_into_different_directories_are_byte_identical(recording, tmp_path):
    path = _scenario(tmp_path, "day")
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "again")]) == cli.EXIT_OK
    for name in ARTIFACTS:
        assert (tmp_path / "again" / name).read_bytes() == (recording / "rec" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# The run writer against the reference writer
# ---------------------------------------------------------------------------


def test_a_failing_run_leaves_every_step_before_the_failing_one(recording):
    """A replay past its recording's end fails at step k: steps.csv holds
    its header and k lines and channels.csv its header and 10·k lines,
    each the reference writer's, the lines of the last, partial write
    block included."""
    path = _replay_scenario(recording, "rec", horizon_seconds=2 * 86_400)
    out = recording / "failed"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_RUNTIME
    bundle = build_bundle(load_scenario(path, None, None))
    outputs = []
    with pytest.raises(ComponentStepError) as failure:
        run(bundle.simulator, bundle.scenario.horizon_ns, bundle.scenario.step_ns, outputs.append)
    k = failure.value.step_index
    assert len(outputs) == k and k % cli._BLOCK_LINES
    steps = (out / "steps.csv").read_bytes().splitlines(keepends=True)
    assert steps[0] == (",".join(cli.STEP_HEADER) + "\r\n").encode()
    assert steps[1:] == [step_line(output) for output in outputs]
    header, channels = (out / "channels.csv").read_bytes().split(b"\r\n", 1)
    assert header == ",".join(replay.CHANNEL_HEADER).encode()
    assert channels.count(b"\r\n") == len(replay.CHANNELS) * k
    assert channels == b"".join(channel_lines(output) for output in outputs)


# a record field: a zero of either sign, the least subnormal, or a number
_FIELDS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(min_value=0.0, max_value=1e9))
# a running total: as a field, or below zero
_TOTALS = st.one_of(_FIELDS, st.floats(min_value=-1e9, max_value=0.0))


def _distinct(value):
    """A float object with the bits of ``value`` that is not ``value``."""
    return float(repr(value))


@st.composite
def _linked(draw, anchor):
    """A field linked to ``anchor``: the same object, an equal one (an
    equal non-zero value, or a zero of the same sign), the zero of the
    other sign, or a greater value, so never below ``anchor``."""
    relation = draw(st.sampled_from(("same", "equal", "other zero", "greater")))
    if relation == "same":
        return anchor
    if relation == "equal":
        return _distinct(anchor)
    if relation == "other zero" and anchor == 0.0:
        return -anchor
    return anchor + draw(st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def _writer_case(draw):
    """Step outputs whose records each repeat as the same object, repeat as
    an equal distinct one, or change; whose four linked fields (the grid
    request's apparent power to its active power, the delivered active
    power to the requested one, the delivered apparent power to the
    delivered active one, the drawn power to the pv power) are each the
    same object, equal, zeros of opposite signs or unequal; and whose
    totals each hold, repeat as an equal object, flip a zero's sign or
    move.  Then whether the run fails after them."""

    # mostly the same object, so a step often changes one record alone
    def repeat(record, new):
        how = "new" if record is None else draw(st.sampled_from(("same", "same", "same", "equal", "new")))
        if how == "same":
            return record
        return type(record)(*record) if how == "equal" else new()

    def new_pv():
        return PowerSourceStepResult(draw(_FIELDS), draw(_FIELDS), draw(_FIELDS))

    def new_load():
        active = draw(_FIELDS)
        return LoadStepResult(active, draw(_linked(active)))

    def new_battery_input():
        return BatteryStepInput(draw(st.sampled_from(BatteryMode)), draw(_FIELDS))

    def new_grid_input():
        active = draw(_FIELDS)
        return GridStepInput(active, draw(_linked(active)))

    def new_inverter():
        grid_input = repeat(inverter and inverter.grid_input, new_grid_input)
        battery_input = repeat(inverter and inverter.battery_input, new_battery_input)
        return InverterStepResult(grid_input, battery_input, draw(_linked(pv.power)))

    def new_battery():
        delta_energy = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1e6, max_value=1e6)))
        voltage = draw(st.floats(min_value=1.0, max_value=100.0))
        return BatteryStepResult(draw(st.floats(min_value=0.0, max_value=1.0)), voltage, delta_energy, delta_energy / voltage)

    def new_grid():
        active = draw(_linked(inverter.grid_input.requested_active_power))
        return GridStepResult(active, draw(_linked(active)), draw(_TOTALS))

    def total(last):
        how = "move" if last is None else draw(st.sampled_from(("hold", "equal", "other zero", "move")))
        if how == "hold":
            return last
        if how == "equal":
            return _distinct(last)
        return -last if how == "other zero" and last == 0.0 else draw(_TOTALS)

    outputs = []
    pv = load = inverter = battery = grid = None
    totals = (None,) * len(Aggregates._fields)
    time_ns = draw(st.integers(min_value=0, max_value=2**62))
    for step_index in range(draw(st.integers(min_value=1, max_value=12))):
        pv = repeat(pv, new_pv)
        load = repeat(load, new_load)
        inverter = repeat(inverter, new_inverter)
        battery = repeat(battery, new_battery)
        grid = repeat(grid, new_grid)
        totals = Aggregates(*map(total, totals))
        time_ns += draw(st.integers(min_value=1, max_value=10**12))
        outputs.append(SimulatorStepOutput(step_index, time_ns, None, pv, load, inverter, battery, grid, totals))
    return outputs, draw(st.booleans())


# three times the loaded profile's examples: 300, or 3,000 under cemsim-deep
@settings(max_examples=3 * settings.default.max_examples)
@given(case=_writer_case())
def test_the_writer_writes_every_line_the_reference_writer_does(case):
    """However the records, the linked fields and the totals of a run's
    steps repeat, every steps.csv and channels.csv line ``run_to_directory``
    writes is the reference writer's, in write blocks of three steps, and
    a run that fails leaves every line before the failure."""
    outputs, fails = case

    def replayed_run(simulator, total_ns, step_ns, sink):
        for output in outputs:
            sink(output)
        if fails:
            raise ComponentStepError("grid", len(outputs), ValueError("no grid"))
        return len(outputs)

    scenario = Scenario(7, 0, 60 * len(outputs), 60, {}, {}, {}, {}, {}, {}, {}, Path("."))
    bundle = SimulationBundle(scenario, "default", SimpleNamespace(maxima=dict), (), None)
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run", replayed_run)
        patch.setattr(cli, "_BLOCK_LINES", 3)
        out = Path(work)
        with pytest.raises(ComponentStepError) if fails else contextlib.nullcontext():
            cli.run_to_directory(bundle, out)
        steps = (out / "steps.csv").read_bytes()
        channels = (out / "channels.csv").read_bytes()
    assert steps == b"".join([(",".join(cli.STEP_HEADER) + "\r\n").encode(), *map(step_line, outputs)])
    assert channels == b"".join([(",".join(replay.CHANNEL_HEADER) + "\r\n").encode(), *map(channel_lines, outputs)])


# ---------------------------------------------------------------------------
# The process entry: flush, then exit without teardown
# ---------------------------------------------------------------------------
#
# The children run with their output buffered (no PYTHONUNBUFFERED), as a
# command whose stdout is a file or a pipe does, so what they print reaches
# the parent only through the entry's flush.


def _process_main(argv):
    """``cli.main(argv)`` as ``python -m cemsim.cli`` in a fresh process:
    its stdout and stderr are copied to this process's, its exit code
    returned."""
    done = _python("-m", "cemsim.cli", *argv, PYTHONUNBUFFERED=None)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    return done.returncode


@pytest.mark.parametrize("case", ["run-2d", "replay-2d", "compare-seed7", "forecast-eval-seed7"])
def test_a_fresh_process_writes_the_golden_artifacts_and_prints_what_main_prints(case, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())[case]
    in_process, fresh = (tmp_path / "main").resolve(), (tmp_path / "process").resolve()
    in_process.mkdir()
    fresh.mkdir()
    assert artifact_hashes(case, fresh, _process_main) == golden
    printed = capsys.readouterr().out
    assert artifact_hashes(case, in_process) == golden
    assert printed == capsys.readouterr().out.replace(str(in_process), str(fresh))
    assert printed


def test_a_fresh_process_exits_1_on_a_missing_scenario_and_2_past_a_recordings_end(recording, tmp_path):
    past_end = _replay_scenario(recording, "rec", horizon_seconds=2 * 86_400)
    for scenario, code, named in (
        (tmp_path / "absent.json", cli.EXIT_CONFIG, "absent.json"),
        (past_end, cli.EXIT_RUNTIME, "outside channel (1, 'pv_voltage')"),
    ):
        done = _python("-m", "cemsim.cli", "run", "--scenario", scenario, "--out", tmp_path / "o", PYTHONUNBUFFERED=None)
        assert done.returncode == code, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0], done.stderr


def test_every_input_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    """Under the C locale with UTF-8 mode off, a context record's text
    and a scenario's output directory in UTF-8 load, and a byte that is
    not UTF-8 fails with one FAIL or error line naming its file (and, in
    a recording file, its line), with no traceback."""
    ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONUNBUFFERED": None}
    record = {"recorded_at_ns": 0, "begins_at_ns": 1, "ends_at_ns": 2, "subsystem_id": 1, "payload": {"text": "café build"}}
    context = tmp_path / "context.jsonl"
    context.write_bytes(json.dumps(record, ensure_ascii=False).encode() + b"\n")
    scenario = tmp_path / "accented.json"
    scenario.write_bytes(json.dumps({"schema_version": 1, **DAY, "output_dir": "résultats"}, ensure_ascii=False).encode())
    done = _python("-m", "cemsim.cli", "validate", context, **ascii_locale)
    assert done.returncode == cli.EXIT_OK and done.stdout == f"PASS {context}: 1 context records\n", done
    done = _python("-m", "cemsim.cli", "run", "--scenario", scenario, "--out", tmp_path / "out", **ascii_locale)
    assert done.returncode == cli.EXIT_OK and done.stderr == "", done.stderr

    channels = tmp_path / "channels.csv"
    channels.write_bytes(b"timestamp_ns,subsystem_id,channel,value\r\n0,1,pv_power,1\r\n60,1,pv_p\xffower,2\r\n")
    context.write_bytes(context.read_bytes() + context.read_bytes().replace("é".encode(), b"\xe9"))
    done = _python("-m", "cemsim.cli", "validate", context, channels, **ascii_locale)
    assert done.returncode == cli.EXIT_CONFIG and "Traceback" not in done.stderr, done.stderr
    assert done.stdout.splitlines() == [
        f"FAIL {context}:2: byte 0xe9 is not UTF-8 (invalid continuation byte)",
        f"FAIL {channels}:3: byte 0xff is not UTF-8 (invalid start byte)",
    ]
    scenario.write_bytes(scenario.read_bytes().replace("é".encode(), b"\xe9"))
    done = _python("-m", "cemsim.cli", "run", "--scenario", scenario, "--out", tmp_path / "out2", **ascii_locale)
    lines = done.stderr.splitlines()
    assert done.returncode == cli.EXIT_CONFIG and len(lines) == 1, done.stderr
    assert lines[0].startswith(f"error: {scenario}: scenario file {scenario} is not valid UTF-8: "), lines


def test_an_output_directory_the_file_system_cannot_encode_is_named_and_run_goes_on(tmp_path):
    """Under the C locale with UTF-8 mode off, a scenario whose output_dir
    the file-system encoding cannot encode fails each command with one
    error line naming the scenario and the directory, and no traceback;
    run goes on with its other scenario, before or after it, and writes
    that scenario's artifacts."""
    ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONUNBUFFERED": None}
    accented = _scenario(tmp_path, "accented", output_dir="résultats")
    plain = _scenario(tmp_path, "plain", horizon_seconds=3_600)
    # stderr escapes what ASCII cannot encode
    directory = str(tmp_path / "résultats").encode("ascii", "backslashreplace").decode()
    expected = f"error: {accented}: output directory {directory} cannot be encoded in the file-system encoding (ascii)"
    for argv in (
        ("run", "--scenario", plain, "--scenario", accented),
        ("run", "--scenario", accented, "--scenario", plain),
        ("compare", "--scenario", accented, "--strategies", "default"),
        ("forecast-eval", "--scenario", accented),
    ):
        summary = tmp_path / "plain.out" / "summary.json"
        summary.unlink(missing_ok=True)
        done = _python("-m", "cemsim.cli", *argv, **ascii_locale)
        assert done.returncode == cli.EXIT_CONFIG and done.stderr.splitlines() == [expected], done.stderr
        assert summary.is_file() == (argv[0] == "run"), argv
    assert sorted(path.name for path in tmp_path.iterdir()) == ["accented.json", "plain.json", "plain.out"]


@pytest.mark.parametrize("block", ["pv", "context"])
def test_a_recording_path_the_file_system_cannot_encode_is_named(recording, tmp_path, block):
    """Under the C locale with UTF-8 mode off, a replay block whose file
    name the file-system encoding cannot encode fails the run with one
    error line naming the block and the path, and no traceback, instead
    of reporting the file missing; in UTF-8 mode the same scenario runs."""
    name = "context.jsonl" if block == "context" else "channels.csv"
    (tmp_path / "données").mkdir()
    (tmp_path / "données" / name).write_bytes((recording / "rec" / name).read_bytes())
    replay = {"kind": "replay", "file": f"données/{name}"}
    scenario = _scenario(tmp_path, "accented", horizon_seconds=3_600, **{block: replay})
    # stderr escapes what ASCII cannot encode
    path = str(tmp_path / "données" / name).encode("ascii", "backslashreplace").decode()
    argv = ("-m", "cemsim.cli", "run", "--scenario", scenario, "--out", tmp_path / "out")
    done = _python(*argv, LC_ALL="C", PYTHONUTF8="0", PYTHONUNBUFFERED=None)
    assert done.returncode == cli.EXIT_CONFIG and "Traceback" not in done.stderr, done.stderr
    assert done.stderr.splitlines() == [
        f"error: {scenario}: {block}: referenced file {path} cannot be encoded in the file-system encoding (ascii)"
    ]
    done = _python(*argv, PYTHONUTF8="1")
    assert done.returncode == cli.EXIT_OK, done.stderr


def test_a_closed_stdout_exits_120_without_a_traceback(tmp_path):
    """A compare whose stdout is a pipe with no reader writes its artifacts,
    then fails to flush what it printed: exit 120, as CPython's own
    shutdown returns, and one ``error:`` line, not a traceback."""
    out = tmp_path / "cmp"
    read, write = os.pipe()
    os.close(read)
    try:
        argv = ("compare", "--scenario", _scenario(tmp_path, "day", step_seconds=240), "--strategies", "default")
        done = _python("-m", "cemsim.cli", *argv, "--out", out, stdout=write, PYTHONUNBUFFERED=None)
    finally:
        os.close(write)
    assert done.returncode == cli.EXIT_UNFLUSHED == 120
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: <stdout>: ") and len(done.stderr.splitlines()) == 1, done.stderr
    assert json.loads((out / "summary.json").read_text())["strategies"]["default"]["cost"] > 0


# ---------------------------------------------------------------------------
# forecast-eval uses the scenario's effort estimator
# ---------------------------------------------------------------------------


def _estimated(tmp_path, url):
    """A 1 d @ 240 s scenario whose forecasts ask the estimator at ``url``."""
    forecast = {"resamples": 2, "effort_estimator": {"kind": "remote", "url": url}}
    return _scenario(tmp_path, "estimated", step_seconds=240, forecast=forecast)


def _forecast_eval(tmp_path, url):
    path = _estimated(tmp_path, url)
    return cli.main(["forecast-eval", "--scenario", str(path), "--out", str(tmp_path / "fe")])


def test_forecast_eval_rejects_a_replay_scenario_before_writing(recording, capsys):
    out = recording / "fe-replay"
    argv = ["forecast-eval", "--scenario", str(_replay_scenario(recording, "rec")), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "replay.json: load: predictor training and forecast-eval sample the load generator" in capsys.readouterr().err
    assert not out.exists()


def test_forecast_eval_reads_no_pv(recording, tmp_path):
    """forecast-eval samples only the load generator, so replaying a
    recorded pv leaves its artifacts equal to the synthetic scenario's."""
    recorded_pv = {"kind": "replay", "file": str(recording / "rec" / "channels.csv")}
    artifacts = []
    for name, fields in (("synthetic", {}), ("recorded-pv", {"pv": recorded_pv})):
        path = _scenario(tmp_path, name, step_seconds=240, forecast={"resamples": 2}, **fields)
        assert cli.main(["forecast-eval", "--scenario", str(path), "--out", str(tmp_path / name)]) == cli.EXIT_OK
        artifacts.append([(tmp_path / name / artifact).read_bytes() for artifact in ("rmse.csv", "summary.json")])
    assert artifacts[0] == artifacts[1]


def test_forecast_eval_scores_with_the_remote_estimator(estimator_server, tmp_path):
    posted = len(estimator_server.texts)
    assert _forecast_eval(tmp_path, f"{estimator_server.url}/ok") == cli.EXIT_OK
    texts = estimator_server.texts[posted:]
    assert texts, "the remote estimator was never asked"
    assert len(texts) == len(set(texts)), "a text was scored twice"


def test_forecast_eval_scores_with_the_remote_estimator_without_requests(estimator_server, tmp_path):
    """The estimator posts with the standard library: forecast-eval asks
    it in a process where ``requests`` cannot be imported."""
    posted = len(estimator_server.texts)
    path = _estimated(tmp_path, f"{estimator_server.url}/ok")
    done = _main_without(("requests",), "forecast-eval", "--scenario", path, "--out", tmp_path / "fe")
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert len(estimator_server.texts) > posted, "the remote estimator was never asked"


def test_forecast_eval_with_an_unreachable_estimator_exits_2(tmp_path, capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    assert _forecast_eval(tmp_path, f"http://127.0.0.1:{port}/ok") == cli.EXIT_RUNTIME
    assert "effort estimator" in capsys.readouterr().err
