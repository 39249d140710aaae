"""Byte-identity gate: CLI artifacts on fixed scenarios match recorded hashes.

Each case writes a scenario into ``tmp_path``, runs the CLI through
``cli.main`` and compares the SHA-256 of every artifact with
``tests/golden.json``.  A change that is meant to be output-neutral (a
refactor, a speed-up) must keep every hash.

The cases cover ``compare`` with PV-first and both MPC strategies plus
``forecast-eval`` on two seeds at 1 d @ 240 s, one grid-capped run
that starts at noon (most of its windows are infeasible, so PV-first
falls back, and it crosses a day boundary), a ``compare`` of all four
strategies (``mpc-nocontext`` included), a ``compare`` over two days from
05:00 (planning days end off the horizon start, and context records
become known and expire inside planning days), a PV-first ``run`` at
2 d @ 60 s, an all-``replay`` ``run`` of that run's recording, and a
mixed ``run`` that replays only the recorded PV beside synthetic load
and context, a linear battery and a priced grid.  ``run-2d-sunny`` is
``run-2d`` with a 3 kW PV peak: the battery charges from surplus PV and
its SOC reaches both ``soc_max`` and ``soc_min``, branches the 600 W
default PV never takes.  ``compare-tariff-night`` is ``compare-2d-0500``'s
horizon under an inverted tariff whose peak runs from 00:00 to 06:00 and
is the cheap tier: a peak that starts at midnight, planned across both
days.  ``compare-1d-120s`` runs both planned-day MPC strategies at 120 s,
so its windows have 720 steps, with hundreds of re-solves and long
carries.  ``forecast-eval-subset`` evaluates only ``effort`` and ``none``,
in that order: a shared feature row is wider than either family, and
the family order is not the canonical one.

To re-record after an intended output change:

    python tests/test_golden.py            # every case
    python tests/test_golden.py CASE ...   # only the named cases, merged in

Naming cases re-records only those and keeps every other recorded hash.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from cemsim import cli

GOLDEN = Path(__file__).with_name("golden.json")
MIDNIGHT = 1_704_067_200  # 2024-01-01T00:00Z
STRATEGIES = "default,mpc-perfect,mpc-context"
ALL_STRATEGIES = "default,mpc-perfect,mpc-context,mpc-nocontext"


def _day(seed: int) -> dict:
    return {"seed": seed, "start_epoch_seconds": MIDNIGHT, "horizon_seconds": 86_400, "step_seconds": 240}


_TWO_DAYS = {"seed": 7, "start_epoch_seconds": MIDNIGHT, "horizon_seconds": 2 * 86_400, "step_seconds": 60}
_REPLAY = {"kind": "replay", "file": "run-2d/channels.csv"}

CASES = {
    "compare-seed7": ("compare", _day(7)),
    "forecast-eval-seed7": ("forecast-eval", _day(7)),
    "compare-seed11": ("compare", _day(11)),
    "forecast-eval-seed11": ("forecast-eval", _day(11)),
    "compare-capped-noon": (
        "compare",
        {
            "seed": 23,
            "start_epoch_seconds": MIDNIGHT + 12 * 3600,
            "horizon_seconds": 43_200,
            "step_seconds": 240,
            "grid": {"kind": "priced", "max_active_power_w": 700.0},
            "battery": {"kind": "linear", "initial_soc": 0.3},
        },
    ),
    "compare-all4": ("compare", _day(23)),
    "compare-1d-120s": ("compare", {**_day(7), "step_seconds": 120}),
    "forecast-eval-subset": ("forecast-eval", {**_day(7), "forecast": {"families": ["effort", "none"]}}),
    "compare-2d-0500": (
        "compare",
        {
            "seed": 7,
            "start_epoch_seconds": MIDNIGHT + 5 * 3600,
            "horizon_seconds": 2 * 86_400,
            "step_seconds": 240,
            "load": {"kind": "synthetic", "jobs_per_day": 4},
        },
    ),
    "compare-tariff-night": (
        "compare",
        {
            "seed": 7,
            "start_epoch_seconds": MIDNIGHT + 5 * 3600,
            "horizon_seconds": 2 * 86_400,
            "step_seconds": 240,
            "grid": {"off_peak_price": 0.3, "peak_price": 0.05, "peak_start_hour": 0, "peak_end_hour": 6},
        },
    ),
    "run-2d": ("run", _TWO_DAYS),
    "replay-2d": (
        "run",
        {
            **_TWO_DAYS,
            "pv": _REPLAY,
            "load": _REPLAY,
            "battery": _REPLAY,
            "grid": _REPLAY,
            "context": {"kind": "replay", "file": "run-2d/context.jsonl"},
        },
    ),
    "mixed-2d": ("run", {**_TWO_DAYS, "pv": _REPLAY}),
    "run-2d-sunny": ("run", {**_TWO_DAYS, "pv": {"kind": "synthetic", "peak_power_w": 3000.0}}),
}

# A case that replays another case's artifacts runs that case first.
RECORDING = {"replay-2d": "run-2d", "mixed-2d": "run-2d"}
# compare cases run STRATEGIES unless named here
CASE_STRATEGIES = {"compare-all4": ALL_STRATEGIES, "compare-1d-120s": "mpc-perfect,mpc-nocontext"}


def run_case(case: str, work: Path) -> Path:
    """Run one case in ``work``; the directory its artifacts went to."""
    if case in RECORDING:
        run_case(RECORDING[case], work)
    command, scenario = CASES[case]
    path = work / f"{case}.json"
    path.write_text(json.dumps({"schema_version": 1, **scenario}))
    out = work / case
    argv = [command, "--scenario", str(path), "--out", str(out)]
    if command == "compare":
        argv += ["--strategies", CASE_STRATEGIES.get(case, STRATEGIES)]
    assert cli.main(argv) == cli.EXIT_OK
    return out


def artifact_hashes(case: str, work: Path) -> dict[str, str]:
    """SHA-256 of each artifact of one case, by file name."""
    out = run_case(case, work)
    return {
        artifact.name: hashlib.sha256(artifact.read_bytes()).hexdigest()
        for artifact in sorted(out.iterdir())
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_hashes(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert artifact_hashes(case, tmp_path) == golden[case]


def rerecord(cases: list[str]) -> None:
    """Record the named cases (all when empty) and merge them into golden.json."""
    import tempfile

    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s) {unknown}; known: {sorted(CASES)}")
    recorded = json.loads(GOLDEN.read_text()) if cases and GOLDEN.exists() else {}
    for case in cases or sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            recorded[case] = artifact_hashes(case, Path(scratch))
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    rerecord(sys.argv[1:])
