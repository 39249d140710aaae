"""Byte-identity gate: CLI artifacts on fixed scenarios match recorded hashes.

Each case writes a scenario into ``tmp_path``, runs the CLI through
``cli.main`` and compares the SHA-256 of every artifact with
``tests/golden.json``.  A change that is meant to be output-neutral (a
refactor, a speed-up) must keep every hash.

The cases cover ``compare`` with PV-first and both MPC strategies plus
``forecast-eval`` on two seeds at 1 d @ 240 s, and one grid-capped run
that starts at noon: most of its windows are infeasible (PV-first
fallbacks) and it crosses a day boundary.

To re-record after an intended output change:  python tests/test_golden.py
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


def _day(seed: int) -> dict:
    return {"seed": seed, "start_epoch_seconds": MIDNIGHT, "horizon_seconds": 86_400, "step_seconds": 240}


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
}


def artifact_hashes(case: str, work: Path) -> dict[str, str]:
    """Run one case in ``work``; SHA-256 of each artifact by file name."""
    command, scenario = CASES[case]
    path = work / f"{case}.json"
    path.write_text(json.dumps({"schema_version": 1, **scenario}))
    out = work / case
    argv = [command, "--scenario", str(path), "--out", str(out)]
    if command == "compare":
        argv += ["--strategies", STRATEGIES]
    assert cli.main(argv) == cli.EXIT_OK
    return {
        artifact.name: hashlib.sha256(artifact.read_bytes()).hexdigest()
        for artifact in sorted(out.iterdir())
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_hashes(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert artifact_hashes(case, tmp_path) == golden[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        recorded = {case: artifact_hashes(case, Path(scratch)) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
