"""Forecasts read the plant: MPC on a recording of pv and load equals MPC
on the synthetic series the recording was made from, byte for byte.

A PV-first ``run`` stamps every channel at a step end and writes it with
``%.17g``, so a replay component that interpolates at the same step ends
hits the recorded knots and returns the synthetic values exactly.  The
forecast providers read the ``power_at`` of the components the plant
steps on, so a perfect forecast of the recording is the synthetic one.
"""
from __future__ import annotations

import json

import pytest

from cemsim import cli
from cemsim.scenario import build_bundle, load_scenario
from test_golden import ALL_STRATEGIES, CASES

REPLAY = {"kind": "replay", "file": "rec/channels.csv"}


def _write(work, name, scenario):
    path = work / f"{name}.json"
    path.write_text(json.dumps({"schema_version": 1, **scenario}))
    return path


def _compare(path, out, strategies):
    argv = ["compare", "--scenario", str(path), "--out", str(out), "--strategies", strategies]
    assert cli.main(argv) == cli.EXIT_OK
    return {artifact.name: artifact.read_bytes() for artifact in sorted(out.iterdir())}


@pytest.mark.parametrize("case", ["compare-seed7", "compare-2d-0500", "compare-capped-noon"])
def test_mpc_on_recorded_pv_and_load_equals_mpc_on_the_generator(case, tmp_path):
    synthetic = CASES[case][1]
    synthetic_path = _write(tmp_path, "synthetic", synthetic)
    assert cli.main(["run", "--scenario", str(synthetic_path), "--out", str(tmp_path / "rec")]) == cli.EXIT_OK

    # pv replayed: every strategy, the predictors included, reads it
    recorded_pv = _write(tmp_path, "pv", {**synthetic, "pv": REPLAY})
    expected = _compare(synthetic_path, tmp_path / "synthetic-all", ALL_STRATEGIES)
    assert _compare(recorded_pv, tmp_path / "pv-all", ALL_STRATEGIES) == expected

    # pv and load replayed: training still samples the generator, so only
    # the strategies that read no predictor
    recorded = _write(tmp_path, "both", {**synthetic, "pv": REPLAY, "load": REPLAY})
    expected = _compare(synthetic_path, tmp_path / "synthetic-two", "default,mpc-perfect")
    assert _compare(recorded, tmp_path / "both-two", "default,mpc-perfect") == expected

    for name, path in (("synthetic-run", synthetic_path), ("both-run", recorded)):
        cli.run_to_directory(build_bundle(load_scenario(path), "mpc-perfect"), tmp_path / name)
    for artifact in ("steps.csv", "summary.json"):
        expected = (tmp_path / "synthetic-run" / artifact).read_bytes()
        assert (tmp_path / "both-run" / artifact).read_bytes() == expected, artifact
