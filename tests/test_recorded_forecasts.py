"""Forecasts read the plant: MPC on a recording of pv and load, or of pv
and the context, equals MPC on the synthetic series the recording was
made from, byte for byte.

A PV-first ``run`` stamps every channel at a step end and writes it with
``%.17g``, so a replay component that interpolates at the same step ends
hits the recorded knots and returns the synthetic values exactly.  The
forecast providers read the ``power_at`` of the components the plant
steps on, so a perfect forecast of the recording is the synthetic one.
A day of such a recording, replayed on and off its knots with forecasts
asked ahead of every step, reads as the per-channel lookups in
``oracles`` read it.
"""
from __future__ import annotations

import json

import pytest

from cemsim import (
    InverterPVFirst,
    ReplayBattery,
    ReplayGrid,
    ReplayLoad,
    ReplayPowerSource,
    Simulator,
    cli,
    ingest_timeseries,
)
from cemsim.scenario import build_bundle, load_scenario
from defaults import defaults
from oracles import (
    ReplayBatteryReference,
    ReplayGridReference,
    ReplayLoadReference,
    ReplayPowerSourceReference,
    interpolate_reference,
)
from test_golden import ALL_STRATEGIES, CASES

REPLAY = {"kind": "replay", "file": "rec/channels.csv"}
CONTEXT = {"kind": "replay", "file": "rec/context.jsonl"}


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

    # pv and context replayed: the predictors read the recorded job
    # announcements as they read the generated ones
    recorded_context = _write(tmp_path, "pv-context", {**synthetic, "pv": REPLAY, "context": CONTEXT})
    assert _compare(recorded_context, tmp_path / "pv-context-all", ALL_STRATEGIES) == expected

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


NS = 1_000_000_000
START_NS = 1_704_067_200 * NS
CAPACITY_J = 1.8432e7


def _hexes(record):
    """``float.hex`` of every float in a step record, depth first."""
    if isinstance(record, float):
        return [record.hex()]
    if isinstance(record, tuple):
        return [text for item in record for text in _hexes(item)]
    return []


def _replay_with_forecasts(table, kinds, start_ns, step_ns, count):
    """``count`` steps of an all-replay plant built from ``kinds``, each
    step preceded by ``power_at`` of its pv and load at the next ten step
    ends, as an ``mpc-perfect`` window asks: (step records, forecasts)."""
    pv_kind, load_kind, battery_kind, grid_kind = kinds
    pv, load = pv_kind(table, 1, 120.0), load_kind(table, 2, 120.0)
    simulator = Simulator(
        start_ns,
        power_source=pv,
        load=load,
        battery=battery_kind(table, 3, 120.0, CAPACITY_J),
        # a recorded battery names no efficiencies, so the projection takes 1
        inverter=InverterPVFirst(
            **defaults("inverter", battery_capacity_j=CAPACITY_J, battery_eta_charge=1.0, battery_eta_discharge=1.0)
        ),
        grid=grid_kind(table, 4, 120.0),
    )
    records, forecasts = [], []
    for k in range(count):
        ahead = [start_ns + (k + i) * step_ns for i in range(1, min(10, count - k) + 1)]
        forecasts.append([(pv.power_at(t).hex(), load.power_at(t).hex()) for t in ahead])
        records.append(_hexes(simulator.step(step_ns)))
    return records, forecasts


@pytest.mark.parametrize("step_s", [60, 90, 120])
def test_a_days_recording_replays_off_its_knots_as_the_per_channel_lookups(tmp_path, step_s):
    """A 1 d @ 60 s recording replayed at 60, 90 and 120 s steps, from a
    step before its first knot and from half a step off a knot, with
    forecasts asked ahead of every step: the same step records, bit for
    bit, and the same forecasts as the components in ``oracles``, which
    equal the numpy lookup's."""
    scenario = tmp_path / "day.json"
    scenario.write_text(json.dumps({"schema_version": 1, **CASES["run-2d"][1], "horizon_seconds": 86_400, "step_seconds": 60}))
    assert cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "rec")]) == cli.EXIT_OK
    table = ingest_timeseries(tmp_path / "rec" / "channels.csv")
    pv_times = table.channel(1, "pv_power").times_ns
    assert pv_times[0] == START_NS + 60 * NS and len(pv_times) == 1440
    step_ns = step_s * NS
    shipped = (ReplayPowerSource, ReplayLoad, ReplayBattery, ReplayGrid)
    reference = (ReplayPowerSourceReference, ReplayLoadReference, ReplayBatteryReference, ReplayGridReference)
    for start_ns in (START_NS, pv_times[0] + step_ns // 2):
        count = (pv_times[-1] - start_ns) // step_ns
        got = _replay_with_forecasts(table, shipped, start_ns, step_ns, count)
        want = _replay_with_forecasts(table, reference, start_ns, step_ns, count)
        assert got == want, (step_s, start_ns)
        power = table.channel(1, "pv_power")
        ends = [start_ns + k * step_ns for k in range(1, count + 1)]
        assert [forecast[0][0] for forecast in got[1]] == [max(interpolate_reference(power, t), 0.0).hex() for t in ends]
