"""Run one cemsim CLI command with a span recorded at every layer boundary.

Usage: python3 bench/trace_cli.py SPANS.npz CLI-ARG...

The program itself is not changed: before the command runs, this script
replaces the names each caller looks up (``cemsim.cli.build_bundle``,
``cemsim.control.solve_charging``, the ``step`` of every component on a
freshly built ``Simulator`` ...) with wrappers that record a span
``(name, start, end, parent)``.  Spans stay in memory and are written to
SPANS.npz when the command ends; ``run_bench.py`` turns them into the
per-layer metrics.  The exit code is the command's own.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

import cemsim.cli
import cemsim.control
import cemsim.core
import cemsim.forecast
import cemsim.models.synthetic
import cemsim.replay
import cemsim.scenario

# Span name of each simulator slot, keyed by the scenario block's kind.
_COMPONENT_LAYER = {
    ("power_source", "synthetic"): "models.synthetic.pv",
    ("load", "synthetic"): "models.synthetic.load",
    ("context", "synthetic"): "models.synthetic.context",
    ("battery", "linear"): "models.battery",
    ("grid", "priced"): "models.grid",
}
_SCENARIO_BLOCK = {"power_source": "pv", "load": "load", "battery": "battery", "grid": "grid", "context": "context"}


class Tracer:
    """Spans in flat arrays, plus named counters."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: Counter[str] = Counter()
        self._stack = [-1]

    def span(self, name: str, fn):
        name_id = self.ids.setdefault(name, len(self.ids))
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(sorted(self.ids, key=self.ids.get), dtype=str),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            counters=np.array(json.dumps(self.counters, sort_keys=True)),
        )


def _instrument_bundle(tracer: Tracer, bundle) -> None:
    simulator = bundle.simulator
    scenario = bundle.scenario
    simulator.step = tracer.span(f"engine.step.{bundle.strategy}", simulator.step)
    for slot, block in _SCENARIO_BLOCK.items():
        component = getattr(simulator, slot)
        if component is None:
            continue
        kind = getattr(scenario, block)["kind"]
        layer = "replay.step" if kind == "replay" else _COMPONENT_LAYER[(slot, kind)]
        component.step = tracer.span(layer, component.step)
    simulator.inverter.step = tracer.span("models.inverter", simulator.inverter.step)

    controller = bundle.controller
    if controller is None:
        return
    counters = tracer.counters
    decide = controller.decide

    def counted_decide(now_ns, soc):
        solves = counters["control.solves"]
        decision = decide(now_ns, soc)
        if decision.fallback:
            counters["control.fallbacks"] += 1
        elif counters["control.solves"] == solves:
            counters["control.reused"] += 1
        return decision

    controller.decide = tracer.span("control.decide", counted_decide)
    controller.forecast_provider = tracer.span(
        f"forecast.window.{bundle.strategy}", controller.forecast_provider
    )


def instrument(tracer: Tracer) -> None:
    """Patch every boundary the CLI commands cross."""
    counters = tracer.counters
    cli = cemsim.cli

    cli.load_scenario = tracer.span("scenario.load", cli.load_scenario)

    build_bundle = cli.build_bundle

    def traced_build_bundle(scenario, strategy="default"):
        bundle = tracer.span(f"scenario.build_bundle.{strategy}", build_bundle)(scenario, strategy)
        _instrument_bundle(tracer, bundle)
        return bundle

    cli.build_bundle = traced_build_bundle

    engine_run = cli.run

    def run_with_traced_sink(simulator, total_ticks, step_ticks, sink=None):
        if sink is not None:
            sink = tracer.span("cli.sink", sink)
        return engine_run(simulator, total_ticks, step_ticks, sink=sink)

    cli.run = tracer.span("engine.run", run_with_traced_sink)
    cli.run_to_directory = tracer.span("cli.run_to_directory", cli.run_to_directory)
    cli.cmd_compare = tracer.span("cli.compare", cli.cmd_compare)
    cli.evaluate_families = tracer.span("forecast.evaluate", cli.evaluate_families)

    def counted_ingest(ingest):
        def ingest_and_count(path, *args, **kwargs):
            table = ingest(path, *args, **kwargs)
            counters["replay.ingest_rows"] += sum(
                len(table.channel(*key).times_ns) for key in table.keys()
            )
            return table

        return tracer.span("replay.ingest_timeseries", ingest_and_count)

    for module in (cli, cemsim.scenario):
        module.ingest_timeseries = counted_ingest(module.ingest_timeseries)
        module.ingest_context = tracer.span("replay.ingest_context", module.ingest_context)

    cemsim.scenario.train_predictor = tracer.span("forecast.train", cemsim.scenario.train_predictor)
    cemsim.forecast.Predictor.predict = tracer.span("forecast.predict", cemsim.forecast.Predictor.predict)
    cemsim.replay.interpolate = tracer.span("replay.interpolate", cemsim.replay.interpolate)

    solve_charging = cemsim.control.solve_charging

    def counted_solve(problem):
        counters["control.solves"] += 1
        return solve_charging(problem)

    cemsim.control.solve_charging = tracer.span("control.solve", counted_solve)

    context_query = tracer.span("core.context_query", cemsim.core.context_query)
    for module in (cemsim.core, cemsim.models.synthetic, cemsim.replay, cemsim.scenario):
        module.context_query = context_query


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 1
    tracer = Tracer()
    instrument(tracer)
    code = cemsim.cli.main(argv[2:])
    tracer.save(argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
