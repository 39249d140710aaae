"""Single-purpose cemsim processes that run_bench.py times from outside.

  python3 bench/probe.py setup SCENARIO STRATEGY...
      Import cemsim, load the scenario and build a bundle for each
      strategy without stepping it: the set-up a CLI command pays before
      its first step (recording ingestion and predictor training included).

  python3 bench/probe.py solver SCENARIO
      Time solve_charging on the full first-day window of the scenario's
      perfect forecast at 120, 60 and 30 s steps (T = 720, 1440, 2880),
      SOLVER_REPS times each; print one JSON object per T with the median
      time and the plan's total_cost.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

SOLVER_REPS = 3


def setup(scenario_path: str, strategies: list[str]) -> None:
    from cemsim.scenario import build_bundle, load_scenario

    scenario = load_scenario(scenario_path)
    for strategy in strategies:
        build_bundle(scenario, strategy)


def solver(scenario_path: str) -> None:
    from cemsim.control import ChargingProblem, solve_charging
    from cemsim.scenario import build_bundle, load_scenario

    for step_seconds in (120, 60, 30):
        scenario = load_scenario(scenario_path, step_seconds_override=step_seconds)
        controller = build_bundle(scenario, "mpc-perfect").controller
        window = controller.forecast_provider(scenario.start_ns)
        problem = ChargingProblem(
            step_seconds=window.step_seconds,
            prices=window.prices,
            load_w=window.load_w,
            pv_w=window.pv_w,
            capacity_j=controller.capacity_j,
            soc_min=controller.soc_min,
            soc_max=controller.soc_max,
            soc_initial=scenario.battery["initial_soc"],
            max_grid_power_w=controller.max_grid_power_w,
        )
        times_ms = []
        for _ in range(SOLVER_REPS):
            started = time.perf_counter()
            plan = solve_charging(problem)
            times_ms.append((time.perf_counter() - started) * 1e3)
        print(json.dumps({"T": problem.horizon, "ms": statistics.median(times_ms), "total_cost": plan.total_cost}))


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[1] == "setup":
        setup(argv[2], argv[3:])
    elif len(argv) == 3 and argv[1] == "solver":
        solver(argv[2])
    else:
        print(__doc__, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
