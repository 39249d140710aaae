"""Record the reference outputs that every benchmark run is checked against.

  python3 bench/make_reference.py

Runs each workload's commands once, untimed, for every scenario seed of
the pool, checks the seed-independent invariants, and writes
bench/reference.json: per seed and workload, the summary values of each
command and, for plan-day, the total_cost of each solver-probe plan.
Record it only on sources whose outputs are trusted; a change that alters
outputs on purpose records them again and says why.
"""

from __future__ import annotations

import json
import sys

from run_bench import REFERENCE, SEED_POOL, WORKLOADS, Run, environment, solver_costs, solver_probe


def record_seed(seed: int) -> dict:
    entry = {}
    for name in WORKLOADS:
        run = Run(name, seed, None)
        run.prepare()
        run.repetition()
        values = {command.name: run.workload.values(command) for command in run.workload.commands()}
        if name == "plan-day":
            values["solver"] = solver_costs(solver_probe(run))
        if run.failed:
            raise SystemExit(f"seed {seed} {name}: {run.problems}")
        entry[name] = values
    return entry


def main() -> int:
    seeds = {}
    for seed in range(SEED_POOL):
        seeds[str(seed)] = record_seed(seed)
        print(f"seed {seed} recorded", flush=True)
    source = environment(0)
    REFERENCE.write_text(
        json.dumps(
            {"pool": SEED_POOL, "git_sha": source["git_sha"], "source_sha256": source["source_sha256"], "seeds": seeds},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
