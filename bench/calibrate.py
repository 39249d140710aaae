"""Fixed reference workload that measures how fast the machine runs right now.

  python3 bench/calibrate.py OUT.csv

It imports nothing from cemsim and never changes, so its CPU time moves
only with the machine: other tenants of a shared host slow it as they slow
the cemsim commands.  The mix follows a ``cemsim run`` in miniature: a
fresh interpreter that imports numpy, steps a small Python model per tick,
writes each tick as a CSV row of float reprs, and does some small numpy
array work.  run_bench.py runs it between the processes it times and
scales their CPU times by its own (see README.md, "Why CPU time, scaled
by a calibration").
"""

from __future__ import annotations

import csv
import sys

import numpy as np

TICKS = 20_000
STEP_S = 60.0


class Cell:
    """A toy battery: current from power, state of charge, voltage."""

    __slots__ = ("voltage", "current", "soc")

    def __init__(self) -> None:
        self.voltage, self.current, self.soc = 48.0, 0.0, 0.5

    def step(self, power_w: float) -> dict:
        self.current = power_w / self.voltage
        self.soc = min(1.0, max(0.0, self.soc + self.current * STEP_S / 360_000.0))
        self.voltage = 44.0 + 8.0 * self.soc
        return {"current": self.current, "soc": self.soc, "voltage": self.voltage}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    cell = Cell()
    rows = []
    for tick in range(TICKS):
        out = cell.step(1500.0 * ((tick % 720) / 360.0 - 1.0))
        rows.append((tick, tick * 60_000_000_000, repr(out["current"]), repr(out["soc"]), repr(out["voltage"])))
    with open(argv[1], "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    values = np.linspace(0.0, 1.0, 2000)
    for _ in range(200):
        values = np.cumsum(np.sqrt(values * values + 1.0)) / values.size
    return 0 if np.isfinite(values).all() else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
