"""Bytecodes and Python calls per function for one bench-sized Fig. 5 cell,
and its event counts.

    PYTHONPATH=src python -m tests.simnet.cell_ops [--out cell_ops.txt]

The cell is the seed-0 network-aware class-S Fig. 5 cell at the bench
scale (``size_scale=0.08, total_tasks=9, mean_interarrival=0.5``, background
transfers at ``time_scale=0.03``), run once under
:func:`repro.obs.perf.count_ops`, set-up included: a layer whose saving is
calls rather than bytecodes shows in the ``calls`` column.  Below the table, the
run's ``events_executed`` (what one event per frame, completion and arrival
would have dispatched) and the handler events the engine popped off its
heap.  The counts depend on the CPython version, so the table is a record
to compare between trees on one interpreter, not a gate.
"""

import argparse
import dataclasses
import heapq
import platform
import sys

from repro.edge.task import SizeClass
from repro.experiments.comparison import FIG5_CONFIG
from repro.experiments.harness import ExperimentScale, run_experiment
from repro.obs.perf import count_ops
from repro.simnet import engine

CELL = dataclasses.replace(
    FIG5_CONFIG,
    size_class=SizeClass.S,
    seed=0,
    policy="aware",
    scale=ExperimentScale(
        size_scale=0.08, total_tasks=9, mean_interarrival=0.5, time_scale=0.03
    ),
)


class _CountingHeapq:
    """``heapq`` for the engine module, counting the handler events its run
    loop pops (window-edge and stop entries and cancelled entries aside)."""

    def __init__(self):
        self.dispatched = 0

    def __getattr__(self, name):
        return getattr(heapq, name)

    def heappop(self, heap):
        entry = heapq.heappop(heap)
        handle = entry[2]
        if entry[3] is not None and (handle is None or not handle.cancelled):
            self.dispatched += 1
        return entry


def measure():
    """Run the cell under the op counter:
    ``(counts, calls, result, dispatched)``."""
    shim = _CountingHeapq()
    results = []
    calls = {}
    engine.heapq = shim
    try:
        counts = count_ops(lambda: results.append(run_experiment(CELL)), calls=calls)
    finally:
        engine.heapq = heapq
    return counts, calls, results[0], shim.dispatched


def table(counts, calls, result, dispatched):
    """One line per function, most bytecodes first, then the totals."""
    lines = [
        f"python {platform.python_version()}; one Fig. 5 cell "
        f"(class S, aware, seed 0, bench scale)",
        f"{'bytecodes':>12}  {'calls':>9}  function",
    ]
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"{count:>12}  {calls.get(name, 0):>9}  {name}")
    lines.append(f"{sum(counts.values()):>12}  {sum(calls.values()):>9}  total")
    lines.append(f"{result.events_executed:>12}  events_executed")
    lines.append(f"{dispatched:>12}  heap dispatches")
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args(argv)
    text = table(*measure())
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
