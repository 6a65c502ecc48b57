#!/usr/bin/env python3
"""Compare two sets of ``run.py --out`` files, one row per (workload, metric).

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py A1.json A2.json A3.json B1.json B2.json B3.json

The first half of the files are runs of the base, the second half runs of the
candidate; each side's value is the median of its runs.  Unit, direction and
bound of the end-to-end metrics come from BENCHMARK.json; the *gated* values
(the issue's single-workload metrics) carry their own in the run file and are
compared between runs of one seed only.  A row reads

* ``ok``         -- B is no worse than A by more than the bound, or every run
  of B reads better than every run of A;
* ``regressed``  -- B is worse than A by more than the bound;
* ``unresolved`` -- the run-to-run spread of either side (distance between
  the quartiles of its runs as a share of their median; with one run a side,
  its per-unit spread / sqrt(n)) is wider than the bound, or the run clock
  took more than ``STOLEN_LIMIT`` of a run's wall time off as stolen: these
  runs cannot tell the two sides apart either way.

Simulated statistics (``events_executed``, ``sim_task_completion_s``,
``aware_gain_pct``) are functions of the seed alone: between runs of one
commit on one seed any difference is reported as ``nondeterminism``, never as
noise.  Runs made under different ``PYTHONHASHSEED`` values are compared on
those statistics and the correctness checks only.  A failed correctness check
on either side is its own row.  Exit code 1 unless every row is ``ok``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
STOLEN_LIMIT = 0.25

Row = Tuple[str, ...]


def run_spread(metrics: List[Dict[str, Any]]) -> float:
    values = [m["value"] for m in metrics]
    if len(values) == 1:
        return metrics[0]["spread"] / math.sqrt(max(1, metrics[0]["n"]))
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def judge(
    a: List[Dict[str, Any]], b: List[Dict[str, Any]], better: str, bound: float, stolen: float
) -> Tuple[float, float, str]:
    """(base, new, status) for one metric measured by runs ``a`` and ``b``;
    ``stolen`` is the largest share of a run the clock took off."""
    lower = better == "lower"
    va, vb = [m["value"] for m in a], [m["value"] for m in b]
    base, new = statistics.median(va), statistics.median(vb)
    worse = (new - base) / base if lower else (base - new) / base
    all_better = max(vb) < min(va) if lower else min(vb) > max(va)
    if all_better:
        status = "ok"
    elif stolen > STOLEN_LIMIT or max(run_spread(a), run_spread(b)) > bound:
        status = "unresolved"
    else:
        status = "ok" if worse <= bound else "regressed"
    return base, new, status


def compare(a: List[Dict[str, Any]], b: List[Dict[str, Any]], bench: Dict[str, Any]) -> List[Row]:
    rows: List[Row] = []
    runs = a + b
    same_inputs = len({(r["seed"], r["tiny"]) for r in runs}) == 1
    same_hashing = len({r["hash_seed"] for r in runs}) == 1
    for name in a[0]["workloads"]:
        if not all(name in r["workloads"] for r in runs):
            continue
        wa = [r["workloads"][name] for r in a]
        wb = [r["workloads"][name] for r in b]
        stolen = max(w["clock"]["stolen_share"] for w in wa + wb)
        specs = [(spec, "end_to_end") for spec in bench["end_to_end"]] + [
            ({"name": key, **value}, "gated") for key, value in wa[0].get("gated", {}).items()
        ]
        for spec, section in specs:
            ma = [w[section][spec["name"]] for w in wa]
            mb = [w[section][spec["name"]] for w in wb]
            base, new, status = judge(ma, mb, spec["better"], spec["bound"], stolen)
            if not same_hashing:
                status = "skipped (hash seeds differ)"
            elif section == "gated" and not same_inputs:
                status = "skipped (seeds differ)"
            raw_a, raw_b = (statistics.median(m["raw"] for m in side) for side in (ma, mb))
            rows.append((
                name, spec["name"], f"{base:.6g}", f"{new:.6g}", spec["unit"],
                f"{100 * (new - base) / base:+.1f}% of {base:.4g}", f"{raw_a:.4g} -> {raw_b:.4g}",
                f"{100 * spec['bound']:.0f}%", status,
            ))
        for key, base in wa[0].get("exact", {}).items():
            others = [w.get("exact", {}).get(key) for w in wa[1:] + wb]
            differing = [value for value in others if value != base]
            if not same_inputs:
                status = "skipped (seeds differ)"
            else:
                status = "nondeterminism" if differing else "ok"
            new = differing[0] if differing else base
            rows.append((name, key, repr(base), repr(new), "exact", "", "", "0", status))
        rows.append((
            name, "clock.stolen_share", f"{max(w['clock']['stolen_share'] for w in wa):.3f}",
            f"{max(w['clock']['stolen_share'] for w in wb):.3f}", "ratio",
            "largest share of a run's wall taken off the clock", "", f"{100 * STOLEN_LIMIT:.0f}%",
            "ok" if stolen <= STOLEN_LIMIT else "unresolved",
        ))
        failed_a, failed_b = sum(w["failed"] for w in wa), sum(w["failed"] for w in wb)
        rows.append((
            name, "failed_checks", str(failed_a), str(failed_b), "count",
            f"of {sum(w['attempted'] for w in wa)} / {sum(w['attempted'] for w in wb)} attempted",
            "", "0", "ok" if failed_a + failed_b == 0 else "regressed",
        ))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) < 2 or len(argv) % 2 or any(arg.startswith("-") for arg in argv):
        print(__doc__.split("\n\n")[0])
        print("usage: compare.py A.json... B.json...  (as many B as A)")
        return 2
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    runs = []
    for path in argv:
        with open(path) as fh:
            runs.append(json.load(fh))
    half = len(runs) // 2
    rows = compare(runs[:half], runs[half:], bench)
    header = (
        "workload", "metric", "A", "B", "unit", "change (base)", "raw A -> B", "bound", "status",
    )
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    bad = [row for row in rows if row[-1] != "ok" and not row[-1].startswith("skipped")]
    print(f"{len(rows)} rows over {half} run(s) a side, {len(bad)} not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
