#!/usr/bin/env python
"""Regenerate every table and figure in the paper's evaluation section.

Runs, in order: Fig. 3 (calibration), Figs. 5/6/7 (policy comparisons per
Table I size class), Fig. 8 (per-task gain ECDF), Fig. 9 (probing-interval
sweep), and prints each as a text table.  The output of ``--scale full`` is
what EXPERIMENTS.md records.

Scales:
  smoke  — minutes:   2 size classes, 36 tasks, Table I x0.2
  quick  — ~0.5 hour: all 4 size classes, 36 tasks, Table I x0.2 (default)
  full   — hours:     all 4 size classes, 200 tasks, Table I x1.0 (the paper)

Run:  python examples/full_reproduction.py [--scale quick] [--out report.md]
"""

import argparse
import sys
import time

from repro.edge.task import SizeClass
from repro.experiments.calibration import run_calibration_sweep
from repro.experiments.comparison import (
    FIG5_CONFIG,
    FIG6_CONFIG,
    FIG7_CONFIG,
    run_comparison,
)
from repro.experiments.ecdf import fraction_above, paired_gains
from repro.experiments.harness import (
    FULL_SCALE,
    POLICY_AWARE,
    POLICY_NEAREST,
    POLICY_RANDOM,
    QUICK_SCALE,
)
from repro.experiments.probing_sweep import run_probing_sweep
from repro.experiments.report import (
    render_calibration,
    render_comparison,
    render_ecdf_points,
    render_probing_sweep,
)

SCALES = {
    "smoke": (QUICK_SCALE, (SizeClass.VS, SizeClass.S), 20.0, (0.1, 30.0)),
    "quick": (QUICK_SCALE, tuple(SizeClass), 30.0, (0.1, 5.0, 10.0, 20.0, 30.0)),
    "full": (FULL_SCALE, tuple(SizeClass), 300.0, (0.1, 5.0, 10.0, 20.0, 30.0)),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None, help="also write to file")
    args = parser.parse_args()
    scale, classes, calib_duration, intervals = SCALES[args.scale]

    lines = []

    def emit(text: str = "") -> None:
        print(text)
        sys.stdout.flush()
        lines.append(text)

    started = time.time()
    emit(f"# Reproduction report (scale={args.scale}, seed={args.seed})")
    emit(f"Tasks per run: {scale.total_tasks}; Table I x{scale.size_scale:g}")

    # ---- Fig. 3 -----------------------------------------------------------
    emit("\n## Fig. 3 — max queue depth & RTT vs utilization")
    points = run_calibration_sweep(
        (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        duration=calib_duration,
        seed=args.seed,
    )
    emit(render_calibration(points))

    # ---- Figs. 5/6/7 -------------------------------------------------------
    figures = [
        ("Fig. 5 — serverless, delay ranking (completion time)", FIG5_CONFIG, "completion"),
        ("Fig. 6 — distributed, delay ranking (completion time)", FIG6_CONFIG, "completion"),
        ("Fig. 7 — distributed, bandwidth ranking (transfer time)", FIG7_CONFIG, "transfer"),
    ]
    comparisons = {}
    for title, base, measure in figures:
        emit(f"\n## {title}")
        from dataclasses import replace

        comparison = run_comparison(
            replace(base, scale=scale, seed=args.seed),
            size_classes=classes,
            policies=(POLICY_AWARE, POLICY_NEAREST, POLICY_RANDOM),
        )
        comparisons[title] = comparison
        emit(render_comparison(comparison, measure=measure))

    # ---- Fig. 8 ------------------------------------------------------------
    emit("\n## Fig. 8 — ECDF of per-task completion-time gain vs nearest")
    fig7 = comparisons[figures[2][0]]
    sc = SizeClass.S if SizeClass.S in classes else classes[0]
    gains = paired_gains(
        fig7.result(sc, POLICY_AWARE), fig7.result(sc, POLICY_NEAREST)
    )
    emit(render_ecdf_points(gains))
    emit(
        f"tasks with zero-or-negative gain: {100*(1-fraction_above(gains, 0.0)):.0f}%  "
        f"(paper: 19-38% depending on setup)"
    )

    # ---- Fig. 9 ------------------------------------------------------------
    emit("\n## Fig. 9 — probing interval vs mean transfer time")
    sweeps = [
        run_probing_sweep(name, intervals=intervals, seed=args.seed)
        for name in ("traffic1", "traffic2")
    ]
    emit(render_probing_sweep(sweeps))

    emit(f"\nTotal wall-clock: {time.time() - started:.0f}s")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"\nReport written to {args.out}")


if __name__ == "__main__":
    main()
