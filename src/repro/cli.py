"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the experiment harnesses:

* ``calibrate`` — the Fig. 3 utilization sweep;
* ``compare``   — a Figs. 5/6/7-style policy comparison;
* ``sweep``     — the Fig. 9 probing-interval sweep;
* ``reproduce`` — everything, in paper order (Fig. 3, 5, 6, 7, 8, 9);
* ``faults``    — list/show/run fault-injection scenarios (robustness);
* ``report``    — read an ``--obs-out`` or ``--trace-out`` export back: one
  text report with observability, telemetry-quality, what-if and trace
  sections, and optionally the same pass's HTML dashboard (the report's
  tables plus charts and the profile's flamegraph), Chrome trace, and the
  profile's collapsed stacks;
* ``cache``     — inspect, checksum-verify, or clear the on-disk run cache;
* ``resume``    — continue an interrupted sweep from its ``--journal`` file.

Every experiment command executes its grid on :class:`repro.runner.Runner`:
``--jobs N`` fans runs out over supervised worker processes (results are
byte-identical to serial), ``--cache`` reuses ``.runcache/`` results from
previous invocations, and ``--cache-dir`` relocates the cache.  Every
observer in the registry (:mod:`repro.observers`: span traces, the engine
profile, state sampling and the two observatories) adds one flag, with its
help text; a flag whose output the command cannot deliver is rejected.

Resilience: ``--run-timeout`` bounds each run's wall clock (hung workers
become structured failures), ``--retries`` re-runs crashed/timed-out cells
on fresh workers with backoff, ``--journal PATH`` checkpoints per-run
completion so ``--resume`` (or the ``resume`` command) restarts an
interrupted sweep re-running only what's missing, and Ctrl-C exits with a
summary after persisting everything already computed.

All output is plain text tables (`repro.experiments.report`); ``--out``
additionally writes the report to a file.  ``--obs-out PATH`` (``compare``
and ``reproduce``) captures the observability layer — metrics, structured
events, and the scheduler decision audit — as JSONL.

``--faults PLAN`` (``compare`` and ``reproduce``) injects a fault scenario —
a built-in name (see ``repro faults``) or a JSON plan file — into every run;
``--no-degradation`` additionally disables retry/failover and telemetry
quarantine, showing what the faults cost an unprotected system.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import List, Optional, Sequence

from repro import observers
from repro.edge.task import SizeClass
from repro.errors import ExperimentError, ReproError
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
    SMOKE_SCALE,
    ExperimentConfig,
)
from repro.experiments.probing_sweep import DEFAULT_INTERVALS, run_probing_sweep
from repro.experiments.report import (
    render_calibration,
    render_comparison,
    render_ecdf_points,
    render_probing_sweep,
)

SCALES = {"smoke": SMOKE_SCALE, "quick": QUICK_SCALE, "full": FULL_SCALE}

# Mirrors repro.runner.supervisor.DEFAULT_RETRIES; duplicated here so
# building the parser never imports the runner stack.
_DEFAULT_RETRIES = 1
FIGURES = {"fig5": (FIG5_CONFIG, "completion"), "fig6": (FIG6_CONFIG, "completion"),
           "fig7": (FIG7_CONFIG, "transfer")}
_CLASSES = {c.label: c for c in SizeClass}


@contextmanager
def _output(path: str):
    """Writing an output file: a path that cannot be written is an
    ``error: <path>: <reason>`` exit 2, as an unreadable input is."""
    try:
        yield
    except OSError as exc:
        raise ReproError(f"{path}: {exc.strerror or exc}") from exc


def _write_text(path: str, text: str) -> None:
    with _output(path), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class _Reporter:
    def __init__(self, out_path: Optional[str]) -> None:
        self.out_path = out_path
        self.lines: List[str] = []

    def emit(self, text: str = "") -> None:
        print(text)
        sys.stdout.flush()
        self.lines.append(text)

    def close(self) -> None:
        if self.out_path:
            _write_text(self.out_path, "\n".join(self.lines) + "\n")
            print(f"report written to {self.out_path}", file=sys.stderr)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None)


def _add_obs_out(parser: argparse.ArgumentParser) -> None:
    """``--obs-out``: only on the commands that write it."""
    parser.add_argument(
        "--obs-out", type=str, default=None, metavar="PATH",
        help="capture the observability layer (metrics + events + decision "
             "audit) to a JSONL file; see the report command",
    )


def _add_runner(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run up to N grid cells in parallel worker processes "
             "(results are byte-identical to --jobs 1; default: 1)",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="reuse cached run results and cache new ones "
             "(default: --no-cache)",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="run-cache directory (default: .runcache; implies --cache)",
    )
    # One flag per observer, generated from the registry.
    observers.add_flags(parser)
    parser.add_argument(
        "--run-timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock timeout; a hung run is killed and recorded "
             "as a structured failure instead of wedging the sweep "
             "(default: auto-scaled from each run's expected duration when "
             "supervised; 0 disables)",
    )
    parser.add_argument(
        "--retries", type=int, default=_DEFAULT_RETRIES, metavar="N",
        help="re-run a crashed/timed-out/raising run up to N extra times on "
             "a fresh worker, with exponential backoff "
             f"(default: {_DEFAULT_RETRIES})",
    )
    parser.add_argument(
        "--journal", type=str, default=None, metavar="PATH",
        help="checkpoint per-run completion state to this JSONL journal so "
             "an interrupted sweep can be resumed (see --resume and the "
             "resume command)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue the sweep recorded in --journal: already-completed "
             "runs are served from the cache, only missing/failed ones "
             "re-run (implies --cache)",
    )


# command -> (spec kinds its grids run, export channels it writes); an
# observer flag whose output the command would discard is an argument error.
_NO_OBS_OUT = {observers.TRACE_RECORDS, observers.PROVENANCE}
_DELIVERS = {
    "calibrate": ({observers.CALIBRATION}, {observers.PROVENANCE}),
    "compare": ({observers.EXPERIMENT}, _NO_OBS_OUT | {observers.OBS_RECORDS}),
    "sweep": ({observers.EXPERIMENT}, _NO_OBS_OUT),
    "sensitivity": ({observers.EXPERIMENT}, _NO_OBS_OUT),
    "reproduce": ({observers.EXPERIMENT, observers.CALIBRATION},
                  _NO_OBS_OUT | {observers.OBS_RECORDS}),
    "faults": ({observers.EXPERIMENT}, _NO_OBS_OUT),
}


def _runner_from_args(args: argparse.Namespace):
    """Build the Runner the command's grids execute on."""
    from repro.errors import ExperimentError
    from repro.runner import DEFAULT_CACHE_DIR, ResultCache, RunJournal, Runner

    journal_path = getattr(args, "journal", None)
    resume = getattr(args, "resume", False)
    if resume and not journal_path:
        raise ExperimentError("--resume requires --journal PATH")
    journal = None
    if journal_path:
        journal = RunJournal(journal_path)
        if journal.exists() and not resume:
            raise ExperimentError(
                f"journal {journal_path} already exists; pass --resume to "
                f"continue that sweep, or remove the file to start fresh"
            )
    cache = None
    cache_dir = getattr(args, "cache_dir", None)
    # --resume implies --cache: completed cells are served from the cache,
    # and without it every "done" journal entry would re-run anyway.
    if getattr(args, "cache", False) or cache_dir or resume:
        cache = ResultCache(cache_dir or DEFAULT_CACHE_DIR)
    progress = None
    if getattr(args, "jobs", 1) > 1 or cache is not None or journal is not None:
        progress = lambda line: print(line, file=sys.stderr)  # noqa: E731
    runner_obs = None
    if getattr(args, "obs_out", None):
        # A hub for the runner's own resilience events (failures, retries,
        # cache corruption); _finish_runner appends them to --obs-out.
        from repro.obs import Observability

        runner_obs = Observability()
    return Runner(
        jobs=getattr(args, "jobs", 1),
        cache=cache,
        progress=progress,
        obs=runner_obs,
        observe=observers.from_args(args),
        run_timeout=getattr(args, "run_timeout", None),
        retries=getattr(args, "retries", 0),
        journal=journal,
    )


# Runner resilience event kinds that _finish_runner forwards to --obs-out.
_RESILIENCE_EVENTS = {"runner_run_failed", "runner_run_retry", "cache_corrupt"}


def _finish_runner(reporter: "_Reporter", args: argparse.Namespace, runner) -> None:
    """Flush a runner's accumulated instrumentation: write the --trace-out
    span export and print the merged --profile summary.  With both
    --profile and --obs-out, the merged summary also rides on the obs
    export as one ``kind: "profile"`` record so ``report`` can show it."""
    from repro.obs.export import write_jsonl

    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        with _output(trace_out):
            total = write_jsonl(runner.trace_records, trace_out)
        reporter.emit(
            f"traces: {total} span records written to {trace_out} "
            f"(summarize with: repro report {trace_out})"
        )
    # Records append only to an obs export the command actually wrote.
    obs_out = getattr(args, "obs_out", None)
    obs_out = obs_out if obs_out and os.path.exists(obs_out) else None
    if obs_out and runner.obs is not None:
        # Forward the runner's own resilience events (failures, retries,
        # cache corruption) so the report can surface them.  Appended only
        # when present: a clean sweep's export is byte-stable against the
        # pre-supervision format.
        resilience = [
            record
            for record in runner.obs.events.snapshot()
            if record.get("event") in _RESILIENCE_EVENTS
        ]
        if resilience:
            write_jsonl(resilience, obs_out, append=True)
            reporter.emit(
                f"observability: {len(resilience)} runner resilience "
                f"record(s) appended to {obs_out}"
            )
    summary = runner.profile_summary()
    if summary is not None:
        from repro.simnet.engine import render_profile

        reporter.emit(render_profile(summary))
        if obs_out:
            write_jsonl([{"kind": "profile", "profile": summary}], obs_out, append=True)
            reporter.emit(f"profile: summary appended to {obs_out}")


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", type=str, default=None, metavar="PLAN",
        help="inject a fault scenario into every run: a built-in name "
             "(see the 'faults' command) or a JSON plan file",
    )
    parser.add_argument(
        "--no-degradation", action="store_true",
        help="with --faults: disable retry/failover and telemetry "
             "quarantine (the unprotected-system ablation)",
    )


def _apply_faults(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Fold --faults / --no-degradation into an experiment config."""
    spec = getattr(args, "faults", None)
    if not spec:
        return config
    from repro.experiments.fault_scenarios import resolve_plan

    return replace(
        config,
        fault_plan=resolve_plan(spec),
        degradation=not getattr(args, "no_degradation", False),
    )


def _obs_labels(obs_out: Optional[str], **context):
    """Per-run observability label builder for commands honoring --obs-out.

    Returns run-label dicts (not hubs): the hub itself is created inside the
    worker process executing the run, and its records come back on the
    result payload."""
    if not obs_out:
        return None

    def labels(config):
        run = dict(context)
        run.update(
            policy=config.policy,
            size_class=config.size_class.label,
            seed=config.seed,
        )
        return run

    return labels


def _write_obs(reporter: "_Reporter", obs_out: Optional[str], records) -> None:
    """Write collected observability records to one JSONL file."""
    if not obs_out:
        return
    from repro.obs.export import write_jsonl

    with _output(obs_out):
        total = write_jsonl(list(records), obs_out)
    reporter.emit(f"observability: {total} records written to {obs_out}")


def cmd_calibrate(args: argparse.Namespace) -> int:
    reporter = _Reporter(args.out)
    runner = _runner_from_args(args)
    points = run_calibration_sweep(
        tuple(args.levels), duration=args.duration, seed=args.seed,
        runner=runner,
    )
    reporter.emit("Fig. 3 — max queue depth & RTT vs utilization")
    reporter.emit(render_calibration(points))
    _finish_runner(reporter, args, runner)
    reporter.close()
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    reporter = _Reporter(args.out)
    base, measure = FIGURES[args.figure]
    config = replace(base, scale=SCALES[args.scale], seed=args.seed)
    config = _apply_faults(config, args)
    classes = tuple(_CLASSES[c] for c in args.classes)
    runner = _runner_from_args(args)
    comparison = run_comparison(
        config,
        size_classes=classes,
        policies=(POLICY_AWARE, POLICY_NEAREST, POLICY_RANDOM),
        obs_labels=_obs_labels(args.obs_out, figure=args.figure),
        runner=runner,
    )
    reporter.emit(f"{args.figure} — policy comparison ({measure} time)")
    reporter.emit(render_comparison(comparison, measure=measure))
    _write_obs(reporter, args.obs_out, comparison.obs_records)
    _finish_runner(reporter, args, runner)
    reporter.close()
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    reporter = _Reporter(args.out)
    runner = _runner_from_args(args)
    sweeps = [
        run_probing_sweep(
            name, intervals=tuple(args.intervals), seed=args.seed, runner=runner
        )
        for name in args.scenarios
    ]
    reporter.emit("Fig. 9 — probing interval vs mean transfer time")
    reporter.emit(render_probing_sweep(sweeps))
    _finish_runner(reporter, args, runner)
    reporter.close()
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.experiments.sensitivity import sweep_k, sweep_probing_parameter

    reporter = _Reporter(args.out)
    base = replace(
        ExperimentConfig(workload="serverless", metric="delay",
                         size_class=_CLASSES[args.size_class]),
        scale=SCALES[args.scale], seed=args.seed,
    )
    runner = _runner_from_args(args)
    if args.parameter == "k":
        result = sweep_k(values=tuple(args.values), base_config=base, runner=runner)
    else:
        result = sweep_probing_parameter(
            args.parameter, tuple(args.values), base_config=base, runner=runner
        )
    reporter.emit(f"sensitivity of gain-vs-nearest to {args.parameter}")
    for value, gain in result.series():
        reporter.emit(f"  {args.parameter} = {value:g}: gain {gain:+.1f}%")
    reporter.emit(f"best value: {result.best_value():g}")
    _finish_runner(reporter, args, runner)
    reporter.close()
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    reporter = _Reporter(args.out)
    scale = SCALES[args.scale]
    classes = tuple(SizeClass) if args.scale != "smoke" else (SizeClass.VS, SizeClass.S)
    calib_duration = {"smoke": 20.0, "quick": 30.0, "full": 300.0}[args.scale]
    intervals = (0.1, 30.0) if args.scale == "smoke" else DEFAULT_INTERVALS
    started = time.time()
    runner = _runner_from_args(args)

    reporter.emit(f"# Reproduction report (scale={args.scale}, seed={args.seed})")
    reporter.emit("\n## Fig. 3 — max queue depth & RTT vs utilization")
    points = run_calibration_sweep(
        (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        duration=calib_duration, seed=args.seed, runner=runner,
    )
    reporter.emit(render_calibration(points))

    comparisons = {}
    for name, (base, measure) in FIGURES.items():
        reporter.emit(f"\n## {name} ({base.workload}, {base.metric} ranking, {measure} time)")
        comparison = run_comparison(
            _apply_faults(replace(base, scale=scale, seed=args.seed), args),
            size_classes=classes,
            policies=(POLICY_AWARE, POLICY_NEAREST, POLICY_RANDOM),
            obs_labels=_obs_labels(args.obs_out, figure=name),
            runner=runner,
        )
        comparisons[name] = comparison
        reporter.emit(render_comparison(comparison, measure=measure))
    _write_obs(
        reporter, args.obs_out,
        [r for c in comparisons.values() for r in c.obs_records],
    )

    reporter.emit("\n## fig8 (ECDF of per-task completion gain vs nearest)")
    sc = SizeClass.S if SizeClass.S in classes else classes[0]
    gains = paired_gains(
        comparisons["fig7"].result(sc, POLICY_AWARE),
        comparisons["fig7"].result(sc, POLICY_NEAREST),
    )
    reporter.emit(render_ecdf_points(gains))
    reporter.emit(
        f"zero-or-negative gain: {100*(1-fraction_above(gains, 0.0)):.0f}% of tasks"
    )

    reporter.emit("\n## fig9 (probing interval sweep)")
    sweeps = [
        run_probing_sweep(name, intervals=intervals, seed=args.seed, runner=runner)
        for name in ("traffic1", "traffic2")
    ]
    reporter.emit(render_probing_sweep(sweeps))
    _finish_runner(reporter, args, runner)
    reporter.emit(f"\nwall-clock: {time.time() - started:.0f}s")
    reporter.close()
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import BUILTIN_SCENARIOS, builtin_plan
    from repro.experiments.fault_scenarios import (
        compare_degradation,
        render_fault_comparison,
        resolve_plan,
    )

    reporter = _Reporter(args.out)
    if args.show:
        reporter.emit(resolve_plan(args.show).to_json())
        reporter.close()
        return 0
    if args.run:
        plan = resolve_plan(args.run)
        config = ExperimentConfig(scale=SCALES[args.scale], seed=args.seed)
        runner = _runner_from_args(args)
        rows = compare_degradation(plan, base_config=config, runner=runner)
        reporter.emit(render_fault_comparison(plan, rows))
        _finish_runner(reporter, args, runner)
        reporter.close()
        # CI contract: a scenario where a *degraded* policy completes zero
        # tasks means graceful degradation is broken — fail loudly.
        broken = [r for r in rows if r.degradation and r.tasks_completed == 0]
        if broken:
            print(
                "error: zero tasks completed with degradation on for: "
                + ", ".join(r.policy for r in broken),
                file=sys.stderr,
            )
            return 1
        return 0
    reporter.emit("built-in fault scenarios (run with: repro faults --run NAME):")
    for name in sorted(BUILTIN_SCENARIOS):
        reporter.emit(f"  {name:<15} {builtin_plan(name).description}")
    reporter.close()
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.runner import (
        DEFAULT_CACHE_DIR,
        ResultCache,
        RunJournal,
        Runner,
        canonical_json,
    )

    journal = RunJournal(args.journal)
    state = journal.load(
        on_warning=lambda msg: print(f"warning: {msg}", file=sys.stderr)
    )
    print(f"journal {args.journal}: {state.summary()}")
    if not state.order:
        print("error: journal records no runs; nothing to resume",
              file=sys.stderr)
        return 2
    specs = [state.specs[spec_hash] for spec_hash in state.order]
    cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    runner = Runner(
        jobs=args.jobs,
        cache=cache,
        progress=lambda line: print(line, file=sys.stderr),
        run_timeout=args.run_timeout,
        retries=args.retries,
        journal=journal,
        on_failure="keep",
    )
    results = runner.run(specs)
    failures = [r for r in results if not r.ok]
    print(
        f"resume: {runner.stats.cache_hits} from cache, "
        f"{runner.stats.executed} executed, {len(failures)} failed"
    )
    if args.payloads_out:
        with _output(args.payloads_out), \
                open(args.payloads_out, "w", encoding="utf-8") as fh:
            for result in results:
                if result.ok:
                    fh.write(
                        canonical_json(
                            {"spec_hash": result.spec_hash,
                             "payload": result.payload}
                        ) + "\n"
                    )
        print(
            f"payloads: {sum(1 for r in results if r.ok)} record(s) "
            f"written to {args.payloads_out} (journal order)"
        )
    if failures:
        print("still failing after retries:", file=sys.stderr)
        for result in failures:
            failure = result.failure or {}
            print(
                f"  {result.spec.label()}: {failure.get('kind', '?')}/"
                f"{failure.get('error_type', '?')} after "
                f"{failure.get('attempts', '?')} attempt(s)",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.runner import DEFAULT_CACHE_DIR, ResultCache

    cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached run(s) from {cache.root}")
        return 0
    if args.verify:
        report = cache.verify()
        print(
            f"run cache {cache.root}: {report['checked']} entries checked, "
            f"{report['ok']} ok, {len(report['evicted'])} corrupt (evicted), "
            f"{len(report['unverified'])} without checksum"
        )
        for spec_hash, reason in report["evicted"]:
            print(f"  evicted {spec_hash[:16]}: {reason}")
        return 1 if report["evicted"] else 0
    entries = cache.entries()
    print(f"run cache {cache.root}: {len(entries)} entries, "
          f"{cache.size_bytes()} bytes")
    for spec_hash in entries:
        print(f"  {spec_hash}")
    return 0


def _load_records(path: str):
    """The records of an export for ``report``, or ``None`` after
    saying on stderr why there are none (the command then exits 2).  A run
    killed mid-write leaves a truncated last line: that one is dropped with
    a warning and the report renders from the complete lines."""
    from repro.obs.export import JsonlError, read_jsonl

    try:
        return read_jsonl(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
    except OSError as exc:
        print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
    except JsonlError as exc:
        if exc.truncated:
            print(f"warning: {exc}; truncated last line dropped", file=sys.stderr)
            return exc.records
        print(f"error: {exc}", file=sys.stderr)
    return None


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.export import render_obs_report
    from repro.obs.telquality import render_telemetry_report
    from repro.obs.tracing import render_trace_report, write_chrome_trace
    from repro.obs.whatif import render_whatif_report

    records = _load_records(args.path)
    if records is None:
        return 2
    reporter = _Reporter(args.out)
    for header, render in (
        ("observability report", render_obs_report),
        ("telemetry-quality report", render_telemetry_report),
        ("what-if replay report", render_whatif_report),
        ("trace report", render_trace_report),
    ):
        reporter.emit(f"{header} — {args.path}")
        reporter.emit(render(records))
    if args.chrome:
        with _output(args.chrome):
            n = write_chrome_trace(records, args.chrome)
        reporter.emit(
            f"chrome trace: {n} events written to {args.chrome} "
            f"(open in Perfetto: https://ui.perfetto.dev)"
        )
    if args.html_out:
        from repro.obs.dashboard import write_dashboard

        with _output(args.html_out):
            write_dashboard(records, args.html_out, title=f"repro — {args.path}")
        print(f"dashboard: {len(records)} records rendered to {args.html_out}",
              file=sys.stderr)
    if args.collapsed_out:
        profiles = [r["profile"] for r in records if r.get("kind") == "profile"]
        if profiles:
            from repro.obs.perf import collapsed_stacks

            _write_text(args.collapsed_out, collapsed_stacks(profiles[-1]))
            print(f"collapsed stacks written to {args.collapsed_out}",
                  file=sys.stderr)
        else:
            print("note: no profile in the report; skipping --collapsed-out",
                  file=sys.stderr)
    reporter.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    import repro

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="Fig. 3 utilization sweep")
    p.add_argument("--levels", type=float, nargs="+",
                   default=[0.0, 0.25, 0.5, 0.75, 0.9, 1.0])
    p.add_argument("--duration", type=float, default=30.0)
    _add_runner(p)
    _add_common(p)
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("compare", help="Figs. 5/6/7 policy comparison")
    p.add_argument("--figure", choices=sorted(FIGURES), default="fig5")
    p.add_argument("--scale", choices=sorted(SCALES), default="quick")
    p.add_argument("--classes", nargs="+", choices=sorted(_CLASSES), default=["VS", "S"])
    _add_faults(p)
    _add_runner(p)
    _add_common(p)
    _add_obs_out(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="Fig. 9 probing-interval sweep")
    p.add_argument("--scenarios", nargs="+", choices=["traffic1", "traffic2"],
                   default=["traffic2"])
    p.add_argument("--intervals", type=float, nargs="+", default=[0.1, 10.0, 30.0])
    _add_runner(p)
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("sensitivity", help="parameter sweep vs the nearest baseline")
    p.add_argument("--parameter", default="k",
                   help="ExperimentConfig field to sweep (default: k)")
    p.add_argument("--values", type=float, nargs="+", default=[0.0, 0.02, 0.08])
    p.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    p.add_argument("--size-class", dest="size_class", choices=sorted(_CLASSES), default="S")
    _add_runner(p)
    _add_common(p)
    p.set_defaults(fn=cmd_sensitivity)

    p = sub.add_parser("reproduce", help="regenerate every figure")
    p.add_argument("--scale", choices=sorted(SCALES), default="quick")
    _add_faults(p)
    _add_runner(p)
    _add_common(p)
    _add_obs_out(p)
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser(
        "faults", help="list, show, or run fault-injection scenarios"
    )
    p.add_argument("--show", metavar="PLAN", default=None,
                   help="print a scenario (or JSON plan file) as JSON")
    p.add_argument("--run", metavar="PLAN", default=None,
                   help="run the degradation comparison for a scenario")
    p.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    _add_runner(p)
    _add_common(p)
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser("cache", help="inspect, verify, or clear the run cache")
    p.add_argument("--clear", action="store_true", help="delete every entry")
    p.add_argument("--verify", action="store_true",
                   help="checksum-verify every entry, evicting corrupt ones "
                        "(exit 1 if any were evicted)")
    p.add_argument("--cache-dir", type=str, default=None, metavar="DIR")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser(
        "resume",
        help="resume an interrupted sweep from its --journal file: "
             "completed runs come from the cache, missing/failed ones "
             "re-run",
    )
    p.add_argument("journal", help="JSONL journal written via --journal")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (default: 1)")
    p.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                   help="run-cache directory holding the completed results "
                        "(default: .runcache)")
    p.add_argument("--run-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-run wall-clock timeout (default: auto-scaled "
                        "when supervised; 0 disables)")
    p.add_argument("--retries", type=int, default=_DEFAULT_RETRIES,
                   metavar="N",
                   help="extra attempts per crashed/timed-out run "
                        f"(default: {_DEFAULT_RETRIES})")
    p.add_argument("--payloads-out", type=str, default=None, metavar="PATH",
                   help="write one {spec_hash, payload} JSON line per "
                        "completed run, in journal order — byte-identical "
                        "to the same export from an uninterrupted sweep")
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser(
        "report",
        help="read an --obs-out or --trace-out JSONL export back: "
             "observability, telemetry-quality (--telquality runs), what-if "
             "replay and span-trace sections, plus optional file outputs",
    )
    p.add_argument("path", help="JSONL file written via --obs-out or --trace-out")
    p.add_argument("--out", type=str, default=None,
                   help="also write the text report to this file")
    p.add_argument("--html-out", type=str, default=None, metavar="PATH",
                   help="render the export as one self-contained HTML "
                        "dashboard page (best with --sample-interval runs)")
    p.add_argument("--chrome", type=str, default=None, metavar="PATH",
                   help="convert the export's spans to Chrome trace-event "
                        "JSON (loadable in Perfetto / chrome://tracing)")
    p.add_argument("--collapsed-out", type=str, default=None, metavar="PATH",
                   help="write the export's engine profile in collapsed-stack "
                        "format (flamegraph.pl / speedscope compatible)")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _DELIVERS:
            reason = observers.undelivered(
                args.command, observers.from_args(args), *_DELIVERS[args.command]
            )
            if reason is not None:
                raise ExperimentError(reason)
        return args.fn(args)
    except ReproError as exc:
        from repro.runner.supervisor import RunInterrupted, RunsFailedError

        if isinstance(exc, RunInterrupted):
            # Completed results (and the journal, if one was requested) are
            # already persisted; summarize and exit with the SIGINT code.
            pending = max(0, exc.total - exc.completed - exc.failed)
            print("\nsweep interrupted", file=sys.stderr)
            print(f"  completed : {exc.completed}/{exc.total}", file=sys.stderr)
            print(f"  failed    : {exc.failed}", file=sys.stderr)
            print(f"  pending   : {pending}", file=sys.stderr)
            if exc.journal_path:
                print(
                    f"  resume    : repro resume {exc.journal_path}",
                    file=sys.stderr,
                )
            return 130
        if isinstance(exc, RunsFailedError):
            print(f"error: {exc}", file=sys.stderr)
            for result in exc.failures:
                failure = result.failure or {}
                print(
                    f"  {result.spec.label()}: {failure.get('kind', '?')}/"
                    f"{failure.get('error_type', '?')} after "
                    f"{failure.get('attempts', '?')} attempt(s)"
                    + (
                        f" (signal {failure['signal']})"
                        if failure.get("signal")
                        else ""
                    ),
                    file=sys.stderr,
                )
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
