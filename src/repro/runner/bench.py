"""Runner benchmark: serial vs parallel vs cached on the Fig. 5 grid.

``repro bench-runner`` runs the same policy-comparison grid three ways —
serially, on a process pool, and against a warm cache — and reports the
wall-clock for each plus the byte-identity verdict (every cell's payload
must be identical across all three executions).  CI runs this on a small
grid as the bench-smoke job; the committed ``BENCH_runner.json`` records a
full-size data point.

Parallel speedup is bounded by the host's core count — on a host with
fewer CPUs than ``--jobs`` the parallel pass measures process-spawn
overhead, not parallelism, so the report annotates ``parallel_valid:
false`` and downstream consumers (``bench-compare``, ``perf-report``)
exclude the number instead of flagging noise.  The cached pass skips
simulation entirely and its speedup is large everywhere.

Every ``bench-runner`` invocation also appends one provenance-stamped
record to the **bench-history ledger** (``BENCH_history.jsonl`` by
default): the timing metrics plus the phase-level engine profile, so
``repro perf-report`` can render trends across commits and
``bench-compare --history`` can gate against a rolling baseline instead
of one hand-picked file.
"""

from __future__ import annotations

import datetime
import json
import os
import sys
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.errors import ExperimentError
from repro.runner.cache import ResultCache
from repro.runner.runner import Runner, RunResult, expand_grid
from repro.runner.spec import RunSpec

__all__ = [
    "bench_grid_specs",
    "run_bench",
    "compare_bench",
    "render_bench_compare",
    "parallel_valid",
    "history_record",
    "append_history",
    "read_history",
    "rolling_baseline",
    "DEFAULT_MAX_REGRESSION",
    "PROFILE_GATE_MAX_REGRESSION",
    "DEFAULT_HISTORY_PATH",
    "DEFAULT_HISTORY_WINDOW",
]

# A candidate timing may be up to (1 + this) x the baseline before the
# comparison flags a regression.  Generous by default: bench numbers come
# from heterogeneous hosts (laptops, CI runners) and only order-of-magnitude
# slowdowns are actionable without a pinned machine.
DEFAULT_MAX_REGRESSION = 0.5

# The wall-clock metrics a bench report carries, in report order.
_TIMING_METRICS = ("serial_s", "parallel_s", "cached_s")

# Hot-path handlers gated by profile wall-time when both reports carry an
# engine profile.  These two dominate the per-packet path; the fast-path
# refactor bought its speedup here, and the tighter default threshold
# (20% vs the generous timing default) keeps it from quietly eroding.
# Override per handler with ``--threshold "profile:Switch.on_ingress=0.5"``.
_PROFILE_GATE_HANDLERS = ("Switch.on_ingress", "Port._tx_complete")
PROFILE_GATE_MAX_REGRESSION = 0.2

# Default bench-history ledger path (relative to the repo root / cwd) and
# the number of most-recent records the rolling baseline is computed over.
DEFAULT_HISTORY_PATH = "BENCH_history.jsonl"
DEFAULT_HISTORY_WINDOW = 5


def bench_grid_specs(scale: str = "smoke", seed: int = 0) -> List[RunSpec]:
    """The Fig. 5 grid (serverless workload, delay ranking): every size
    class x every policy at the requested scale."""
    from repro.experiments.comparison import (
        ALL_CLASSES,
        DEFAULT_POLICIES,
        FIG5_CONFIG,
    )
    from repro.experiments.harness import FULL_SCALE, QUICK_SCALE, SMOKE_SCALE

    scales = {"smoke": SMOKE_SCALE, "quick": QUICK_SCALE, "full": FULL_SCALE}
    base = RunSpec.from_config(
        replace(FIG5_CONFIG, scale=scales[scale], seed=seed)
    )
    return expand_grid(
        base,
        {
            "size_class": [c.label for c in ALL_CLASSES],
            "policy": list(DEFAULT_POLICIES),
        },
    )


def _diverging_cells(
    reference: List[RunResult], candidate: List[RunResult]
) -> List[str]:
    out = []
    for ref, cand in zip(reference, candidate):
        if ref.payload_json() != cand.payload_json():
            out.append(ref.spec.label())
    return out


def run_bench(
    *,
    scale: str = "smoke",
    jobs: int = 2,
    seed: int = 0,
    cache_root: str,
    progress: Optional[Callable[[str], None]] = None,
    observe: Optional[Mapping[str, Any]] = None,
    run_timeout: Optional[float] = None,
    retries: int = 0,
) -> Dict[str, Any]:
    """Time the grid serial / parallel / cached; return the report dict.

    ``cache_root`` is used for the cached pass only (pre-populated from the
    serial results, then timed).  The report's ``byte_identical`` is the
    headline correctness claim: parallel and cached payloads must match the
    serial ones byte for byte.  ``observe`` (default: the engine profiler)
    is stamped onto every pass's specs; a profile lives in result
    provenance, so byte-identity still holds, and the serial pass's merged
    summary lands in the report's ``profile`` key.

    ``parallel_valid`` records whether the parallel timing means anything:
    on a host with fewer CPUs than ``jobs`` the pool just multiplexes one
    core and the number measures spawn overhead, so it is annotated false
    and excluded from comparisons rather than flagged as a regression.

    ``run_timeout``/``retries`` plumb the resilience knobs into each pass
    (see :class:`Runner`).  A positive ``run_timeout`` moves the serial
    pass under supervision (one child process per run), which adds spawn
    overhead to ``serial_s`` — leave it unset for honest timing."""
    observe = {"profile": True} if observe is None else observe
    specs = bench_grid_specs(scale, seed)
    say = progress if progress is not None else (lambda _line: None)
    cpus = os.cpu_count() or 1

    say(f"serial: {len(specs)} runs ...")
    serial_runner = Runner(
        jobs=1, observe=observe, run_timeout=run_timeout, retries=retries,
    )
    t0 = time.perf_counter()
    serial = serial_runner.run(specs)
    serial_s = time.perf_counter() - t0

    say(f"parallel: {len(specs)} runs on {jobs} workers ...")
    parallel_runner = Runner(
        jobs=jobs, observe=observe, run_timeout=run_timeout, retries=retries,
    )
    t0 = time.perf_counter()
    parallel = parallel_runner.run(specs)
    parallel_s = time.perf_counter() - t0

    say("cached: warm-cache re-run ...")
    cache = ResultCache(cache_root)
    for result in serial:
        cache.put(result.spec_hash, result.to_json().encode("utf-8"))
    cached_runner = Runner(
        jobs=1, cache=cache, observe=observe,
        run_timeout=run_timeout, retries=retries,
    )
    t0 = time.perf_counter()
    cached = cached_runner.run(specs)
    cached_s = time.perf_counter() - t0

    diverging = sorted(
        set(_diverging_cells(serial, parallel))
        | set(_diverging_cells(serial, cached))
    )
    return {
        "grid": {
            "figure": "fig5",
            "scale": scale,
            "seed": seed,
            "runs": len(specs),
        },
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "parallel_jobs": jobs,
        "parallel_valid": jobs <= cpus,
        "parallel_speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "cached_s": round(cached_s, 3),
        "cached_speedup": round(serial_s / cached_s, 3) if cached_s else None,
        "cache_hits": cached_runner.stats.cache_hits,
        "byte_identical": not diverging,
        "diverging_cells": diverging,
        "profile": serial_runner.profile_summary(),
        "host": {
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
            "platform": sys.platform,
        },
    }


def parallel_valid(report: Dict[str, Any]) -> bool:
    """Whether a report's parallel timing reflects real parallelism.

    Reports written before the ``parallel_valid`` key existed are inferred
    from ``parallel_jobs`` vs the recorded host CPU count."""
    value = report.get("parallel_valid")
    if isinstance(value, bool):
        return value
    jobs = report.get("parallel_jobs")
    cpus = dict(report.get("host") or {}).get("cpus")
    if isinstance(jobs, int) and isinstance(cpus, int):
        return jobs <= cpus
    return True


# ---------------------------------------------------------------------------
# Bench-history ledger
# ---------------------------------------------------------------------------


# Fallback ceiling for the git-commit lookup when no --run-timeout is
# plumbed through: generous, but still bounded.
DEFAULT_GIT_TIMEOUT_S = 10.0


def history_record(
    report: Dict[str, Any], *, git_timeout: Optional[float] = None
) -> Dict[str, Any]:
    """Shape one ``run_bench`` report into a provenance-stamped ledger line.

    Keeps the timing metrics and the phase profile; stamps UTC wall time
    and, when available, the current git commit so ``perf-report`` can
    label trend points.  The record is self-contained — reading the ledger
    never requires the original ``BENCH_*.json`` files.  ``git_timeout``
    bounds the commit lookup; ``bench-runner`` plumbs ``--run-timeout``
    through here so one knob governs every subprocess the bench spawns."""
    stamp = {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "git_commit": _git_commit(timeout=git_timeout),
    }
    record = dict(report)
    record["provenance"] = stamp
    return record


def _git_commit(timeout: Optional[float] = None) -> Optional[str]:
    """Current short commit hash, or None outside a git checkout."""
    import subprocess

    if timeout is None or timeout <= 0:
        timeout = DEFAULT_GIT_TIMEOUT_S
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def append_history(
    report: Dict[str, Any], path: str, *, git_timeout: Optional[float] = None
) -> Dict[str, Any]:
    """Append one report to the ledger at ``path``; returns the record.

    The append is a single ``os.write`` to an ``O_APPEND`` descriptor, so a
    ``bench-runner`` killed mid-append cannot interleave with a concurrent
    writer and at worst leaves one torn final line — which
    :func:`read_history` skips with a warning instead of failing
    ``perf-report``/``bench-compare --history``."""
    record = history_record(report, git_timeout=git_timeout)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)
    return record


def read_history(
    path: str, *, on_warning: Optional[Callable[[str], None]] = None
) -> List[Dict[str, Any]]:
    """Load ledger records oldest-first, skipping malformed lines.

    A torn line (writer killed mid-append under a pre-atomic writer, disk
    full, stray edit) costs that record only: it is skipped with a warning
    through ``on_warning`` (default: stderr) rather than making the whole
    ledger unreadable."""
    if on_warning is None:
        on_warning = lambda msg: print(f"warning: {msg}", file=sys.stderr)  # noqa: E731
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                on_warning(
                    f"{path}:{lineno}: skipping malformed history record: {exc}"
                )
                continue
            if not isinstance(record, dict):
                on_warning(
                    f"{path}:{lineno}: skipping history record: not an object"
                )
                continue
            records.append(record)
    return records


def rolling_baseline(
    records: List[Dict[str, Any]], window: int = DEFAULT_HISTORY_WINDOW
) -> Dict[str, Any]:
    """Synthesize a baseline report from the last ``window`` ledger records.

    Each timing metric becomes the median over the records that carry it —
    parallel metrics only from records whose parallel timing is valid — so
    one noisy run cannot move the gate the way a single-file baseline can.
    The grid and host of the newest record are carried over for the grid
    compatibility check."""
    if not records:
        raise ExperimentError("bench history is empty; run bench-runner first")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    tail = records[-window:]
    newest = tail[-1]
    baseline: Dict[str, Any] = {
        "grid": dict(newest.get("grid", {})),
        "host": dict(newest.get("host") or {}),
        "byte_identical": True,
        "diverging_cells": [],
        "parallel_jobs": newest.get("parallel_jobs"),
        "parallel_valid": any(parallel_valid(r) for r in tail),
        "baseline_of": len(tail),
    }
    for metric in _TIMING_METRICS:
        pool = tail
        if metric == "parallel_s":
            pool = [r for r in tail if parallel_valid(r)]
        values = sorted(
            r[metric]
            for r in pool
            if isinstance(r.get(metric), (int, float))
        )
        if not values:
            baseline[metric] = None
            continue
        mid = len(values) // 2
        if len(values) % 2:
            baseline[metric] = values[mid]
        else:
            baseline[metric] = round((values[mid - 1] + values[mid]) / 2.0, 3)
    # Median per gated hot-path handler over the records that profiled it,
    # so the profile gate works against a rolling baseline too.
    by_type: Dict[str, Any] = {}
    for handler in _PROFILE_GATE_HANDLERS:
        walls = sorted(
            wall
            for r in tail
            for wall in [
                dict(
                    dict((r.get("profile") or {}).get("by_type") or {}).get(handler)
                    or {}
                ).get("wall_s")
            ]
            if isinstance(wall, (int, float))
        )
        if walls:
            mid = len(walls) // 2
            median = (
                walls[mid]
                if len(walls) % 2
                else round((walls[mid - 1] + walls[mid]) / 2.0, 6)
            )
            by_type[handler] = {"wall_s": median}
    if by_type:
        baseline["profile"] = {"by_type": by_type}
    return baseline


def compare_bench(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    *,
    max_regression: float = DEFAULT_MAX_REGRESSION,
    thresholds: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """Diff two ``run_bench`` reports; the regression gate behind
    ``repro bench-compare``.

    Checks, in order: the candidate's ``byte_identical`` claim must hold
    (a correctness failure regardless of timing); the grids must describe
    the same workload (figure/scale/runs — seed may differ); and each
    timing metric's ratio ``candidate / baseline`` must stay at or below
    ``1 + threshold``, where ``thresholds`` overrides ``max_regression``
    per metric (e.g. ``{"cached_s": 2.0}``).  Metrics missing from either
    report are skipped and reported as such, and ``parallel_s`` is skipped
    (never failed) when either side's parallel timing is invalid — a
    1-CPU runner timing a 4-worker pool measures spawn overhead, not a
    regression.  Returns a JSON-ready report; ``ok`` is the overall
    verdict."""
    if max_regression < 0:
        raise ValueError(f"max_regression must be >= 0, got {max_regression}")
    thresholds = dict(thresholds or {})
    failures: List[str] = []

    if not candidate.get("byte_identical", False):
        failures.append(
            "candidate is not byte-identical across executors: "
            + ", ".join(candidate.get("diverging_cells", []) or ["(no detail)"])
        )
    base_grid = dict(baseline.get("grid", {}))
    cand_grid = dict(candidate.get("grid", {}))
    for field in ("figure", "scale", "runs"):
        if base_grid.get(field) != cand_grid.get(field):
            failures.append(
                f"grid mismatch on {field!r}: baseline "
                f"{base_grid.get(field)!r} vs candidate {cand_grid.get(field)!r}"
            )

    rows: List[Dict[str, Any]] = []
    for metric in _TIMING_METRICS:
        threshold = float(thresholds.get(metric, max_regression))
        base_v = baseline.get(metric)
        cand_v = candidate.get(metric)
        row: Dict[str, Any] = {
            "metric": metric,
            "baseline": base_v,
            "candidate": cand_v,
            "threshold": threshold,
        }
        if metric == "parallel_s" and not (
            parallel_valid(baseline) and parallel_valid(candidate)
        ):
            row["status"] = "skipped"
            row["ratio"] = None
            row["note"] = "parallel timing invalid (jobs > host cpus)"
        elif not isinstance(base_v, (int, float)) or not isinstance(
            cand_v, (int, float)
        ) or base_v <= 0:
            row["status"] = "skipped"
            row["ratio"] = None
        else:
            ratio = cand_v / base_v
            row["ratio"] = round(ratio, 3)
            if ratio > 1.0 + threshold:
                row["status"] = "regression"
                failures.append(
                    f"{metric}: {cand_v:.3f}s vs baseline {base_v:.3f}s "
                    f"({ratio:.2f}x > {1.0 + threshold:.2f}x allowed)"
                )
            else:
                row["status"] = "ok"
        rows.append(row)

    # Profile-handler gate: when both reports carry an engine profile, the
    # hot-path handlers' wall time is held to a tighter bar than the coarse
    # timing metrics.  Skipped (never failed) when either profile is absent
    # so profile-less reports keep comparing as before.
    base_types = dict((baseline.get("profile") or {}).get("by_type") or {})
    cand_types = dict((candidate.get("profile") or {}).get("by_type") or {})
    for handler in _PROFILE_GATE_HANDLERS:
        metric = f"profile:{handler}"
        threshold = float(thresholds.get(metric, PROFILE_GATE_MAX_REGRESSION))
        base_v = dict(base_types.get(handler) or {}).get("wall_s")
        cand_v = dict(cand_types.get(handler) or {}).get("wall_s")
        row = {
            "metric": metric,
            "baseline": round(base_v, 3) if isinstance(base_v, (int, float)) else None,
            "candidate": round(cand_v, 3) if isinstance(cand_v, (int, float)) else None,
            "threshold": threshold,
        }
        if (
            not isinstance(base_v, (int, float))
            or not isinstance(cand_v, (int, float))
            or base_v <= 0
        ):
            row["status"] = "skipped"
            row["ratio"] = None
        else:
            ratio = cand_v / base_v
            row["ratio"] = round(ratio, 3)
            if ratio > 1.0 + threshold:
                row["status"] = "regression"
                failures.append(
                    f"{metric}: {cand_v:.3f}s vs baseline {base_v:.3f}s "
                    f"({ratio:.2f}x > {1.0 + threshold:.2f}x allowed)"
                )
            else:
                row["status"] = "ok"
        rows.append(row)

    return {
        "ok": not failures,
        "max_regression": max_regression,
        "rows": rows,
        "failures": failures,
        "baseline_grid": base_grid,
        "candidate_grid": cand_grid,
    }


def render_bench_compare(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a ``compare_bench`` report."""
    lines = ["bench-compare"]
    lines.append(
        f"  grid: {report['candidate_grid'].get('figure')}"
        f"/{report['candidate_grid'].get('scale')} "
        f"({report['candidate_grid'].get('runs')} runs)"
    )
    for row in report["rows"]:
        base = row["baseline"]
        cand = row["candidate"]
        ratio = row["ratio"]
        lines.append(
            f"  {row['metric']:<12} "
            f"base={base if base is not None else '-':>8} "
            f"cand={cand if cand is not None else '-':>8} "
            f"ratio={ratio if ratio is not None else '-':>6} "
            f"(allowed {1.0 + row['threshold']:.2f}x) [{row['status']}]"
            + (f" -- {row['note']}" if row.get("note") else "")
        )
    if report["failures"]:
        lines.append("  FAILURES:")
        for failure in report["failures"]:
            lines.append(f"    - {failure}")
    lines.append(f"  verdict: {'OK' if report['ok'] else 'REGRESSION'}")
    return "\n".join(lines)
