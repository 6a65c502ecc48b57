"""Exporters for the observability layer: JSONL and run summaries.

The wire format is one JSON object per line, discriminated by ``kind``:

* ``{"kind": "metric", ...}`` — one instrument snapshot (counter / gauge /
  histogram) from the metrics registry;
* ``{"kind": "event", "event": <kind>, "time": t, ...}`` — one structured
  event-log record;
* ``{"kind": "decision-audit", ...}`` — one scheduler ranking query with its
  per-candidate explanation;
* ``{"kind": "timeseries", ...}`` — one sampled series (ring-buffered
  points plus stride/offered bookkeeping, see :mod:`repro.obs.timeseries`),
  present when the run sampled with ``--sample-interval``;
* ``{"kind": "span", ...}`` — one causal-trace span (see
  :mod:`repro.obs.tracing`), written to a separate ``--trace-out`` file and
  summarized by the trace section of ``repro report``;
* ``{"kind": "profile", "profile": <summary>}`` — the merged engine
  profile (per-handler wall, phase attribution, overhead estimate),
  appended when a command runs with both ``--profile`` and ``--obs-out``;
* ``{"kind": "telquality", ...}`` — the telemetry-quality observatory
  record (INT coverage ledger, freshness digests, decision-error
  attribution; see :mod:`repro.obs.telquality`), present for
  ``--telquality`` runs and summarized by the telemetry-quality section of
  ``repro report``;
* ``{"kind": "whatif", ...}`` — the counterfactual decision observatory
  record (per-decision hindsight regret, alternative-policy replay,
  staleness attribution; see :mod:`repro.obs.whatif`), present for
  ``--whatif`` runs and summarized by the what-if section of ``repro report``.

Records exported from a hub with run labels carry them under ``"run"`` so
multiple runs (e.g. every cell of a policy comparison) can share one file
and still be separated at analysis time.  :func:`read_jsonl` is the one
loader of ``repro report``, and :func:`render_obs_report` its observability
section: counts plus the per-policy estimate-vs-ground-truth delay error.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

from repro.obs.audit import delay_error_stats
from repro.obs.quantiles import QuantileDigest

__all__ = [
    "JsonlError",
    "write_jsonl",
    "read_jsonl",
    "render_obs_report",
]


# ``json.dumps(record, sort_keys=True)`` builds this encoder on every call;
# one instance gives the same bytes.
_ENCODER = json.JSONEncoder(sort_keys=True)
_DECODER = json.JSONDecoder()


class JsonlError(ValueError):
    """Line ``lineno`` of a JSONL file is not one JSON object: not UTF-8,
    not JSON, or JSON of another type.  ``records`` holds the lines before
    it, parsed; ``truncated`` says the line is the file's last and has no
    newline — what a writer killed mid-record leaves behind."""

    def __init__(
        self, path: str, lineno: int, reason: str,
        records: List[Dict[str, Any]], truncated: bool = False,
    ) -> None:
        super().__init__(f"{path}:{lineno}: {reason}")
        self.lineno = lineno
        self.records = records
        self.truncated = truncated


def write_jsonl(records: Iterable[Dict[str, Any]], path: str, *, append: bool = False) -> int:
    """Write one JSON object per line; returns the number of lines written."""
    n = 0
    encode = _ENCODER.encode
    with open(path, "a" if append else "w") as fh:
        for record in records:
            fh.write(encode(record) + "\n")
            n += 1
    return n


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """The records of a JSONL file, blank lines skipped.  Raises
    :class:`JsonlError` naming the first line that is not one JSON object."""
    out: List[Dict[str, Any]] = []
    # raw_decode is what json.loads calls once it has matched the white
    # space around the value, which strip() has already removed.
    decode = _DECODER.raw_decode
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode()
            except UnicodeDecodeError as exc:
                raise JsonlError(path, lineno, f"not UTF-8: {exc.reason}", out) from None
            text = line.strip()
            if text:
                try:
                    record, end = decode(text)
                    if end != len(text):
                        raise json.JSONDecodeError("Extra data", text, end)
                except json.JSONDecodeError as exc:
                    # Only a file's last line can lack its newline.
                    raise JsonlError(
                        path, lineno, f"not JSON: {exc.msg} (column {exc.colno})", out,
                        truncated=not line.endswith("\n"),
                    ) from None
                if type(record) is not dict:
                    raise JsonlError(
                        path, lineno, f"not a JSON object: {type(record).__name__}", out
                    )
                out.append(record)
    return out


# -- report rendering ------------------------------------------------------
#
# The run-grouping and number-formatting helpers every text section of
# ``repro report`` (and the dashboard's numbers) share.


def _run_key(record: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(record.get("run", {}).items()))


def _run_title(key: Tuple[Tuple[str, Any], ...]) -> str:
    return ", ".join(f"{k}={v}" for k, v in key) if key else "(unlabeled run)"


def _fmt(value: Any) -> str:
    """One float format for every number in a report (determinism)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_ms(value: Any) -> str:
    return f"{value * 1e3:.2f} ms" if isinstance(value, (int, float)) else "n/a"


def _fmt_s(value: Any) -> str:
    return f"{value:.3f} s" if isinstance(value, (int, float)) else "n/a"


def _completion_quantile_lines(records: List[Dict[str, Any]]) -> List[str]:
    """The report's per-run completion-time quantile block, or no lines
    when the export holds no digest-backed ``task_completion_seconds``
    histogram.  The histogram digests (one per size class) merge into one
    per-run digest; merging is exact, so this equals a digest built from
    every raw observation."""
    digest_runs: Dict[Tuple[Tuple[str, Any], ...], QuantileDigest] = {}
    for record in records:
        if (
            record.get("kind") == "metric"
            and record.get("type") == "histogram"
            and record.get("name") == "task_completion_seconds"
            and record.get("digest")
        ):
            digest = QuantileDigest.from_dict(record["digest"])
            key = _run_key(record)
            if key in digest_runs:
                digest_runs[key].merge(digest)
            else:
                digest_runs[key] = digest
    if not digest_runs:
        return []
    lines = ["completion-time quantiles (per run, merged digests):"]
    for key in sorted(digest_runs):
        digest = digest_runs[key]
        p50, p95, p99 = digest.quantiles((0.50, 0.95, 0.99))
        lines.append(
            f"  {_run_title(key)}: n={digest.count} "
            f"p50 {_fmt_s(p50)}, p95 {_fmt_s(p95)}, p99 {_fmt_s(p99)}, "
            f"max {_fmt_s(digest.max)}"
        )
    return lines


def render_obs_report(records: List[Dict[str, Any]]) -> str:
    """Human-readable summary of one observability export."""
    by_kind: Dict[str, int] = {}
    for record in records:
        by_kind[record.get("kind", "?")] = by_kind.get(record.get("kind", "?"), 0) + 1
    lines = [
        f"records: {len(records)} "
        f"(metric {by_kind.get('metric', 0)}, event {by_kind.get('event', 0)}, "
        f"decision-audit {by_kind.get('decision-audit', 0)}, "
        f"timeseries {by_kind.get('timeseries', 0)}, "
        f"profile {by_kind.get('profile', 0)}, "
        f"telquality {by_kind.get('telquality', 0)}, "
        f"whatif {by_kind.get('whatif', 0)})",
    ]

    event_counts: Dict[str, int] = {}
    for record in records:
        if record.get("kind") == "event":
            name = record.get("event", "?")
            event_counts[name] = event_counts.get(name, 0) + 1
    if event_counts:
        lines.append("events by kind:")
        for name, count in sorted(event_counts.items()):
            lines.append(f"  {name:<18} {count}")

    # Runner resilience: retries and cache evictions from the Runner's
    # event log (see repro.runner.runner).
    retried = [
        r for r in records
        if r.get("kind") == "event" and r.get("event") == "runner_run_retry"
    ]
    corrupt = [
        r for r in records
        if r.get("kind") == "event" and r.get("event") == "cache_corrupt"
    ]
    if retried or corrupt:
        lines.append("runner resilience:")
        if retried:
            by_failure: Dict[str, int] = {}
            for r in retried:
                failure = str(r.get("failure_kind", "?"))
                by_failure[failure] = by_failure.get(failure, 0) + 1
            detail = ", ".join(f"{k} {n}" for k, n in sorted(by_failure.items()))
            lines.append(f"  retries: {len(retried)} ({detail})")
        if corrupt:
            lines.append(
                f"  corrupt cache entries evicted: {len(corrupt)} "
                f"({', '.join(str(r.get('spec_hash', '?')) for r in corrupt)})"
            )

    lines.extend(_completion_quantile_lines(records))

    # Health-alert summary: fire/clear edge counts per rule, plus any
    # alerts still firing at export time.
    alert_rules: Dict[str, Dict[str, int]] = {}
    open_alerts: Dict[Tuple[str, str], int] = {}
    for record in records:
        if record.get("kind") == "event" and record.get("event") == "alert":
            rule = str(record.get("rule", "?"))
            state = str(record.get("state", "?"))
            counts = alert_rules.setdefault(rule, {"fire": 0, "clear": 0})
            counts[state] = counts.get(state, 0) + 1
            key = (rule, str(record.get("target", "")))
            if state == "fire":
                open_alerts[key] = open_alerts.get(key, 0) + 1
            elif state == "clear":
                open_alerts[key] = open_alerts.get(key, 0) - 1
    if alert_rules:
        lines.append("health alerts:")
        for rule in sorted(alert_rules):
            counts = alert_rules[rule]
            still = sorted(
                target for (r, target), n in open_alerts.items()
                if r == rule and n > 0
            )
            suffix = f"; still firing: {', '.join(still)}" if still else ""
            lines.append(
                f"  {rule:<18} fired {counts.get('fire', 0)}, "
                f"cleared {counts.get('clear', 0)}{suffix}"
            )

    # Per-run probe-loss summary from the collector's seq-gap detection:
    # each probe_lost event carries the size of one sequence gap.
    loss_runs: Dict[Tuple[Tuple[str, Any], ...], List[Dict[str, Any]]] = {}
    for record in records:
        if record.get("kind") == "event" and record.get("event") == "probe_lost":
            loss_runs.setdefault(_run_key(record), []).append(record)
    if loss_runs:
        lines.append("probe loss (collector seq gaps):")
        for key in sorted(loss_runs):
            events = loss_runs[key]
            total = sum(int(e.get("lost", 0)) for e in events)
            by_pair: Dict[Tuple[str, str], Dict[str, int]] = {}
            for e in events:
                pair = (str(e.get("src")), str(e.get("dst")))
                counts = by_pair.setdefault(pair, {"gaps": 0, "lost": 0})
                counts["gaps"] += 1
                counts["lost"] += int(e.get("lost", 0))
            lines.append(
                f"  {_run_title(key)}: {total} probes lost across {len(events)} gap events "
                f"({len(by_pair)} src/dst pairs)"
            )
            for (src, dst), counts in sorted(by_pair.items()):
                lines.append(
                    f"    {src} -> {dst}: {counts['lost']} lost "
                    f"in {counts['gaps']} gap(s)"
                )

    # Audit-capacity overflow: the bounded DecisionAudit emits one warning
    # event per run carrying how many decisions it dropped past its cap, so
    # truncated audits are never mistaken for complete ones.
    overflow = [
        r for r in records
        if r.get("kind") == "event"
        and r.get("event") == "warning"
        and r.get("reason") == "decision_audit_overflow"
    ]
    if overflow:
        lines.append("decision audit overflow (records dropped past capacity):")
        for r in overflow:
            lines.append(
                f"  {_run_title(_run_key(r))}: {r.get('dropped', '?')} decisions dropped "
                f"(cap {r.get('max_decisions', '?')}) — audit sections below "
                f"cover a truncated sample"
            )

    # Per-run (≈ per-policy cell) decision audit summary.
    runs: Dict[Tuple[Tuple[str, Any], ...], List[Dict[str, Any]]] = {}
    for record in records:
        if record.get("kind") == "decision-audit":
            runs.setdefault(_run_key(record), []).append(record)
    if runs:
        lines.append("decision audit (estimate vs ground truth, delay metric):")
        for key in sorted(runs):
            decisions = runs[key]
            stats = delay_error_stats(
                c
                for d in decisions
                if d.get("metric") == "delay"
                for c in d.get("candidates", ())
            )
            lines.append(f"  {_run_title(key)}: {len(decisions)} decisions")
            if stats["samples"]:
                lines.append(
                    f"    delay error: mean {_fmt_ms(stats['mean_error'])}, "
                    f"abs {_fmt_ms(stats['mean_abs_error'])} over "
                    f"{stats['samples']} candidate estimates, "
                    f"{stats['skipped']} skipped "
                    f"(mean estimate {_fmt_ms(stats['mean_estimate'])}, "
                    f"mean truth {_fmt_ms(stats['mean_truth'])})"
                )
            else:
                lines.append(
                    "    delay error: n/a (no paired estimate/truth samples, "
                    f"{stats['skipped']} skipped)"
                )

    # Engine-profile records: top handlers and phase attribution, rendered
    # with the same table the --profile flag prints at run time.
    for record in records:
        if record.get("kind") == "profile" and record.get("profile"):
            from repro.simnet.engine import render_profile

            lines.append("engine profile:")
            lines.extend(
                "  " + line
                for line in render_profile(record["profile"]).splitlines()
            )
    return "\n".join(lines)
