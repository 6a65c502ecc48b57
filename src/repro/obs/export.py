"""Exporters for the observability layer: JSONL, CSV, and run summaries.

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
  summarized by ``repro trace-report``;
* ``{"kind": "profile", "profile": <summary>}`` — the merged engine
  profile (per-handler wall, phase attribution, overhead estimate),
  appended when a command runs with both ``--profile`` and ``--obs-out``;
* ``{"kind": "telquality", ...}`` — the telemetry-quality observatory
  record (INT coverage ledger, freshness digests, decision-error
  attribution; see :mod:`repro.obs.telquality`), present for
  ``--telquality`` runs and summarized by ``repro telemetry-report``;
* ``{"kind": "whatif", ...}`` — the counterfactual decision observatory
  record (per-decision hindsight regret, alternative-policy replay,
  staleness attribution; see :mod:`repro.obs.whatif`), present for
  ``--whatif`` runs and summarized by ``repro whatif-report``.

Records exported from a hub with run labels carry them under ``"run"`` so
multiple runs (e.g. every cell of a policy comparison) can share one file
and still be separated at analysis time.  :func:`render_obs_report` is the
``repro obs-report`` backend: it reads such a file back and prints counts
plus the per-policy estimate-vs-ground-truth delay error.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, Iterable, List, Tuple

from repro.obs.audit import delay_error_stats
from repro.obs.quantiles import QuantileDigest

__all__ = [
    "JsonlError",
    "write_jsonl",
    "read_jsonl",
    "write_metrics_csv",
    "flatten_labels",
    "render_obs_report",
]


# ``json.dumps(record, sort_keys=True)`` builds this encoder on every call;
# one instance gives the same bytes.
_ENCODER = json.JSONEncoder(sort_keys=True)
_DECODER = json.JSONDecoder()


class JsonlError(ValueError):
    """Line ``lineno`` of a JSONL file is not JSON.  ``records`` holds the
    lines before it, parsed; ``truncated`` says the line is the file's last
    and has no newline — what a writer killed mid-record leaves behind."""

    def __init__(
        self, path: str, lineno: int, reason: str,
        records: List[Dict[str, Any]], truncated: bool,
    ) -> None:
        super().__init__(f"{path}:{lineno}: not JSON: {reason}")
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
    :class:`JsonlError` naming the first line that is not one JSON value."""
    out: List[Dict[str, Any]] = []
    # raw_decode is what json.loads calls once it has matched the white
    # space around the value, which strip() has already removed.
    decode = _DECODER.raw_decode
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if text:
                try:
                    record, end = decode(text)
                    if end != len(text):
                        raise json.JSONDecodeError("Extra data", text, end)
                except json.JSONDecodeError as exc:
                    # Only a file's last line can lack its newline.
                    raise JsonlError(
                        path, lineno, f"{exc.msg} (column {exc.colno})", out,
                        truncated=not line.endswith("\n"),
                    ) from None
                out.append(record)
    return out


_CSV_FIELDS = (
    "name", "type", "labels", "value", "count", "sum", "mean",
    "p50", "p95", "p99", "updated_at",
)


def _escape_label(text: str) -> str:
    """Escape the label-flattening delimiters (`,` between pairs, `=` within
    a pair) plus the escape character itself, so a label value containing
    either survives a round trip through the flattened column."""
    return text.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=")


def flatten_labels(labels: Dict[str, Any]) -> str:
    """Deterministic one-column rendering of a label dict: ``k=v`` pairs
    sorted by key, joined with ``,``, delimiters escaped."""
    return ",".join(
        f"{_escape_label(str(k))}={_escape_label(str(v))}"
        for k, v in sorted(labels.items())
    )


def write_metrics_csv(records: Iterable[Dict[str, Any]], path: str) -> int:
    """Flatten the ``metric`` records of an export into a CSV table."""
    n = 0
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for record in records:
            if record.get("kind") != "metric":
                continue
            row = dict(record)
            row["labels"] = flatten_labels(record.get("labels", {}))
            writer.writerow(row)
            n += 1
    return n


# -- obs-report rendering ---------------------------------------------------


def _run_key(record: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(record.get("run", {}).items()))


def _fmt_ms(value: Any) -> str:
    return f"{value * 1e3:.2f} ms" if isinstance(value, (int, float)) else "n/a"


def _fmt_s(value: Any) -> str:
    return f"{value:.3f} s" if isinstance(value, (int, float)) else "n/a"


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

    # Runner resilience: failure envelopes, retries, and cache corruption
    # recorded by the supervision layer (see repro.runner.supervisor).
    failed = [
        r for r in records
        if r.get("kind") == "event" and r.get("event") == "runner_run_failed"
    ]
    retried = [
        r for r in records
        if r.get("kind") == "event" and r.get("event") == "runner_run_retry"
    ]
    corrupt = [
        r for r in records
        if r.get("kind") == "event" and r.get("event") == "cache_corrupt"
    ]
    if failed or retried or corrupt:
        lines.append("runner resilience:")
        if failed:
            lines.append(f"  failed runs: {len(failed)}")
            for r in failed:
                signal_note = (
                    f", signal {r['exit_signal']}" if r.get("exit_signal") else ""
                )
                lines.append(
                    f"    {r.get('label', r.get('spec_hash', '?'))}: "
                    f"{r.get('failure_kind', '?')}/{r.get('error_type', '?')} "
                    f"after {r.get('attempts', '?')} attempt(s){signal_note}"
                )
        if retried:
            by_kind: Dict[str, int] = {}
            for r in retried:
                key = str(r.get("failure_kind", "?"))
                by_kind[key] = by_kind.get(key, 0) + 1
            detail = ", ".join(f"{k} {n}" for k, n in sorted(by_kind.items()))
            lines.append(f"  retries: {len(retried)} ({detail})")
        if corrupt:
            lines.append(
                f"  corrupt cache entries evicted: {len(corrupt)} "
                f"({', '.join(str(r.get('spec_hash', '?')) for r in corrupt)})"
            )

    # Per-run completion-time quantiles: merge the task_completion_seconds
    # histogram digests (per size class) into one per-run digest — merging
    # is exact, so this equals a digest built from every raw observation.
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
    if digest_runs:
        lines.append("completion-time quantiles (per run, merged digests):")
        for key in sorted(digest_runs):
            digest = digest_runs[key]
            label = (
                ", ".join(f"{k}={v}" for k, v in key) if key else "(unlabeled run)"
            )
            p50, p95, p99 = digest.quantiles((0.50, 0.95, 0.99))
            lines.append(
                f"  {label}: n={digest.count} "
                f"p50 {_fmt_s(p50)}, p95 {_fmt_s(p95)}, p99 {_fmt_s(p99)}, "
                f"max {_fmt_s(digest.max)}"
            )

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
            label = (
                ", ".join(f"{k}={v}" for k, v in key) if key else "(unlabeled run)"
            )
            total = sum(int(e.get("lost", 0)) for e in events)
            by_pair: Dict[Tuple[str, str], Dict[str, int]] = {}
            for e in events:
                pair = (str(e.get("src")), str(e.get("dst")))
                counts = by_pair.setdefault(pair, {"gaps": 0, "lost": 0})
                counts["gaps"] += 1
                counts["lost"] += int(e.get("lost", 0))
            lines.append(
                f"  {label}: {total} probes lost across {len(events)} gap events "
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
            key = _run_key(r)
            label = (
                ", ".join(f"{k}={v}" for k, v in key) if key else "(unlabeled run)"
            )
            lines.append(
                f"  {label}: {r.get('dropped', '?')} decisions dropped "
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
            label = (
                ", ".join(f"{k}={v}" for k, v in key) if key else "(unlabeled run)"
            )
            stats = delay_error_stats(
                c
                for d in decisions
                if d.get("metric") == "delay"
                for c in d.get("candidates", ())
            )
            lines.append(f"  {label}: {len(decisions)} decisions")
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
