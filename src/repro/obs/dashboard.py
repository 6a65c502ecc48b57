"""Self-contained HTML dashboard for a run's observability exports.

``render_dashboard`` turns a list of obs records (the JSONL produced by
``Observability.snapshot_records`` / ``repro ... --obs-out``) into one HTML
string with **zero external resources** — styling is an inline ``<style>``
block and every chart is inline SVG, so the file opens identically from a
laptop, a CI artifact store, or an air-gapped archive.

The page draws the charts and shows every table as the text report's own
lines: a tabular section is one escaped ``<pre>`` of what the matching
``repro report`` renderer prints for it, so each section has one renderer.
Sections, all driven by record kinds that already exist:

* **link utilization** — sparklines per ``link_utilization`` time series;
* **queue depth** — a time-bucketed heatmap over ``queue_depth`` series;
* **server load** — sparklines per ``server_running``/``server_queued``;
* **alerts** — a fire/clear timeline from ``alert`` events;
* **decision error** — the ``decision_abs_error`` sparkline;
* **completion-time quantiles** — the report's per-run block, merged
  from the ``task_completion_seconds`` histogram digests;
* **engine profile** — ``render_profile``'s handler/phase table plus the
  phase flamegraph (inline SVG, zero scripts), from ``profile`` records
  appended by ``--profile --obs-out`` runs;
* **telemetry coverage / freshness / error vs telemetry age** — the
  telemetry-quality report's blocks for each ``telquality`` record
  (``--telquality`` runs), the age bins with one bar per bin's count;
* **regret CDF / policy comparison** — from ``whatif`` records
  (``--whatif`` runs): the per-decision hindsight regret distribution
  (digest-backed CDF) and the what-if report's policy table.

Every section renders a placeholder when its records are absent — a
metrics-only export (or one written before the telemetry-quality
observatory existed) still produces a valid page and exit 0.

Rendering is deterministic: iteration is sorted everywhere, floats are
formatted through one helper, and nothing reads the wall clock — the same
records always produce byte-identical HTML (asserted by tests and the
serial/parallel/cached determinism suite).
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import _completion_quantile_lines, _fmt
from repro.obs.perf import flamegraph_svg
from repro.obs.quantiles import QuantileDigest
from repro.obs.telquality import (
    _attribution_lines,
    _coverage_lines,
    _digest_line,
    _freshness_lines,
    _window_lines,
)
from repro.obs.whatif import _policy_lines
from repro.simnet.engine import render_profile

__all__ = ["render_dashboard", "write_dashboard"]

SPARK_W = 260
SPARK_H = 48
PAD = 4

_CSS = """
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 1.5em;
       background: #fcfcfc; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.6em;
     border-bottom: 1px solid #ddd; padding-bottom: 0.2em; }
.chart { display: inline-block; margin: 0.4em 1em 0.4em 0;
         vertical-align: top; }
.chart .t { font-size: 0.78em; color: #555; }
svg { background: #fff; border: 1px solid #ddd; }
.empty { color: #999; font-style: italic; }
.fire { fill: #c0392b; } .bar { fill: #e67e22; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _run_key(record: Dict[str, Any]) -> str:
    run = record.get("run")
    if not run:
        return ""
    return json.dumps(run, sort_keys=True, separators=(",", ":"))


def _series_label(record: Dict[str, Any]) -> str:
    labels = record.get("labels") or {}
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


def _sparkline(points: Sequence[Sequence[float]]) -> str:
    """One polyline sparkline over ``[[t, v], ...]`` with min/max rails."""
    if not points:
        return '<span class="empty">no points</span>'
    ts = [p[0] for p in points]
    vs = [p[1] for p in points]
    t0, t1 = min(ts), max(ts)
    v0, v1 = min(vs), max(vs)
    t_span = (t1 - t0) or 1.0
    v_span = (v1 - v0) or 1.0
    coords = []
    for t, v in points:
        x = PAD + (t - t0) / t_span * (SPARK_W - 2 * PAD)
        y = SPARK_H - PAD - (v - v0) / v_span * (SPARK_H - 2 * PAD)
        coords.append(f"{x:.2f},{y:.2f}")
    return (
        f'<svg width="{SPARK_W}" height="{SPARK_H}" '
        f'viewBox="0 0 {SPARK_W} {SPARK_H}">'
        f'<polyline fill="none" stroke="#2c6fb2" stroke-width="1.2" '
        f'points="{" ".join(coords)}"/>'
        f"</svg>"
        f'<div class="t">[{_fmt(float(v0))} .. {_fmt(float(v1))}] '
        f"n={len(points)}</div>"
    )


def _chart(title: str, body: str) -> str:
    return (
        f'<div class="chart"><div class="t">{_esc(title)}</div>{body}</div>'
    )


def _heat_color(frac: float) -> str:
    """White (0) to deep red (1), deterministic integer channels."""
    frac = min(max(frac, 0.0), 1.0)
    r = 255
    gb = int(round(255 * (1.0 - frac)))
    return f"rgb({r},{gb},{gb})"


def _heatmap(series: List[Dict[str, Any]], *, columns: int = 60) -> str:
    """Time-bucketed heatmap: one row per series, color by max-in-bucket."""
    rows = []
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    v_max = 0.0
    for record in series:
        points = record.get("points") or []
        if not points:
            continue
        rows.append((_series_label(record), points))
        t_lo, t_hi = points[0][0], points[-1][0]
        t_min = t_lo if t_min is None else min(t_min, t_lo)
        t_max = t_hi if t_max is None else max(t_max, t_hi)
        v_max = max(v_max, max(p[1] for p in points))
    if not rows or t_min is None or t_max is None:
        return '<p class="empty">no queue-depth samples</p>'
    t_span = (t_max - t_min) or 1.0
    cell_w, cell_h, label_w = 9, 12, 170
    width = label_w + columns * cell_w + PAD
    height = len(rows) * cell_h + PAD
    parts = [
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for row_idx, (label, points) in enumerate(rows):
        buckets: Dict[int, float] = {}
        for t, v in points:
            b = min(columns - 1, int((t - t_min) / t_span * columns))
            if v > buckets.get(b, 0.0):
                buckets[b] = v
        y = row_idx * cell_h
        parts.append(
            f'<text x="2" y="{y + cell_h - 3}" font-size="9" '
            f'fill="#555">{_esc(label)}</text>'
        )
        for b in sorted(buckets):
            value = buckets[b]
            frac = value / v_max if v_max else 0.0
            parts.append(
                f'<rect x="{label_w + b * cell_w}" y="{y}" '
                f'width="{cell_w}" height="{cell_h - 1}" '
                f'fill="{_heat_color(frac)}">'
                f"<title>{_esc(label)} t~{_fmt(float(t_min + (b + 0.5) / columns * t_span))} "
                f"max={_fmt(float(value))}</title></rect>"
            )
    parts.append("</svg>")
    parts.append(
        f'<div class="t">t=[{_fmt(float(t_min))} .. {_fmt(float(t_max))}]s, '
        f"color: max depth in bucket (peak {_fmt(float(v_max))})</div>"
    )
    return "".join(parts)


def _alert_timeline(
    alerts: List[Dict[str, Any]], t_end: float
) -> str:
    """Horizontal bars per (rule, target): fire edge to clear edge (or the
    end of the sampled window when never cleared)."""
    if not alerts:
        return '<p class="empty">no alerts</p>'
    # Assemble intervals per (rule, target) from the edge stream.
    open_at: Dict[Tuple[str, str], float] = {}
    intervals: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    t_max = t_end
    for event in alerts:
        key = (str(event.get("rule")), str(event.get("target")))
        t = float(event.get("time", 0.0))
        t_max = max(t_max, t)
        if event.get("state") == "fire":
            open_at.setdefault(key, t)
        elif event.get("state") == "clear" and key in open_at:
            intervals.setdefault(key, []).append((open_at.pop(key), t))
    for key, t in sorted(open_at.items()):
        intervals.setdefault(key, []).append((t, t_max))
    keys = sorted(intervals)
    t_min = min(t for spans in intervals.values() for t, _ in spans)
    t_span = (t_max - t_min) or 1.0
    cell_h, label_w, plot_w = 14, 230, 420
    width = label_w + plot_w + PAD
    height = len(keys) * cell_h + PAD
    parts = [
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for row_idx, key in enumerate(keys):
        rule, target = key
        y = row_idx * cell_h
        parts.append(
            f'<text x="2" y="{y + cell_h - 4}" font-size="9" '
            f'fill="#555">{_esc(rule)} {_esc(target)}</text>'
        )
        for start, stop in intervals[key]:
            x = label_w + (start - t_min) / t_span * plot_w
            w = max(1.0, (stop - start) / t_span * plot_w)
            parts.append(
                f'<rect class="fire" x="{x:.2f}" y="{y + 2}" '
                f'width="{w:.2f}" height="{cell_h - 5}">'
                f"<title>{_esc(rule)} {_esc(target)} "
                f"[{_fmt(float(start))} .. {_fmt(float(stop))}]s</title></rect>"
            )
    parts.append("</svg>")
    parts.append(
        f'<div class="t">t=[{_fmt(float(t_min))} .. {_fmt(float(t_max))}]s; '
        "a bar spans fire to clear</div>"
    )
    return "".join(parts)


def _pre(lines: Sequence[str]) -> str:
    """Text-report lines as one escaped preformatted block: a section's
    numbers come from the report's own renderer, never a second copy."""
    return "<pre>" + _esc("\n".join(lines)) + "</pre>"


def _run_caption(record: Dict[str, Any]) -> str:
    return f"<p><code>{_esc(_run_key(record) or '-')}</code></p>"


def _profile_section(profile: Dict[str, Any]) -> str:
    """The report's engine-profile table plus the inline phase flamegraph
    for one ``kind: "profile"`` record's summary."""
    if profile.get("phases"):
        chart = flamegraph_svg(profile)
    else:
        chart = '<p class="empty">no phase attribution in profile</p>'
    return _pre(render_profile(profile).splitlines()) + chart


def _error_vs_age(record: Dict[str, Any]) -> str:
    """The report's error-vs-age bins with one bar per bin's count, then
    its in/out-of-window split."""
    bins = (record.get("attribution") or {}).get("bins") or []
    peak = max((item.get("count", 0) for item in bins), default=0)
    bars = []
    for item in bins:
        bar_w = int(round(120.0 * item.get("count", 0) / peak)) if peak else 0
        bars.append(
            '<div class="t"><svg width="124" height="10" viewBox="0 0 124 10">'
            f'<rect class="bar" x="0" y="1" width="{bar_w}" height="8"/>'
            f"</svg> {_esc(item.get('label'))}</div>"
        )
    return (
        _pre(_attribution_lines(record)) + "".join(bars)
        + _pre(_window_lines(record))
    )


def _whatif_cdf(record: Dict[str, Any]) -> str:
    """The per-decision regret CDF, reconstructed from the exported
    QuantileDigest: cumulative mass at each populated log-bin's midpoint,
    anchored at the exact min and max."""
    actual = record.get("actual") or {}
    data = actual.get("regret_digest")
    header = (
        f"<p><code>{_esc(_run_key(record) or '-')}</code> "
        f"{_fmt(record.get('replayed'))} decisions replayed, actual regret "
        f"total {_fmt(actual.get('regret_total'))}s "
        f"(mean {_fmt(actual.get('regret_mean'))}s):</p>"
    )
    if not data or not data.get("count"):
        return header + '<p class="empty">no replayed decisions</p>'
    digest = QuantileDigest.from_dict(data)
    points: List[List[float]] = []
    seen = digest.underflow
    if digest.min is not None:
        points.append([digest.min, seen / digest.count])
    for index in sorted(digest.counts):
        seen += digest.counts[index]
        points.append([digest._bin_value(index), seen / digest.count])
    if digest.max is not None:
        points.append([digest.max, 1.0])
    return header + (
        f'<div class="chart"><div class="t">regret CDF (s &rarr; cum. frac.)'
        f"</div>{_sparkline(points)}</div>"
        f'<div class="t">per-decision regret: {_esc(_digest_line(data))}</div>'
    )


def _timeseries_of(
    records: List[Dict[str, Any]], name: str
) -> List[Dict[str, Any]]:
    out = [
        r for r in records
        if r.get("kind") == "timeseries" and r.get("name") == name
    ]
    out.sort(key=lambda r: (_run_key(r), _series_label(r)))
    return out


def render_dashboard(
    records: List[Dict[str, Any]], *, title: str = "repro run dashboard"
) -> str:
    """Render obs records into one self-contained HTML page."""
    timeseries = [r for r in records if r.get("kind") == "timeseries"]
    alerts = sorted(
        (
            r for r in records
            if r.get("kind") == "event" and r.get("event") == "alert"
        ),
        key=lambda r: (float(r.get("time", 0.0)), str(r.get("rule")),
                       str(r.get("target")), str(r.get("state"))),
    )
    t_end = 0.0
    for record in timeseries:
        points = record.get("points") or []
        if points:
            t_end = max(t_end, points[-1][0])

    # One key per distinct label set, not per record: every record of a run
    # carries the same labels.
    labelled = {repr(r["run"]): r for r in records if r.get("run")}
    runs = sorted({_run_key(r) for r in labelled.values()})
    parts = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8"/>',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    if runs:
        parts.append(
            "<p>runs: " + "; ".join(f"<code>{_esc(r)}</code>" for r in runs)
            + "</p>"
        )
    parts.append(
        f"<p>{len(records)} records, {len(timeseries)} time series, "
        f"{len(alerts)} alert edges</p>"
    )

    parts.append("<h2>Link utilization</h2>")
    util = _timeseries_of(records, "link_utilization")
    if util:
        for record in util:
            name = _series_label(record)
            run = _run_key(record)
            chart_title = f"{name} {run}".strip()
            parts.append(_chart(chart_title, _sparkline(record.get("points") or [])))
    else:
        parts.append('<p class="empty">no link-utilization samples</p>')

    parts.append("<h2>Queue depth</h2>")
    parts.append(_heatmap(_timeseries_of(records, "queue_depth")))

    parts.append("<h2>Server load</h2>")
    load = _timeseries_of(records, "server_running") + _timeseries_of(
        records, "server_queued"
    )
    if load:
        for record in load:
            chart_title = f"{record['name']} {_series_label(record)}".strip()
            parts.append(_chart(chart_title, _sparkline(record.get("points") or [])))
    else:
        parts.append('<p class="empty">no server-load samples</p>')

    parts.append("<h2>Alerts</h2>")
    parts.append(_alert_timeline(alerts, t_end))

    parts.append("<h2>Decision error</h2>")
    error = _timeseries_of(records, "decision_abs_error")
    if error:
        for record in error:
            chart_title = f"decision_abs_error {_run_key(record)}".strip()
            parts.append(_chart(chart_title, _sparkline(record.get("points") or [])))
    else:
        parts.append('<p class="empty">no decision-error samples</p>')

    parts.append("<h2>Completion-time quantiles</h2>")
    quantiles = _completion_quantile_lines(records)
    if quantiles:
        parts.append(_pre(quantiles))
    else:
        parts.append('<p class="empty">no completion-time histograms</p>')

    parts.append("<h2>Engine profile</h2>")
    profiles = [
        r for r in records if r.get("kind") == "profile" and r.get("profile")
    ]
    if profiles:
        for record in profiles:
            parts.append(_profile_section(record["profile"]))
    else:
        parts.append(
            '<p class="empty">no engine profile (run with --profile and '
            "--obs-out)</p>"
        )

    # Telemetry-quality panels: absent on pre-observatory exports, which
    # still render (placeholders, exit 0) — backward compatibility is the
    # same placeholder path as every other optional section.
    telquality = sorted(
        (r for r in records if r.get("kind") == "telquality"),
        key=_run_key,
    )
    no_telquality = (
        '<p class="empty">no telemetry-quality records '
        "(run with --telquality and --obs-out)</p>"
    )
    for heading, render in (
        ("Telemetry coverage", lambda r: _pre(_coverage_lines(r))),
        ("Telemetry freshness", lambda r: _pre(_freshness_lines(r))),
        ("Error vs telemetry age", _error_vs_age),
    ):
        parts.append(f"<h2>{heading}</h2>")
        if telquality:
            parts.extend(_run_caption(r) + render(r) for r in telquality)
        else:
            parts.append(no_telquality)

    whatif = sorted(
        (r for r in records if r.get("kind") == "whatif"),
        key=_run_key,
    )
    no_whatif = (
        '<p class="empty">no what-if records '
        "(run with --whatif and --obs-out)</p>"
    )
    parts.append("<h2>Regret CDF</h2>")
    if whatif:
        parts.extend(_whatif_cdf(r) for r in whatif)
    else:
        parts.append(no_whatif)
    parts.append("<h2>Policy comparison</h2>")
    if whatif:
        parts.extend(_run_caption(r) + _pre(_policy_lines(r)) for r in whatif)
    else:
        parts.append(no_whatif)

    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def write_dashboard(
    records: List[Dict[str, Any]], path: str, *, title: str = "repro run dashboard"
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_dashboard(records, title=title))
