"""Telemetry-quality observatory: is the INT plane good enough to trust?

The paper's premise is that Algorithm 1 ranks servers from INT registers
that are *fresh enough and complete enough*; ``repro.obs.audit`` measures
only the downstream symptom (estimate-vs-truth error).  This module turns
the raw signals the repo already produces into a first-class quality model
of the telemetry plane itself:

* **coverage ledger** — joins the control-plane ground truth
  (:func:`repro.telemetry.coverage.all_fabric_ports`) with live probe
  stampings: which directed ports are observed, by which probe pairs, at
  what effective interval — and which are blind spots, compared against the
  coverage the configured probe layout *predicts*;
* **freshness model** — per-(switch, register) refresh age at every
  collector ingest and, for every audited scheduler decision, the telemetry
  age of each consulted hop, both recorded into
  :class:`~repro.obs.quantiles.QuantileDigest`\\ s;
* **decision-error attribution** — the audit's estimate-vs-truth delay
  error binned by telemetry age (in probing-interval multiples) and split
  by probe-loss and fault windows, yielding the error-vs-staleness table
  that future predictors (ROADMAP item 5a) are accepted against.

Everything here is read-only over state other subsystems already maintain:
no new simulator events are scheduled, existing records are never touched,
and the single ``kind: "telquality"`` record appends at the very end of the
export, so a run with collection enabled produces a byte-identical prefix.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.obs.audit import delay_error_stats, estimate_and_truth
from repro.obs.export import _fmt, _run_key, _run_title
from repro.obs.quantiles import QuantileDigest
from repro.p4.headers import NO_LATENCY
from repro.telemetry.coverage import DirectedPort, all_fabric_ports, coverage_of

__all__ = ["TelemetryQuality", "render_telemetry_report", "AGE_BIN_EDGES"]

# Error-vs-staleness bin edges, in probing-interval multiples.  Telemetry
# younger than half an interval is as fresh as the plane can deliver; past
# ~20 intervals the staleness horizon has long zeroed the registers out.
AGE_BIN_EDGES = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)

# A seq-gap loss event fires when the *next* probe of the stream arrives,
# so the losses happened within the preceding strides; the loss window
# extends this many probing intervals back from the detection time.
LOSS_WINDOW_INTERVALS = 2.0


def _error_stats(errors: Sequence[float]) -> Dict[str, Any]:
    """Count / mean error / mean absolute error of one sample bucket."""
    n = len(errors)
    if n == 0:
        return {"count": 0, "mean_error": None, "mean_abs_error": None}
    return {
        "count": n,
        "mean_error": sum(errors) / n,
        "mean_abs_error": sum(abs(e) for e in errors) / n,
    }


def _merge_windows(
    windows: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Merge overlapping/adjacent [start, end] intervals (sorted output)."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


# -- attribution (shared with the what-if replay) ----------------------------


def _events_of(events: Any, kind: str) -> List[Tuple[float, Dict[str, Any]]]:
    """``(time, fields)`` pairs for one event kind, from either a live
    :class:`~repro.obs.events.EventLog` or a list of exported record dicts
    (where event fields are flattened into the record)."""
    if events is None:
        return []
    if hasattr(events, "of_kind"):
        return [(e.time, e.fields) for e in events.of_kind(kind)]
    return [
        (float(r.get("time", 0.0)), r)
        for r in events
        if r.get("kind") == "event" and r.get("event") == kind
    ]


def _loss_windows(events: Any, interval: float) -> List[Tuple[float, float]]:
    windows = [
        (max(0.0, t - LOSS_WINDOW_INTERVALS * interval), t)
        for t, _fields in _events_of(events, "probe_lost")
    ]
    return _merge_windows(windows)


def _fault_windows(events: Any) -> List[Tuple[float, float]]:
    """[injected, recovered] per (fault, target); unrecovered faults stay
    open to the end of the run."""
    injected: Dict[Tuple[Any, Any], List[float]] = {}
    recovered: Dict[Tuple[Any, Any], List[float]] = {}
    for t, fields in _events_of(events, "fault_injected"):
        injected.setdefault((fields.get("fault"), fields.get("target")), []).append(t)
    for t, fields in _events_of(events, "fault_recovered"):
        recovered.setdefault((fields.get("fault"), fields.get("target")), []).append(t)
    windows: List[Tuple[float, float]] = []
    for key, starts in injected.items():
        ends = sorted(recovered.get(key, []))
        for start in sorted(starts):
            end = next((t for t in ends if t >= start), math.inf)
            windows.append((start, end))
    return _merge_windows(windows)


def _attribute(
    samples: Sequence[Tuple[float, float, Optional[float]]],
    interval: float,
    events: Any,
    stats: Callable[[Sequence[float]], Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], Dict[str, Any], Dict[str, Any]]:
    """Bucket ``(time, value, age)`` samples three ways, pricing each bucket
    with ``stats``: by age over :data:`AGE_BIN_EDGES` (in multiples of
    ``interval``, plus an ``unknown`` bin for samples without an age), and
    inside / outside the probe-loss and the fault windows of ``events``.
    Returns ``(bins, loss_windows, fault_windows)``."""
    bins = []
    edges = list(AGE_BIN_EDGES) + [math.inf]
    for i in range(len(edges) - 1):
        lo, hi = edges[i] * interval, edges[i + 1] * interval
        values = [v for _t, v, age in samples if age is not None and lo <= age < hi]
        hi_multiple = edges[i + 1] if math.isfinite(edges[i + 1]) else None
        label = (
            f">= {edges[i]:g}x"
            if hi_multiple is None
            else f"[{edges[i]:g}x, {hi_multiple:g}x)"
        )
        bins.append(
            {
                "label": label,
                "lo_multiple": edges[i],
                "hi_multiple": hi_multiple,
                **stats(values),
            }
        )
    unknown = [v for _t, v, age in samples if age is None]
    bins.append(
        {"label": "unknown", "lo_multiple": None, "hi_multiple": None, **stats(unknown)}
    )

    def split(windows: List[Tuple[float, float]]) -> Dict[str, Any]:
        inside: List[float] = []
        outside: List[float] = []
        for t, v, _age in samples:
            if any(lo <= t <= hi for lo, hi in windows):
                inside.append(v)
            else:
                outside.append(v)
        return {"windows": len(windows), "in": stats(inside), "out": stats(outside)}

    return bins, split(_loss_windows(events, interval)), split(_fault_windows(events))


class _DecisionSamples(NamedTuple):
    """The audited delay decisions that consulted telemetry, as the
    freshness and attribution sections read them."""

    decisions: int
    skipped: int        # candidates estimate_and_truth skips
    ages: List[float]   # the others' known consulted-hop ages
    samples: List[Tuple[float, float, Optional[float]]]  # (time, est - truth, max age)


def _decision_samples(decisions: Sequence[Any]) -> _DecisionSamples:
    """Skips what :func:`~repro.obs.audit.delay_error_stats` skips, so the
    age-bin counts sum to the audit's sample total."""
    seen = skipped = 0
    all_ages: List[float] = []
    samples: List[Tuple[float, float, Optional[float]]] = []
    for decision in decisions:
        if decision.metric != "delay":
            continue
        hop_ages = decision.ages()
        if hop_ages is None:  # a baseline: consulted no telemetry
            continue
        seen += 1
        for cand, ages in zip(decision.candidates, hop_ages):
            pair = estimate_and_truth(cand)
            if pair is None:
                skipped += 1
                continue
            est, truth = pair
            all_ages.extend(ages)
            samples.append((decision.time, est - truth, max(ages) if ages else None))
    return _DecisionSamples(seen, skipped, all_ages, samples)


# A register's refresh gaps wait in a plain list until somebody reads the
# digest; a list this long is folded where it stands, so a full-scale run
# holds at most this many floats per register.
PENDING_GAPS_MAX = 1024


class _PortLedger:
    """Live stampings of one directed port."""

    __slots__ = ("count", "first", "last", "pairs")

    def __init__(self, now: float) -> None:
        self.count = 0
        self.first = now
        self.last = now
        self.pairs: Set[Tuple[str, str]] = set()


class _Register:
    """Refresh tracking of one (switch, register): when it was last
    refreshed, how often, and the gaps between consecutive refreshes —
    those not folded yet in ``gaps``, the rest in ``digest``."""

    __slots__ = ("last", "refreshes", "gaps", "digest")

    def __init__(self) -> None:
        self.last = 0.0
        self.refreshes = 0
        self.gaps: List[float] = []
        self.digest: Optional[QuantileDigest] = None

    def fold(self) -> Optional[QuantileDigest]:
        """Move the pending gaps into the digest and return it (None before
        the second refresh).  Bin counts are integers and min/max exact, so
        when a gap is folded changes nothing about the result."""
        if self.gaps:
            if self.digest is None:
                self.digest = QuantileDigest()
            self.digest.extend(self.gaps)
            self.gaps.clear()
        return self.digest


# What every report over one path touches: the ledger entries to stamp, then
# per register the index into the report's flat INT fields
# (ProbeReport.int_fields) of the latency reading that gates the refresh
# (-1: no gate).
_Plan = Tuple[List[_PortLedger], List[Tuple[_Register, int]]]


class TelemetryQuality:
    """One run's telemetry-quality state: coverage, freshness, attribution.

    Wiring mirrors the other obs components: the hub owns an instance when
    collection was requested, ``attach_network`` supplies the ground truth,
    the harness calls :meth:`configure` once the probe layout is known and
    the collector calls :meth:`report_ingested` per decoded probe.  The
    decision-side values are computed from the audit's decision records
    (``decisions``) when they are exported, summarised or sampled.  All
    hooks only read state the caller already computed.
    """

    def __init__(self) -> None:
        self._network: Optional[Any] = None
        self.layout: Optional[str] = None
        self.probing_interval: Optional[float] = None
        self.pairs: List[Tuple[str, str]] = []
        self._all_ports: Set[DirectedPort] = set()
        self._expected_covered: Set[DirectedPort] = set()
        # Live stampings: directed port -> observation ledger entry.
        self._observed: Dict[DirectedPort, _PortLedger] = {}
        # Per-(switch, register) refresh tracking.  A record is made when a
        # path that can refresh it is first seen; one that never was
        # (``refreshes == 0``) does not exist as far as any reader goes.
        self._registers: Dict[Tuple[str, str], _Register] = {}
        # Routes are static, so what a report touches is resolved once per
        # distinct path (the key the store's ingest plans use).
        self._plans: Dict[Tuple[int, int, Tuple[int, ...]], _Plan] = {}

    # -- wiring --------------------------------------------------------------

    def attach_network(self, network: Any) -> None:
        """Record the control-plane ground truth: every directed fabric port."""
        self._network = network
        self._all_ports = all_fabric_ports(network)

    def configure(
        self,
        *,
        layout: str,
        pairs: Sequence[Tuple[str, str]],
        probing_interval: float,
    ) -> None:
        """Record the probe layout and its *predicted* coverage, so observed
        blind spots can be checked against what the layout promises."""
        self.layout = layout
        self.pairs = sorted(tuple(p) for p in pairs)
        self.probing_interval = probing_interval
        if self._network is not None:
            self._expected_covered = (
                coverage_of(self._network, self.pairs) & self._all_ports
            )

    def _node_name(self, node: Tuple[str, int]) -> Optional[str]:
        """Resolve a telemetry node id to its topology name, ``None`` for
        one the network does not know."""
        kind, ident = node
        try:
            if kind == "sw":
                return self._network.switch_by_id(ident).name
            return self._network.name_of(ident)
        except Exception:
            return None

    # -- ingest-side hooks ---------------------------------------------------

    def report_ingested(self, report: Any) -> None:
        """Stamp one decoded probe into the coverage ledger and note each
        register refresh: counters bumped and the gap since the previous
        refresh appended, on the records the path's plan resolved."""
        if self._network is None:
            return
        fields, _per_second = report.int_fields()
        key = (report.probe_src, report.probe_dst, fields[::3])
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(report, key[2])
        now = report.collected_at
        ledgers, refreshes = plan
        for ledger in ledgers:
            ledger.count += 1
            ledger.last = now
        for register, gate in refreshes:
            if gate >= 0 and fields[gate] == NO_LATENCY:
                continue
            if register.refreshes:
                gaps = register.gaps
                gaps.append(now - register.last)
                if len(gaps) >= PENDING_GAPS_MAX:
                    register.fold()
            register.last = now
            register.refreshes += 1

    def _plan(self, report: Any, switch_ids: Sequence[int]) -> _Plan:
        """Resolve the path of ``report`` (``switch_ids``: its hops' switch
        ids, read once by the caller): hop *i* stands for switch *i*,
        its egress toward the next path element and the link it arrived
        over.  Ledger entries are first seen now (the caller stamps them at
        once); registers wait for their first refresh."""
        name = self._node_name
        src = name(("host", report.probe_src))
        dst = name(("host", report.probe_dst))
        pair = (src, dst) if src is not None and dst is not None else None
        names = [name(("sw", switch_id)) for switch_id in switch_ids]
        names.append(dst)
        ledgers: List[_PortLedger] = []
        refreshes: List[Tuple[_Register, int]] = []
        registers = self._registers
        for i, (u, v) in enumerate(zip(names, names[1:])):
            if u is None:
                continue
            if v is not None:
                ledger = self._observed.setdefault(
                    (u, v), _PortLedger(report.collected_at)
                )
                if pair is not None:
                    ledger.pairs.add(pair)
                ledgers.append(ledger)
                # The qdepth register lives at the switch the record was
                # appended by (collect-and-reset at its egress).
                refreshes.append((registers.setdefault((u, "qdepth"), _Register()), -1))
            # Link latency is measured at the downstream switch's ingress
            # (hop i's latency field); the final (switch -> host) reading
            # has no switch register.
            refreshes.append((registers.setdefault((u, "latency"), _Register()), 3 * i + 2))
        return ledgers, refreshes

    # -- sampler inputs (health rules) ---------------------------------------

    def coverage_fraction(self) -> Optional[float]:
        """Observed fraction of all fabric ports, or None before the layout
        is configured (nothing meaningful to alert on yet)."""
        if self.layout is None or not self._all_ports:
            return None
        observed = sum(1 for port in self._observed if port in self._all_ports)
        return observed / len(self._all_ports)

    def max_decision_age(self, decisions: Sequence[Any]) -> Optional[float]:
        """Max consulted-hop age behind the attribution samples of
        ``decisions`` (one sampler tick's window), or None when none has a
        known age."""
        ages = _decision_samples(decisions).ages
        return max(ages) if ages else None

    # -- export --------------------------------------------------------------

    def snapshot_records(
        self, decisions: Sequence[Any] = (), events: Optional[Any] = None
    ) -> List[Dict[str, Any]]:
        """The run's single ``kind: "telquality"`` record.  ``decisions``
        are the decision audit's records; ``events`` is the run's
        :class:`~repro.obs.events.EventLog`, joined here for the probe-loss
        and fault windows."""
        return [
            {
                "kind": "telquality",
                "layout": self.layout,
                "probing_interval": self.probing_interval,
                "pairs": [list(p) for p in self.pairs],
                "coverage": self._coverage_section(),
                "freshness": self._freshness_section(decisions),
                "attribution": self._attribution_section(decisions, events),
            }
        ]

    def _coverage_section(self) -> Dict[str, Any]:
        observed_known = {p for p in self._observed if p in self._all_ports}
        blind = sorted(self._all_ports - observed_known)
        configured = self.layout is not None
        expected_blind = (
            sorted(self._all_ports - self._expected_covered) if configured else None
        )
        ports = []
        for u, v in sorted(self._observed):
            entry = self._observed[(u, v)]
            count = entry.count
            effective = (
                (entry.last - entry.first) / (count - 1) if count > 1 else None
            )
            ports.append(
                {
                    "u": u,
                    "v": v,
                    "observations": count,
                    "first": entry.first,
                    "last": entry.last,
                    "effective_interval": effective,
                    "pairs": [list(p) for p in sorted(entry.pairs)],
                }
            )
        return {
            "total_ports": len(self._all_ports),
            "observed_ports": len(observed_known),
            "expected_ports": len(self._expected_covered) if configured else None,
            "blind": [list(p) for p in blind],
            "expected_blind": (
                [list(p) for p in expected_blind] if configured else None
            ),
            "matches_prediction": (blind == expected_blind) if configured else None,
            "ports": ports,
        }

    def _refreshed(self) -> Dict[Tuple[str, str], _Register]:
        """The registers some probe has refreshed."""
        return {k: r for k, r in self._registers.items() if r.refreshes}

    def _freshness_section(self, decisions: Sequence[Any] = ()) -> Dict[str, Any]:
        registers = []
        for (node, register), state in sorted(self._refreshed().items()):
            digest = state.fold()
            registers.append(
                {
                    "node": node,
                    "register": register,
                    "refreshes": state.refreshes,
                    "age": digest.to_dict() if digest is not None else None,
                }
            )
        decision_age = QuantileDigest()
        decision_age.extend(_decision_samples(decisions).ages)
        return {
            "registers": registers,
            "decision_age": decision_age.to_dict() if decision_age.count else None,
        }

    def _attribution_section(
        self, decisions: Sequence[Any], events: Optional[Any]
    ) -> Dict[str, Any]:
        samples = _decision_samples(decisions)
        interval = self.probing_interval if self.probing_interval else 1.0
        bins, loss, fault = _attribute(samples.samples, interval, events, _error_stats)
        return {
            "interval": self.probing_interval,
            "decisions": samples.decisions,
            "samples": len(samples.samples),
            "skipped": samples.skipped,
            "bins": bins,
            "loss_windows": loss,
            "fault_windows": fault,
        }

    def summary(self, decisions: Sequence[Any] = ()) -> Dict[str, Any]:
        """Compact digest for ``Observability.summary()``."""
        samples = _decision_samples(decisions)
        return {
            "layout": self.layout,
            "ports_observed": sum(
                1 for port in self._observed if port in self._all_ports
            ),
            "ports_total": len(self._all_ports),
            "registers": len(self._refreshed()),
            "decisions": samples.decisions,
            "samples": len(samples.samples),
        }


# -- offline report ----------------------------------------------------------


def _digest_line(data: Optional[Dict[str, Any]]) -> str:
    if not data:
        return "no samples"
    digest = QuantileDigest.from_dict(data)
    p50, p95 = digest.quantiles((0.5, 0.95))
    return (
        f"n={digest.count} p50={_fmt(p50)} p95={_fmt(p95)} "
        f"max={_fmt(digest.max)}"
    )


def _coverage_lines(record: Dict[str, Any]) -> List[str]:
    """One telquality record's layout line and INT coverage block."""
    lines = [
        f"  layout: {record.get('layout')}  "
        f"probing interval: {_fmt(record.get('probing_interval'))}s  "
        f"probe pairs: {len(record.get('pairs') or [])}"
    ]
    coverage = record.get("coverage") or {}
    total = coverage.get("total_ports") or 0
    observed = coverage.get("observed_ports") or 0
    pct = 100.0 * observed / total if total else 0.0
    lines.append(
        f"  coverage: {observed}/{total} directed ports observed "
        f"({pct:.0f}%)"
    )
    blind = coverage.get("blind") or []
    if blind:
        labels = ", ".join(f"{u}->{v}" for u, v in blind)
        lines.append(f"    blind spots ({len(blind)}): {labels}")
    else:
        lines.append("    blind spots: none")
    if coverage.get("matches_prediction") is not None:
        verdict = (
            "matches" if coverage["matches_prediction"] else "DIVERGES FROM"
        )
        expected = coverage.get("expected_blind") or []
        lines.append(
            f"    {verdict} the layout's predicted blind set "
            f"({len(expected)} ports)"
        )
    ports = coverage.get("ports") or []
    if ports:
        lines.append("    port               obs    eff-interval  probe-pairs")
        for port in ports:
            label = f"{port['u']}->{port['v']}"
            lines.append(
                f"    {label:<18} {port['observations']:>4}    "
                f"{_fmt(port.get('effective_interval')):>12}  "
                f"{len(port.get('pairs') or [])}"
            )
    return lines


def _freshness_lines(record: Dict[str, Any]) -> List[str]:
    """One telquality record's decision-age and per-register refresh-age
    block."""
    freshness = record.get("freshness") or {}
    lines = [
        "  freshness: decision-time consulted-hop age "
        + _digest_line(freshness.get("decision_age"))
    ]
    registers = freshness.get("registers") or []
    if registers:
        lines.append("    node     register  refreshes  refresh-age")
        for reg in registers:
            lines.append(
                f"    {reg['node']:<8} {reg['register']:<8} "
                f"{reg['refreshes']:>9}  {_digest_line(reg.get('age'))}"
            )
    return lines


def _attribution_lines(record: Dict[str, Any]) -> List[str]:
    """One telquality record's error-vs-telemetry-age bins."""
    attribution = record.get("attribution") or {}
    lines = [
        f"  error vs telemetry age ({attribution.get('samples', 0)} samples "
        f"over {attribution.get('decisions', 0)} decisions, "
        f"{attribution.get('skipped', 0)} skipped):",
        "    age bin          count  mean-error  mean-|error|",
    ]
    for item in attribution.get("bins") or []:
        lines.append(
            f"    {item['label']:<15} {item['count']:>6}  "
            f"{_fmt(item.get('mean_error')):>10}  "
            f"{_fmt(item.get('mean_abs_error')):>12}"
        )
    return lines


def _window_lines(record: Dict[str, Any]) -> List[str]:
    """One telquality record's error inside vs outside the probe-loss and
    fault windows."""
    attribution = record.get("attribution") or {}
    lines = []
    for name, title in (
        ("loss_windows", "probe-loss windows"),
        ("fault_windows", "fault windows"),
    ):
        split = attribution.get(name) or {}
        inside = split.get("in") or {}
        outside = split.get("out") or {}
        lines.append(
            f"  {title}: {split.get('windows', 0)}  "
            f"in: {inside.get('count', 0)} samples "
            f"mae={_fmt(inside.get('mean_abs_error'))}  "
            f"out: {outside.get('count', 0)} samples "
            f"mae={_fmt(outside.get('mean_abs_error'))}"
        )
    return lines


def render_telemetry_report(records: List[Dict[str, Any]]) -> str:
    """Plain-text telemetry-quality report over an ``--obs-out`` export.

    Groups ``kind: "telquality"`` records by run label, cross-checks the
    error-vs-age bins against the decision-audit records riding in the same
    file, and degrades to a placeholder on pre-telquality exports.
    """
    telquality = [r for r in records if r.get("kind") == "telquality"]
    if not telquality:
        return (
            "no telemetry-quality records in this export\n"
            "(generate one with --telquality on compare/reproduce, e.g.\n"
            "  repro compare --figure fig5 --scale smoke --telquality "
            "--obs-out obs.jsonl)"
        )

    # Audit totals per run, for the bins-sum cross-check.
    audit_samples: Dict[Tuple, int] = {}
    for record in records:
        if record.get("kind") != "decision-audit" or record.get("metric") != "delay":
            continue
        key = _run_key(record)
        stats = delay_error_stats(record.get("candidates", []))
        audit_samples[key] = audit_samples.get(key, 0) + stats["samples"]

    lines: List[str] = []
    for record in telquality:
        key = _run_key(record)
        lines.append(f"run: {_run_title(key)}")
        lines.extend(_coverage_lines(record))
        lines.extend(_freshness_lines(record))
        lines.extend(_attribution_lines(record))
        expected_total = audit_samples.get(key)
        if expected_total is not None:
            bins = (record.get("attribution") or {}).get("bins") or []
            bin_total = sum(item.get("count", 0) for item in bins)
            check = "OK" if bin_total == expected_total else "MISMATCH"
            lines.append(
                f"    bin counts sum to {bin_total} vs {expected_total} "
                f"decision-audit samples: {check}"
            )
        lines.extend(_window_lines(record))
        lines.append("")
    return "\n".join(lines).rstrip()
