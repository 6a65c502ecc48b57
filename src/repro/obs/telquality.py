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
  collector ingest and, at every scheduler decision, the telemetry age of
  each consulted hop, both recorded into
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
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.quantiles import QuantileDigest
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


def _parse_label(label: Any) -> Optional[Tuple[str, int]]:
    """Invert ``ranking._node_label``: ``"sw:3"`` back to ``("sw", 3)``."""
    if isinstance(label, tuple) and len(label) == 2:
        return label
    if isinstance(label, str):
        kind, sep, index = label.partition(":")
        if kind and sep and index.isdigit():
            return (kind, int(index))
    return None


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
# per register the index of the INT record whose latency reading gates the
# refresh (-1: no gate).
_Plan = Tuple[List[_PortLedger], List[Tuple[_Register, int]]]


class TelemetryQuality:
    """One run's telemetry-quality state: coverage, freshness, attribution.

    Wiring mirrors the other obs components: the hub owns an instance when
    collection was requested, ``attach_network`` supplies the ground truth,
    the harness calls :meth:`configure` once the probe layout is known, the
    collector calls :meth:`report_ingested` per decoded probe, and the
    network-aware scheduler calls :meth:`decision` for every audited delay
    ranking.  All hooks only read state the caller already computed.
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
        # distinct (probe src, probe dst, switch ids...).
        self._plans: Dict[Tuple[int, ...], _Plan] = {}
        # Telemetry age of every consulted hop, at decision time.
        self.decision_age = QuantileDigest()
        # Attribution samples: (decision time, est - truth, max hop age).
        self._samples: List[Tuple[float, float, Optional[float]]] = []
        self.decisions_seen = 0
        self.samples_skipped = 0
        self._age_cursor = 0       # sampler cursor into _samples

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
        records = report.records
        key = (report.probe_src, report.probe_dst, *[r.switch_id for r in records])
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(report)
        now = report.collected_at
        ledgers, refreshes = plan
        for ledger in ledgers:
            ledger.count += 1
            ledger.last = now
        for register, gate in refreshes:
            if gate >= 0 and records[gate].link_latency is None:
                continue
            if register.refreshes:
                gaps = register.gaps
                gaps.append(now - register.last)
                if len(gaps) >= PENDING_GAPS_MAX:
                    register.fold()
            register.last = now
            register.refreshes += 1

    def _plan(self, report: Any) -> _Plan:
        """Resolve the path of ``report``: record *i* stands for switch *i*,
        its egress toward the next path element and the link it arrived
        over.  Ledger entries are first seen now (the caller stamps them at
        once); registers wait for their first refresh."""
        name = self._node_name
        src = name(("host", report.probe_src))
        dst = name(("host", report.probe_dst))
        pair = (src, dst) if src is not None and dst is not None else None
        names = [name(("sw", rec.switch_id)) for rec in report.records]
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
            # Link latency is measured at the downstream switch's ingress;
            # the final (switch -> host) reading has no switch register.
            refreshes.append((registers.setdefault((u, "latency"), _Register()), i))
        return ledgers, refreshes

    # -- decision-side hook --------------------------------------------------

    def decision(self, now: float, store: Any, candidates: Sequence[Dict[str, Any]]) -> None:
        """Record the telemetry age behind one audited delay decision.

        Called only for decisions the audit actually stored (the caller
        checks ``audit.record``'s return), and mirrors
        :func:`repro.obs.audit.delay_error_stats`' skip rules exactly, so
        the age-bin counts sum to the audit's sample total.
        """
        self.decisions_seen += 1
        for cand in candidates:
            est = cand.get("estimated_delay")
            truth = cand.get("truth_delay")
            if (
                not isinstance(est, (int, float))
                or truth is None
                or not math.isfinite(est)
            ):
                self.samples_skipped += 1
                continue
            ages: List[float] = []
            # The explanation flattens node ids to "kind:index" labels
            # (see ranking._node_label); parse them back for the store.
            path = [_parse_label(label) for label in cand.get("path") or []]
            for u, v in zip(path, path[1:]):
                if u is None or v is None:
                    continue
                state = store.link_state(u, v)
                if state is None:
                    continue
                # updated_at defaults to -1.0 until the first report.
                updated = max(state.latency_updated_at, state.qdepth_updated_at)
                if updated >= 0.0:
                    age = now - updated
                    ages.append(age)
                    self.decision_age.add(age)
            self._samples.append((now, est - truth, max(ages) if ages else None))

    # -- sampler inputs (health rules) ---------------------------------------

    def coverage_fraction(self) -> Optional[float]:
        """Observed fraction of all fabric ports, or None before the layout
        is configured (nothing meaningful to alert on yet)."""
        if self.layout is None or not self._all_ports:
            return None
        observed = sum(1 for port in self._observed if port in self._all_ports)
        return observed / len(self._all_ports)

    def take_max_decision_age(self) -> Optional[float]:
        """Max consulted-hop age over decisions since the previous tick, or
        None when no decision with known ages landed in the window."""
        samples = self._samples[self._age_cursor:]
        self._age_cursor = len(self._samples)
        ages = [age for _t, _err, age in samples if age is not None]
        return max(ages) if ages else None

    # -- export --------------------------------------------------------------

    def snapshot_records(self, events: Optional[Any] = None) -> List[Dict[str, Any]]:
        """The run's single ``kind: "telquality"`` record.  ``events`` is
        the run's :class:`~repro.obs.events.EventLog`, joined here for the
        probe-loss and fault windows."""
        return [
            {
                "kind": "telquality",
                "layout": self.layout,
                "probing_interval": self.probing_interval,
                "pairs": [list(p) for p in self.pairs],
                "coverage": self._coverage_section(),
                "freshness": self._freshness_section(),
                "attribution": self._attribution_section(events),
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

    def _freshness_section(self) -> Dict[str, Any]:
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
        return {
            "registers": registers,
            "decision_age": (
                self.decision_age.to_dict() if self.decision_age.count else None
            ),
        }

    def _attribution_section(self, events: Optional[Any]) -> Dict[str, Any]:
        interval = self.probing_interval if self.probing_interval else 1.0
        bins = []
        edges = list(AGE_BIN_EDGES) + [math.inf]
        for i in range(len(edges) - 1):
            lo, hi = edges[i] * interval, edges[i + 1] * interval
            errors = [
                err for _t, err, age in self._samples
                if age is not None and lo <= age < hi
            ]
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
                    **_error_stats(errors),
                }
            )
        unknown = [err for _t, err, age in self._samples if age is None]
        bins.append(
            {
                "label": "unknown",
                "lo_multiple": None,
                "hi_multiple": None,
                **_error_stats(unknown),
            }
        )
        return {
            "interval": self.probing_interval,
            "decisions": self.decisions_seen,
            "samples": len(self._samples),
            "skipped": self.samples_skipped,
            "bins": bins,
            "loss_windows": self._window_split(self._loss_windows(events, interval)),
            "fault_windows": self._window_split(self._fault_windows(events)),
        }

    def _loss_windows(
        self, events: Optional[Any], interval: float
    ) -> List[Tuple[float, float]]:
        if events is None:
            return []
        windows = [
            (max(0.0, e.time - LOSS_WINDOW_INTERVALS * interval), e.time)
            for e in events.of_kind("probe_lost")
        ]
        return _merge_windows(windows)

    def _fault_windows(self, events: Optional[Any]) -> List[Tuple[float, float]]:
        """[injected, recovered] per (fault, target); unrecovered faults stay
        open to the end of the run."""
        if events is None:
            return []
        injected: Dict[Tuple[Any, Any], List[float]] = {}
        recovered: Dict[Tuple[Any, Any], List[float]] = {}
        for e in events.of_kind("fault_injected"):
            key = (e.fields.get("fault"), e.fields.get("target"))
            injected.setdefault(key, []).append(e.time)
        for e in events.of_kind("fault_recovered"):
            key = (e.fields.get("fault"), e.fields.get("target"))
            recovered.setdefault(key, []).append(e.time)
        windows: List[Tuple[float, float]] = []
        for key, starts in injected.items():
            ends = sorted(recovered.get(key, []))
            for start in sorted(starts):
                end = next((t for t in ends if t >= start), math.inf)
                windows.append((start, end))
        return _merge_windows(windows)

    def _window_split(self, windows: List[Tuple[float, float]]) -> Dict[str, Any]:
        inside: List[float] = []
        outside: List[float] = []
        for t, err, _age in self._samples:
            if any(lo <= t <= hi for lo, hi in windows):
                inside.append(err)
            else:
                outside.append(err)
        return {
            "windows": len(windows),
            "in": _error_stats(inside),
            "out": _error_stats(outside),
        }

    def summary(self) -> Dict[str, Any]:
        """Compact digest for ``Observability.summary()``."""
        return {
            "layout": self.layout,
            "ports_observed": sum(
                1 for port in self._observed if port in self._all_ports
            ),
            "ports_total": len(self._all_ports),
            "registers": len(self._refreshed()),
            "decisions": self.decisions_seen,
            "samples": len(self._samples),
        }


# -- offline report ----------------------------------------------------------


def _run_key(record: Dict[str, Any]) -> Tuple:
    return tuple(sorted(record.get("run", {}).items()))


def _run_title(key: Tuple) -> str:
    return ", ".join(f"{k}={v}" for k, v in key) if key else "(unlabeled run)"


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _digest_line(data: Optional[Dict[str, Any]]) -> str:
    if not data:
        return "no samples"
    digest = QuantileDigest.from_dict(data)
    p50, p95 = digest.quantiles((0.5, 0.95))
    return (
        f"n={digest.count} p50={_fmt(p50)} p95={_fmt(p95)} "
        f"max={_fmt(digest.max)}"
    )


def render_telemetry_report(records: List[Dict[str, Any]]) -> str:
    """Plain-text telemetry-quality report over an ``--obs-out`` export.

    Groups ``kind: "telquality"`` records by run label, cross-checks the
    error-vs-age bins against the decision-audit records riding in the same
    file, and degrades to a placeholder on pre-telquality exports.
    """
    from repro.obs.audit import delay_error_stats

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
        lines.append(
            f"  layout: {record.get('layout')}  "
            f"probing interval: {_fmt(record.get('probing_interval'))}s  "
            f"probe pairs: {len(record.get('pairs') or [])}"
        )

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

        freshness = record.get("freshness") or {}
        lines.append(
            "  freshness: decision-time consulted-hop age "
            + _digest_line(freshness.get("decision_age"))
        )
        registers = freshness.get("registers") or []
        if registers:
            lines.append("    node     register  refreshes  refresh-age")
            for reg in registers:
                lines.append(
                    f"    {reg['node']:<8} {reg['register']:<8} "
                    f"{reg['refreshes']:>9}  {_digest_line(reg.get('age'))}"
                )

        attribution = record.get("attribution") or {}
        lines.append(
            f"  error vs telemetry age ({attribution.get('samples', 0)} samples "
            f"over {attribution.get('decisions', 0)} decisions, "
            f"{attribution.get('skipped', 0)} skipped):"
        )
        lines.append("    age bin          count  mean-error  mean-|error|")
        bin_total = 0
        for item in attribution.get("bins") or []:
            bin_total += item.get("count", 0)
            lines.append(
                f"    {item['label']:<15} {item['count']:>6}  "
                f"{_fmt(item.get('mean_error')):>10}  "
                f"{_fmt(item.get('mean_abs_error')):>12}"
            )
        expected_total = audit_samples.get(key)
        if expected_total is not None:
            check = "OK" if bin_total == expected_total else "MISMATCH"
            lines.append(
                f"    bin counts sum to {bin_total} vs {expected_total} "
                f"decision-audit samples: {check}"
            )
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
        lines.append("")
    return "\n".join(lines).rstrip()
