"""repro.obs — unified observability: metrics, events, and decision audits.

The paper's contribution is making network state *observable* to the
scheduler; this package makes the reproduction observable to the
experimenter.  One :class:`Observability` hub per run bundles:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters / gauges /
  histograms, timestamped in sim time;
* :class:`~repro.obs.events.EventLog` — typed JSONL-ready event records;
* :class:`~repro.obs.audit.DecisionAudit` — per-query scheduler decision
  explanations, optionally paired with ground truth.

Instrumented call sites read ``sim.obs`` (``None`` when disabled) and guard
with one truthy check, so a run without observability pays nothing beyond
that check.  Attach with::

    obs = Observability(run={"policy": "aware"})
    obs.bind_sim(sim)          # wires sim.obs and the sim-time clock
    obs.attach_network(net)    # queue-threshold + per-link byte accounting

and export with ``repro.obs.export.write_jsonl(obs.snapshot_records(), path)``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.audit import (
    DecisionAudit,
    NetworkGroundTruth,
    delay_error_stats,
    node_label,
)
from repro.obs.events import EVENT_KINDS, Event, EventLog
from repro.obs.health import HealthMonitor, HealthRule, default_rules
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullSink,
    NULL_SINK,
)
from repro.obs.quantiles import QuantileDigest
from repro.obs.telquality import TelemetryQuality
from repro.obs.timeseries import Series, TimeSeriesStore
from repro.obs.tracing import Span, SpanTracer
from repro.obs.whatif import WhatIf
from repro.observers import OBS_RECORDS, REGISTRY, TRACE_RECORDS, Observer, normalize

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "EventLog",
    "Event",
    "EVENT_KINDS",
    "DecisionAudit",
    "NetworkGroundTruth",
    "node_label",
    "NullSink",
    "NULL_SINK",
    "NULL_OBS",
    "Span",
    "SpanTracer",
    "QuantileDigest",
    "Series",
    "TelemetryQuality",
    "TimeSeriesStore",
    "WhatIf",
    "HealthMonitor",
    "HealthRule",
    "default_rules",
]

# The disabled-observability singleton: falsy, absorbs any call chain.
NULL_OBS = NULL_SINK

# A queue is "congested" when its depth reaches this fraction of capacity;
# crossings are emitted as queue_threshold events.
DEFAULT_QUEUE_THRESHOLD_FRACTION = 0.75


class Observability:
    """One run's observability hub: metrics + events + decision audit."""

    def __init__(
        self,
        *,
        run: Optional[Dict[str, Any]] = None,
        max_events: Optional[int] = None,
        max_decisions: Optional[int] = None,
        probe_sample: int = 10,
        queue_threshold_fraction: float = DEFAULT_QUEUE_THRESHOLD_FRACTION,
        health_rules: Optional[Any] = None,
        **observe: Any,
    ) -> None:
        if probe_sample < 1:
            raise ValueError("probe_sample must be >= 1")
        if not 0.0 < queue_threshold_fraction <= 1.0:
            raise ValueError("queue_threshold_fraction must be in (0, 1]")
        self.run: Dict[str, Any] = dict(run or {})
        self.metrics = MetricsRegistry()
        self.events = EventLog(**({} if max_events is None else {"max_events": max_events}))
        self.audit = DecisionAudit(
            **({} if max_decisions is None else {"max_decisions": max_decisions})
        )
        # Per-probe events at mesh-probing rates dwarf everything else; only
        # every Nth probe_sent/probe_received lands in the event log, while
        # exact totals always live in the metrics registry.
        self.probe_sample = probe_sample
        self._probe_tick = 0
        # The per-probe counters, looked up in the registry (which sorts and
        # stringifies the labels on every call) at first use and kept.
        self._probes_sent: Dict[int, Counter] = {}
        self._probe_reports: Optional[Counter] = None
        self.queue_threshold_fraction = queue_threshold_fraction
        self.ground_truth: Optional[NetworkGroundTruth] = None
        # Built by attach_experiment_samplers once the probing interval is
        # known (the default rules are parameterized by it); an explicit
        # rule set here overrides the defaults.
        self.health: Optional[HealthMonitor] = None
        self._health_rules = health_rules
        # Hub observers (repro.observers) are opt-in: each one's attribute
        # (``trace``, ``timeseries``, ``telquality``, ``whatif``) is None
        # unless requested, so instrumented call sites guard with one
        # attribute read and a disabled run exports a byte-identical stream.
        unknown = [n for n in observe if getattr(REGISTRY.get(n), "attr", None) is None]
        if unknown:
            raise TypeError(f"Observability() got unexpected keywords {unknown}")
        params = normalize(observe)
        self.observers: List[Tuple[Observer, Any]] = []
        for entry in (e for e in REGISTRY.values() if e.attr is not None):
            instance = entry.build(params[entry.name]) if entry.name in params else None
            if instance is not None:
                self.observers.append((entry, instance))
            setattr(self, entry.attr, instance)
        # Satellite: the bounded audit drops silently past its cap; the
        # export emits one warning event carrying the final drop count.
        self._audit_overflow_warned = False
        # (port, link_bytes_total counter) per link direction.
        self._link_counters: List[Tuple[Any, Counter]] = []

    def __bool__(self) -> bool:
        return True

    # -- wiring ------------------------------------------------------------

    def bind_sim(self, sim: Any) -> None:
        """Point every component at ``sim``'s clock and install this hub as
        ``sim.obs`` (the handle instrumented call sites read)."""
        clock = lambda: sim.now  # noqa: E731 - tiny closure over the sim
        self.metrics.bind_clock(clock)
        self.events.bind_clock(clock)
        self.audit.bind_clock(clock)
        for entry, instance in self.observers:
            entry.bind(instance, clock)
        sim.obs = self

    def attach_network(self, network: Any) -> None:
        """Instrument a finalized network: queue-threshold crossing events on
        every egress queue and per-link carried-byte counters, then attach
        every observer to it."""
        self.ground_truth = NetworkGroundTruth(network)
        nodes = list(network.hosts.values()) + list(network.switches.values())
        for node in nodes:
            for port in node.ports:
                queue = port.queue
                label = f"{node.name}[{port.port_index}]"
                threshold = max(
                    1, int(queue.capacity * self.queue_threshold_fraction)
                )
                queue.threshold = threshold
                queue.on_threshold = (
                    lambda depth, direction, _label=label, _thr=threshold: (
                        self._on_queue_threshold(_label, depth, _thr, direction)
                    )
                )
        # Carried bytes live in the sending ports' books; the counters read
        # them when the hub snapshots or summarises (_read_link_counters).
        self._link_counters = [
            (port, self.metrics.counter("link_bytes_total", link=name, direction=key))
            for name, link in network.links.items()
            for key, port in (("a", link.port_a), ("b", link.port_b))
        ]
        for entry, instance in self.observers:
            entry.network(instance, self, network)

    def attach_run(self, **parts: Any) -> None:
        """Attach every observer to an assembled experiment, once the
        simulation is built and before it runs.  ``parts`` are ``sim``,
        ``config``, ``probe_pairs``, ``servers``, ``collector`` and
        ``store`` (see :class:`repro.observers.Observer`)."""
        run = SimpleNamespace(**parts)
        for entry, instance in self.observers:
            entry.run(instance, self, run)

    def finish(self, task_records: List[Any]) -> None:
        """Every observer's finish step, after the run (spans assemble
        here)."""
        for entry, instance in self.observers:
            entry.finish(instance, task_records)

    def register_network_samplers(self, network: Any) -> None:
        """Per-tick samplers over live network state: egress queue depth
        (absolute and as a fraction of capacity, the saturation-rule input)
        and per-direction link utilization from carried-byte deltas."""
        ts = self.timeseries
        nodes = sorted(
            list(network.hosts.values()) + list(network.switches.values()),
            key=lambda n: n.name,
        )
        # Every series' recorder is resolved here, once, not per point.
        queues = []
        for node in nodes:
            for port in node.ports:
                label = f"{node.name}[{port.port_index}]"
                queues.append((
                    port.queue,
                    ts.recorder("queue_depth", queue=label),
                    ts.recorder("queue_depth_frac", queue=label),
                ))
        directions = [
            (link, direction, rate,
             ts.recorder("link_utilization", link=link.name, direction=direction))
            for link in (network.links[name] for name in sorted(network.links))
            for direction, rate in (("a", link.rate_ab_bps), ("b", link.rate_ba_bps))
        ]
        prev_bytes = [0] * len(directions)   # carried as of the previous tick

        def sample_network(store: TimeSeriesStore, now: float) -> None:
            for queue, record_depth, record_frac in queues:
                record_depth(now, queue.depth)
                record_frac(
                    now, queue.depth / queue.capacity if queue.capacity else 0.0
                )
            for i, (link, direction, rate, record) in enumerate(directions):
                carried = link.carried(direction)
                record(
                    now,
                    ((carried - prev_bytes[i]) * 8.0) / (rate * store.interval),
                )
                prev_bytes[i] = carried

        ts.register(sample_network)

    def attach_experiment_samplers(self, run: Any) -> None:
        """Wire harness-level samplers (server load, telemetry staleness,
        probe loss rate, decision error, and every observer's own series)
        over the run's parts (see :meth:`attach_run`), build the health
        monitor, and start the sampler timer."""
        from repro.simnet.engine import PeriodicTimer

        ts = self.timeseries
        servers, collector, store = run.servers, run.collector, run.store
        if servers:
            ordered = [
                (
                    servers[name],
                    ts.recorder("server_running", server=name),
                    ts.recorder("server_queued", server=name),
                )
                for name in sorted(servers)
            ]

            def sample_servers(s: TimeSeriesStore, now: float) -> None:
                for server, record_running, record_queued in ordered:
                    record_running(now, server.running)
                    record_queued(now, len(server.queued))

            ts.register(sample_servers)

        if store is not None:

            # Nodes appear as probes reveal them: recorder per node, made
            # at its first sighting.
            age_recorders: Dict[Any, Any] = {}

            def sample_staleness(s: TimeSeriesStore, now: float) -> None:
                for node in store.seen_nodes():
                    age = store.node_age(node)
                    if age is not None:
                        record = age_recorders.get(node)
                        if record is None:
                            record = age_recorders[node] = s.recorder(
                                "telemetry_node_age", node=node_label(node)
                            )
                        record(now, age)

            ts.register(sample_staleness)

        if collector is not None:
            prev = {"ingested": 0, "lost": 0}

            def sample_collector(s: TimeSeriesStore, now: float) -> None:
                ingested = collector.reports_ingested
                lost = collector.probes_lost
                d_in = ingested - prev["ingested"]
                d_lost = lost - prev["lost"]
                prev["ingested"] = ingested
                prev["lost"] = lost
                total = d_in + d_lost
                s.record("probe_loss_rate", now, d_lost / total if total else 0.0)
                s.record("probe_report_rate", now, d_in / s.interval)

            ts.register(sample_collector)

        # Estimate-vs-truth drift over the decisions recorded since the
        # previous tick; a tick with no new delay decisions records nothing,
        # leaving health streaks untouched.
        cursor = {"i": 0}

        def sample_decision_error(s: TimeSeriesStore, now: float) -> None:
            decisions = self.audit.decisions
            start = cursor["i"]
            if start >= len(decisions):
                return
            cursor["i"] = len(decisions)
            stats = delay_error_stats(
                c
                for d in decisions[start:]
                if d.metric == "delay"
                for c in d.candidates
            )
            mae = stats["mean_abs_error"]
            if mae is not None:
                s.record("decision_abs_error", now, mae)

        ts.register(sample_decision_error)

        # Observer series, in registry order; each registers only when its
        # observer is attached, so a sampled-but-unobserved run keeps its
        # series set unchanged.
        for entry, instance in self.observers:
            sampler = entry.sampler(instance)
            if sampler is not None:
                ts.register(sampler)

        rules = self._health_rules
        if rules is None:
            rules = default_rules(run.config.probing_interval)
        if rules:
            self.health = HealthMonitor(rules, self.events)
        # The sampler reads simulation state only, but adds its own events.
        PeriodicTimer(run.sim, ts.interval, self.sample_tick, run.sim).start()

    def sample_tick(self, sim: Any) -> None:
        """One sampler tick: run every registered sampler at ``sim.now`` and
        evaluate health rules against the values just recorded.  Scheduled
        by :meth:`attach_experiment_samplers`; reads state, never mutates it."""
        now = sim.now
        self.timeseries.tick(now)
        if self.health is not None:
            self.health.evaluate(self.timeseries, now)

    # -- instrumentation entry points (terse, hot-path-friendly) -----------

    def _on_queue_threshold(
        self, queue: str, depth: int, threshold: int, direction: str
    ) -> None:
        self.metrics.counter("queue_threshold_crossings_total", queue=queue).inc()
        self.events.queue_threshold(
            queue=queue, depth=depth, threshold=threshold, direction=direction
        )

    def packet_dropped(
        self, *, queue: str, flow_id: int, seq: int, size_bytes: int, is_probe: bool
    ) -> None:
        self.metrics.counter("packets_dropped_total", queue=queue).inc()
        self.events.packet_dropped(
            queue=queue,
            flow_id=flow_id,
            seq=seq,
            size_bytes=size_bytes,
            is_probe=is_probe,
        )

    def _probe_sampled(self) -> bool:
        self._probe_tick += 1
        return self._probe_tick % self.probe_sample == 0

    def probe_sent(self, *, src: int, dst: int, seq: int) -> None:
        counter = self._probes_sent.get(src)
        if counter is None:
            counter = self._probes_sent[src] = self.metrics.counter(
                "probes_sent_total", src=src
            )
        counter.inc()
        if self._probe_sampled():
            self.events.probe_sent(src=src, dst=dst, seq=seq, sampled=self.probe_sample)

    def probe_received(self, *, src: int, dst: int, seq: int, hops: int) -> None:
        counter = self._probe_reports
        if counter is None:
            counter = self._probe_reports = self.metrics.counter(
                "probe_reports_ingested_total"
            )
        counter.inc()
        if self._probe_sampled():
            self.events.probe_received(
                src=src, dst=dst, seq=seq, hops=hops, sampled=self.probe_sample
            )

    def probe_lost(self, *, src: int, dst: int, seq: int, lost: int) -> None:
        self.metrics.counter("probes_lost_total").inc(lost)
        self.events.probe_lost(src=src, dst=dst, seq=seq, lost=lost)

    def probe_malformed(self, *, reason: str, **fields: Any) -> None:
        self.metrics.counter("probe_reports_malformed_total").inc()
        self.events.warning(reason, **fields)

    def fault_injected(self, *, fault: str, target: str, **fields: Any) -> None:
        self.metrics.counter("faults_injected_total", fault=fault).inc()
        self.events.fault_injected(fault=fault, target=target, **fields)

    def fault_recovered(self, *, fault: str, target: str, **fields: Any) -> None:
        self.metrics.counter("faults_recovered_total", fault=fault).inc()
        self.events.fault_recovered(fault=fault, target=target, **fields)

    def node_quarantined(self, *, node: str, age: float, **fields: Any) -> None:
        self.metrics.counter("nodes_quarantined_total").inc()
        self.events.node_quarantined(node=node, age=age, **fields)

    def node_unquarantined(self, *, node: str, **fields: Any) -> None:
        self.events.node_unquarantined(node=node, **fields)

    # -- export ------------------------------------------------------------

    def _read_link_counters(self) -> None:
        """Bring ``link_bytes_total`` up to now: value and ``updated_at`` as
        a per-frame increment at each completion would have left them."""
        for port, counter in self._link_counters:
            counter.value = float(port.bytes_carried)
            counter.updated_at = port.carried_at

    def snapshot_records(self) -> List[Dict[str, Any]]:
        """Every record this hub holds, JSON-ready, run labels attached."""
        self._read_link_counters()
        # The audit drops decisions silently once full; surface the final
        # count as a single warning event at export time (one-shot so
        # repeated snapshots stay stable, and runs that never drop export
        # a byte-identical event stream).
        if self.audit.dropped_decisions and not self._audit_overflow_warned:
            self._audit_overflow_warned = True
            self.events.warning(
                "decision_audit_overflow",
                dropped=self.audit.dropped_decisions,
                max_decisions=self.audit.max_decisions,
            )
        records = (
            self.metrics.snapshot() + self.events.snapshot() + self.audit.snapshot()
        )
        # Observer records append after everything else, in registry order,
        # so enabling one leaves every earlier record byte-identical.
        records += self._observer_records(OBS_RECORDS)
        return self._label(records)

    def trace_records(self) -> List[Dict[str, Any]]:
        """Every assembled span, JSON-ready, run labels attached.  Kept
        separate from :meth:`snapshot_records` so trace exports never change
        the pre-existing obs export byte stream."""
        return self._label(self._observer_records(TRACE_RECORDS))

    def _observer_records(self, channel: str) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        for entry, instance in self.observers:
            if entry.channel == channel:
                records += entry.records(instance, self)
        return records

    def _label(self, records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        if self.run:
            run = dict(self.run)
            for record in records:
                record["run"] = run
        return records

    def summary(self) -> Dict[str, Any]:
        """Compact run-level digest (the ``run-summary`` exporter)."""
        self._read_link_counters()
        out = {
            "run": dict(self.run),
            "instruments": len(self.metrics),
            "events": len(self.events),
            "events_by_kind": self.events.counts_by_kind(),
            "events_dropped": self.events.dropped_events,
            "decisions": len(self.audit),
            "decisions_dropped": self.audit.dropped_decisions,
            "delay_error": self.audit.error_report(),
        }
        for entry, instance in self.observers:
            out.update(entry.summary(instance, self))
        return out
