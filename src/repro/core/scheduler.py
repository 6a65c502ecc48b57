"""Scheduler services: the query/response protocol and the network-aware
scheduler (Fig. 1, steps 2-5).

Edge devices send a query datagram to the scheduler node and receive the
ranked list of candidate edge servers with the estimated metric (delay in
seconds or available bandwidth in bit/s).  The protocol is deliberately
identical across the network-aware scheduler and the baselines so the edge
device code is policy-agnostic — only the node running the service changes.

Wire messages (Python objects riding :attr:`Packet.message`):

* query:    ``("sched_query", request_id, metric)``
* response: ``("sched_response", request_id, ((server_addr, value), ...))``
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SchedulingError
from repro.core.estimators import (
    BandwidthEstimator,
    DelayEstimator,
    QdepthUtilizationCurve,
)
from repro.core.ranking import rank_by_bandwidth, rank_by_delay
from repro.core.telemetry_store import TelemetryStore
from repro.simnet.addressing import PORT_SCHEDULER, PROTO_UDP
from repro.simnet.host import Host
from repro.simnet.packet import HEADER_OVERHEAD, Packet
from repro.telemetry.collector import IntCollector
from repro.telemetry.records import host_node

__all__ = [
    "SchedulerService",
    "NetworkAwareScheduler",
    "METRIC_DELAY",
    "METRIC_BANDWIDTH",
    "METRIC_RAW",
    "STALE_BW_FACTOR",
]

METRIC_DELAY = "delay"
METRIC_BANDWIDTH = "bandwidth"
# Section III-B's second mode: "the scheduler can respond back with
# (unsorted) list of all edge devices along with their bandwidth and latency
# information to let edge devices implement a custom selection algorithm."
METRIC_RAW = "raw"

# Per-query service time at the scheduler (decode + rank + encode).
DEFAULT_PROCESSING_DELAY = 0.5e-3
# Degraded-mode ranking: a quarantined (stale-telemetry) candidate's
# last-known bandwidth is discounted by this factor, mirroring the additive
# delay penalty — stale good news is treated as half as good.
STALE_BW_FACTOR = 0.5
# Response size grows with the candidate list: address + float value.
_BYTES_PER_RANK_ENTRY = 12


class SchedulerService:
    """Protocol plumbing shared by every scheduling policy.

    Subclasses implement :meth:`rank` returning ``[(server_addr, value),
    ...]`` best-first for the given requester and metric.
    """

    def __init__(
        self,
        host: Host,
        server_addrs: Sequence[int],
        *,
        processing_delay: float = DEFAULT_PROCESSING_DELAY,
    ) -> None:
        if not server_addrs:
            raise SchedulingError("scheduler needs at least one edge server")
        self.host = host
        self.server_addrs = list(server_addrs)
        self.processing_delay = processing_delay
        self.queries_served = 0
        host.bind(PROTO_UDP, PORT_SCHEDULER, self._on_query)

    # -- protocol ------------------------------------------------------------

    def _on_query(self, packet: Packet) -> None:
        msg = packet.message
        if not (isinstance(msg, tuple) and len(msg) == 3 and msg[0] == "sched_query"):
            return
        _tag, request_id, metric = msg
        obs = self.host.sim.obs
        if obs:
            trace = getattr(obs, "trace", None)
            if trace is not None:
                trace.decision_query(request_id)
        self.host.sim.schedule(
            self.processing_delay,
            self._respond,
            packet.src_addr,
            packet.src_port,
            request_id,
            metric,
        )

    def _respond(
        self, requester_addr: int, requester_port: int, request_id: int, metric: str
    ) -> None:
        ranking = self.rank(requester_addr, metric)
        self.queries_served += 1
        obs = self.host.sim.obs
        if obs:
            self._audit_decision(obs, requester_addr, metric, ranking)
            if getattr(obs, "trace", None) is not None:
                self._trace_decision(obs, requester_addr, metric, ranking, request_id)
        response = self.host.new_packet(
            requester_addr,
            protocol=PROTO_UDP,
            src_port=PORT_SCHEDULER,
            dst_port=requester_port,
            size_bytes=HEADER_OVERHEAD + _BYTES_PER_RANK_ENTRY * max(1, len(ranking)),
            message=("sched_response", request_id, tuple(ranking)),
        )
        self.host.send(response)

    # -- observability -----------------------------------------------------

    def _audit_decision(self, obs, requester_addr: int, metric: str, ranking) -> None:
        """Record one ranking query in the decision audit trail.  The base
        record carries every candidate's value and, when a ground-truth
        oracle is attached, the true path delay at decision time; the
        network-aware subclass adds the per-hop estimate breakdown."""
        truth = obs.ground_truth
        candidates = []
        for addr, value in ranking:
            cand: Dict[str, object] = {
                "server_addr": addr,
                "value": list(value) if isinstance(value, tuple) else value,
            }
            if truth is not None:
                cand["truth_delay"] = truth.true_delay_between(requester_addr, addr)
            candidates.append(cand)
        # Raw rankings are unsorted — the device chooses, not the scheduler.
        chosen = ranking[0][0] if ranking and metric != METRIC_RAW else None
        decision = obs.audit.record(
            requester_addr=requester_addr,
            metric=metric,
            candidates=candidates,
            chosen_addr=chosen,
        )
        # Counterfactual replay prices audited delay decisions only.
        # Baselines consult no telemetry store, so staleness is unknown.
        whatif = getattr(obs, "whatif", None)
        if whatif is not None and decision is not None and metric == METRIC_DELAY:
            whatif.decision(
                self.host.sim.now, getattr(self, "store", None), candidates, chosen
            )

    def _trace_decision(
        self, obs, requester_addr: int, metric: str, ranking, request_id: int
    ) -> None:
        """Stage this decision for the requesting task's causal trace (the
        ``scheduler_decision`` child span).  The base record is the decision
        shape; the network-aware subclass adds the telemetry freshness the
        ranking was computed from."""
        chosen = ranking[0][0] if ranking and metric != METRIC_RAW else None
        obs.trace.decision(
            request_id,
            scheduler=type(self).__name__,
            metric=metric,
            chosen_addr=chosen,
            candidates=len(ranking),
        )

    # -- policy (override) ------------------------------------------------------

    def candidates_for(self, requester_addr: int) -> List[int]:
        """Every registered edge server except the requester itself (a node
        never executes its own offloaded task, Section IV)."""
        return [a for a in self.server_addrs if a != requester_addr]

    def rank(self, requester_addr: int, metric: str) -> List[Tuple[int, float]]:
        raise NotImplementedError


class NetworkAwareScheduler(SchedulerService):
    """The paper's INT-driven scheduler.

    Owns the collector -> telemetry-store -> estimator pipeline and ranks by
    Algorithm 1 (delay metric) or bottleneck available bandwidth.
    """

    def __init__(
        self,
        host: Host,
        server_addrs: Sequence[int],
        *,
        link_capacity_bps: float,
        k: float = 0.020,
        default_link_delay: float = 0.010,
        qdepth_floor: int = 3,
        curve: Optional[QdepthUtilizationCurve] = None,
        staleness: float = 2.0,
        processing_delay: float = DEFAULT_PROCESSING_DELAY,
        quarantine_ttl: Optional[float] = None,
        stale_penalty: float = 0.050,
    ) -> None:
        if quarantine_ttl is not None and quarantine_ttl <= 0:
            raise SchedulingError(
                f"quarantine_ttl must be positive, got {quarantine_ttl}"
            )
        if stale_penalty < 0:
            raise SchedulingError(f"stale_penalty must be >= 0, got {stale_penalty}")
        super().__init__(host, server_addrs, processing_delay=processing_delay)
        self.collector = IntCollector(host)
        self.store = TelemetryStore(host.sim, staleness=staleness)
        self.collector.subscribe(self.store.update)
        self.delay_estimator = DelayEstimator(
            self.store, k=k, default_link_delay=default_link_delay,
            qdepth_floor=qdepth_floor,
        )
        self.bandwidth_estimator = BandwidthEstimator(
            self.store, link_capacity_bps=link_capacity_bps, curve=curve
        )
        # Graceful degradation (off by default — None preserves the paper's
        # behavior exactly): candidates whose telemetry is older than the TTL
        # are quarantined to the back of the ranking, scored from last-known
        # EWMAs plus a penalty instead of from values the staleness horizon
        # already zeroed out.  Never-seen nodes are NOT quarantined: at cold
        # start nothing is fresh and everything should still be rankable.
        self.quarantine_ttl = quarantine_ttl
        self.stale_penalty = stale_penalty
        self._quarantined: Set = set()

    def rank(self, requester_addr: int, metric: str) -> List[Tuple[int, float]]:
        origin = host_node(requester_addr)
        candidates = [host_node(a) for a in self.candidates_for(requester_addr)]
        if self.quarantine_ttl is not None:
            fresh, stale = self._partition_by_freshness(candidates)
        else:
            fresh, stale = candidates, []
        if metric == METRIC_DELAY:
            ranked = rank_by_delay(self.delay_estimator, origin, fresh)
            ranked += self._rank_stale_by_delay(origin, stale)
        elif metric == METRIC_BANDWIDTH:
            ranked = rank_by_bandwidth(self.bandwidth_estimator, origin, fresh)
            ranked += self._rank_stale_by_bandwidth(origin, stale)
        elif metric == METRIC_RAW:
            return self._rank_raw(origin, candidates)
        else:
            raise SchedulingError(f"unknown ranking metric {metric!r}")
        return [(node[1], value) for node, value in ranked]

    # -- graceful degradation ----------------------------------------------

    @property
    def quarantined_nodes(self) -> Set:
        """Candidates currently held back for stale telemetry."""
        return set(self._quarantined)

    def _partition_by_freshness(self, candidates):
        """Split candidates into (fresh, stale) by telemetry age, emitting
        quarantine transition events as nodes cross the TTL either way."""
        ttl = self.quarantine_ttl
        fresh, stale = [], []
        obs = self.host.sim.obs
        for node in candidates:
            age = self.store.node_age(node)
            if age is not None and age > ttl:
                stale.append(node)
                if node not in self._quarantined:
                    self._quarantined.add(node)
                    if obs:
                        obs.node_quarantined(node=f"{node[0]}:{node[1]}", age=age)
            else:
                fresh.append(node)
                if node in self._quarantined:
                    self._quarantined.discard(node)
                    if obs:
                        obs.node_unquarantined(node=f"{node[0]}:{node[1]}")
        return fresh, stale

    def _rank_stale_by_delay(self, origin, stale) -> List[Tuple[Tuple, float]]:
        """Quarantined candidates, best-last-known-delay first, each charged
        the staleness penalty.  With a dark store this degenerates to the
        hop-count (Nearest) ordering — every link falls back to the default
        delay — which is exactly the right blind-mode behavior."""
        ranked = []
        for node in stale:
            try:
                delay = self.delay_estimator.delay_between(
                    origin, node, allow_stale=True
                )
            except SchedulingError:
                delay = math.inf
            ranked.append((node, delay + self.stale_penalty))
        ranked.sort(key=itemgetter(1, 0))
        return ranked

    def _rank_stale_by_bandwidth(self, origin, stale) -> List[Tuple[Tuple, float]]:
        ranked = []
        for node in stale:
            try:
                bw = self.bandwidth_estimator.throughput_between(origin, node)
            except SchedulingError:
                bw = 0.0
            ranked.append((node, bw * STALE_BW_FACTOR))
        ranked.sort(key=lambda item: (-item[1], item[0]))
        return ranked

    def _audit_decision(self, obs, requester_addr: int, metric: str, ranking) -> None:
        """Algorithm 1's full working: per candidate, the per-hop Q(h) and
        link-delay (or utilization) terms behind the estimate, plus ground
        truth along the *estimated* path when an oracle is attached."""
        from repro.core.ranking import explain_bandwidth, explain_delay

        origin = host_node(requester_addr)
        truth = obs.ground_truth
        candidates = []
        for addr, value in ranking:
            cand: Dict[str, object] = {
                "server_addr": addr,
                "value": list(value) if isinstance(value, tuple) else value,
            }
            node = host_node(addr)
            if metric == METRIC_DELAY:
                detail = explain_delay(self.delay_estimator, origin, node)
                cand["estimated_delay"] = detail["value"]
            elif metric == METRIC_BANDWIDTH:
                detail = explain_bandwidth(self.bandwidth_estimator, origin, node)
            else:  # raw: both estimates ride in value; explain the delay side
                detail = explain_delay(self.delay_estimator, origin, node)
                cand["estimated_delay"] = detail["value"]
            cand["path"] = detail["path"]
            cand["hops"] = detail["hops"]
            if truth is not None:
                cand["truth_delay"] = truth.true_delay_between(requester_addr, addr)
            candidates.append(cand)
        chosen = ranking[0][0] if ranking and metric != METRIC_RAW else None
        decision = obs.audit.record(
            requester_addr=requester_addr,
            metric=metric,
            candidates=candidates,
            chosen_addr=chosen,
        )
        # Telemetry-quality attribution mirrors the audit exactly: only
        # decisions the (bounded) audit stored, only the delay metric the
        # error report aggregates, read from the same candidate dicts.
        telquality = getattr(obs, "telquality", None)
        if telquality is not None and decision is not None and metric == METRIC_DELAY:
            telquality.decision(self.host.sim.now, self.store, candidates)
        # Counterfactual replay shares the same gating: audited delay
        # decisions, with truth and hop ages read per candidate at
        # decision time — every candidate, not just the chosen one.
        whatif = getattr(obs, "whatif", None)
        if whatif is not None and decision is not None and metric == METRIC_DELAY:
            whatif.decision(self.host.sim.now, self.store, candidates, chosen)

    def _trace_decision(
        self, obs, requester_addr: int, metric: str, ranking, request_id: int
    ) -> None:
        """Base decision shape plus the Algorithm-1 estimate for the chosen
        candidate and the telemetry snapshot age per hop of its path — the
        staleness the ranking was actually computed from."""
        from repro.core.ranking import explain_delay

        chosen = ranking[0][0] if ranking and metric != METRIC_RAW else None
        estimated = None
        truth_delay = None
        hop_ages: List[Dict[str, object]] = []
        ages: List[float] = []
        if chosen is not None:
            origin = host_node(requester_addr)
            node = host_node(chosen)
            detail = explain_delay(self.delay_estimator, origin, node)
            estimated = detail["value"] if math.isfinite(detail["value"]) else None
            if obs.ground_truth is not None:
                truth_delay = obs.ground_truth.true_delay_between(
                    requester_addr, chosen
                )
            now = self.host.sim.now
            try:
                path = self.store.topology.path(origin, node)
            except SchedulingError:
                path = []
            for u, v in zip(path, path[1:]):
                state = self.store.link_state(u, v)
                age = None
                if state is not None:
                    # updated_at defaults to -1.0 until the first report.
                    updated = max(state.latency_updated_at, state.qdepth_updated_at)
                    if updated >= 0.0:
                        age = now - updated
                        ages.append(age)
                hop_ages.append(
                    {"hop": f"{u[0]}:{u[1]}>{v[0]}:{v[1]}", "age": age}
                )
        obs.trace.decision(
            request_id,
            scheduler=type(self).__name__,
            metric=metric,
            chosen_addr=chosen,
            candidates=len(ranking),
            estimated_delay=estimated,
            truth_delay=truth_delay,
            hop_ages=hop_ages,
            telemetry_age_max=max(ages) if ages else None,
        )

    def _rank_raw(self, origin, candidates) -> List[Tuple[int, Tuple[float, float]]]:
        """Both estimates per candidate, in address order (unsorted — the
        device applies its own policy); an unreachable candidate gets
        ``(inf, 0.0)``."""
        delay_between = self.delay_estimator.delay_between
        throughput_between = self.bandwidth_estimator.throughput_between
        ranked = []
        for node in sorted(candidates):
            if node == origin:
                continue
            try:
                delay = delay_between(origin, node)
            except SchedulingError:
                delay = math.inf
            try:
                bw = throughput_between(origin, node)
            except SchedulingError:
                bw = 0.0
            ranked.append((node[1], (delay, bw)))
        return ranked
