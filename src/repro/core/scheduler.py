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
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.errors import SchedulingError
from repro.core.estimators import (
    BandwidthEstimator,
    DelayEstimator,
    QdepthUtilizationCurve,
    walk,
)
from repro.core.ranking import (
    explain_bandwidth,
    explain_delay,
    rank_by_bandwidth,
    rank_by_delay,
)
from repro.core.telemetry_store import TelemetryStore
from repro.simnet.addressing import PORT_SCHEDULER, PROTO_UDP
from repro.simnet.host import Host
from repro.simnet.packet import HEADER_OVERHEAD, Packet
from repro.telemetry.collector import IntCollector
from repro.telemetry.records import TelemetryNodeId, host_node, node_label

__all__ = [
    "SchedulerService",
    "DecisionRecord",
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

# One consulted hop of a candidate's path: (u, v, telemetry age or None).
HopAge = Tuple[TelemetryNodeId, TelemetryNodeId, Optional[float]]


def _finite_or_none(value: Any) -> Any:
    """``None`` for a non-finite float, item by item in a list; any other
    value as it is."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, list):
        return [_finite_or_none(item) for item in value]
    return value


class DecisionRecord(NamedTuple):
    """One ranking query, explained once when a hub is attached: what the
    decision audit stores and the telemetry-quality, what-if and trace
    observers read.

    ``candidates`` are the audit's dicts, in ranking order: ``server_addr``,
    ``value``, the policy's explanation (the network-aware scheduler's
    ``estimated_delay``, ``path`` and ``hops``) and, with ground truth
    attached, ``truth_delay``; a value or estimate that is not finite (a
    candidate with no known path) is ``None``.  ``hops`` is parallel to them: each
    candidate's consulted hops with their telemetry ages, or ``None`` for a
    policy that consults no telemetry (the baselines)."""

    time: float
    requester_addr: int
    metric: Any
    chosen_addr: Optional[int]
    candidates: List[Dict[str, Any]]
    hops: Optional[List[List[HopAge]]]

    def ages(self) -> Optional[List[List[float]]]:
        """Per candidate, the known telemetry ages of its consulted hops;
        ``None`` when the policy consulted no telemetry."""
        if self.hops is None:
            return None
        return [[age for _u, _v, age in hops if age is not None] for hops in self.hops]


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
            record = self._decision_record(obs, requester_addr, metric, ranking)
            self._audit_decision(obs, record)
            if getattr(obs, "trace", None) is not None:
                self._trace_decision(obs.trace, record, request_id)
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

    def _decision_record(
        self, obs, requester_addr: int, metric: str, ranking
    ) -> DecisionRecord:
        """Explain one ranking query once: every candidate's value, the
        policy's explanation (:meth:`_explain`) and, when a ground-truth
        oracle is attached, the true path delay at decision time."""
        candidates: List[Dict[str, Any]] = [
            {"server_addr": addr, "value": list(value) if isinstance(value, tuple) else value}
            for addr, value in ranking
        ]
        hops = self._explain(requester_addr, metric, candidates)
        truth = obs.ground_truth
        if truth is not None:
            for cand in candidates:
                cand["truth_delay"] = truth.true_delay_between(
                    requester_addr, cand["server_addr"]
                )
        # JSON has no inf: an unreachable candidate's estimate is null.
        for cand in candidates:
            for key, value in cand.items():
                cand[key] = _finite_or_none(value)
        # Raw rankings are unsorted — the device chooses, not the scheduler.
        chosen = ranking[0][0] if ranking and metric != METRIC_RAW else None
        return DecisionRecord(
            self.host.sim.now, requester_addr, metric, chosen, candidates, hops
        )

    def _explain(
        self, requester_addr: int, metric: str, candidates: List[Dict[str, Any]]
    ) -> Optional[List[List[HopAge]]]:
        """Add this policy's explanation to each candidate dict and return,
        per candidate, the hops it consulted with their telemetry ages
        (:meth:`TelemetryStore.hop_ages`).  The baselines consult no
        telemetry: nothing to add, and ``None``."""
        return None

    def _audit_decision(self, obs, record: DecisionRecord) -> None:
        """Store the record in the decision audit.  A delay decision the
        (bounded) audit stored also feeds the what-if replay and, when the
        policy consulted telemetry, the telemetry-quality attribution —
        read from the same candidate dicts, so both mirror the audit."""
        decision = obs.audit.record(
            requester_addr=record.requester_addr,
            metric=record.metric,
            candidates=record.candidates,
            chosen_addr=record.chosen_addr,
        )
        if decision is None or record.metric != METRIC_DELAY:
            return
        ages = record.ages()
        telquality = getattr(obs, "telquality", None)
        if telquality is not None and ages is not None:
            telquality.decision(record.time, record.candidates, ages)
        whatif = getattr(obs, "whatif", None)
        if whatif is not None:
            whatif.decision(record.candidates, record.chosen_addr, ages)

    def _trace_decision(self, trace, record: DecisionRecord, request_id: int) -> None:
        """Stage this decision for the requesting task's causal trace (the
        ``scheduler_decision`` child span): the decision's shape and, for a
        policy that consults telemetry, the Algorithm-1 estimate and the
        truth for the chosen candidate and the telemetry age per hop of its
        path — the staleness the ranking was actually computed from."""
        chosen = record.chosen_addr
        attributes: Dict[str, Any] = {
            "scheduler": type(self).__name__,
            "metric": record.metric,
            "chosen_addr": chosen,
            "candidates": len(record.candidates),
        }
        if record.hops is not None:
            estimated = truth_delay = None
            hop_ages: List[Dict[str, Any]] = []
            if chosen is not None:  # the head of the ranking
                head = record.candidates[0]
                explained = head
                if "estimated_delay" not in explained:  # bandwidth ranking
                    explained = {"server_addr": chosen}
                    self._explain(record.requester_addr, METRIC_DELAY, [explained])
                estimated = _finite_or_none(explained["estimated_delay"])
                truth_delay = head.get("truth_delay")
                hop_ages = [
                    {"hop": f"{node_label(u)}>{node_label(v)}", "age": age}
                    for u, v, age in record.hops[0]
                ]
            ages = [hop["age"] for hop in hop_ages if hop["age"] is not None]
            attributes.update(
                estimated_delay=estimated,
                truth_delay=truth_delay,
                hop_ages=hop_ages,
                telemetry_age_max=max(ages) if ages else None,
            )
        trace.decision(request_id, **attributes)

    # -- policy (override) ------------------------------------------------------

    def candidates_for(self, requester_addr: int) -> List[int]:
        """Every registered edge server except the requester itself (a node
        never executes its own offloaded task, Section IV)."""
        return [a for a in self.server_addrs if a != requester_addr]

    def rank(self, requester_addr: int, metric: str) -> List[Tuple[int, float]]:
        raise NotImplementedError


class _RequesterView(NamedTuple):
    """What :meth:`NetworkAwareScheduler.rank` derives from
    ``server_addrs`` for one requester: its node, its candidates' nodes in
    :meth:`~SchedulerService.candidates_for` order, and those in node order
    (the raw ranking's order)."""

    origin: TelemetryNodeId
    candidates: Tuple[TelemetryNodeId, ...]
    by_node: Tuple[TelemetryNodeId, ...]


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

    @property
    def server_addrs(self) -> List[int]:
        return self._server_addrs

    @server_addrs.setter
    def server_addrs(self, addrs: Sequence[int]) -> None:
        # Reassigning the servers drops every requester's view.
        self._server_addrs = list(addrs)
        self._views: Dict[int, _RequesterView] = {}

    def _view(self, requester_addr: int) -> _RequesterView:
        candidates = tuple(host_node(a) for a in self.candidates_for(requester_addr))
        return _RequesterView(host_node(requester_addr), candidates, tuple(sorted(candidates)))

    def rank(self, requester_addr: int, metric: str) -> List[Tuple[int, float]]:
        view = self._views.get(requester_addr)
        if view is None:
            view = self._views[requester_addr] = self._view(requester_addr)
        origin, candidates, by_node = view
        if self.quarantine_ttl is not None:
            fresh, stale = self._partition_by_freshness(candidates)
        else:
            fresh, stale = candidates, []
        if metric == METRIC_DELAY:
            ranked = rank_by_delay(self.delay_estimator, origin, fresh)
            if stale:
                ranked += self._rank_stale_by_delay(origin, stale)
        elif metric == METRIC_BANDWIDTH:
            ranked = rank_by_bandwidth(self.bandwidth_estimator, origin, fresh)
            if stale:
                ranked += self._rank_stale_by_bandwidth(origin, stale)
        elif metric == METRIC_RAW:
            return self._rank_raw(origin, by_node)
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
                        obs.node_quarantined(node=node_label(node), age=age)
            else:
                fresh.append(node)
                if node in self._quarantined:
                    self._quarantined.discard(node)
                    if obs:
                        obs.node_unquarantined(node=node_label(node))
        return fresh, stale

    def _rank_stale_by_delay(self, origin, stale) -> List[Tuple[Tuple, float]]:
        """Quarantined candidates, best-last-known-delay first, each charged
        the staleness penalty.  With a dark store this degenerates to the
        hop-count (Nearest) ordering — every link falls back to the default
        delay — which is exactly the right blind-mode behavior."""
        delays = self.delay_estimator.delays(origin, stale, allow_stale=True)
        penalty = self.stale_penalty
        ranked = [(node, delay + penalty) for node, delay in zip(stale, delays)]
        ranked.sort(key=itemgetter(1, 0))
        return ranked

    def _rank_stale_by_bandwidth(self, origin, stale) -> List[Tuple[Tuple, float]]:
        throughputs = self.bandwidth_estimator.throughputs(origin, stale)
        ranked = [(node, bw * STALE_BW_FACTOR) for node, bw in zip(stale, throughputs)]
        ranked.sort(key=lambda item: (-item[1], item[0]))
        return ranked

    def _explain(
        self, requester_addr: int, metric: str, candidates: List[Dict[str, Any]]
    ) -> List[List[HopAge]]:
        """Algorithm 1's full working: per candidate, the per-hop Q(h) and
        link-delay (or utilization) terms behind the estimate, and the age
        of the telemetry each hop of its path was read from."""
        origin = host_node(requester_addr)
        hops = []
        for cand in candidates:
            node = host_node(cand["server_addr"])
            if metric == METRIC_BANDWIDTH:
                detail = explain_bandwidth(self.bandwidth_estimator, origin, node)
            else:  # delay; raw explains the delay side
                detail = explain_delay(self.delay_estimator, origin, node)
                cand["estimated_delay"] = detail["value"]
            cand["path"] = detail["path"]
            cand["hops"] = detail["hops"]
            hops.append(self.store.hop_ages(origin, node))
        return hops

    def _rank_raw(self, origin, candidates) -> List[Tuple[int, Tuple[float, float]]]:
        """Both estimates per candidate (``candidates`` in node order, none
        of them ``origin``) from one walk, in that order (unsorted — the
        device applies its own policy); an unreachable candidate gets
        ``(inf, 0.0)``."""
        store = self.store
        delays, throughputs = walk(
            store.tree(origin, candidates), store,
            delay=self.delay_estimator, bandwidth=self.bandwidth_estimator,
        )
        return [
            (node[1], pair) for node, pair in zip(candidates, zip(delays, throughputs))
        ]
