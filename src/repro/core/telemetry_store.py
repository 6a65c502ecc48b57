"""The scheduler's network-state database.

Subscribes to the collector's probe reports and maintains, per *directed*
link (u -> v) of the inferred topology:

* ``link_delay`` — the latest (and an EWMA of) the measured u->v link
  latency (transmission + propagation, excluding queueing: the INT program
  measures at ingress before enqueue, Section III-C);
* ``max_qdepth`` — the maximum egress queue depth at u's port toward v over
  the most recent probing interval (the register value the probe collected
  and reset).

The paper is explicit that the *maximum* (not the average) queue length per
probing interval is the useful congestion signal, and that values refresh
whenever a probe traverses the device.  Readings older than ``staleness``
decay to "no congestion observed" — a register that stopped being refreshed
says nothing about the present.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.p4.headers import NO_LATENCY
from repro.simnet.engine import Simulator
from repro.telemetry.records import ProbeReport, TelemetryNodeId, host_node, switch_node
from repro.core.topology_inference import InferredTopology

__all__ = ["TelemetryStore", "LinkState", "PathTree", "DEFAULT_STALENESS"]

DEFAULT_STALENESS = 2.0          # seconds; ~20 probing intervals at the default rate
EWMA_ALPHA = 0.3                 # weight of the newest latency sample
_EWMA_KEEP = 1.0 - EWMA_ALPHA    # weight of the running average


@dataclass
class LinkState:
    """Latest telemetry for one directed link, and the two rules that turn
    it into the value a ranking charges (:meth:`delay`, :meth:`qdepth`)."""

    latency: Optional[float] = None          # newest sample (s)
    latency_ewma: Optional[float] = None     # smoothed latency (s)
    latency_updated_at: float = -1.0
    qdepth_updated_at: float = -1.0          # last time any reading arrived
    samples: int = 0
    # Monotonic deque of (time, reading): the front is always the maximum
    # reading within the sliding window (older and dominated entries are
    # evicted on update).
    qdepth_readings: Deque[Tuple[float, int]] = field(default_factory=deque)

    def delay(
        self, now: float, staleness: float, default: float, allow_stale: bool = False
    ) -> float:
        """Smoothed latency, or ``default`` when never measured or last
        measured more than ``staleness`` before ``now``.  ``allow_stale``
        keeps returning the last-known EWMA past the staleness horizon —
        degraded-mode ranking prefers an old measurement over none."""
        ewma = self.latency_ewma
        if ewma is None or (not allow_stale and now - self.latency_updated_at > staleness):
            return default
        return ewma

    def qdepth(self, now: float, staleness: float) -> int:
        """Max queue depth over the window ending at the most recent
        reading (the deque's front); 0 when unknown or older than
        ``staleness`` (no reading = no evidence of congestion, matching the
        register's reset-to-zero semantics).  The window is anchored to the
        *newest report*, not the read time: with slow probing the last
        interval's reading stays authoritative until staleness."""
        if now - self.qdepth_updated_at > staleness:
            return 0
        readings = self.qdepth_readings
        return readings[0][1] if readings else 0

    def age(self, now: float) -> Optional[float]:
        """Seconds since the newest reading of either kind, or ``None``
        before the first report (both stamps start at -1.0)."""
        updated = max(self.latency_updated_at, self.qdepth_updated_at)
        return now - updated if updated >= 0.0 else None


class PathTree(NamedTuple):
    """The inferred paths from one source to a list of candidates, as one
    prefix tree: a link that several paths share appears once.

    Slot 0 is the source; edge ``i`` of ``edges`` leads to slot ``i + 1``
    and is ``(LinkState, upstream is a switch, parent slot)`` — only switch
    egresses charge a queue term.  Edges are in prefix order (a parent slot
    is always an earlier one), so one pass over them can carry any per-path
    sum from parent to child.  ``slots`` gives each candidate's slot, in
    candidate order: -1 when no path is known, 0 for the source itself."""

    edges: Tuple[Tuple[LinkState, bool, int], ...]
    slots: Tuple[int, ...]


# What fixes a probe's path: (probe_src, probe_dst, switch ids in path order).
PathKey = Tuple[int, int, Tuple[int, ...]]
# Per probe path: its distinct nodes and the state of each of its links.
IngestPlan = Tuple[Tuple[TelemetryNodeId, ...], Tuple[LinkState, ...]]


class TelemetryStore:
    """Inferred topology + per-directed-link telemetry."""

    def __init__(
        self,
        sim: Simulator,
        *,
        staleness: float = DEFAULT_STALENESS,
        qdepth_window: float = 0.1,
    ) -> None:
        self.sim = sim
        self.staleness = staleness
        # Several probes can cross the same egress port within one probing
        # interval; each collect-and-reset leaves near-zero readings for the
        # followers.  The store therefore keeps the *maximum* reading seen
        # within a window (default: one probing interval) instead of
        # latest-wins, so a real congestion reading is not masked by the
        # zero a trailing probe picked up microseconds later.
        self.qdepth_window = qdepth_window
        self.topology = InferredTopology()
        self._links: Dict[Tuple[TelemetryNodeId, TelemetryNodeId], LinkState] = {}
        # Last sim time each node appeared on any probe path — the signal
        # graceful degradation uses to tell "telemetry about this node is
        # fresh" from "this corner of the network has gone dark".
        self._node_seen: Dict[TelemetryNodeId, float] = {}
        self.reports_processed = 0
        # PathKey -> IngestPlan.  A plan never goes stale: a state is
        # never deleted, and a key fixes its path.
        self._ingest_plans: Dict[PathKey, IngestPlan] = {}
        # (src, candidates) -> PathTree, valid while topology.version
        # stays put.
        self._trees: Dict[Tuple[TelemetryNodeId, Tuple[TelemetryNodeId, ...]], PathTree] = {}
        self._trees_version = self.topology.version

    # -- ingestion (collector subscriber) ----------------------------------

    def update(self, report: ProbeReport) -> None:
        """One walk over the report's directed links.  Link ``i`` joins
        ``path[i] -> path[i + 1]``: its latency was measured at the ingress
        of ``path[i + 1]`` (hop ``i``; the receiving host for the last
        link) and its queue depth at the egress of ``path[i]`` (hop
        ``i - 1``; the source host stamps none).  The walk reads the hops'
        fields from one flat tuple (:meth:`ProbeReport.int_fields`) and
        follows the path's ingest plan (:meth:`_ingest_plan`)."""
        now = self.sim.now
        fields, per_second = report.int_fields()
        key = (report.probe_src, report.probe_dst, fields[::3])
        plan = self._ingest_plans.get(key)
        if plan is None:
            plan = self._ingest_plans[key] = self._ingest_plan(key)
        nodes, states = plan
        node_seen = self._node_seen
        for node in nodes:
            node_seen[node] = now
        latencies = [
            None if latency == NO_LATENCY else latency / per_second
            for latency in fields[2::3]
        ]
        latencies.append(report.final_link_latency)
        window = self.qdepth_window
        upstream = None  # queue depth at the link's upstream egress
        for state, latency, qdepth in zip(states, latencies, fields[1::3] + (None,)):
            if latency is not None:
                state.latency = latency
                ewma = state.latency_ewma
                if ewma is None:
                    state.latency_ewma = latency
                else:
                    state.latency_ewma = EWMA_ALPHA * latency + _EWMA_KEEP * ewma
                state.latency_updated_at = now
                state.samples += 1
            if upstream is not None:
                readings = state.qdepth_readings
                while readings and now - readings[0][0] > window:
                    readings.popleft()
                while readings and readings[-1][1] <= upstream:
                    readings.pop()
                readings.append((now, upstream))
                state.qdepth_updated_at = now
            upstream = qdepth
        self.reports_processed += 1

    def _ingest_plan(self, key: PathKey) -> IngestPlan:
        """Resolve a probe path (``key``: its endpoints and switch ids) on
        first sight: teach it to the topology, give each of its links a
        state, and return its distinct nodes and its link states in path
        order."""
        probe_src, probe_dst, switch_ids = key
        path = [
            host_node(probe_src),
            *[switch_node(switch_id) for switch_id in switch_ids],
            host_node(probe_dst),
        ]
        self.topology.observe_path(path)
        links = self._links
        states = []
        for link in zip(path, path[1:]):
            state = links.get(link)
            if state is None:
                state = links[link] = LinkState()
            states.append(state)
        return tuple(dict.fromkeys(path)), tuple(states)

    # -- queries -------------------------------------------------------------

    def link_state(self, u: TelemetryNodeId, v: TelemetryNodeId) -> Optional[LinkState]:
        return self._links.get((u, v))

    def hop_ages(
        self, src: TelemetryNodeId, dst: TelemetryNodeId
    ) -> List[Tuple[TelemetryNodeId, TelemetryNodeId, Optional[float]]]:
        """``(u, v, age)`` for each directed hop of the inferred path from
        ``src`` to ``dst``: the telemetry a ranking of that pair consults,
        and how old it is (:meth:`LinkState.age`; ``None`` for a hop never
        measured).  Empty when no path is known."""
        try:
            path = self.topology.path(src, dst)
        except SchedulingError:
            return []
        now = self.sim.now
        links = self._links
        hops = []
        for hop in zip(path, path[1:]):
            state = links.get(hop)
            hops.append((*hop, state.age(now) if state is not None else None))
        return hops

    def link_delay(
        self,
        u: TelemetryNodeId,
        v: TelemetryNodeId,
        default: float = 0.0,
        *,
        allow_stale: bool = False,
    ) -> float:
        """Smoothed latency of the directed link, or ``default`` when never
        (or too long ago) measured — :meth:`LinkState.delay`."""
        state = self._links.get((u, v))
        if state is None:
            return default
        return state.delay(self.sim.now, self.staleness, default, allow_stale)

    def max_qdepth(self, u: TelemetryNodeId, v: TelemetryNodeId) -> int:
        """Max queue depth at u's egress toward v; 0 when unknown or stale
        — :meth:`LinkState.qdepth`."""
        state = self._links.get((u, v))
        if state is None:
            return 0
        return state.qdepth(self.sim.now, self.staleness)

    def tree(
        self, src: TelemetryNodeId, candidates: Sequence[TelemetryNodeId]
    ) -> PathTree:
        """The inferred paths from ``src`` to each of ``candidates`` as one
        :class:`PathTree` — what the estimators walk.

        Cached per (source, candidate list) until the topology version
        moves.  A tree holds the states themselves, which is safe because a
        state is never deleted and :meth:`update` gives every edge it adds a
        state in the same call, so a cached tree sees every later reading.
        A link with no state (an edge learned some other way) gets a blank
        one, which reads as never measured, and that tree is not cached."""
        topology = self.topology
        trees = self._trees
        if topology.version != self._trees_version:
            trees.clear()
            self._trees_version = topology.version
        key = (src, tuple(candidates))
        tree = trees.get(key)
        if tree is None:
            links = self._links
            edges: List[Tuple[LinkState, bool, int]] = []
            slot_of: Dict[Tuple[int, TelemetryNodeId], int] = {}
            slots: List[int] = []
            complete = True
            for dst in key[1]:
                try:
                    path = topology.path(src, dst)
                except SchedulingError:
                    slots.append(-1)
                    continue
                slot = 0
                for hop in zip(path, path[1:]):
                    child = slot_of.get((slot, hop[1]))
                    if child is None:
                        state = links.get(hop)
                        if state is None:
                            state = LinkState()
                            complete = False
                        edges.append((state, hop[0][0] == "sw", slot))
                        child = slot_of[slot, hop[1]] = len(edges)
                    slot = child
                slots.append(slot)
            tree = PathTree(tuple(edges), tuple(slots))
            if complete:
                trees[key] = tree
        return tree

    def node_age(self, node: TelemetryNodeId) -> Optional[float]:
        """Seconds since ``node`` last appeared on any probe path, or
        ``None`` when it has never been observed.  Never-seen is distinct
        from stale on purpose: at cold start nothing has been measured and
        nothing should be quarantined."""
        seen = self._node_seen.get(node)
        if seen is None:
            return None
        return self.sim.now - seen

    def seen_nodes(self) -> List[TelemetryNodeId]:
        """Every node ever observed on a probe path, sorted — the staleness
        sampler's iteration domain (pair each with :meth:`node_age`)."""
        return sorted(self._node_seen)

    def known_link_count(self) -> int:
        return len(self._links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TelemetryStore links={len(self._links)} "
            f"reports={self.reports_processed}>"
        )
