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
from typing import Deque, Dict, List, Optional, Tuple

from repro.simnet.engine import Simulator
from repro.telemetry.records import ProbeReport, TelemetryNodeId
from repro.core.topology_inference import InferredTopology

__all__ = ["TelemetryStore", "LinkState", "DEFAULT_STALENESS"]

DEFAULT_STALENESS = 2.0          # seconds; ~20 probing intervals at the default rate
EWMA_ALPHA = 0.3                 # weight of the newest latency sample


@dataclass
class LinkState:
    """Latest telemetry for one directed link."""

    latency: Optional[float] = None          # newest sample (s)
    latency_ewma: Optional[float] = None     # smoothed latency (s)
    latency_updated_at: float = -1.0
    qdepth_updated_at: float = -1.0          # last time any reading arrived
    samples: int = 0
    # Monotonic deque of (time, reading): the front is always the maximum
    # reading within the sliding window (older and dominated entries are
    # evicted on update).
    qdepth_readings: Deque[Tuple[float, int]] = field(default_factory=deque)

    @property
    def max_qdepth(self) -> int:
        """Current window maximum (without staleness/window eviction —
        callers should use :meth:`TelemetryStore.max_qdepth`)."""
        return self.qdepth_readings[0][1] if self.qdepth_readings else 0


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

    # -- ingestion (collector subscriber) ----------------------------------

    def update(self, report: ProbeReport) -> None:
        """One walk over the report's directed links.  Link ``i`` joins
        ``path[i] -> path[i + 1]``: its latency was measured at the ingress
        of ``path[i + 1]`` (record ``i``; the receiving host for the last
        link) and its queue depth at the egress of ``path[i]`` (record
        ``i - 1``; the source host stamps none)."""
        now = self.sim.now
        path = report.path_nodes()
        self.topology.observe_path(path)
        node_seen = self._node_seen
        for node in path:
            node_seen[node] = now
        links = self._links
        window = self.qdepth_window
        records = report.records
        hops = len(records)
        for i in range(hops + 1):
            key = (path[i], path[i + 1])
            state = links.get(key)
            if state is None:
                state = links[key] = LinkState()
            latency = records[i].link_latency if i < hops else report.final_link_latency
            if latency is not None:
                state.latency = latency
                if state.latency_ewma is None:
                    state.latency_ewma = latency
                else:
                    state.latency_ewma = (
                        EWMA_ALPHA * latency + (1.0 - EWMA_ALPHA) * state.latency_ewma
                    )
                state.latency_updated_at = now
                state.samples += 1
            if i:
                qdepth = records[i - 1].max_qdepth
                readings = state.qdepth_readings
                while readings and now - readings[0][0] > window:
                    readings.popleft()
                while readings and readings[-1][1] <= qdepth:
                    readings.pop()
                readings.append((now, qdepth))
                state.qdepth_updated_at = now
        self.reports_processed += 1

    # -- queries -------------------------------------------------------------

    def link_state(self, u: TelemetryNodeId, v: TelemetryNodeId) -> Optional[LinkState]:
        return self._links.get((u, v))

    def link_delay(
        self,
        u: TelemetryNodeId,
        v: TelemetryNodeId,
        default: float = 0.0,
        *,
        allow_stale: bool = False,
    ) -> float:
        """Smoothed latency of the directed link, or ``default`` when never
        (or too long ago) measured.  ``allow_stale`` keeps returning the
        last-known EWMA past the staleness horizon — degraded-mode ranking
        prefers an old measurement over no measurement."""
        state = self._links.get((u, v))
        if state is None or state.latency_ewma is None:
            return default
        if not allow_stale and self.sim.now - state.latency_updated_at > self.staleness:
            return default
        return state.latency_ewma

    def max_qdepth(self, u: TelemetryNodeId, v: TelemetryNodeId) -> int:
        """Max queue depth at u's egress toward v over the window ending at
        the most recent report; 0 when unknown or stale (no reading = no
        evidence of congestion, matching the register's reset-to-zero
        semantics).  The window is anchored to the *newest report*, not the
        read time: with slow probing the last interval's reading stays
        authoritative until staleness, exactly like the pre-window store."""
        state = self._links.get((u, v))
        if state is None:
            return 0
        if self.sim.now - state.qdepth_updated_at > self.staleness:
            return 0
        readings = state.qdepth_readings
        return readings[0][1] if readings else 0

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
