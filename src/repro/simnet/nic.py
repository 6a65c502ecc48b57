"""Network ports: the egress queue + serializer at each end of a link.

A :class:`Port` implements the store-and-forward path of one interface:

1. :meth:`send` enqueues a packet on the drop-tail egress queue (recording
   the depth it observed, the INT ``enq_qdepth`` signal);
2. when the serializer is idle, the head packet starts transmission, which
   takes ``size * 8 / rate`` seconds;
3. at transmission **start** the owning node's egress hook runs — this is
   where a P4 egress stage executes (probe timestamping / INT collection,
   Section III-A of the paper);
4. after transmission + propagation delay, the packet is delivered to the
   peer port's node.

**Transmit coalescing.**  A queue of N back-to-back frames normally costs N
``_tx_complete`` events.  When semantics provably cannot differ — no service
jitter on the node, no observability hub or fault injector on the simulator,
no packet observer on the sending or the receiving node, no queue-threshold
callback, an unimpaired and undegraded link, and no probe frames (whose
egress stage is time-sensitive) — the port instead computes every frame's
start time up front, schedules all deliveries plus **one** batch-completion
event, and dequeues frames lazily at their logical start times so queue
depth stays exactly what the one-event-per-frame path would have observed.
Every gate failure falls back to the per-frame path; ``REPRO_SLOWPATH=1``
disables coalescing outright (the oracle path for the equivalence suite).
"""

from __future__ import annotations

import os
from collections import deque
from time import perf_counter as _perf
from typing import TYPE_CHECKING, Deque, Optional

from repro.simnet.link import Link
from repro.simnet.packet import FLAG_PROBE, Packet
from repro.simnet.queueing import DEFAULT_QUEUE_CAPACITY, DropTailQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.node import Node

__all__ = ["Port"]

# Pre-interned phase paths for the inline accounting in _tx_complete (the
# second-hottest handler): the root the engine loop sets plus its two
# sequential phases.  Identical taxonomy to the generic scope protocol.
_ROOT_TXC = "Port._tx_complete"
_PH_PROPAGATE = "Port._tx_complete;propagate"
_PH_DEQUEUE = "Port._tx_complete;dequeue"


class Port:
    """One interface of a node, permanently attached to one link."""

    def __init__(
        self,
        node: "Node",
        port_index: int,
        link: Link,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        queue: Optional["DropTailQueue"] = None,
    ) -> None:
        self.node = node
        self.port_index = port_index
        self.link = link
        # A custom queue discipline (e.g. RedEcnQueue) may be supplied;
        # default is the BMv2-like drop-tail FIFO.
        self.queue = queue if queue is not None else DropTailQueue(queue_capacity)
        # Exactly-plain drop-tail queues get their push/pop bodies inlined
        # on the hot path; subclasses (RedEcnQueue, test doubles) keep
        # virtual dispatch.
        self._plain_queue = type(self.queue) is DropTailQueue
        self._transmitting = False
        self.packets_sent = 0
        self.packets_dropped = 0
        # Hot-path caches: the simulator reference, the bound completion
        # callback (so scheduling does not rebuild a method object per
        # frame), and the peer port (resolved lazily — links are wired
        # after construction, then never change).
        self._sim = node.sim
        self._tx_complete_cb = self._tx_complete
        self._peer: Optional["Port"] = None
        self._peer_node: Optional["Node"] = None
        # This port's direction key on the link ("a"/"b"), resolved lazily —
        # ports are registered on the link after construction.
        self._dir_key: Optional[str] = None
        # Logical dequeue times of coalesced frames still sitting in the
        # queue (aligned with its head).  Empty when no batch is in flight.
        self._plan: Deque[float] = deque()
        self._coalesce = os.environ.get("REPRO_SLOWPATH", "") != "1"

    # -- identity -----------------------------------------------------------

    @property
    def rate_bps(self) -> float:
        """Serialization rate of this port's outbound direction."""
        return self.link.rate_from(self)

    @property
    def peer(self) -> "Port":
        peer = self._peer
        if peer is None:
            peer = self._peer = self.link.peer_of(self)
            self._peer_node = peer.node
        return peer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.node.name}[{self.port_index}] on {self.link.name}>"

    # -- egress path ----------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission.  Returns False on drop-tail."""
        if self._plan:
            self._drain_started()
        queue = self.queue
        if self._plain_queue:
            # Inlined DropTailQueue.push — keep in lockstep with
            # queueing.py (the queueing test suite pins the semantics).
            items = queue._items
            depth = len(items)
            if depth >= queue.capacity:
                queue.stats.dropped += 1
                self.packets_dropped += 1
                self.node.on_packet_dropped(packet, self)
                return False
            stats = queue.stats
            packet.enq_depth = depth
            items.append(packet)
            stats.enqueued += 1
            stats.bytes_enqueued += packet.size_bytes
            if depth > stats.max_depth_seen:
                stats.max_depth_seen = depth
            threshold = queue.threshold
            if (
                threshold is not None
                and depth + 1 == threshold
                and queue.on_threshold
            ):
                queue.on_threshold(threshold, "up")
        else:
            depth = queue.push(packet)
            if depth is None:
                self.packets_dropped += 1
                self.node.on_packet_dropped(packet, self)
                return False
        if not self._transmitting:
            self._start_next()
        return True

    def _start_next(self) -> None:
        queue = self.queue
        items = queue._items
        if self._coalesce and len(items) >= 2 and self._try_coalesce():
            return
        if self._plain_queue:
            # Inlined DropTailQueue.pop — keep in lockstep with queueing.py.
            if not items:
                self._transmitting = False
                return
            queue.stats.dequeued += 1
            packet = items.popleft()
            threshold = queue.threshold
            if (
                threshold is not None
                and len(items) == threshold - 1
                and queue.on_threshold
            ):
                queue.on_threshold(len(items), "down")
        else:
            packet = queue.pop()
            if packet is None:
                self._transmitting = False
                return
        enq_depth = packet.enq_depth
        self._transmitting = True
        # P4 egress stage: runs as the packet leaves the queue and begins
        # serialization.  May mutate the packet (probe payload growth).
        # Phase scope for probes only: the probe path does the expensive
        # work (INT record collection + payload growth), while the data-
        # packet egress is a single register update not worth two clock
        # reads per packet — it stays in the enclosing phase's self-time.
        node = self.node
        prof = self._sim.profiler
        if prof is None or not packet.flags & FLAG_PROBE:
            node.on_egress(packet, self, enq_depth)
        else:
            prof.phase_begin("egress_stage")
            node.on_egress(packet, self, enq_depth)
            prof.phase_end()
        # rate_factor is 1.0 unless a fault degraded the link; x * 1.0 is
        # exact, so the fault-free path is byte-identical.
        link = self.link
        tx_time = (packet.size_bytes * 8.0) / (
            link.rate_from(self) * link.rate_factor
        )
        # Software switches (BMv2) forward with noticeable per-packet service
        # variance; the node's jitter factor reproduces it.  Mean unchanged.
        # Jitter-free nodes skip the call outright: eliding `x *= 1.0` is
        # exact, so the result is bit-identical.
        if node.service_jitter != 0.0:
            tx_time *= node.service_time_factor()
        # Fire-and-forget: completion events are never cancelled, so the
        # handle-free post() path applies.
        self._sim.post(tx_time, self._tx_complete_cb, packet)

    def _tx_complete(self, packet: Packet) -> None:
        # Phase scopes (profiled runs only): propagate covers the wire
        # loss-check + delivery scheduling, dequeue covers pulling the next
        # packet (with the probe-only egress_stage sub-phase inside).
        prof = self._sim.profiler
        if prof is None:
            self.packets_sent += 1
            self._propagate(packet)
            self._start_next()
            return
        if prof._stack or prof._path != _ROOT_TXC:
            # Nested or out-of-band invocation: generic scope protocol.
            prof.phase_first("propagate")
            self.packets_sent += 1
            self._propagate(packet)
            prof.phase_next("dequeue")
            self._start_next()
            prof.phase_end()
            return
        # Inline accounting for the hot top-level case — same taxonomy and
        # clock-read count as the generic protocol, none of its scope-stack
        # cost (see Switch.on_ingress for the pattern).
        phases = prof.phases
        self.packets_sent += 1
        self._propagate(packet)
        # Entry lookups happen *inside* the spans they record (before the
        # closing clock read), so the only work outside phase coverage is
        # the in-place adds after the final read.
        entry = phases.get(_PH_PROPAGATE)
        t1 = _perf()
        if entry is None:
            phases[_PH_PROPAGATE] = [1, t1 - prof._t0]
        else:
            entry[0] += 1
            entry[1] += t1 - prof._t0
        # Root any nested scope (a probe's egress_stage opened from inside
        # _start_next) under the dequeue path.
        prof._path = _PH_DEQUEUE
        self._start_next()
        prof.phase_firsts += 1
        prof.phase_nexts += 1
        entry = phases.get(_PH_DEQUEUE)
        t2 = _perf()
        if entry is None:
            phases[_PH_DEQUEUE] = [1, t2 - t1]
        else:
            entry[0] += 1
            entry[1] += t2 - t1

    def _propagate(self, packet: Packet) -> None:
        link = self.link
        if link.impaired and link.should_drop(packet):
            # Lost on the wire (link down or probabilistic fault loss): the
            # frame consumed serializer time but is never delivered.
            link.packets_lost += 1
            obs = self._sim.obs
            if obs:
                obs.packet_dropped(
                    queue=f"wire:{link.name}",
                    flow_id=packet.flow_id,
                    seq=packet.seq,
                    size_bytes=packet.size_bytes,
                    is_probe=packet.is_probe,
                )
        else:
            # Inlined Link.record_carried — keep in lockstep with link.py.
            key = self._dir_key
            if key is None:
                key = self._dir_key = "a" if self is link.port_a else "b"
            nbytes = packet.size_bytes
            link.bytes_carried[key] += nbytes
            counters = link.obs_counters
            if counters is not None:
                if nbytes < 0:
                    raise ValueError(f"link {link.name}: negative frame size")
                counter = counters[key]
                counter.value += nbytes
                counter.updated_at = self._sim.now
            peer_node = self._peer_node
            if peer_node is None:
                peer = self._peer = link.peer_of(self)
                peer_node = self._peer_node = peer.node
            # extra_delay is 0.0 unless a fault degraded the link (x + 0.0
            # is exact).
            self._sim.post(
                link.propagation_delay + link.extra_delay,
                peer_node.on_ingress, packet, self._peer,
            )

    # -- transmit coalescing ----------------------------------------------

    def _try_coalesce(self) -> bool:
        """Schedule every queued data frame's delivery now, plus one batch
        completion event, instead of one ``_tx_complete`` round-trip per
        frame.  Returns False (caller falls back to the per-frame path)
        whenever any semantic gate fails; frames stay in the queue until
        their logical start times (see :meth:`_drain_started`) so depth
        observations — INT's ``enq_qdepth`` included — are unchanged."""
        node = self.node
        sim = self._sim
        link = self.link
        if node.service_jitter != 0.0:
            # Service jitter is configured once at build time and makes
            # per-frame RNG draw order semantics; remember the verdict so a
            # congested switch port stops re-running the gates every frame.
            self._coalesce = False
            return False
        if (
            sim.obs is not None
            or sim.faults is not None
            or self.queue.on_threshold is not None
            or link.impaired
            or link.rate_factor != 1.0
            or link.extra_delay != 0.0
            # A packet observer stamps each egress event with the frame's
            # own start instant, which a batch runs ahead of.
            or node.observer is not None
        ):
            return False
        peer = self._peer
        if peer is None:
            peer = self._peer = link.peer_of(self)
        peer_node = peer.node
        if peer_node.observer is not None:
            # Deliveries scheduled a batch ahead tie-break differently
            # against same-instant events, which would reorder the
            # receiver's records.
            return False
        items = self.queue._items
        # Batch the probe-free prefix: a probe's egress stage reads clocks
        # and registers at its dequeue instant, so it ends the batch.
        prefix = 0
        for pkt in items:
            if pkt.flags & FLAG_PROBE:
                break
            prefix += 1
        if prefix < 2:
            return False
        self._transmitting = True
        rate = link.rate_from(self)
        prop = link.propagation_delay
        on_egress = node.on_egress
        on_ingress = peer_node.on_ingress
        record = link.record_carried
        post_at = sim.post_at
        plan = self._plan
        start = sim.now
        i = 0
        for pkt in items:
            if i >= prefix:
                break
            i += 1
            plan.append(start)
            # The egress stage runs now rather than at the frame's start
            # instant; the gates guarantee it is time-insensitive for data
            # frames (INT's per-port max-depth fold uses only enq_depth,
            # host egress only stamps probes).
            on_egress(pkt, self, pkt.enq_depth)
            # Same expression shape as the per-frame path — (bytes * 8.0) /
            # rate, accumulated one frame at a time — so every start time is
            # bit-for-bit the value the per-frame path would have computed.
            start += (pkt.size_bytes * 8.0) / rate
            record(self, pkt.size_bytes)
            post_at(start + prop, on_ingress, pkt, peer)
        self.packets_sent += prefix
        post_at(start, self._batch_complete, prefix)
        return True

    def _batch_complete(self, count: int) -> None:
        # The batch replaced ``count`` per-frame completion events with this
        # one; credit the elided count back so ``events_executed`` — an
        # exported workload statistic — is independent of whether the engine
        # coalesced (fast path) or ran frame-by-frame (oracle path).
        self._sim.events_executed += count - 1
        self._drain_started()
        self._transmitting = False
        if self.queue._items:
            self._start_next()

    def _drain_started(self) -> None:
        """Pop coalesced frames whose logical transmission start has been
        reached — called before any depth observation so a mid-batch push
        sees exactly the depth the per-frame path would have recorded."""
        plan = self._plan
        now = self._sim.now
        queue = self.queue
        while plan and plan[0] <= now:
            if queue.pop() is None:  # pragma: no cover - queue cleared mid-batch
                plan.clear()
                break
            plan.popleft()

    # -- introspection ----------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._transmitting

    @property
    def backlog(self) -> int:
        """Packets waiting behind the one in service."""
        if self._plan:
            self._drain_started()
        return self.queue.depth
