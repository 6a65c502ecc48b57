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

**Completion elision.**  On an uncongested port the transmit-complete event
finds nothing queued and does nothing a later reader cannot reconstruct.  So
when a frame starts serializing the port computes its completion instant
``t1 = now + tx_time``, posts the peer's ``on_ingress`` for
``t1 + propagation_delay`` right away, remembers ``_busy_until = t1``, and
posts a ``_tx_complete`` event only if another frame is already waiting — or
later, when a :meth:`send` finds the serializer still busy.  Nothing runs
ahead of simulated time: the egress stage, the service-jitter draw and every
clock read happen at each frame's true start instant.  The completion's
bookkeeping (``packets_sent``, the link byte counters, one credit to
``events_executed``) is owed until the next frame start, the materialised
completion, a reader (:meth:`settle`, ``Link.carried``) or ``run()``
returning, whichever comes first, and then reads exactly what a per-frame
completion would have written.  The per-frame event stays where completion
has semantics of its own, which the link's ``per_frame`` flag says (see
:class:`~repro.simnet.link.Link`): wire-loss draws and link state are then
read at ``t1``.

**The hop.**  A frame's life is a short chain of frames: the engine pops the
delivery, the receiving node's entry point runs (a switch's compiled hop:
ingress stage, routing, counters), :meth:`send` queues or cuts through,
:meth:`_start` runs the node's egress stage from the port's ``_egress``
slot, and pushes the next delivery straight onto the simulator's heap.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Optional

from repro.simnet.link import Link
from repro.simnet.packet import FLAG_PROBE, Packet
from repro.simnet.queueing import DEFAULT_QUEUE_CAPACITY, DropTailQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.node import Node

__all__ = ["Port"]


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
        self.packets_sent = 0
        self.packets_dropped = 0
        # Hot-path caches: the simulator, its heap (compaction rewrites that
        # list in place, so the alias holds) and the bound completion
        # callback (so scheduling does not rebuild a method object per
        # frame).  Link.attach wires the rest once both ends exist: this
        # port's direction key on the link ("a"/"b"), that direction's
        # serialization rate, the peer port and the entry point frames are
        # delivered to.  `_egress` is this node's egress stage.  Both slots
        # hold what Node.entry_points returns; a switch rebinds them when its
        # program compiles (handlers are never replaced on an instance, see
        # tests/simnet/test_source_rules.py).
        self._sim = node.sim
        self._heap = node.sim._heap
        self._tx_complete_cb = self._tx_complete
        self._dir_key = ""
        self._rate = 0.0
        self._peer: Optional["Port"] = None
        self._deliver: Optional[Callable[[Packet, "Port"], None]] = None
        self._egress: Callable[[Packet, "Port", int], None] = node.entry_points()[1]
        # Serializer state.  `_busy_until` is the completion instant of the
        # frame in service (or of the last one); `_completion_posted` says a
        # _tx_complete event for it is on the heap; `_owed` is the size of a
        # frame whose completion was elided and is not on the books yet (0:
        # nothing owed; a frame is never empty).
        self._busy_until = 0.0
        self._completion_posted = False
        self._owed = 0
        node.sim.settle_on_return(self.settle)

    # -- identity -----------------------------------------------------------

    @property
    def rate_bps(self) -> float:
        """Serialization rate of this port's outbound direction."""
        return self.link.rate_from(self)

    @property
    def peer(self) -> "Port":
        return self.link.peer_of(self)

    def wire(self, dir_key: str, rate_bps: float, peer: "Port") -> None:
        """Called by :meth:`Link.attach`; a port never changes links."""
        self._dir_key = dir_key
        self._rate = rate_bps
        self._peer = peer
        self._deliver = peer.node.entry_points()[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.node.name}[{self.port_index}] on {self.link.name}>"

    # -- egress path ----------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission.  Returns False on drop-tail."""
        queue = self.queue
        items = queue._items
        idle = not self._completion_posted and self._sim._now >= self._busy_until
        if self._plain_queue:
            threshold = queue.threshold
            if idle and not items and threshold != 1:
                # Cut-through: on an idle port the push + pop round trip
                # leaves nothing behind but these counters (depth 0 never
                # raises max_depth_seen, capacity is >= 1).  Through an
                # empty queue the only crossings are 0 -> 1 and back, and
                # only a threshold of 1 sits there.
                stats = queue.stats
                stats.enqueued += 1
                stats.bytes_enqueued += packet.size_bytes
                stats.dequeued += 1
                packet.enq_depth = 0
                self._start(packet)
                return True
            # Inlined DropTailQueue.push — keep in lockstep with
            # queueing.py (the queueing test suite pins the semantics).
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
        if idle:
            self._start_next()
        elif not self._completion_posted:
            # The frame in service had its completion elided; now a frame
            # waits behind it, so the completion has work to do after all.
            # Pushed as post_at would, without the call (never in the past).
            self._completion_posted = True
            sim = self._sim
            sim._seq += 1
            heappush(
                self._heap,
                (self._busy_until, sim._seq, None, self._tx_complete_cb, (None,)),
            )
        return True

    def _start_next(self) -> None:
        """Move the head-of-line frame, if any, into the serializer."""
        queue = self.queue
        if self._plain_queue:
            # Inlined DropTailQueue.pop — keep in lockstep with queueing.py.
            items = queue._items
            if not items:
                self._completion_posted = False
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
                self._completion_posted = False
                return
        self._start(packet)

    def _start(self, packet: Packet) -> None:
        """Begin serializing ``packet`` at this instant."""
        sim = self._sim
        if self._owed:
            # The serializer is free, so the owed completion lies behind us.
            self._book()
            sim.events_executed += 1
        # P4 egress stage: runs as the packet leaves the queue and begins
        # serialization.  May mutate the packet (probe payload growth).
        # Phase scope for probes only: the probe path does the expensive
        # work (INT record collection + payload growth), while the data-
        # packet egress is a single register update not worth two clock
        # reads per packet — it stays in the enclosing phase's self-time.
        prof = sim.profiler
        if prof is None or not packet.flags & FLAG_PROBE:
            self._egress(packet, self, packet.enq_depth)
        else:
            prof.phase_begin("egress_stage")
            self._egress(packet, self, packet.enq_depth)
            prof.phase_end()
        # rate_factor is 1.0 unless a fault degraded the link; x * 1.0 is
        # exact, so the fault-free path is byte-identical.
        link = self.link
        nbytes = packet.size_bytes
        tx_time = (nbytes * 8.0) / (self._rate * link.rate_factor)
        # Software switches (BMv2) forward with noticeable per-packet service
        # variance; the node's jitter factor reproduces it.  Mean unchanged.
        # Jitter-free nodes skip the factor outright: eliding `x *= 1.0` is
        # exact, so the result is bit-identical.
        node = self.node
        if node.service_jitter != 0.0:
            # Node.service_time_factor's buffer read, refill left to it.
            i = node._service_idx
            buf = node._service_buf
            if i < len(buf):
                node._service_idx = i + 1
                tx_time *= buf[i]
            else:
                tx_time *= node.service_time_factor()
        # The sums below are the ones post() evaluates for a completion at
        # now + tx_time and a delivery at that + propagation, so every
        # arrival time is bit-identical on both paths.  Entries are pushed
        # as post_at pushes them, without the call: nothing here lies in the
        # past.
        t1 = self._busy_until = sim._now + tx_time
        if link.per_frame:
            # Completion has semantics of its own: the frame is delivered,
            # or lost on the wire, by its own event at t1.
            self._completion_posted = True
            sim._seq += 1
            heappush(self._heap, (t1, sim._seq, None, self._tx_complete_cb, (packet,)))
            return
        heap = self._heap
        sim._seq += 1
        heappush(
            heap,
            (t1 + link.propagation_delay, sim._seq, None, self._deliver, (packet, self._peer)),
        )
        self._owed = nbytes
        if self.queue._items:
            self._completion_posted = True
            sim._seq += 1
            heappush(heap, (t1, sim._seq, None, self._tx_complete_cb, (None,)))
        else:
            self._completion_posted = False

    def _tx_complete(self, packet: Optional[Packet]) -> None:
        # Phase scopes (profiled runs only): propagate covers the frame
        # leaving the serializer (books, wire loss-check + delivery
        # scheduling), dequeue covers pulling the next packet (with the
        # probe-only egress_stage sub-phase inside).
        # A None packet stands for a frame that was handed to the wire when
        # it started: only its books remain, and this event is its own
        # ``events_executed`` count.
        prof = self._sim.profiler
        if prof is None:
            if packet is None:
                self._book()
            else:
                self._finish(packet)
            self._start_next()
            return
        prof.phase_first("propagate")
        if packet is None:
            self._book()
        else:
            self._finish(packet)
        prof.phase_next("dequeue")
        self._start_next()
        prof.phase_end()

    def _finish(self, packet: Packet) -> None:
        """The frame in service leaves the serializer (per-frame path)."""
        self.packets_sent += 1
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
            return
        sim = self._sim
        link.record_carried(self._dir_key, packet.size_bytes, sim._now)
        # extra_delay is 0.0 unless a fault degraded the link (x + 0.0 is
        # exact).
        sim.post(
            link.propagation_delay + link.extra_delay, self._deliver, packet, self._peer
        )

    # -- lazy completion bookkeeping ----------------------------------------

    def _book(self) -> None:
        """Write the owed completion exactly as its event would have, at
        its own instant ``_busy_until``.  The one copy of
        ``Link.record_carried``'s body (the per-frame path calls the method):
        keep the two in lockstep."""
        nbytes, self._owed = self._owed, 0
        self.packets_sent += 1
        link = self.link
        key = self._dir_key
        link.bytes_carried[key] += nbytes
        counters = link.obs_counters
        if counters is not None:
            if nbytes < 0:
                raise ValueError(f"link {link.name}: negative frame size")
            counter = counters[key]
            counter.value += nbytes
            counter.updated_at = self._busy_until

    def settle(self) -> None:
        """Bring the completion counters up to ``sim.now``: an elided
        completion at or before now is booked and credited to
        ``events_executed``, a later one is left owed — and so is one whose
        event was materialised after all, which books it when it fires."""
        if (
            self._owed
            and not self._completion_posted
            and self._busy_until <= self._sim._now
        ):
            self._book()
            self._sim.events_executed += 1

    # -- introspection ----------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._completion_posted or self._sim._now < self._busy_until

    @property
    def backlog(self) -> int:
        """Packets waiting behind the one in service."""
        return self.queue.depth
