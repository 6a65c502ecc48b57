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
clock read happen at each frame's true start instant.  The books
(``packets_sent``, the link byte counters, the elided completions
``events_executed`` credits) are written when a frame starts, and every
reader discounts the one frame still on the wire (``now < _busy_until``), so
they read exactly what a per-frame completion would have written.  The
per-frame event stays where completion has semantics of its own, which the
link's ``per_frame`` flag says (see :class:`~repro.simnet.link.Link`):
wire-loss draws and link state are then read at ``t1``, and a frame lost on
the wire takes its bytes back.  The arrival case goes one step further: a
UDP datagram leaving for a host whose destination port a
:class:`~repro.simnet.flows.UdpSink` holds (the host unobserved) is not
delivered by an event at all.  The port books it with the sink under the
sequence number its delivery would have taken, and the sink's counters, the
host's ``packets_delivered`` and ``events_executed`` read the arrivals at or
before now.  On a ``per_frame`` link every frame
still has a delivery event of its own.

**The hop.**  A frame's life is a short chain of frames: the engine pops the
delivery, the receiving node's entry point runs (a switch's compiled hop:
ingress stage, routing), :meth:`send` queues or cuts through, and
:meth:`_start` runs the node's egress stage and pushes the next delivery
straight onto the simulator's heap.  The egress stage is a call through the
port's ``_egress`` slot for a probe; for a data frame it is what the node
put in the port's ``_fold`` slot — the INT register fold inline, nothing, or
the call (see :meth:`~repro.simnet.node.Node.entry_points`).

**Counters are reads.**  The books are the only per-frame bookkeeping.  The
queue's ``enqueued`` / ``dequeued`` / ``bytes_enqueued``
(:class:`PortQueueStats`), a switch's receive and forward counts, the INT
program's data count and register writes, and a host's receive count are
computed from them when read.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Optional

from repro.simnet.addressing import PROTO_UDP
from repro.simnet.link import Link
from repro.simnet.packet import FLAG_PROBE, Packet
from repro.simnet.queueing import DEFAULT_QUEUE_CAPACITY, DropTailQueue, QueueStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.node import Node

__all__ = ["Port", "PortQueueStats"]


class Port:
    """One interface of a node, permanently attached to one link."""

    def __init__(
        self,
        node: "Node",
        port_index: int,
        link: Link,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
    ) -> None:
        self.node = node
        self.port_index = port_index
        self.link = link
        # The BMv2-like drop-tail FIFO.  Its push/pop bodies are inlined on
        # the hot path below; DropTailQueue.push / pop are the reference
        # they are held to (tests/properties/test_property_queue_inline.py).
        self.queue = DropTailQueue(queue_capacity)
        self.queue.stats = PortQueueStats(self)
        self.packets_dropped = 0
        # Hot-path caches: the simulator, its heap (compaction rewrites that
        # list in place, so the alias holds) and the bound completion
        # callback (so scheduling does not rebuild a method object per
        # frame).  Link.attach wires the rest once both ends exist: this
        # direction's serialization rate, the peer port and the entry point
        # frames are delivered to.  `_egress` is this node's egress stage.
        # The slots hold what Node.entry_points returns; Node._bind_ports
        # rebinds them when a switch's program compiles or an observer
        # changes (handlers are never replaced on an instance, see
        # tests/simnet/test_source_rules.py).
        self._sim = node.sim
        self._heap = node.sim._heap
        self._tx_complete_cb = self._tx_complete
        self._rate = 0.0
        self._peer: Optional["Port"] = None
        self._deliver: Optional[Callable[[Packet, "Port"], None]] = None
        # `_rate` is this direction's rate times the link's rate_factor
        # (Link.set_degradation refreshes it); `_jitter` is the node's
        # service-factor stream, or None for a jitter-free node
        # (Node.set_service_jitter refreshes it).
        self._jitter = node._service_factors if node.service_jitter != 0.0 else None
        # The arrival books' slots (Link.attach, Node._bind_ports): the peer
        # host's counting sinks by UDP port, or None, and its address.
        self._sinks: Optional[dict] = None
        self._sink_addr: Optional[int] = None
        # `_fold` is what a data frame's start does in place of the `_egress`
        # call: None makes the call for every frame; a register's value list
        # takes the frame's enq_depth as a max into cell `port_index`; an
        # empty tuple does nothing (see Node.entry_points).
        _ingress, self._egress, self._fold = node.entry_points()
        # Serializer state.  `_busy_until` is the completion instant of the
        # frame in service (or of the last one); `_completion_posted` says a
        # _tx_complete event for it is on the heap.
        self._busy_until = 0.0
        self._completion_posted = False
        # The books, written at frame start: frames started, their bytes
        # (less those lost on the wire), the size of the frame in service,
        # the completion instant of the last frame carried before it, and
        # the completion events posted.  Two rare-path corrections: bytes a
        # wire loss took back, and bytes an egress stage added to frames
        # (a probe whose INT stack outgrew its padding).
        self._sent = 0
        self._bytes = 0
        self._frame_bytes = 0
        self._carried_at = 0.0
        self._posted = 0
        self._lost = 0
        self._grown = 0
        node.sim._ports.append(self)

    # -- identity -----------------------------------------------------------

    @property
    def rate_bps(self) -> float:
        """Serialization rate of this port's outbound direction."""
        return self.link.rate_from(self)

    @property
    def peer(self) -> "Port":
        return self.link.peer_of(self)

    def wire(self, rate_bps: float, peer: "Port") -> None:
        """Called by :meth:`Link.attach`; a port never changes links."""
        self._rate = rate_bps * self.link.rate_factor
        self._peer = peer
        self._deliver = peer.node.entry_points()[0]
        self._sinks = peer.node.arrival_sinks()
        self._sink_addr = peer.node.addr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.node.name}[{self.port_index}] on {self.link.name}>"

    # -- egress path ----------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission.  Returns False on drop-tail."""
        queue = self.queue
        items = queue._items
        idle = not self._completion_posted and self._sim._now >= self._busy_until
        threshold = queue.threshold
        if idle and not items and threshold != 1:
            # Cut-through: on an idle port the push + pop round trip leaves
            # nothing behind (depth 0 never raises max_depth_seen, capacity
            # is >= 1, and the books count the frame as it starts).  Through
            # an empty queue the only crossings are 0 -> 1 and back, and
            # only a threshold of 1 sits there.
            packet.enq_depth = 0
            self._start(packet)
            return True
        # Inlined DropTailQueue.push; its counters are the books' reads.
        depth = len(items)
        stats = queue.stats
        if depth >= queue.capacity:
            stats.dropped += 1
            self.packets_dropped += 1
            self.node.on_packet_dropped(packet, self)
            return False
        packet.enq_depth = depth
        items.append(packet)
        if depth > stats.max_depth_seen:
            stats.max_depth_seen = depth
        if threshold is not None and depth + 1 == threshold and queue.on_threshold:
            queue.on_threshold(threshold, "up")
        if idle:
            self._start_next()
        elif not self._completion_posted:
            # The frame in service had its completion elided; now a frame
            # waits behind it, so the completion has work to do after all.
            # Pushed as post() would, without the call (never in the past).
            self._completion_posted = True
            self._posted += 1
            sim = self._sim
            sim._seq += 1
            heappush(
                self._heap,
                (self._busy_until, sim._seq, None, self._tx_complete_cb, (None,)),
            )
        return True

    def _start_next(self) -> None:
        """Move the head-of-line frame, if any, into the serializer."""
        # Inlined DropTailQueue.pop.
        queue = self.queue
        items = queue._items
        if not items:
            self._completion_posted = False
            return
        packet = items.popleft()
        threshold = queue.threshold
        if threshold is not None and len(items) == threshold - 1 and queue.on_threshold:
            queue.on_threshold(len(items), "down")
        self._start(packet)

    def _start(self, packet: Packet) -> None:
        """Begin serializing ``packet`` at this instant."""
        sim = self._sim
        nbytes = packet.size_bytes
        fold = self._fold
        if fold is None or packet.flags & FLAG_PROBE:
            # The node's egress stage (a P4 egress stage on a switch) runs
            # as the packet leaves the queue and begins serialization.  It
            # may grow the packet (a probe's INT stack outgrowing its
            # padding); the queue's books count a frame at its enqueue size.
            # Phase scope for probes only, which do the expensive work (INT
            # record collection + payload growth).
            prof = sim.profiler
            if prof is None or not packet.flags & FLAG_PROBE:
                self._egress(packet, self, packet.enq_depth)
            else:
                prof.phase_begin("egress_stage")
                self._egress(packet, self, packet.enq_depth)
                prof.phase_end()
            if packet.size_bytes != nbytes:
                self._grown += packet.size_bytes - nbytes
                nbytes = packet.size_bytes
        elif fold:
            # A data frame's whole egress stage on a compiled INT switch:
            # the max-depth register fold, with no call.
            depth = packet.enq_depth
            if depth > fold[self.port_index]:
                fold[self.port_index] = depth
        # The rate slot holds rate * rate_factor, the product the division
        # always took (rate_factor is 1.0 unless a fault degraded the link).
        tx_time = (nbytes * 8.0) / self._rate
        # Software switches (BMv2) forward with noticeable per-packet service
        # variance; the node's jitter factor reproduces it.  Mean unchanged.
        # Jitter-free nodes skip the factor outright: eliding `x *= 1.0` is
        # exact, so the result is bit-identical.
        jitter = self._jitter
        if jitter is not None:
            tx_time *= next(jitter)
        # The books, written now: readers discount this frame until t1.
        self._sent += 1
        self._bytes += nbytes
        self._frame_bytes = nbytes
        self._carried_at = self._busy_until
        # The sums below are the ones post() evaluates for a completion at
        # now + tx_time and a delivery at that + propagation, so every
        # arrival time is bit-identical on both paths.  Entries are pushed
        # as post() pushes them, without the call: nothing here lies in the
        # past.
        t1 = self._busy_until = sim._now + tx_time
        link = self.link
        sim._seq += 1
        if link.per_frame:
            # Completion has semantics of its own: the frame is delivered,
            # or lost on the wire, by its own event at t1.
            self._completion_posted = True
            self._posted += 1
            heappush(self._heap, (t1, sim._seq, None, self._tx_complete_cb, (packet,)))
            return
        if (
            self._sinks is not None
            and packet.dst_port in self._sinks
            and packet.dst_addr == self._sink_addr
            and packet.protocol == PROTO_UDP
        ):
            # A datagram for a counting sink: booked, not delivered.  It
            # keeps the sequence number its delivery would have taken.
            sink = self._sinks[packet.dst_port]
            book = sink._book
            book.append((t1 + link.propagation_delay, sim._seq, packet))
            if len(book) > sink._settle_at:
                sink._settle()
        else:
            heappush(
                self._heap,
                (t1 + link.propagation_delay, sim._seq, None, self._deliver, (packet, self._peer)),
            )
        if self.queue._items:
            self._completion_posted = True
            self._posted += 1
            sim._seq += 1
            heappush(self._heap, (t1, sim._seq, None, self._tx_complete_cb, (None,)))
        else:
            self._completion_posted = False

    def _tx_complete(self, packet: Optional[Packet]) -> None:
        # A None packet stands for a frame that was handed to the wire when
        # it started: only the next frame's start remains.
        prof = self._sim.profiler
        if prof is None:
            if packet is not None:
                self._finish(packet)
            # Inlined _start_next.
            queue = self.queue
            items = queue._items
            if items:
                packet = items.popleft()
                threshold = queue.threshold
                if threshold is not None and len(items) == threshold - 1 and queue.on_threshold:
                    queue.on_threshold(len(items), "down")
                self._start(packet)
            else:
                self._completion_posted = False
            return
        # Phase scopes (profiled runs only): propagate covers the frame
        # leaving the serializer (wire loss-check + delivery scheduling),
        # dequeue covers pulling the next packet (with the probe-only
        # egress_stage sub-phase inside).
        prof.phase_first("propagate")
        if packet is not None:
            self._finish(packet)
        prof.phase_next("dequeue")
        self._start_next()
        prof.phase_end()

    def _finish(self, packet: Packet) -> None:
        """The frame in service leaves the serializer (per-frame path)."""
        link = self.link
        if link.impaired and link.should_drop(packet):
            # Lost on the wire (link down or probabilistic fault loss): the
            # frame consumed serializer time but is never delivered.  Its
            # bytes come off the books, and it stamps no carried instant.
            link.packets_lost += 1
            self._bytes -= packet.size_bytes
            self._lost += packet.size_bytes
            self._busy_until = self._carried_at
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
        # extra_delay is 0.0 unless a fault degraded the link (x + 0.0 is
        # exact).
        self._sim.post(
            link.propagation_delay + link.extra_delay, self._deliver, packet, self._peer
        )

    # -- the books ------------------------------------------------------------

    @property
    def packets_sent(self) -> int:
        """Frames that finished serializing by now, wire losses included."""
        return self._sent - (self._sim._now < self._busy_until)

    @property
    def bytes_carried(self) -> int:
        """Bytes of the frames that finished serializing by now and were not
        lost on the wire."""
        if self._sim._now < self._busy_until:
            return self._bytes - self._frame_bytes
        return self._bytes

    @property
    def carried_at(self) -> float:
        """Completion instant of the last frame counted in
        :attr:`bytes_carried` (0.0 before the first)."""
        if self._sim._now < self._busy_until:
            return self._carried_at
        return self._busy_until

    @property
    def completions_elided(self) -> int:
        """Transmit completions at or before now that never were an event."""
        return self._sent - self._posted - (
            not self._completion_posted and self._sim._now < self._busy_until
        )

    # -- introspection ----------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._completion_posted or self._sim._now < self._busy_until

    @property
    def backlog(self) -> int:
        """Packets waiting behind the one in service."""
        return self.queue.depth


class PortQueueStats(QueueStats):
    """A port queue's :class:`QueueStats`, read from the port's books.

    The port inlines its queue's push and pop and writes no counter per
    frame: a frame is counted once, in the books, as it starts.  So
    ``dequeued`` is the frames started, ``enqueued`` adds the frames
    waiting, and ``bytes_enqueued`` is the bytes of both at their enqueue
    size (the books' bytes, with the two rare-path corrections undone).
    ``dropped`` and ``max_depth_seen`` are written where they change, on
    the drop and enqueue paths."""

    __slots__ = ("_port",)

    def __init__(self, port: Port) -> None:
        self._port = port
        self.dropped = 0
        self.max_depth_seen = 0

    @property
    def dequeued(self) -> int:
        return self._port._sent

    @property
    def enqueued(self) -> int:
        port = self._port
        return port._sent + len(port.queue._items)

    @property
    def bytes_enqueued(self) -> int:
        port = self._port
        return port._bytes + port._lost - port._grown + port.queue.queued_bytes
