"""Traffic sources and sinks.

Three applications reproduce the paper's traffic:

* :class:`UdpCbrFlow` / :class:`UdpSink` — the iperf fixed-rate background
  traffic of Section IV.  Packet emission is Poisson by default ("poisson"
  burstiness): real iperf traffic through a software switch is bursty, and
  burstiness is what makes transient queues build below 100% utilization —
  the very signal Fig. 3 calibrates against.  A deterministic "cbr" mode
  exists for tests.

* :class:`ReliableTransfer` / :class:`TransferSinkApp` — a window-based,
  ack-clocked AIMD transport (slow start, congestion avoidance, fast
  retransmit on 3 dupacks, RTO with exponential backoff, delayed ACKs).
  Task data transfers use this, so transfer times respond to congestion the
  way the paper's TCP transfers do.

* :class:`PingApp` / :class:`PingResponder` — the 1-second-interval RTT
  measurement used for Fig. 3's delay curve.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from heapq import heappush
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.errors import SimulationError
from repro.simnet.addressing import PORT_IPERF, PORT_PING, PROTO_TCP, PROTO_UDP
from repro.simnet.engine import EventHandle, PeriodicTimer, Simulator
from repro.simnet.host import Host
from repro.simnet.packet import (
    FLAG_ACK,
    HEADER_OVERHEAD,
    MTU,
    Packet,
)
from repro.simnet.random import prefetch

__all__ = [
    "UdpCbrFlow",
    "UdpSink",
    "ReliableTransfer",
    "TransferSinkApp",
    "PingApp",
    "PingResponder",
    "MSS",
]

MSS = MTU - HEADER_OVERHEAD  # payload bytes per full segment

_flow_ids = itertools.count(1)

# UdpSink's arrival books: frames booked past those in flight before a
# settle.
_BOOK_BATCH = 64
_INF = float("inf")


def reset_flow_ids() -> None:
    """Restart flow id allocation at 1 (fresh-run determinism; see
    :func:`repro.edge.task.reset_ids`)."""
    global _flow_ids
    _flow_ids = itertools.count(1)


# ---------------------------------------------------------------------------
# UDP constant-bit-rate (iperf)
# ---------------------------------------------------------------------------

class UdpCbrFlow:
    """Fixed-rate UDP source, the paper's iperf background traffic.

    ``burstiness="poisson"`` draws exponential inter-packet gaps with the
    configured mean rate from ``rng``, which the flow then owns: it draws
    gaps in blocks, ahead of use, so nothing else may draw from it.
    ``"cbr"`` sends on a strict schedule.
    """

    def __init__(
        self,
        host: Host,
        dst_addr: int,
        rate_bps: float,
        *,
        packet_size: int = MTU,
        dst_port: int = PORT_IPERF,
        burstiness: str = "poisson",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if rate_bps <= 0:
            raise SimulationError(f"CBR rate must be positive, got {rate_bps}")
        if burstiness not in ("poisson", "cbr"):
            raise SimulationError(f"unknown burstiness {burstiness!r}")
        if burstiness == "poisson" and rng is None:
            raise SimulationError("poisson burstiness requires an rng")
        self.host = host
        self.dst_addr = dst_addr
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.dst_port = dst_port
        self.burstiness = burstiness
        self._rng = rng
        self.flow_id = next(_flow_ids)
        self._src_port = host.ephemeral_port()
        self.mean_gap = (packet_size * 8.0) / rate_bps
        self.packets_emitted = 0
        self.bytes_emitted = 0
        self._next: Optional[EventHandle] = None
        self._stopped = True
        self._seq = 0
        # Gaps between emissions: a Poisson flow's exponential draws,
        # prefetched in blocks of 256 from the flow's own generator.
        self._gaps = (
            itertools.repeat(self.mean_gap) if burstiness == "cbr"
            else prefetch(lambda: rng.exponential(self.mean_gap, 256))
        )
        # Per-flow emission template: every frame of a CBR flow is identical
        # except for seq / timestamps, so emission is a copy-and-patch of
        # this prototype instead of a full Packet.__init__ per packet.  Its
        # size is checked here, where Packet.__init__ would otherwise have
        # raised on first emit.
        self._template = Packet.template(
            host.addr, dst_addr, src_port=self._src_port, dst_port=dst_port,
            size_bytes=packet_size, flow_id=self.flow_id,
        )

    def start(self, delay: float = 0.0) -> None:
        if not self._stopped:
            raise SimulationError("CBR flow already started")
        self._stopped = False
        self._next = self.host.sim.schedule(delay + next(self._gaps), self._emit)

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._next is not None and not self._next.fired:
            self.host.sim.cancel(self._next)
        self._next = None

    def run_for(self, duration: float, delay: float = 0.0) -> None:
        """Convenience: start after ``delay`` and stop after ``duration``."""
        self.start(delay)
        self.host.sim.schedule(delay + duration, self.stop)

    def _emit(self) -> None:
        if self._stopped:
            return
        self._seq += 1
        sim = self.host.sim
        # Phase scopes (profiled runs only): build = packet construction,
        # send = local egress enqueue + next-emission scheduling.
        prof = sim.profiler
        if prof is None:
            packet = self._template.copy_patch(self._seq, sim._now)
            self.host.send(packet)
            self.packets_emitted += 1
            self.bytes_emitted += self.packet_size
            # Re-arm by reusing the handle that just fired us (event-pool
            # path); fresh schedule when driven out-of-band.
            handle = self._next
            if handle is not None and handle.fired and not handle.cancelled:
                sim.reschedule(handle, next(self._gaps))
            else:
                self._next = sim.schedule(next(self._gaps), self._emit)
            return
        prof.phase_first("build")
        packet = self._template.copy_patch(self._seq, sim._now)
        prof.phase_next("send")
        self.host.send(packet)
        self.packets_emitted += 1
        self.bytes_emitted += self.packet_size
        handle = self._next
        if handle is not None and handle.fired and not handle.cancelled:
            sim.reschedule(handle, next(self._gaps))
        else:
            self._next = sim.schedule(next(self._gaps), self._emit)
        prof.phase_end()


class UdpSink:
    """Counts received UDP datagrams per flow (iperf server side).

    **Arrival books.**  Nothing in a run reads a sink until it ends, so a
    port sending to the host books a datagram for it instead of posting its
    delivery (see ``Port._start``): ``(arrival instant, sequence number,
    packet)`` appended to ``_book``.  The counters are read at or before
    now: each read first settles the booked arrivals due, in arrival order,
    and so does a delivery that still comes by event.  Settling also runs
    once a batch more than the frames in flight has been booked, so the
    book stays short.  A frame booked for a sink that is unbound, or whose
    host gains an observer, before it arrives goes back on the heap as the
    delivery it stood for.
    """

    def __init__(self, host: Host, port: int = PORT_IPERF) -> None:
        self.host = host
        self.port = port
        self._bytes: Dict[int, int] = {}
        self._packets: Dict[int, int] = {}
        self._first: Dict[int, float] = {}
        self._last: Dict[int, float] = {}
        self._book: List[tuple] = []
        self._settle_at = _BOOK_BATCH
        host.bind(PROTO_UDP, port, self._on_packet)
        host._sinks[port] = self
        host.sim._sinks.append(self)

    @property
    def bytes_by_flow(self) -> Dict[int, int]:
        self._settle()
        return self._bytes

    @property
    def packets_by_flow(self) -> Dict[int, int]:
        self._settle()
        return self._packets

    @property
    def first_arrival(self) -> Dict[int, float]:
        self._settle()
        return self._first

    @property
    def last_arrival(self) -> Dict[int, float]:
        self._settle()
        return self._last

    @property
    def arrivals_in_flight(self) -> int:
        """Booked datagrams that arrive after now."""
        self._settle()
        return len(self._book)

    def _on_packet(self, packet: Packet) -> None:
        if self._book:
            self._settle()
        fid = packet.flow_id
        now = self.host.sim._now
        self._bytes[fid] = self._bytes.get(fid, 0) + packet.size_bytes
        self._packets[fid] = self._packets.get(fid, 0) + 1
        self._first.setdefault(fid, now)
        self._last[fid] = now

    def last_booked(self) -> Optional[float]:
        """The instant of the last arrival on the book, or None."""
        return max(self._book)[0] if self._book else None

    def _settle(self) -> None:
        """Count the booked arrivals at or before now, in arrival order,
        as ``_on_packet`` would have at each one's instant."""
        book = self._book
        book.sort()  # one sender per single-homed host: already in order
        due = bisect_right(book, (self.host.sim._now, _INF))
        nbytes, npackets, first, last = self._bytes, self._packets, self._first, self._last
        for arrival, _seq, packet in book[:due]:
            fid = packet.flow_id
            nbytes[fid] = nbytes.get(fid, 0) + packet.size_bytes
            npackets[fid] = npackets.get(fid, 0) + 1
            if fid not in first:
                first[fid] = arrival
            last[fid] = arrival
        del book[:due]
        self.host._delivered += due
        self._settle_at = len(book) + _BOOK_BATCH

    def _unbook(self) -> None:
        """Post the booked arrivals still in flight as delivery events,
        each under the sequence number it kept, so each dispatches where
        its delivery would have."""
        self._settle()
        host = self.host
        heap = host.sim._heap
        for arrival, seq, packet in self._book:
            heappush(heap, (arrival, seq, None, host.on_ingress, (packet, host.ports[0])))
        self._book.clear()

    def throughput_bps(self, flow_id: int) -> float:
        """Achieved goodput of one flow over its observed lifetime."""
        if flow_id not in self.bytes_by_flow:
            return 0.0
        span = self.last_arrival[flow_id] - self.first_arrival[flow_id]
        if span <= 0:
            return 0.0
        return self.bytes_by_flow[flow_id] * 8.0 / span


# ---------------------------------------------------------------------------
# Reliable windowed transport (task data transfers)
# ---------------------------------------------------------------------------

# Congestion control constants (TCP-Reno-flavoured).
INITIAL_CWND = 4.0          # segments (RFC 6928 scaled down for small BDPs)
INITIAL_SSTHRESH = 64.0     # segments
MIN_RTO = 0.2               # seconds
INITIAL_RTO = 1.0           # seconds
MAX_RTO = 8.0               # seconds
DUPACK_THRESHOLD = 3
DELAYED_ACK_SEGMENTS = 2


class ReliableTransfer:
    """Sender side of one reliable transfer of ``total_bytes``.

    The receiver is a :class:`TransferSinkApp` bound on ``dst_port`` at the
    destination host.  ``on_complete(transfer)`` fires when the final
    cumulative ACK arrives.
    """

    def __init__(
        self,
        host: Host,
        dst_addr: int,
        dst_port: int,
        total_bytes: int,
        *,
        on_complete: Optional[Callable[["ReliableTransfer"], None]] = None,
        metadata: Optional[dict] = None,
    ) -> None:
        if total_bytes < 0:
            raise SimulationError(f"cannot transfer {total_bytes} bytes")
        self.host = host
        self.sim: Simulator = host.sim
        self.dst_addr = dst_addr
        self.dst_port = dst_port
        self.total_bytes = total_bytes
        self.total_segments = max(1, math.ceil(total_bytes / MSS)) if total_bytes else 0
        self.on_complete = on_complete
        self.metadata = metadata or {}
        self.flow_id = next(_flow_ids)
        self.src_port = host.ephemeral_port()
        # One shared message object rides every segment: (total_segments,
        # metadata).  Losing the first segment therefore cannot lose the
        # flow's framing information.
        self._wire_msg = (self.total_segments, self.metadata)

        # Congestion state.
        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.in_slow_start = True
        self.rto = INITIAL_RTO
        self._srtt: Optional[float] = None
        self._rttvar = 0.0

        # Reliability state.
        self.cum_acked = 0            # segments [0, cum_acked) are acked
        self.next_seq = 0             # next fresh segment to transmit
        self._dupacks = 0
        self._send_times: Dict[int, float] = {}
        self._retransmitted: Set[int] = set()
        self._rto_timer: Optional[EventHandle] = None

        # Metrics.
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.retransmissions = 0
        self.timeouts = 0
        self.segments_sent = 0
        self._done = False

        host.bind(PROTO_TCP, self.src_port, self._on_ack)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.started_at is not None:
            raise SimulationError("transfer already started")
        self.started_at = self.sim.now
        if self.total_segments == 0:
            self._finish()
            return
        self._pump()
        self._arm_rto()

    @property
    def done(self) -> bool:
        return self._done

    @property
    def elapsed(self) -> float:
        """Transfer time; only valid after completion."""
        if self.started_at is None or self.completed_at is None:
            raise SimulationError("transfer not complete")
        return self.completed_at - self.started_at

    # -- sending --------------------------------------------------------------

    def _segment_bytes(self, seq: int) -> int:
        if seq == self.total_segments - 1:
            rem = self.total_bytes - seq * MSS
            return rem if rem > 0 else MSS
        return MSS

    def _window_avail(self) -> int:
        inflight = self.next_seq - self.cum_acked
        return max(0, int(self.cwnd) - inflight)

    def _pump(self) -> None:
        """Transmit fresh segments allowed by the congestion window."""
        budget = self._window_avail()
        while budget > 0 and self.next_seq < self.total_segments:
            self._transmit(self.next_seq)
            self.next_seq += 1
            budget -= 1

    def _transmit(self, seq: int) -> None:
        nbytes = self._segment_bytes(seq)
        packet = self.host.new_packet(
            self.dst_addr,
            protocol=PROTO_TCP,
            src_port=self.src_port,
            dst_port=self.dst_port,
            size_bytes=HEADER_OVERHEAD + nbytes,
            message=self._wire_msg,
            flow_id=self.flow_id,
            seq=seq,
        )
        self._send_times[seq] = self.sim.now
        self.segments_sent += 1
        self.host.send(packet)

    # -- ACK processing ------------------------------------------------------

    def _on_ack(self, packet: Packet) -> None:
        if self._done or packet.flow_id != self.flow_id or not packet.is_ack:
            return
        ack = packet.seq  # cumulative: segments [0, ack) received
        if ack > self.cum_acked:
            self._dupacks = 0
            # RTT sample from the newest newly-acked, never-retransmitted
            # segment (Karn's rule).
            sample_seq = ack - 1
            sent = self._send_times.get(sample_seq)
            if sent is not None and sample_seq not in self._retransmitted:
                self._update_rtt(self.sim.now - sent)
            for seq in range(self.cum_acked, ack):
                self._send_times.pop(seq, None)
                self._retransmitted.discard(seq)
            newly = ack - self.cum_acked
            self.cum_acked = ack
            self._grow_cwnd(newly)
            if self.cum_acked >= self.total_segments:
                self._finish()
                return
            self._arm_rto()
            self._pump()
        else:
            self._dupacks += 1
            if self._dupacks == DUPACK_THRESHOLD:
                self._fast_retransmit()

    def _grow_cwnd(self, newly_acked: int) -> None:
        if self.in_slow_start:
            self.cwnd += newly_acked
            if self.cwnd >= self.ssthresh:
                self.in_slow_start = False
        else:
            self.cwnd += newly_acked / self.cwnd

    def _update_rtt(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self.rto = min(MAX_RTO, max(MIN_RTO, self._srtt + 4.0 * self._rttvar))

    # -- loss recovery ----------------------------------------------------------

    def _fast_retransmit(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh
        self.in_slow_start = False
        self.retransmissions += 1
        self._retransmitted.add(self.cum_acked)
        self._transmit(self.cum_acked)
        self._arm_rto()

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self._done:
            return
        self.timeouts += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = INITIAL_CWND / 2.0 if INITIAL_CWND > 2 else 1.0
        self.cwnd = max(1.0, self.cwnd)
        self.in_slow_start = True
        self.rto = min(MAX_RTO, self.rto * 2.0)
        self._dupacks = 0
        # Go-back-N from the hole; the window pump will refill gradually.
        self.next_seq = self.cum_acked
        self.retransmissions += 1
        self._retransmitted.add(self.cum_acked)
        self._transmit(self.cum_acked)
        self.next_seq = max(self.next_seq, self.cum_acked + 1)
        self._arm_rto()

    def _arm_rto(self) -> None:
        if self._rto_timer is not None and not self._rto_timer.fired:
            self.sim.cancel(self._rto_timer)
        self._rto_timer = self.sim.schedule(self.rto, self._on_rto)

    # -- completion ---------------------------------------------------------------

    def _finish(self) -> None:
        self._done = True
        self.completed_at = self.sim.now
        if self._rto_timer is not None and not self._rto_timer.fired:
            self.sim.cancel(self._rto_timer)
            self._rto_timer = None
        self.host.unbind(PROTO_TCP, self.src_port)
        if self.on_complete is not None:
            self.on_complete(self)


class _ReassemblyState:
    """Receiver-side state for one incoming flow."""

    __slots__ = (
        "flow_id", "src_addr", "src_port", "total_segments", "next_expected",
        "out_of_order", "bytes_received", "first_arrival", "completed_at",
        "unacked_segments", "metadata",
    )

    def __init__(self, packet: Packet, total_segments: int, metadata: dict) -> None:
        self.flow_id = packet.flow_id
        self.src_addr = packet.src_addr
        self.src_port = packet.src_port
        self.total_segments = total_segments
        self.next_expected = 0
        self.out_of_order: Set[int] = set()
        self.bytes_received = 0
        self.first_arrival: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.unacked_segments = 0
        self.metadata = metadata

    @property
    def complete(self) -> bool:
        return self.next_expected >= self.total_segments


class TransferSinkApp:
    """Receiver side shared by all transfers targeting one (host, port).

    Demultiplexes by flow id, reassembles, sends cumulative ACKs (delayed:
    every second in-order segment, immediately on out-of-order arrivals),
    and invokes ``on_flow_complete(state)`` when a flow finishes.
    """

    def __init__(
        self,
        host: Host,
        port: int,
        *,
        on_flow_complete: Optional[Callable[[_ReassemblyState], None]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.on_flow_complete = on_flow_complete
        self.flows: Dict[int, _ReassemblyState] = {}
        self.completed: List[_ReassemblyState] = []
        host.bind(PROTO_TCP, port, self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        state = self.flows.get(packet.flow_id)
        if state is None:
            msg = packet.message
            if not (isinstance(msg, tuple) and len(msg) == 2 and isinstance(msg[0], int)):
                return  # malformed or stale segment for an unknown flow
            total, metadata = msg
            if total <= 0:
                return
            state = _ReassemblyState(packet, total, metadata if isinstance(metadata, dict) else {})
            self.flows[packet.flow_id] = state
        if state.complete:
            # Stray retransmission after completion: re-ACK so the sender
            # can finish too.
            self._send_ack(state, force=True)
            return
        if state.first_arrival is None:
            state.first_arrival = self.host.sim.now

        seq = packet.seq
        in_order = False
        is_new = False
        if seq == state.next_expected:
            state.next_expected += 1
            while state.next_expected in state.out_of_order:
                state.out_of_order.discard(state.next_expected)
                state.next_expected += 1
            in_order = True
            is_new = True
        elif seq > state.next_expected:
            is_new = seq not in state.out_of_order
            state.out_of_order.add(seq)
        # else: duplicate of an already-delivered segment; just re-ACK.
        if is_new:
            state.bytes_received += max(0, packet.size_bytes - HEADER_OVERHEAD)

        if state.complete:
            state.completed_at = self.host.sim.now
            self._send_ack(state, force=True)
            self.completed.append(state)
            if self.on_flow_complete is not None:
                self.on_flow_complete(state)
            return

        if in_order:
            state.unacked_segments += 1
            if state.unacked_segments >= DELAYED_ACK_SEGMENTS:
                self._send_ack(state, force=True)
        else:
            self._send_ack(state, force=True)  # dupack / ooo: immediate

    def _send_ack(self, state: _ReassemblyState, force: bool = False) -> None:
        state.unacked_segments = 0
        ack = self.host.new_packet(
            state.src_addr,
            protocol=PROTO_TCP,
            src_port=self.port,
            dst_port=state.src_port,
            size_bytes=HEADER_OVERHEAD,
            flags=FLAG_ACK,
            flow_id=state.flow_id,
            seq=state.next_expected,
        )
        self.host.send(ack)


# ---------------------------------------------------------------------------
# Ping (RTT measurement, Fig. 3)
# ---------------------------------------------------------------------------

PING_SIZE = 64  # bytes on the wire, like ICMP echo


class PingResponder:
    """Echo server: reflects ping requests back to the sender."""

    def __init__(self, host: Host, port: int = PORT_PING) -> None:
        self.host = host
        self.port = port
        self.requests_echoed = 0
        host.bind(PROTO_UDP, port, self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        if packet.is_ack:
            return
        reply = self.host.new_packet(
            packet.src_addr,
            protocol=PROTO_UDP,
            src_port=self.port,
            dst_port=packet.src_port,
            size_bytes=PING_SIZE,
            flags=FLAG_ACK,
            flow_id=packet.flow_id,
            seq=packet.seq,
            message=packet.message,  # echo the original send timestamp
        )
        self.requests_echoed += 1
        self.host.send(reply)


class PingApp:
    """Periodic echo-request sender recording RTT samples (paper: 1 s)."""

    def __init__(
        self,
        host: Host,
        dst_addr: int,
        *,
        interval: float = 1.0,
        dst_port: int = PORT_PING,
    ) -> None:
        self.host = host
        self.dst_addr = dst_addr
        self.dst_port = dst_port
        self.src_port = host.ephemeral_port()
        self.rtt_samples: List[float] = []
        self.sent = 0
        self.lost_or_pending = 0
        self._seq = 0
        self._timer = PeriodicTimer(host.sim, interval, self._send, start_delay=0.0)
        host.bind(PROTO_UDP, self.src_port, self._on_reply)

    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def _send(self) -> None:
        self._seq += 1
        packet = self.host.new_packet(
            self.dst_addr,
            protocol=PROTO_UDP,
            src_port=self.src_port,
            dst_port=self.dst_port,
            size_bytes=PING_SIZE,
            seq=self._seq,
            message=self.host.sim.now,
        )
        self.sent += 1
        self.lost_or_pending += 1
        self.host.send(packet)

    def _on_reply(self, packet: Packet) -> None:
        if not packet.is_ack or not isinstance(packet.message, float):
            return
        self.rtt_samples.append(self.host.sim.now - packet.message)
        self.lost_or_pending -= 1

    @property
    def mean_rtt(self) -> float:
        if not self.rtt_samples:
            raise SimulationError("no RTT samples collected")
        return float(np.mean(self.rtt_samples))
