"""End hosts: packet sources/sinks running applications.

A :class:`Host` demultiplexes received packets to registered handlers keyed
by ``(protocol, destination port)`` — the simulated socket API.  Hosts in
this reproduction are single-homed (every node in the paper's Fig. 4 hangs
off exactly one leaf switch), which keeps host-side forwarding trivial: all
egress traffic leaves through port 0.

Applications (probe senders, the scheduler service, edge device/server apps,
traffic generators) are plain objects that call :meth:`Host.bind` for their
listening ports and :meth:`Host.send` to transmit.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import TopologyError
from repro.simnet.addressing import PORT_EPHEMERAL_BASE, PROTO_TCP, PROTO_UDP
from repro.simnet.engine import Simulator
from repro.simnet.node import Clock, Node
from repro.simnet.packet import FLAG_PROBE, HEADER_OVERHEAD, Packet
from repro.simnet.nic import Port

__all__ = ["Host"]

PacketHandler = Callable[[Packet], None]


class Host(Node):
    """A single-homed end host with a (protocol, port) -> handler demux."""

    def __init__(self, sim: Simulator, name: str, addr: int, clock: Optional[Clock] = None) -> None:
        super().__init__(sim, name, addr, clock)
        self._handlers: Dict[Tuple[int, int], PacketHandler] = {}
        self._ephemeral = itertools.count(PORT_EPHEMERAL_BASE)
        self.packets_delivered = 0
        self.packets_unclaimed = 0

    # -- socket-ish API ---------------------------------------------------

    def bind(self, protocol: int, port: int, handler: PacketHandler) -> None:
        key = (protocol, port)
        if key in self._handlers:
            raise TopologyError(f"{self.name}: port {key} already bound")
        self._handlers[key] = handler

    def unbind(self, protocol: int, port: int) -> None:
        try:
            del self._handlers[(protocol, port)]
        except KeyError:
            raise TopologyError(f"{self.name}: port ({protocol}, {port}) not bound") from None

    def ephemeral_port(self) -> int:
        """Allocate a fresh source port for a client-side conversation."""
        return next(self._ephemeral)

    def new_packet(
        self,
        dst_addr: int,
        *,
        protocol: int = PROTO_UDP,
        src_port: int = 0,
        dst_port: int = 0,
        size_bytes: int = HEADER_OVERHEAD,
        payload: Optional[bytes] = None,
        message: Any = None,
        flags: int = 0,
        flow_id: int = 0,
        seq: int = 0,
    ) -> Packet:
        """Build a packet originating here, stamped with the current time."""
        return Packet(
            self.addr,
            dst_addr,
            protocol=protocol,
            src_port=src_port,
            dst_port=dst_port,
            size_bytes=size_bytes,
            payload=payload,
            message=message,
            flags=flags,
            flow_id=flow_id,
            seq=seq,
            created_at=self.sim.now,
        )

    def send(self, packet: Packet) -> bool:
        """Transmit via the single uplink.  Returns False if dropped at the
        local egress queue."""
        if not self.ports:
            raise TopologyError(f"host {self.name} has no attached link")
        return self.ports[0].send(packet)

    # -- data path ----------------------------------------------------------

    def on_egress(self, packet: Packet, out_port: Port, enq_depth: int) -> None:
        """Stamp outgoing probes with this host's clock as they leave the
        egress queue, so the first switch can measure the first-link latency
        (the switch-side INT program does the same at every later hop).
        Stamping at dequeue — not at send() — keeps the host's own queueing
        delay out of the link measurement, mirroring 'just before it is
        pushed out of a network device' (Section III-A)."""
        # Direct flag test (not the is_probe property): this runs for every
        # frame leaving a host, probe or not.
        observer = self.observer
        if observer is not None and (
            (packet.seq - 1) % observer.probe_stride == 0
            if packet.flags & FLAG_PROBE
            else not observer.probes_only
        ):
            observer.record(self, "egress", packet, enq_depth)
        if packet.flags & FLAG_PROBE and packet.last_egress_ts is None:
            packet.last_egress_ts = self.clock.read()

    def on_ingress(self, packet: Packet, in_port: Port) -> None:
        observer = self.observer
        if observer is not None and (
            (packet.seq - 1) % observer.probe_stride == 0
            if packet.flags & FLAG_PROBE
            else not observer.probes_only
        ):
            observer.record(self, "ingress", packet)
        self.packets_received += 1
        prof = self.sim.profiler
        if prof is None:
            if packet.dst_addr != self.addr:
                # Hosts do not forward; a misrouted packet dies here.
                self.packets_dropped += 1
                return
            handler = self._handlers.get((packet.protocol, packet.dst_port))
            if handler is None:
                self.packets_unclaimed += 1
                return
            self.packets_delivered += 1
            handler(packet)
            return
        # Phase scopes (profiled runs only): demux covers the address check +
        # handler lookup (backdated to handler entry via phase_first); the
        # handler call is attributed to transport (TCP) or flow (everything
        # else: UDP apps, probes, control messages).
        prof.phase_first("demux")
        if packet.dst_addr != self.addr:
            self.packets_dropped += 1
            prof.phase_end()
            return
        handler = self._handlers.get((packet.protocol, packet.dst_port))
        if handler is None:
            self.packets_unclaimed += 1
            prof.phase_end()
            return
        self.packets_delivered += 1
        prof.phase_next("transport" if packet.protocol == PROTO_TCP else "flow")
        handler(packet)
        prof.phase_end()
