"""The simulated packet.

A :class:`Packet` models one layer-2 frame on the wire.  It carries the
fields the data plane actually matches on (addresses, protocol, ports, the
probe flag) plus simulation bookkeeping (wire size, creation time, TTL).

Payload handling follows a hybrid-fidelity rule:

* **Probe packets** carry *real bytes* (``payload: bytes``) because the INT
  program appends per-hop metadata that the collector must later decode —
  the paper's Section III-A pipeline is reproduced at byte granularity.
* **Bulk data packets** (task uploads, iperf) carry only their *length*; the
  content is irrelevant to every experiment, and materialising megabytes of
  payload would dominate simulation cost for no fidelity gain.
* **Control messages** (scheduler queries/responses, task completion
  notifications) carry a small Python object in :attr:`message` plus a
  declared wire size.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.errors import PacketError
from repro.simnet.addressing import PROTO_UDP

__all__ = [
    "Packet",
    "FLAG_PROBE",
    "FLAG_ACK",
    "DEFAULT_TTL",
    "MTU",
    "HEADER_OVERHEAD",
]

# Flag bits (modelled on DSCP/ToS-style marking; the paper marks probes with
# "certain IP header fields set (aka Geneve option)").
FLAG_PROBE = 0x1
FLAG_ACK = 0x2

DEFAULT_TTL = 64
MTU = 1500                # maximum frame size used throughout (paper: 1.5 KB probes)
HEADER_OVERHEAD = 40      # bytes of L2/L3/L4 headers accounted in every frame

_packet_ids = itertools.count(1)


def reset_packet_ids() -> None:
    """Restart packet id allocation at 1 (fresh-run determinism; see
    :func:`repro.edge.task.reset_ids`)."""
    global _packet_ids
    _packet_ids = itertools.count(1)


class Packet:
    """One frame in flight.  Mutable only where the data plane mutates real
    packets (payload growth for probes, TTL decrement)."""

    __slots__ = (
        "packet_id",
        "src_addr",
        "dst_addr",
        "protocol",
        "src_port",
        "dst_port",
        "size_bytes",
        "payload",
        "message",
        "flags",
        "ttl",
        "flow_id",
        "seq",
        "created_at",
        "built_ttl",
        "enq_depth",
        "last_egress_ts",
        "int_link_latency",
    )

    def __init__(
        self,
        src_addr: int,
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
        created_at: float = 0.0,
        ttl: int = DEFAULT_TTL,
    ) -> None:
        if size_bytes < HEADER_OVERHEAD:
            raise PacketError(
                f"size_bytes={size_bytes} smaller than header overhead {HEADER_OVERHEAD}"
            )
        if payload is not None and HEADER_OVERHEAD + len(payload) > size_bytes:
            raise PacketError(
                f"declared size {size_bytes} cannot hold {len(payload)}B payload "
                f"+ {HEADER_OVERHEAD}B headers"
            )
        self.packet_id = next(_packet_ids)
        self.src_addr = src_addr
        self.dst_addr = dst_addr
        self.protocol = protocol
        self.src_port = src_port
        self.dst_port = dst_port
        self.size_bytes = size_bytes
        self.payload = payload
        self.message = message
        self.flags = flags
        self.ttl = self.built_ttl = ttl
        self.flow_id = flow_id
        self.seq = seq
        self.created_at = created_at
        # Queue depth observed at the most recent enqueue (BMv2's
        # ``enq_qdepth``).  Written by DropTailQueue.push so queue entries
        # can be bare packets instead of (packet, depth) pairs; a packet
        # occupies at most one queue at a time, so one slot suffices.
        self.enq_depth = 0
        # Egress timestamp written by the previous switch (INT link-latency
        # measurement, Section III-A).  ``None`` until the first P4 egress.
        self.last_egress_ts: Optional[float] = None
        # Upstream link latency measured by the *current* switch's ingress
        # stage (arrival time minus ``last_egress_ts``), consumed and cleared
        # by its egress stage when the INT hop record is appended.
        self.int_link_latency: Optional[float] = None

    @classmethod
    def template(
        cls,
        src_addr: int,
        dst_addr: int,
        *,
        protocol: int = PROTO_UDP,
        src_port: int = 0,
        dst_port: int = 0,
        size_bytes: int = HEADER_OVERHEAD,
        payload: Optional[bytes] = None,
        flags: int = 0,
        flow_id: int = 0,
    ) -> "Packet":
        """A prototype for :meth:`copy_patch`: the fields a source sends
        unchanged frame after frame, checked as the constructor checks
        them, with no packet id drawn (ids must match the constructor path
        packet for packet) and no per-frame slot set."""
        if size_bytes < HEADER_OVERHEAD:
            raise PacketError(
                f"size_bytes={size_bytes} smaller than header overhead {HEADER_OVERHEAD}"
            )
        if payload is not None and HEADER_OVERHEAD + len(payload) > size_bytes:
            raise PacketError(
                f"declared size {size_bytes} cannot hold {len(payload)}B payload "
                f"+ {HEADER_OVERHEAD}B headers"
            )
        p = cls.__new__(cls)
        p.src_addr = src_addr
        p.dst_addr = dst_addr
        p.protocol = protocol
        p.src_port = src_port
        p.dst_port = dst_port
        p.size_bytes = size_bytes
        p.payload = payload
        p.message = None
        p.flags = flags
        p.ttl = DEFAULT_TTL
        p.flow_id = flow_id
        return p

    def copy_patch(self, seq: int, created_at: float) -> "Packet":
        """Copy-and-patch emission from a per-flow template: straight-line
        slot copies, a fresh packet id, and reset per-hop bookkeeping —
        no keyword processing and no re-validation (the template was
        validated once at construction).  This is the hot constructor for
        fixed-shape sources (CBR flows emit 100K+ identical frames).  A copy
        is built with the template's TTL."""
        p = Packet.__new__(Packet)
        p.packet_id = next(_packet_ids)
        p.src_addr = self.src_addr
        p.dst_addr = self.dst_addr
        p.protocol = self.protocol
        p.src_port = self.src_port
        p.dst_port = self.dst_port
        p.size_bytes = self.size_bytes
        p.payload = self.payload
        p.message = self.message
        p.flags = self.flags
        p.ttl = p.built_ttl = self.ttl
        p.flow_id = self.flow_id
        p.seq = seq
        p.created_at = created_at
        p.enq_depth = 0
        p.last_egress_ts = None
        p.int_link_latency = None
        return p

    @property
    def hop_count(self) -> int:
        """Switches that forwarded this packet: each decrements its TTL once,
        so this is read off the TTL rather than counted per hop."""
        return self.built_ttl - self.ttl

    @hop_count.setter
    def hop_count(self, value: int) -> None:
        self.built_ttl = self.ttl + value

    # -- classification helpers used by parsers and demultiplexers ---------

    @property
    def is_probe(self) -> bool:
        return bool(self.flags & FLAG_PROBE)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "PROBE" if self.is_probe else ("ACK" if self.is_ack else "DATA")
        return (
            f"<Packet#{self.packet_id} {kind} {self.src_addr}:{self.src_port}->"
            f"{self.dst_addr}:{self.dst_port} proto={self.protocol} "
            f"{self.size_bytes}B flow={self.flow_id} seq={self.seq}>"
        )
