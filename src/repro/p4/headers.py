"""Byte-level codecs for the probe header and per-hop INT metadata stack.

Probe packets are UDP datagrams whose payload is::

    +--------+---------+-----------+
    | magic  | version | hop_count |   4-byte probe header
    +--------+---------+-----------+
    | hop record 0 (17 bytes)      |   appended by the 1st switch
    | hop record 1                 |   appended by the 2nd switch
    | ...                          |
    +------------------------------+

Each hop record is ``!HBHiq``:

======================  ======  ==================================================
field                   bytes   meaning
======================  ======  ==================================================
``switch_id``           2       numeric id of the switch that appended the record
``egress_port``         1       egress port the probe left through
``max_qdepth``          2       max queue depth register value, reset on read
``link_latency_us``     4       measured latency of the *upstream* link in
                                microseconds (signed: clock jitter can produce
                                small negative readings), or the sentinel
                                ``NO_LATENCY`` at the first hop
``egress_ts_us``        8       this switch's egress timestamp in microseconds
======================  ======  ==================================================

The record order encodes the path — Section III-B's topology inference
("if a probe packet contains INT data in S1-S3-S4 order, we can deduce that
S1 and S3 are connected, and so are S3 and S4").
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import PacketError

__all__ = [
    "IntHopRecord",
    "PROBE_MAGIC",
    "PROBE_VERSION",
    "HOP_RECORD_SIZE",
    "PROBE_HEADER_SIZE",
    "NO_LATENCY",
    "encode_probe_header",
    "encode_hop_record",
    "append_hop_record",
    "append_hop_fields",
    "decode_probe_payload",
]

PROBE_MAGIC = b"NT"
PROBE_VERSION = 1
_HEADER = struct.Struct("!2sBB")
_RECORD = struct.Struct("!HBHiq")
PROBE_HEADER_SIZE = _HEADER.size   # 4
HOP_RECORD_SIZE = _RECORD.size     # 17
# Every valid probe header, indexed by its hop_count byte: validating a
# header is one comparison, re-stamping the count is one lookup.
_HEADERS = tuple(_HEADER.pack(PROBE_MAGIC, PROBE_VERSION, n) for n in range(256))

# Sentinel for "no upstream latency measurement" (first INT hop).
NO_LATENCY = -(2**31)

_MAX_QDEPTH = 0xFFFF
_MAX_SWITCH_ID = 0xFFFF
_MAX_PORT = 0xFF
_I32_MIN, _I32_MAX = -(2**31) + 1, 2**31 - 1


@dataclass(frozen=True, slots=True)
class IntHopRecord:
    """Decoded per-hop INT metadata (times in seconds, as floats)."""

    switch_id: int
    egress_port: int
    max_qdepth: int
    link_latency: Optional[float]  # seconds; None at the first hop
    egress_ts: float               # seconds (switch-local clock)

    def __post_init__(self) -> None:
        if not 0 <= self.switch_id <= _MAX_SWITCH_ID:
            raise PacketError(f"switch_id {self.switch_id} out of range")
        if not 0 <= self.egress_port <= _MAX_PORT:
            raise PacketError(f"egress_port {self.egress_port} out of range")
        if self.max_qdepth < 0:
            raise PacketError(f"max_qdepth {self.max_qdepth} negative")


def encode_probe_header(hop_count: int = 0) -> bytes:
    """Initial probe payload (written by the probe sender, no hops yet)."""
    if not 0 <= hop_count <= 0xFF:
        raise PacketError(f"hop_count {hop_count} out of range")
    return _HEADERS[hop_count]


def _pack_record(
    switch_id: int,
    egress_port: int,
    max_qdepth: int,
    link_latency: Optional[float],
    egress_ts: float,
) -> bytes:
    """One wire record with saturating clamps, as a width-limited P4 header
    field would."""
    if max_qdepth > _MAX_QDEPTH:
        max_qdepth = _MAX_QDEPTH
    if link_latency is None:
        latency_us = NO_LATENCY
    else:
        latency_us = int(round(link_latency * 1e6))
        if latency_us < _I32_MIN:
            latency_us = _I32_MIN
        elif latency_us > _I32_MAX:
            latency_us = _I32_MAX
    return _RECORD.pack(
        switch_id, egress_port, max_qdepth, latency_us, int(round(egress_ts * 1e6))
    )


def encode_hop_record(record: IntHopRecord) -> bytes:
    """Serialize one hop record."""
    return _pack_record(
        record.switch_id,
        record.egress_port,
        record.max_qdepth,
        record.link_latency,
        record.egress_ts,
    )


def _hop_count(payload: bytes) -> int:
    """Validate the probe header; return the hop count it declares."""
    if len(payload) < PROBE_HEADER_SIZE:
        raise PacketError(f"probe payload truncated: {len(payload)}B < header")
    hop_count = payload[3]
    if payload[:PROBE_HEADER_SIZE] != _HEADERS[hop_count]:
        magic, version, _ = _HEADER.unpack_from(payload, 0)
        if magic != PROBE_MAGIC:
            raise PacketError(f"bad probe magic {magic!r}")
        raise PacketError(f"unsupported probe version {version}")
    return hop_count


def append_hop_record(payload: bytes, record: IntHopRecord) -> bytes:
    """Return ``payload`` with ``record`` appended and hop_count incremented —
    what the INT program's deparser emits at each switch."""
    return append_hop_fields(
        payload,
        record.switch_id,
        record.egress_port,
        record.max_qdepth,
        record.link_latency,
        record.egress_ts,
    )


def append_hop_fields(
    payload: bytes,
    switch_id: int,
    egress_port: int,
    max_qdepth: int,
    link_latency: Optional[float],
    egress_ts: float,
) -> bytes:
    """Field-level twin of :func:`append_hop_record` for the per-probe hot
    path: identical bytes out (same clamps, same range checks), without
    constructing the frozen :class:`IntHopRecord` in between."""
    if not 0 <= switch_id <= _MAX_SWITCH_ID:
        raise PacketError(f"switch_id {switch_id} out of range")
    if not 0 <= egress_port <= _MAX_PORT:
        raise PacketError(f"egress_port {egress_port} out of range")
    if max_qdepth < 0:
        raise PacketError(f"max_qdepth {max_qdepth} negative")
    hop_count = _hop_count(payload)
    if hop_count >= 0xFF:
        raise PacketError("INT stack full (255 hops)")
    if len(payload) != PROBE_HEADER_SIZE + hop_count * HOP_RECORD_SIZE:
        raise PacketError(
            f"probe payload length {len(payload)} inconsistent with hop_count={hop_count}"
        )
    return b"".join((
        _HEADERS[hop_count + 1],
        payload[PROBE_HEADER_SIZE:],
        _pack_record(switch_id, egress_port, max_qdepth, link_latency, egress_ts),
    ))


def decode_probe_payload(payload: bytes) -> List[IntHopRecord]:
    """Decode the full INT stack, in path order (collector side)."""
    hop_count = _hop_count(payload)
    expected = PROBE_HEADER_SIZE + hop_count * HOP_RECORD_SIZE
    if len(payload) != expected:
        raise PacketError(
            f"probe payload length {len(payload)} != expected {expected} "
            f"for hop_count={hop_count}"
        )
    return [
        IntHopRecord(
            switch_id,
            port,
            qdepth,
            None if latency_us == NO_LATENCY else latency_us / 1e6,
            ts_us / 1e6,
        )
        for switch_id, port, qdepth, latency_us, ts_us in _RECORD.iter_unpack(
            payload[PROBE_HEADER_SIZE:]
        )
    ]
