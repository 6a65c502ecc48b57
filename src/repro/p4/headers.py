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
from collections.abc import Sequence
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import PacketError

__all__ = [
    "IntHopRecord",
    "IntStack",
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
_pack = _RECORD.pack
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


# Per hop count n, the unpacker of (switch_id, max_qdepth, link_latency_us)
# for all n hops in one call, built on first use.
_FIELDS: List[Optional[Callable[[bytes, int], Tuple[int, ...]]]] = [None] * 256


class _HopFields(NamedTuple):
    switch_id: int
    egress_port: int
    max_qdepth: int
    link_latency: Optional[float]  # seconds; None at the first hop
    egress_ts: float               # seconds (switch-local clock)


class IntHopRecord(_HopFields):
    """Decoded per-hop INT metadata (times in seconds, as floats).

    An immutable tuple.  The public constructor range-checks the fields;
    the decoder builds records with ``tuple.__new__``, because the unsigned
    wire widths already satisfy those checks."""

    __slots__ = ()

    def __new__(
        cls,
        switch_id: int,
        egress_port: int,
        max_qdepth: int,
        link_latency: Optional[float],
        egress_ts: float,
    ) -> "IntHopRecord":
        if not 0 <= switch_id <= _MAX_SWITCH_ID:
            raise PacketError(f"switch_id {switch_id} out of range")
        if not 0 <= egress_port <= _MAX_PORT:
            raise PacketError(f"egress_port {egress_port} out of range")
        if max_qdepth < 0:
            raise PacketError(f"max_qdepth {max_qdepth} negative")
        return tuple.__new__(
            cls, (switch_id, egress_port, max_qdepth, link_latency, egress_ts)
        )


def _decode(stack: bytes) -> List[IntHopRecord]:
    """Packed hop records (no probe header) -> records, in stack order."""
    return [
        tuple.__new__(IntHopRecord, (
            switch_id,
            port,
            qdepth,
            None if latency_us == NO_LATENCY else latency_us / 1e6,
            ts_us / 1e6,
        ))
        for switch_id, port, qdepth, latency_us, ts_us in _RECORD.iter_unpack(stack)
    ]


class IntStack(Sequence):
    """A validated INT stack, read-only, kept in wire form.

    Holds the probe payload (header included) as ``bytes`` and decodes a
    record each time one is read, so a report that is kept costs its
    payload, not a list of records.  Compares equal to the list of records
    it decodes to."""

    __slots__ = ("_wire",)

    def __init__(self, wire: bytes) -> None:
        self._wire = wire

    def __len__(self) -> int:
        return self._wire[3]

    def __getitem__(self, index: int) -> IntHopRecord:
        hops = self._wire[3]
        if index < 0:
            index += hops
        if not 0 <= index < hops:
            raise IndexError("INT stack index out of range")
        start = PROBE_HEADER_SIZE + index * HOP_RECORD_SIZE
        return _decode(self._wire[start:start + HOP_RECORD_SIZE])[0]

    def __iter__(self) -> Iterator[IntHopRecord]:
        return iter(_decode(self._wire[PROBE_HEADER_SIZE:]))

    def fields(self) -> Tuple[int, ...]:
        """``(switch_id, max_qdepth, link_latency_us)`` of every hop,
        flattened into one tuple in stack order, from one unpack call:
        what the collector side ingests.  A latency stays in wire form, in
        microseconds or :data:`NO_LATENCY`."""
        wire = self._wire
        hops = wire[3]
        unpack = _FIELDS[hops]
        if unpack is None:
            unpack = _FIELDS[hops] = struct.Struct("!" + "HxHi8x" * hops).unpack_from
        return unpack(wire, PROBE_HEADER_SIZE)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (IntStack, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"IntStack({list(self)!r})"


def encode_probe_header(hop_count: int = 0) -> bytes:
    """Initial probe payload (written by the probe sender, no hops yet)."""
    if not 0 <= hop_count <= 0xFF:
        raise PacketError(f"hop_count {hop_count} out of range")
    return _HEADERS[hop_count]


def encode_hop_record(record: IntHopRecord) -> bytes:
    """Serialize one hop record."""
    return append_hop_fields(_HEADERS[0], *record)[PROBE_HEADER_SIZE:]


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
    constructing an :class:`IntHopRecord` in between.

    A well-formed payload passes one arithmetic test: a whole number of
    records below the 255-hop limit, under the one header that declares
    that number.  Anything else goes to :func:`_reject_append`, which runs
    the payload checks in their documented order and raises the first
    that fails."""
    if not 0 <= switch_id <= _MAX_SWITCH_ID:
        raise PacketError(f"switch_id {switch_id} out of range")
    if not 0 <= egress_port <= _MAX_PORT:
        raise PacketError(f"egress_port {egress_port} out of range")
    if max_qdepth < 0:
        raise PacketError(f"max_qdepth {max_qdepth} negative")
    hops, rest = divmod(len(payload) - PROBE_HEADER_SIZE, HOP_RECORD_SIZE)
    if rest or not 0 <= hops < 0xFF or payload[:PROBE_HEADER_SIZE] != _HEADERS[hops]:
        _reject_append(payload)
    # Saturating clamps, as a width-limited P4 header field would.
    if max_qdepth > _MAX_QDEPTH:
        max_qdepth = _MAX_QDEPTH
    if link_latency is None:
        latency_us = NO_LATENCY
    else:
        latency_us = round(link_latency * 1e6)
        if latency_us < _I32_MIN:
            latency_us = _I32_MIN
        elif latency_us > _I32_MAX:
            latency_us = _I32_MAX
    return b"".join((
        _HEADERS[hops + 1],
        payload[PROBE_HEADER_SIZE:],
        _pack(switch_id, egress_port, max_qdepth, latency_us, round(egress_ts * 1e6)),
    ))


def _reject_append(payload: bytes) -> None:
    """Raise the error :func:`append_hop_fields` owes a payload that failed
    its fast test: the header, then the 255-hop limit, then the length."""
    hop_count = _hop_count(payload)
    if hop_count >= 0xFF:
        raise PacketError("INT stack full (255 hops)")
    raise PacketError(
        f"probe payload length {len(payload)} inconsistent with hop_count={hop_count}"
    )


def decode_probe_payload(payload: bytes) -> IntStack:
    """Validate a probe payload and return its INT stack, in path order
    (collector side).  The stack keeps ``bytes``: a ``bytearray`` or other
    buffer is copied first, so later writes to it change nothing."""
    wire = payload if type(payload) is bytes else bytes(payload)
    hops, rest = divmod(len(wire) - PROBE_HEADER_SIZE, HOP_RECORD_SIZE)
    if rest or not 0 <= hops <= 0xFF or wire[:PROBE_HEADER_SIZE] != _HEADERS[hops]:
        # Only a bad payload gets here: the header checks first, then the length.
        hop_count = _hop_count(wire)
        expected = PROBE_HEADER_SIZE + hop_count * HOP_RECORD_SIZE
        raise PacketError(
            f"probe payload length {len(wire)} != expected {expected} "
            f"for hop_count={hop_count}"
        )
    return IntStack(wire)
