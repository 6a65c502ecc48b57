"""Packet construction and classification."""

import pytest

from repro.errors import PacketError
from repro.simnet.addressing import PROTO_TCP, PROTO_UDP
from repro.simnet.packet import (
    DEFAULT_TTL,
    FLAG_ACK,
    FLAG_PROBE,
    HEADER_OVERHEAD,
    MTU,
    Packet,
)


def test_minimal_packet_defaults():
    p = Packet(1, 2)
    assert p.protocol == PROTO_UDP
    assert p.size_bytes == HEADER_OVERHEAD
    assert p.ttl == DEFAULT_TTL
    assert not p.is_probe and not p.is_ack
    assert p.hop_count == 0
    assert p.last_egress_ts is None
    assert p.int_link_latency is None


def test_packet_ids_unique():
    ids = {Packet(1, 2).packet_id for _ in range(100)}
    assert len(ids) == 100


def test_probe_flag():
    p = Packet(1, 2, flags=FLAG_PROBE)
    assert p.is_probe and not p.is_ack


def test_ack_flag():
    p = Packet(1, 2, flags=FLAG_ACK)
    assert p.is_ack and not p.is_probe


def test_combined_flags():
    p = Packet(1, 2, flags=FLAG_ACK | FLAG_PROBE)
    assert p.is_ack and p.is_probe


def test_size_below_header_overhead_rejected():
    with pytest.raises(PacketError):
        Packet(1, 2, size_bytes=HEADER_OVERHEAD - 1)


def test_payload_exceeding_declared_size_rejected():
    with pytest.raises(PacketError):
        Packet(1, 2, size_bytes=HEADER_OVERHEAD + 4, payload=b"12345")


def test_payload_with_room_for_padding_allowed():
    # Probe frames declare MTU but carry a small INT stack.
    p = Packet(1, 2, size_bytes=MTU, payload=b"abc")
    assert p.size_bytes == MTU
    assert p.payload == b"abc"


def test_fields_carried():
    p = Packet(
        3,
        9,
        protocol=PROTO_TCP,
        src_port=1000,
        dst_port=2000,
        flow_id=5,
        seq=42,
        created_at=1.25,
    )
    assert (p.src_addr, p.dst_addr) == (3, 9)
    assert (p.src_port, p.dst_port) == (1000, 2000)
    assert p.flow_id == 5 and p.seq == 42 and p.created_at == 1.25


def test_message_object_carried():
    msg = ("sched_query", 1, "delay")
    p = Packet(1, 2, message=msg)
    assert p.message is msg
