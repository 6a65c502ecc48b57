"""INT probe header codec: framing, clamping, error handling."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PacketError
from repro.p4.headers import (
    HOP_RECORD_SIZE,
    NO_LATENCY,
    PROBE_HEADER_SIZE,
    IntHopRecord,
    append_hop_fields,
    append_hop_record,
    decode_probe_payload,
    encode_hop_record,
    encode_probe_header,
)


def _record(**kw):
    base = dict(switch_id=3, egress_port=1, max_qdepth=17, link_latency=0.0105, egress_ts=2.5)
    base.update(kw)
    return IntHopRecord(**base)


def test_empty_probe_header():
    payload = encode_probe_header(0)
    assert len(payload) == PROBE_HEADER_SIZE
    assert decode_probe_payload(payload) == []


def test_single_hop_roundtrip():
    payload = append_hop_record(encode_probe_header(0), _record())
    records = decode_probe_payload(payload)
    assert len(records) == 1
    r = records[0]
    assert (r.switch_id, r.egress_port, r.max_qdepth) == (3, 1, 17)
    assert r.link_latency == pytest.approx(0.0105, abs=1e-6)
    assert r.egress_ts == pytest.approx(2.5, abs=1e-6)


def test_multi_hop_preserves_path_order():
    payload = encode_probe_header(0)
    for sid in (5, 2, 9):
        payload = append_hop_record(payload, _record(switch_id=sid))
    assert [r.switch_id for r in decode_probe_payload(payload)] == [5, 2, 9]


def test_payload_length_grows_by_record_size():
    p0 = encode_probe_header(0)
    p1 = append_hop_record(p0, _record())
    assert len(p1) - len(p0) == HOP_RECORD_SIZE


def test_first_hop_latency_sentinel():
    payload = append_hop_record(encode_probe_header(0), _record(link_latency=None))
    assert decode_probe_payload(payload)[0].link_latency is None


def test_negative_latency_survives():
    """Clock jitter can make measured latency slightly negative; the codec
    must not corrupt it (signed field)."""
    payload = append_hop_record(encode_probe_header(0), _record(link_latency=-0.00015))
    assert decode_probe_payload(payload)[0].link_latency == pytest.approx(-0.00015, abs=1e-6)


def test_qdepth_saturates_at_16_bits():
    payload = append_hop_record(encode_probe_header(0), _record(max_qdepth=2**20))
    assert decode_probe_payload(payload)[0].max_qdepth == 0xFFFF


def test_bad_magic_rejected():
    with pytest.raises(PacketError):
        decode_probe_payload(b"XX\x01\x00")


def test_truncated_header_rejected():
    with pytest.raises(PacketError):
        decode_probe_payload(b"NT")


def test_inconsistent_length_rejected():
    payload = append_hop_record(encode_probe_header(0), _record())
    with pytest.raises(PacketError):
        decode_probe_payload(payload + b"junk")
    with pytest.raises(PacketError):
        decode_probe_payload(payload[:-1])


def test_append_to_inconsistent_payload_rejected():
    payload = append_hop_record(encode_probe_header(0), _record())
    with pytest.raises(PacketError):
        append_hop_record(payload + b"x", _record())


def test_bad_version_rejected():
    payload = bytearray(encode_probe_header(0))
    payload[2] = 99
    with pytest.raises(PacketError):
        decode_probe_payload(bytes(payload))


def test_record_field_validation():
    with pytest.raises(PacketError):
        IntHopRecord(switch_id=-1, egress_port=0, max_qdepth=0, link_latency=None, egress_ts=0.0)
    with pytest.raises(PacketError):
        IntHopRecord(switch_id=1, egress_port=300, max_qdepth=0, link_latency=None, egress_ts=0.0)
    with pytest.raises(PacketError):
        IntHopRecord(switch_id=1, egress_port=0, max_qdepth=-2, link_latency=None, egress_ts=0.0)


def test_hop_count_limit():
    payload = encode_probe_header(0)
    for i in range(255):
        payload = append_hop_record(payload, _record(switch_id=i % 100))
    with pytest.raises(PacketError):
        append_hop_record(payload, _record())


def test_encode_hop_record_size():
    assert len(encode_hop_record(_record())) == HOP_RECORD_SIZE


# -- reference codec --------------------------------------------------------
# The wire format spelled out field by field with plain ``struct`` calls, as
# the module docstring documents it: the table-driven codec must agree with
# it on every byte, record and error message.

def _ref_hop_count(payload):
    if len(payload) < 4:
        raise PacketError(f"probe payload truncated: {len(payload)}B < header")
    magic, version, hop_count = struct.unpack_from("!2sBB", payload, 0)
    if magic != b"NT":
        raise PacketError(f"bad probe magic {magic!r}")
    if version != 1:
        raise PacketError(f"unsupported probe version {version}")
    return hop_count


def _ref_record_bytes(switch_id, egress_port, max_qdepth, link_latency, egress_ts):
    if link_latency is None:
        latency_us = NO_LATENCY
    else:
        latency_us = max(-(2**31) + 1, min(2**31 - 1, int(round(link_latency * 1e6))))
    return struct.pack(
        "!HBHiq", switch_id, egress_port, min(max_qdepth, 0xFFFF), latency_us,
        int(round(egress_ts * 1e6)),
    )


def _ref_append(payload, switch_id, egress_port, max_qdepth, link_latency, egress_ts):
    IntHopRecord(switch_id, egress_port, max_qdepth, link_latency, egress_ts)  # range checks
    hop_count = _ref_hop_count(payload)
    if hop_count >= 0xFF:
        raise PacketError("INT stack full (255 hops)")
    if len(payload) != 4 + 17 * hop_count:
        raise PacketError(
            f"probe payload length {len(payload)} inconsistent with hop_count={hop_count}"
        )
    return (
        struct.pack("!2sBB", b"NT", 1, hop_count + 1)
        + payload[4:]
        + _ref_record_bytes(switch_id, egress_port, max_qdepth, link_latency, egress_ts)
    )


def _ref_decode(payload):
    hop_count = _ref_hop_count(payload)
    expected = 4 + 17 * hop_count
    if len(payload) != expected:
        raise PacketError(
            f"probe payload length {len(payload)} != expected {expected} "
            f"for hop_count={hop_count}"
        )
    records = []
    for i in range(hop_count):
        switch_id, port, qdepth, latency_us, ts_us = struct.unpack_from(
            "!HBHiq", payload, 4 + 17 * i
        )
        latency = None if latency_us == NO_LATENCY else latency_us / 1e6
        records.append(IntHopRecord(switch_id, port, qdepth, latency, ts_us / 1e6))
    return records


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PacketError as exc:
        return ("PacketError", str(exc))


# In- and out-of-range on purpose: ids/ports/depths either side of their
# field widths, latencies past the i32 clamp and exactly at the sentinel.
_fields = st.tuples(
    st.integers(-2, 0x10001),
    st.integers(-2, 0x101),
    st.one_of(st.integers(-2, 40), st.integers(0xFFFE, 2**20)),
    st.one_of(
        st.none(),
        st.just(NO_LATENCY / 1e6),
        st.floats(-3000.0, 3000.0, allow_nan=False),
        st.floats(-0.001, 0.05, allow_nan=False),
    ),
    st.floats(0.0, 1e9, allow_nan=False),
)
_valid_fields = st.tuples(
    st.integers(0, 0xFFFF), st.integers(0, 0xFF), st.integers(0, 2**20),
    st.one_of(st.none(), st.floats(-3000.0, 3000.0, allow_nan=False)),
    st.floats(0.0, 1e9, allow_nan=False),
)


@st.composite
def _payloads(draw):
    """Well-formed stacks and the ways they go wrong on the wire."""
    payload = encode_probe_header(0)
    for fields in draw(st.lists(_valid_fields, max_size=6)):
        payload = _ref_append(payload, *fields)
    damage = draw(st.sampled_from(
        ["none", "none", "truncate", "extend", "magic", "version", "count", "full", "noise"]
    ))
    if damage == "truncate":
        payload = payload[: draw(st.integers(0, max(0, len(payload) - 1)))]
    elif damage == "extend":
        payload += draw(st.binary(min_size=1, max_size=2 * HOP_RECORD_SIZE))
    elif damage == "magic":
        payload = b"X" + payload[1:]
    elif damage == "version":
        payload = payload[:2] + bytes([draw(st.integers(2, 255))]) + payload[3:]
    elif damage == "count":
        payload = payload[:3] + bytes([draw(st.integers(0, 255))]) + payload[4:]
    elif damage == "full":
        payload = encode_probe_header(255) + bytes(255 * HOP_RECORD_SIZE)
    elif damage == "noise":
        payload = draw(st.binary(max_size=40))
    return payload


@given(_payloads(), _fields)
@settings(max_examples=400, deadline=None)
def test_codec_matches_reference(payload, fields):
    assert _outcome(append_hop_fields, payload, *fields) == _outcome(_ref_append, payload, *fields)
    assert _outcome(decode_probe_payload, payload) == _outcome(_ref_decode, payload)
    try:
        record = IntHopRecord(*fields)
    except PacketError:
        return
    assert encode_hop_record(record) == _ref_record_bytes(*fields)
    assert _outcome(append_hop_record, payload, record) == _outcome(_ref_append, payload, *fields)


def test_encode_probe_header_is_the_packed_header():
    for hop_count in (0, 1, 254, 255):
        assert encode_probe_header(hop_count) == struct.pack("!2sBB", b"NT", 1, hop_count)
    for bad in (-1, 256):
        with pytest.raises(PacketError):
            encode_probe_header(bad)
