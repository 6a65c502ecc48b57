"""Property tests: the one-call INT decode and the store's ingest from it.

* ``IntStack.fields()`` (one unpack per hop count) reads the same
  ``(switch_id, max_qdepth, link_latency)`` per hop as ``hop_fields()``, on
  stacks of 0-255 hops with unmeasured latencies and both fields at their
  wire clamps.
* ``TelemetryStore.update`` fed the wire-form reports of a drawn probe
  stream leaves every ``LinkState`` (floats compared with ``==``), every
  node stamp and every ingest plan where feeding the hand-built record
  lists of the same probes leaves them, and both where the three-view
  reference of ``tests/core/test_telemetry_store.py`` leaves them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.telemetry_store import TelemetryStore
from repro.p4.headers import (
    NO_LATENCY,
    append_hop_fields,
    decode_probe_payload,
    encode_probe_header,
)
from repro.telemetry.records import ProbeReport
from tests.core.test_telemetry_store import _reference_update

# Latencies in seconds: unmeasured, ordinary, and past both ends of the
# signed 32-bit microsecond field (the append clamps them).
latencies = st.one_of(
    st.none(),
    st.floats(min_value=-0.01, max_value=0.5, allow_nan=False),
    st.sampled_from([-2148.0, -2147.483647, 2147.483647, 2148.0, 1e9]),
)
# Queue depths up to past the 16-bit field (clamped to 0xFFFF).
qdepths = st.one_of(st.integers(0, 70), st.integers(0xFFF0, 0x1FFFF))


def _hop(switch_ids):
    return st.tuples(switch_ids, st.integers(0, 0xFF), qdepths, latencies,
                     st.floats(min_value=0.0, max_value=1e3, allow_nan=False))


def _payload(hops):
    payload = encode_probe_header(0)
    for hop in hops:
        payload = append_hop_fields(payload, *hop)
    return payload


@given(st.integers(0, 255), st.lists(_hop(st.integers(0, 0xFFFF)), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_flat_decode_equals_hop_fields(count, drawn):
    # ``count`` hops cycling through the drawn ones: every stack length,
    # without drawing up to 255 hops field by field.
    hops = [drawn[i % len(drawn)] for i in range(count)]
    stack = decode_probe_payload(_payload(hops))
    fields = stack.fields()
    assert len(fields) == 3 * len(stack) == 3 * len(hops)
    decoded = [
        (switch_id, qdepth, None if latency == NO_LATENCY else latency / 1e6)
        for switch_id, qdepth, latency in zip(fields[::3], fields[1::3], fields[2::3])
    ]
    assert decoded == stack.hop_fields()
    assert [qdepth for _s, qdepth, _l in decoded] == [min(hop[2], 0xFFFF) for hop in hops]


# A small switch id space, so drawn paths share (and revisit) links.
probes = st.tuples(
    st.integers(1, 3),                                      # probe_src
    st.integers(1, 3),                                      # probe_dst
    st.lists(_hop(st.integers(1, 4)), max_size=6),          # INT stack
    latencies,                                              # final link
    st.floats(min_value=0.0, max_value=0.2, allow_nan=False),  # clock step
)


@given(st.lists(probes, min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_wire_and_hand_built_reports_ingest_alike(stream):
    class Clock:
        now = 0.0

    clock = Clock()
    wire_store = TelemetryStore(clock, staleness=2.0, qdepth_window=0.05)
    list_store = TelemetryStore(clock, staleness=2.0, qdepth_window=0.05)
    links, node_seen = {}, {}
    for seq, (src, dst, hops, final, step) in enumerate(stream):
        clock.now += step
        stack = decode_probe_payload(_payload(hops))
        wire = ProbeReport(src, dst, seq, 0.0, 0.0, stack, final)
        hand_built = ProbeReport(src, dst, seq, 0.0, 0.0, list(stack), final)
        wire_store.update(wire)
        list_store.update(hand_built)
        _reference_update(links, node_seen, hand_built, clock.now, 0.05)
        assert wire_store._links == list_store._links == links
        assert list(wire_store._links) == list(list_store._links) == list(links)
        assert wire_store._node_seen == list_store._node_seen == node_seen
        assert wire_store._ingest_plans == list_store._ingest_plans
        assert wire_store.reports_processed == list_store.reports_processed == seq + 1
