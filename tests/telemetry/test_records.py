"""ProbeReport helpers (path, latencies, port observations), the tuple hop
record and the wire-form INT stack the collector publishes."""

import copy
import pickle
import tracemalloc

import pytest

from repro.errors import PacketError
from repro.p4.headers import (
    PROBE_HEADER_SIZE,
    IntHopRecord,
    IntStack,
    append_hop_record,
    decode_probe_payload,
    encode_probe_header,
)
from repro.telemetry.collector import IntCollector
from repro.telemetry.records import ProbeReport, host_node, switch_node
from repro.units import mbps


def _report():
    """Probe from host 10 through switches 1, 2 to host 20."""
    records = [
        IntHopRecord(switch_id=1, egress_port=2, max_qdepth=5, link_latency=0.010, egress_ts=1.0),
        IntHopRecord(switch_id=2, egress_port=0, max_qdepth=0, link_latency=0.011, egress_ts=1.01),
    ]
    return ProbeReport(
        probe_src=10,
        probe_dst=20,
        seq=1,
        sent_at=0.99,
        received_at=1.02,
        records=records,
        final_link_latency=0.0105,
        collected_at=1.02,
    )


def test_node_id_constructors_disjoint():
    assert switch_node(5) != host_node(5)
    assert switch_node(5) == ("sw", 5)
    assert host_node(5) == ("host", 5)


def test_path_nodes_order():
    assert _report().path_nodes() == [
        host_node(10), switch_node(1), switch_node(2), host_node(20),
    ]


def test_hop_count():
    assert _report().hop_count == 2


def test_link_latencies_alignment():
    """records[i].link_latency belongs to the link *upstream* of switch i;
    the final link gets the receiver-measured latency."""
    links = _report().link_latencies()
    assert links == [
        (host_node(10), switch_node(1), 0.010),
        (switch_node(1), switch_node(2), 0.011),
        (switch_node(2), host_node(20), 0.0105),
    ]


def test_port_observations_point_downstream():
    obs = _report().port_observations()
    assert obs == [
        (switch_node(1), switch_node(2), 2, 5),
        (switch_node(2), host_node(20), 0, 0),
    ]


def test_empty_report():
    report = ProbeReport(
        probe_src=1, probe_dst=2, seq=0, sent_at=0.0, received_at=0.0,
        records=[], final_link_latency=None,
    )
    assert report.path_nodes() == [host_node(1), host_node(2)]
    assert report.link_latencies() == [(host_node(1), host_node(2), None)]
    assert report.port_observations() == []


def _wire(report):
    """``report``'s stack as the probe payload the switches would emit."""
    payload = encode_probe_header(0)
    for record in report.records:
        payload = append_hop_record(payload, record)
    return payload


def _wire_report():
    """``_report()`` as the collector publishes it: records in wire form."""
    report = _report()
    report.records = decode_probe_payload(_wire(report))
    return report


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_slotted_records_survive_copy_and_pickle(clone):
    """Every type is slotted (no instance dict): the report, the wire stack
    and the tuple record.  The default protocol is the one
    ``multiprocessing`` uses; protocols 0/1 refuse any ``__slots__`` class
    without ``__getstate__``.  A cloned record goes back through the
    range-checking constructor."""
    for report in (_report(), _wire_report()):
        twin = clone(report)
        assert twin == report and twin is not report
        assert type(twin.records) is type(report.records)
        assert clone(report.records) == report.records
        record = report.records[0]
        assert clone(record) == record and type(clone(record)) is IntHopRecord
        for obj in (report, record):
            assert not hasattr(obj, "__dict__")
            with pytest.raises((AttributeError, TypeError)):
                obj.extra = 1
        with pytest.raises(AttributeError):
            record.max_qdepth = 7
    stack = report.records
    assert isinstance(stack, IntStack) and not hasattr(stack, "__dict__")
    with pytest.raises(AttributeError):
        stack.extra = 1
    with pytest.raises(TypeError):
        stack[0] = record


def test_record_is_a_checked_tuple():
    record = _report().records[0]
    assert isinstance(record, tuple)
    assert record == (1, 2, 5, 0.010, 1.0)
    assert IntHopRecord(*record) == record
    with pytest.raises(PacketError):
        IntHopRecord(switch_id=1, egress_port=2, max_qdepth=-1, link_latency=None, egress_ts=0.0)


class TestWireStack:
    def test_sequence_protocol(self):
        listed = _report().records
        stack = _wire_report().records
        assert isinstance(stack, IntStack)
        assert len(stack) == 2
        assert list(stack) == listed
        assert [r.switch_id for r in stack] == [1, 2]
        assert stack[0] == listed[0] and stack[1] == listed[1]
        assert stack[-1] == listed[1] and stack[-2] == listed[0]
        for index in (2, -3, 17):
            with pytest.raises(IndexError):
                stack[index]
        assert stack == listed and listed == stack
        assert stack != listed[:1] and stack != tuple(listed)
        assert stack == decode_probe_payload(_wire(_report()))
        assert decode_probe_payload(encode_probe_header(0)) == []

    def test_records_are_decoded_records(self):
        stack = _wire_report().records
        assert all(type(r) is IntHopRecord for r in stack)
        assert type(stack[0]) is IntHopRecord

    def test_bytearray_payload_is_copied(self, sim, line3):
        collector = IntCollector(line3.host("h3"))
        kept = []
        collector.subscribe(kept.append)
        payload = bytearray(_wire(_report()))
        report = collector.ingest_probe(
            probe_src=10, probe_dst=20, seq=1, sent_at=0.0, received_at=0.0,
            payload=payload, final_link_latency=0.0105,
        )
        before = list(report.records)
        payload[PROBE_HEADER_SIZE:] = bytes(len(payload) - PROBE_HEADER_SIZE)
        payload[3] = 0
        assert list(report.records) == before == _report().records
        assert kept == [report]

    def test_malformed_payload_counted_at_ingest(self, sim, line3):
        collector = IntCollector(line3.host("h3"))
        kept = []
        collector.subscribe(kept.append)
        for payload in (_wire(_report())[:-1], b"XX\x01\x00", b"NT"):
            assert collector.ingest_probe(
                probe_src=10, probe_dst=20, seq=1, sent_at=0.0, received_at=0.0,
                payload=payload, final_link_latency=None,
            ) is None
        assert (collector.reports_malformed, collector.reports_ingested) == (3, 0)
        assert kept == []

    def test_kept_reports_stay_small(self, sim, line3):
        """A subscriber that keeps every report (as a capture does) retains
        the report and a view over the payload it was handed: about 145 B
        a report here, where a list of decoded records costs about 540 B."""
        collector = IntCollector(line3.host("h3"))
        kept, retained = _kept_bytes_per_report(collector)
        assert len(kept) == 250 and list(kept[-1].records) == _THREE_HOPS
        assert retained <= 250

    def test_ingest_keeps_nothing_decoded_on_the_report(self, sim, line3):
        """Behind a scheduler's store, which reads every report's fields, a
        kept report is still its payload view and nothing more: the stack
        holds only the wire bytes, and a report stays at the ~145 B a plain
        collector's costs (145.3 B on CPython 3.11).  A larger kept report
        would grow a capture's memory with every ingest."""
        from repro.core.scheduler import NetworkAwareScheduler

        assert IntStack.__slots__ == ("_wire",)
        scheduler = NetworkAwareScheduler(
            line3.host("h3"), [line3.address_of("h1")], link_capacity_bps=mbps(20)
        )
        kept, retained = _kept_bytes_per_report(scheduler.collector)
        assert scheduler.store.reports_processed == 260
        assert not hasattr(kept[-1].records, "__dict__")
        assert retained <= 150


_THREE_HOPS = [
    IntHopRecord(switch_id=s, egress_port=1, max_qdepth=s, link_latency=0.010 + s / 1e6,
                 egress_ts=1.0 + s)
    for s in (3, 4, 5)
]


def _kept_bytes_per_report(collector):
    """Ingest 260 three-hop probes through ``collector`` with a subscriber
    that keeps every report; return the last 250 it kept and the bytes
    (by tracemalloc) those ingests left allocated, per report."""
    kept = []
    collector.subscribe(kept.append)
    payload = encode_probe_header(0)
    for record in _THREE_HOPS:
        payload = append_hop_record(payload, record)
    ingests = [
        dict(probe_src=1, probe_dst=2, seq=1000 + i, sent_at=float(i),
             received_at=i + 0.5, payload=bytes(payload), final_link_latency=0.01)
        for i in range(260)
    ]
    for kwargs in ingests[:10]:
        collector.ingest_probe(**kwargs)
    kept.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for kwargs in ingests[10:]:
            collector.ingest_probe(**kwargs)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept, retained / 250
