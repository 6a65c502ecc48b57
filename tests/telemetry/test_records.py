"""ProbeReport decoding helpers: path, latencies, port observations."""

import copy
import pickle

import pytest

from repro.p4.headers import IntHopRecord
from repro.telemetry.records import ProbeReport, host_node, switch_node


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


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_slotted_records_survive_copy_and_pickle(clone):
    """Both types are slotted (no instance dict; ``IntHopRecord`` frozen as
    well — the combination whose pickling was fixed in Python 3.10).  The
    default protocol is the one ``multiprocessing`` uses; protocols 0/1
    refuse any ``__slots__`` class without ``__getstate__``."""
    report = _report()
    twin = clone(report)
    assert twin == report and twin is not report
    assert clone(report.records[0]) == report.records[0]
    for obj in (report, report.records[0]):
        assert not hasattr(obj, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            obj.extra = 1
