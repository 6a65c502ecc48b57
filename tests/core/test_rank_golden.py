"""Golden digests of ``rank()``: the ranked values are a byte contract.

Two streams drive a network-aware scheduler on an idle Fig. 4 network with
the test suite's recorded mesh reports, re-encoded to wire payloads and fed
through ``IntCollector.ingest_probe``, one ingest per four ranks.  The
sha256 of ``repr()`` of every ranking pins values, tie-breaks and candidate
order for the delay, bandwidth and raw metrics at once.

* ``fresh``: 3 000 ranks, the clock moving 5 ms per ingest — the window
  evicts, and links no later report refreshes cross the staleness horizon.
* ``degraded``: ``quarantine_ttl=0.04`` and idle gaps cycling past the TTL,
  the queue-depth window and the staleness horizon, so the quarantine
  partition, both stale rankers and every stale branch of the per-link
  rules run.

Recorded before rankings were served from cached per-path link plans and
before reports kept their INT stack in wire form.  Both digests also
predate the prefix-tree walk that prices all of a requester's candidates in
one pass.
"""

import hashlib

from repro.obs.perf import count_ops
from repro.p4.headers import append_hop_record, encode_probe_header
from tests.properties.test_property_inference import _fed_scheduler, _fig4_mesh_reports

GOLDEN_FRESH = "92de90e0cdb5091c1500271c7daca669ebd4ec1811a96d076420a98f72553d98"
GOLDEN_DEGRADED = "f8a1237edef32efc6c454871e72968a26ed94b591017348dc4d583e27dca12d8"

METRICS = ("delay", "bandwidth", "raw")
# Idle gaps of the degraded stream: past the TTL (0.04 s), past the
# queue-depth window (0.1 s), past the staleness horizon (2 s).
IDLE_GAPS = (0.05, 0.15, 2.5)


def _ingests():
    """Every recorded report as the keyword arguments ``ingest_probe`` takes."""
    out = []
    for report in _fig4_mesh_reports():
        payload = encode_probe_header(0)
        for record in report.records:
            payload = append_hop_record(payload, record)
        out.append(dict(
            probe_src=report.probe_src, probe_dst=report.probe_dst, seq=report.seq,
            sent_at=report.sent_at, received_at=report.received_at,
            payload=payload, final_link_latency=report.final_link_latency,
        ))
    return out


def _stream(quarantine_ttl, ranks, step, gaps=(), counts=None):
    """``ranks`` rank() results cycling requesters (outer) and metrics
    (inner), one ingest every fourth rank with the clock ``step`` further
    on; every 100th rank the clock also jumps by the next of ``gaps``.
    With ``counts``, the bytecodes each rank() call executes add into it
    (:func:`repro.obs.perf.count_ops`); nothing else is counted."""
    sim, scheduler = _fed_scheduler(quarantine_ttl)
    collector = scheduler.collector
    ingests = _ingests()
    requesters = scheduler.server_addrs
    results = []
    quarantined = 0
    clock = 0.0
    for i in range(ranks):
        if i % 4 == 0:
            clock += step
            sim.run(until=clock)
            assert collector.ingest_probe(**ingests[(i // 4) % len(ingests)]) is not None
        if gaps and i % 100 == 99:
            clock += gaps[(i // 100) % len(gaps)]
            sim.run(until=clock)
        requester = requesters[(i // len(METRICS)) % len(requesters)]
        metric = METRICS[i % len(METRICS)]
        if counts is None:
            results.append(scheduler.rank(requester, metric))
        else:
            count_ops(lambda: results.append(scheduler.rank(requester, metric)), counts)
        quarantined += bool(scheduler.quarantined_nodes)
    return results, collector.reports_ingested, quarantined


def _digest(results) -> str:
    return hashlib.sha256(repr(results).encode("utf-8")).hexdigest()


def fresh_stream(counts=None):
    """The ``fresh`` stream: 3 000 ranks, no quarantine, 5 ms per ingest."""
    return _stream(None, 3000, 0.005, counts=counts)


def test_fresh_stream_matches_golden_digest():
    results, ingested, quarantined = fresh_stream()
    assert (ingested, quarantined) == (750, 0)
    assert _digest(results) == GOLDEN_FRESH


def test_degraded_stream_matches_golden_digest():
    results, ingested, quarantined = _stream(0.04, 3000, 0.002, IDLE_GAPS)
    # Not vacuous: some rankings ran with candidates quarantined.
    assert ingested == 750 and quarantined > 0
    assert _digest(results) == GOLDEN_DEGRADED


def test_rank_op_counts_repeat_on_fresh_stream():
    """The bytecode ruler reads the same count twice on the same stream,
    and counting leaves the rankings as they were."""
    first, second = {}, {}
    results, _ingested, _quarantined = fresh_stream(first)
    fresh_stream(second)
    assert first == second
    assert sum(first.values()) > 0
    assert _digest(results) == GOLDEN_FRESH
