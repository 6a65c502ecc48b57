"""Span tracing: assembly, segment telescoping, exports, and the report."""

import json
import math
from types import SimpleNamespace

import pytest

from repro.edge.metrics import TaskRecord
from repro.edge.task import SizeClass
from repro.obs.tracing import (
    SEGMENT_NAMES,
    SpanTracer,
    render_trace_report,
    task_segments,
    write_chrome_trace,
)
from repro.simnet.trace import HopEvent


def _record(**overrides):
    base = dict(
        task_id=1,
        job_id=1,
        device="d01",
        workload="serverless",
        size_class=SizeClass.VS,
        data_bytes=500_000,
        exec_time=0.8,
        submitted_at=1.0,
        server_addr=42,
        ranking_received_at=1.1,
        transfer_started=1.1,
        transfer_completed=1.6,
        result_received_at=3.0,
        retransmissions=0,
        failed=False,
    )
    base.update(overrides)
    return TaskRecord(**base)


def _traced_task(tracer, record, *, arrived=1.5, exec_start=1.7, exec_end=2.5):
    """Stage the server-side lifecycle and assemble one task trace."""
    for event, t in (
        ("arrived", arrived),
        ("exec_start", exec_start),
        ("exec_end", exec_end),
        ("result_sent", exec_end),
    ):
        tracer._clock = lambda t=t: t
        tracer.task_server_event(record.task_id, event, server_addr=record.server_addr)
    tracer.assemble([record])


class TestSegments:
    def test_segments_telescope_to_completion_time(self):
        record = _record()
        segments = task_segments(
            record, arrived=1.5, exec_start=1.7, exec_end=2.5
        )
        assert set(segments) == set(SEGMENT_NAMES)
        assert sum(segments.values()) == pytest.approx(
            record.completion_time, abs=1e-12
        )

    def test_missing_boundary_returns_none(self):
        record = _record()
        assert task_segments(record, arrived=None, exec_start=1.7, exec_end=2.5) is None
        assert task_segments(
            _record(failed=True), arrived=1.5, exec_start=1.7, exec_end=2.5
        ) is None
        assert task_segments(
            _record(ranking_received_at=None), arrived=1.5, exec_start=1.7, exec_end=2.5
        ) is None

    def test_non_monotone_boundaries_rejected(self):
        # An exec_start before arrival (overlapping retry attempts) must not
        # produce a negative segment.
        record = _record()
        assert task_segments(record, arrived=1.8, exec_start=1.7, exec_end=2.5) is None


class TestTaskAssembly:
    def test_span_tree_shape(self):
        tracer = SpanTracer()
        record = _record()
        _traced_task(tracer, record)
        names = [s.name for s in tracer.spans]
        assert names == [
            "task", "scheduling", "transfer", "server_queue",
            "execute", "result_return",
        ]
        root = tracer.spans[0]
        assert root.parent_id is None
        assert all(s.parent_id == root.span_id for s in tracer.spans[1:])
        assert root.attributes["segments"] is not None
        assert root.attributes["end_to_end"] == pytest.approx(2.0)

    def test_decision_span_nested_under_scheduling(self):
        tracer = SpanTracer()
        record = _record()
        tracer.task_request(record.task_id, request_id=7)
        tracer._clock = lambda: 1.0
        tracer.decision_query(7)
        tracer._clock = lambda: 1.05
        tracer.decision(7, scheduler="NetworkAwareScheduler", estimated_delay=math.inf)
        _traced_task(tracer, record)
        by_name = {s.name: s for s in tracer.spans}
        decision = by_name["scheduler_decision"]
        assert decision.parent_id == by_name["scheduling"].span_id
        # inf never reaches the wire (canonical_json rejects it).
        assert decision.attributes["estimated_delay"] is None

    def test_failed_task_root_closes_at_last_event(self):
        tracer = SpanTracer()
        record = _record(failed=True, result_received_at=None)
        _traced_task(tracer, record)
        root = tracer.spans[0]
        assert root.attributes["failed"] is True
        assert root.attributes["segments"] is None
        assert root.end == 2.5  # last server event

    def test_assemble_is_idempotent(self):
        tracer = SpanTracer()
        record = _record()
        _traced_task(tracer, record)
        n = len(tracer.spans)
        tracer.assemble([record])
        assert len(tracer.spans) == n


class TestProbeAssembly:
    def _hop(self, t, node, kind, depth=None):
        return HopEvent(
            time=t, node=node, kind=kind, packet_id=9,
            flow_id=-1, seq=1, size_bytes=64, enq_depth=depth,
        )

    def test_probe_trace_with_hops(self):
        tracer = SpanTracer()
        tracer._clock = lambda: 0.0
        tracer.probe_sent(src=1, dst=5, seq=1, packet_id=9)
        tracer._clock = lambda: 0.02
        tracer.probe_ingested(src=1, dst=5, seq=1, hops=2)

        class FakeTracer:
            events = [
                self._hop(0.005, "s01", "ingress"),
                self._hop(0.006, "s01", "egress", depth=3),
                self._hop(0.015, "s02", "ingress"),
                HopEvent(time=0.016, node="s02", kind="truncated",
                         packet_id=-1, flow_id=-1, seq=-1, size_bytes=0),
            ]

        tracer.packet_tracer = FakeTracer()
        tracer.assemble([])
        names = [s.name for s in tracer.spans]
        assert names == ["probe", "hop", "hop", "collect"]
        root, hop1, hop2, collect = tracer.spans
        assert root.attributes["lost"] is False
        assert hop1.attributes == {"node": "s01", "dropped": False, "enq_depth": 3}
        assert hop2.attributes["node"] == "s02"
        assert collect.attributes["hops_applied"] == 2
        # The truncation sentinel (packet_id -1) never joins a probe trace.
        assert all(s.start >= 0.0 for s in tracer.spans)

    def test_lost_probe_marked(self):
        tracer = SpanTracer()
        tracer._clock = lambda: 0.0
        tracer.probe_sent(src=1, dst=5, seq=1, packet_id=9)
        tracer.assemble([])
        root = tracer.spans[0]
        assert root.attributes["lost"] is True
        assert root.end == root.start  # no hops seen either
        assert [s.name for s in tracer.spans] == ["probe"]

    def test_sampling(self):
        tracer = SpanTracer(probe_sample=25)
        assert tracer.wants_probe(1)
        assert not tracer.wants_probe(2)
        assert tracer.wants_probe(26)
        # The packet tracer it attaches samples the same probes (the nodes
        # offer a probes_only observer nothing but probes).
        tracer.trace_packets([])
        packets = tracer.packet_tracer
        assert packets.probes_only

        class Node:
            name = "s01"
            sim = SimpleNamespace(now=0.5)

        def probe(seq):
            return SimpleNamespace(packet_id=seq, flow_id=0, seq=seq, size_bytes=256)

        for seq in (1, 2, 26, 27):
            packets.record(Node, "ingress", probe(seq))
        assert [e.seq for e in packets.events] == [1, 26]


class TestOverflow:
    def test_max_spans_cap_counts_drops(self):
        tracer = SpanTracer(max_spans=2)
        assert tracer.record_span("t", "a", 0.0, 1.0) == 1
        assert tracer.record_span("t", "b", 0.0, 1.0) == 2
        assert tracer.record_span("t", "c", 0.0, 1.0) is None
        assert tracer.record_span("t", "d", 0.0, 1.0) is None
        assert len(tracer.spans) == 2
        assert tracer.dropped_spans == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SpanTracer(probe_sample=0)
        with pytest.raises(ValueError):
            SpanTracer(max_spans=0)


def _span_records():
    tracer = SpanTracer()
    record = _record()
    tracer.task_request(record.task_id, request_id=7)
    tracer._clock = lambda: 1.0
    tracer.decision_query(7)
    tracer._clock = lambda: 1.05
    tracer.decision(
        7, scheduler="NetworkAwareScheduler", estimated_delay=0.09,
        telemetry_age_max=0.03,
    )
    _traced_task(tracer, record)
    out = []
    for snap in tracer.snapshot():
        snap["run"] = {"policy": "aware", "seed": "3"}
        out.append(snap)
    return out


class TestReport:
    def test_empty(self):
        assert "no span records found" in render_trace_report([])
        assert "no span records found" in render_trace_report(
            [{"kind": "metric", "name": "x"}]
        )

    def test_decomposition_and_estimate(self):
        text = render_trace_report(_span_records())
        assert "1 task, 0 probe" in text
        assert "policy=aware" in text
        assert "critical path" in text
        for name in SEGMENT_NAMES:
            assert name in text
        assert "max residual" in text
        assert "Algorithm-1 estimate" in text
        assert "vs measured transfer" in text
        assert "telemetry snapshot age at decision" in text


class TestChromeExport:
    def test_structure(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(_span_records(), str(path))
        assert n == 7  # task root + 5 segments + decision
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == n
        assert {m["name"] for m in metas} == {"process_name", "thread_name"}
        root = next(e for e in xs if e["name"] == "task")
        assert root["ts"] == pytest.approx(1.0 * 1e6)
        assert root["dur"] == pytest.approx(2.0 * 1e6)
        assert root["cat"] == "task"
        # Children reference the root via args.parent_id.
        child = next(e for e in xs if e["name"] == "scheduling")
        assert child["args"]["parent_id"] == root["args"]["span_id"]

    def test_non_span_records_skipped(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace([{"kind": "metric", "name": "x"}], str(path))
        assert n == 0
        assert json.loads(path.read_text())["traceEvents"] == []
