"""Structured event log: typed helpers, caps, and snapshots."""

import pytest

from repro.obs.events import EVENT_KINDS, EventLog


class TestEmission:
    def test_clock_stamps_events(self):
        t = [1.5]
        log = EventLog(clock=lambda: t[0])
        log.warning("boom")
        t[0] = 3.0
        log.packet_dropped(queue="s1[0]", flow_id=7)
        assert [e.time for e in log.events] == [1.5, 3.0]

    def test_time_override_for_mirroring(self):
        log = EventLog(clock=lambda: 99.0)
        log.task_transition(task_id=1, state="submitted", time=0.25)
        assert log.events[0].time == 0.25

    def test_typed_helpers_cover_schema(self):
        log = EventLog()
        log.probe_sent(src=1, dst=2, seq=3)
        log.probe_received(src=1, dst=2, seq=3, hops=4)
        log.probe_lost(src=1, dst=2, seq=9, lost=2)
        log.queue_threshold(queue="s1[0]", depth=48, threshold=48, direction="up")
        log.task_transition(task_id=5, state="failed")
        log.warning("bad probe", src=1)
        log.packet_dropped(queue="s1[1]")
        log.fault_injected(fault="link_down", target="s01<->s02")
        log.fault_recovered(fault="link_up", target="s01<->s02")
        log.node_quarantined(node="node7", age=3.5)
        log.node_unquarantined(node="node7")
        log.alert(rule="queue_saturation", series="queue_depth_frac",
                  target="queue=s1[0]", value=0.95, threshold=0.9,
                  state="fire", time=1.0)
        log.runner_run_retry(spec_hash="abc123", attempt=1,
                             failure_kind="crash", error_type="WorkerCrash",
                             backoff_s=0.5)
        log.cache_corrupt(spec_hash="abc123", reason="checksum mismatch")
        assert set(log.counts_by_kind()) == set(EVENT_KINDS)

    def test_snapshot_is_jsonl_ready(self):
        import json

        log = EventLog()
        log.probe_lost(src=1, dst=2, seq=9, lost=2)
        snap = log.snapshot()[0]
        assert snap["kind"] == "event"
        assert snap["event"] == "probe_lost"
        assert snap["lost"] == 2
        json.dumps(snap)  # must be JSON-native


class TestBounds:
    def test_cap_counts_but_drops(self):
        log = EventLog(max_events=2)
        for i in range(5):
            log.warning("w", i=i)
        assert len(log) == 2
        assert log.dropped_events == 3
        assert log.counts_by_kind() == {"warning": 5}  # emits, not retained

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            EventLog(max_events=0)


class TestQueries:
    def test_of_kind_filters(self):
        log = EventLog()
        log.warning("a")
        log.probe_sent(src=1, dst=2, seq=1)
        log.warning("b")
        assert [e.fields["reason"] for e in log.of_kind("warning")] == ["a", "b"]
