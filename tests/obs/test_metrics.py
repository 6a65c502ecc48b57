"""Metrics registry: instruments, caching, clocks, and the null sink."""

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    NULL_SINK,
    NullSink,
)


class TestNullSink:
    def test_falsy(self):
        assert not NULL_SINK
        assert not bool(NullSink())

    def test_absorbs_any_chain(self):
        # Unguarded instrumentation degrades to no-ops returning the sink.
        out = NULL_SINK.metrics.counter("x", node="n1").inc(3)
        assert isinstance(out, NullSink)
        assert NULL_SINK.events.packet_dropped(queue="q") is NULL_SINK


class TestCounter:
    def test_increment_and_timestamp(self):
        t = [0.0]
        reg = MetricsRegistry(clock=lambda: t[0])
        c = reg.counter("probes_sent_total", node="h1")
        c.inc()
        t[0] = 2.5
        c.inc(4)
        assert c.value == 5.0
        assert c.updated_at == 2.5

    def test_rejects_negative(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_snapshot_shape(self):
        c = MetricsRegistry().counter("x", a="1")
        c.inc()
        snap = c.snapshot()
        assert snap["kind"] == "metric"
        assert snap["type"] == "counter"
        assert snap["labels"] == {"a": "1"}
        assert snap["value"] == 1.0


class TestGauge:
    def test_set_and_add(self):
        g = MetricsRegistry().gauge("queue_depth", port="s1[0]")
        assert g.value is None
        g.set(7.0)
        g.add(-2.0)
        assert g.value == 5.0


class TestHistogram:
    def test_bucketing(self):
        h = MetricsRegistry().histogram("delay", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == {"0.01": 1, "0.1": 1, "1.0": 1, "+Inf": 1}
        assert snap["min"] == 0.005 and snap["max"] == 5.0
        assert snap["mean"] == pytest.approx(sum((0.005, 0.05, 0.5, 5.0)) / 4)

    def test_boundary_lands_in_bucket(self):
        h = Histogram("x", (), lambda: 0.0, buckets=(1.0, 2.0))
        h.observe(1.0)  # bisect_left: a value equal to a bound fills it
        assert h.counts[0] == 1

    def test_empty_mean_is_none(self):
        h = MetricsRegistry().histogram("x")
        assert h.mean is None


class TestRegistry:
    def test_same_name_labels_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1) is reg.counter("x", a=1)
        assert reg.counter("x", a=1) is not reg.counter("x", a=2)
        assert len(reg) == 2

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x", other="label")

    def test_bind_clock_rewires_existing(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        reg.bind_clock(lambda: 42.0)
        c.inc()
        assert c.updated_at == 42.0

    def test_snapshot_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.gauge("a").set(1)
        snaps = reg.snapshot()
        assert [s["name"] for s in snaps] == ["a", "b"]
        assert len(reg.instruments()) == 2
