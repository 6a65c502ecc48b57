"""Decision audit trail: records, error stats, ground truth, explanations."""

import math

import pytest

from repro.core.estimators import BandwidthEstimator, DelayEstimator
from repro.core.ranking import explain_bandwidth, explain_delay
from repro.core.telemetry_store import LinkState, TelemetryStore
from repro.obs.audit import (
    DecisionAudit,
    NetworkGroundTruth,
    delay_error_stats,
    node_label,
)
from repro.telemetry.records import host_node, switch_node
from repro.units import mbps


class TestDecisionAudit:
    def test_record_and_snapshot(self):
        audit = DecisionAudit(clock=lambda: 12.4)
        audit.record(
            requester_addr=1,
            metric="delay",
            candidates=[{"server_addr": 2, "value": 0.02}],
            chosen_addr=2,
        )
        snap = audit.snapshot()[0]
        assert snap["kind"] == "decision-audit"
        assert snap["time"] == 12.4
        assert snap["chosen_addr"] == 2
        assert snap["candidates"][0]["value"] == 0.02

    def test_cap(self):
        audit = DecisionAudit(max_decisions=1)
        for _ in range(3):
            audit.record(
                requester_addr=1, metric="delay", candidates=[], chosen_addr=None
            )
        assert len(audit) == 1
        assert audit.dropped_decisions == 2


class TestDelayErrorStats:
    def test_pairs_and_skips(self):
        stats = delay_error_stats(
            [
                {"estimated_delay": 0.03, "truth_delay": 0.01},
                {"estimated_delay": 0.01, "truth_delay": 0.02},
                {"estimated_delay": math.inf, "truth_delay": 0.01},  # unreachable
                {"value": 2, "truth_delay": 0.01},                   # baseline: no estimate
                {"estimated_delay": 0.05},                           # no truth
            ]
        )
        assert stats["samples"] == 2
        assert stats["skipped"] == 3
        assert stats["mean_error"] == pytest.approx((0.02 - 0.01) / 2)
        assert stats["mean_abs_error"] == pytest.approx(0.015)

    def test_empty(self):
        stats = delay_error_stats([])
        assert stats["samples"] == 0
        assert stats["mean_abs_error"] is None


def _seeded_store(sim, path, qdepths=None, latency=0.010):
    """A TelemetryStore that believes in one directed path."""
    store = TelemetryStore(sim)
    store.topology.observe_path(path)
    for u, v in zip(path, path[1:]):
        state = store._links.setdefault((u, v), LinkState())
        state.latency_ewma = latency
        state.latency_updated_at = sim.now
        if qdepths and (u, v) in qdepths:
            state.qdepth_readings.append((sim.now, qdepths[(u, v)]))
            state.qdepth_updated_at = sim.now
    return store


class TestExplanations:
    def test_explain_delay_matches_estimator(self, sim):
        path = [host_node(1), switch_node(1), switch_node(2), host_node(2)]
        store = _seeded_store(
            sim, path, qdepths={(switch_node(1), switch_node(2)): 10}
        )
        est = DelayEstimator(store, k=0.02, qdepth_floor=3)
        detail = explain_delay(est, host_node(1), host_node(2))
        assert detail["value"] == pytest.approx(est.delay_between(host_node(1), host_node(2)))
        assert detail["path"] == [node_label(n) for n in path]
        # The congested switch hop carries the k*Q term; host hop never does.
        by_hop = {(h["u"], h["v"]): h for h in detail["hops"]}
        congested = by_hop[("sw:1", "sw:2")]
        assert congested["qdepth"] == 10
        assert congested["queue_term"] == pytest.approx(0.2)
        assert by_hop[("host:1", "sw:1")]["queue_term"] == 0.0

    def test_explain_delay_below_floor_charges_nothing(self, sim):
        path = [host_node(1), switch_node(1), host_node(2)]
        store = _seeded_store(sim, path, qdepths={(switch_node(1), host_node(2)): 2})
        est = DelayEstimator(store, k=0.02, qdepth_floor=3)
        detail = explain_delay(est, host_node(1), host_node(2))
        hop = detail["hops"][1]
        assert hop["qdepth"] == 2 and hop["queue_term"] == 0.0

    def test_explain_delay_unreachable(self, sim):
        store = TelemetryStore(sim)
        est = DelayEstimator(store)
        detail = explain_delay(est, host_node(1), host_node(9))
        assert detail["value"] == math.inf and detail["hops"] == []

    def test_explain_bandwidth_matches_estimator(self, sim):
        path = [host_node(1), switch_node(1), host_node(2)]
        store = _seeded_store(sim, path, qdepths={(switch_node(1), host_node(2)): 20})
        est = BandwidthEstimator(store, link_capacity_bps=mbps(20))
        detail = explain_bandwidth(est, host_node(1), host_node(2))
        assert detail["value"] == pytest.approx(
            est.throughput_between(host_node(1), host_node(2))
        )
        assert detail["hops"][1]["qdepth"] == 20
        assert 0.0 <= detail["hops"][1]["utilization"] <= 1.0


class TestNetworkGroundTruth:
    def test_idle_path_is_pure_propagation(self, sim, line3):
        truth = NetworkGroundTruth(line3)
        # h1 -> h2 crosses three 10 ms links with empty queues.
        delay = truth.true_delay_between(
            line3.address_of("h1"), line3.address_of("h2")
        )
        assert delay == pytest.approx(0.030)

    def test_backlog_adds_serialization(self, sim, line3):
        net = line3
        h1 = net.host("h1")
        truth = NetworkGroundTruth(net)
        idle = truth.true_delay_between(net.address_of("h1"), net.address_of("h2"))
        # Stuff h1's uplink queue without running the sim: packets sit queued.
        for i in range(5):
            h1.send(h1.new_packet(net.address_of("h2"), dst_port=9, size_bytes=1500))
        loaded = truth.true_delay_between(net.address_of("h1"), net.address_of("h2"))
        assert loaded > idle

    def test_hop_truth_labels(self, sim, line3):
        truth = NetworkGroundTruth(line3)
        sw_id = line3.switch("s01").switch_id
        hop = truth.hop_truth(host_node(line3.address_of("h1")), switch_node(sw_id))
        assert hop["u"].startswith("host:") and hop["v"] == f"sw:{sw_id}"
        assert hop["true_qdepth"] == 0

    def test_unresolvable_path_returns_none(self, sim, line3):
        truth = NetworkGroundTruth(line3)
        assert truth.path_truth([host_node(1), ("sw", 999)]) is None
