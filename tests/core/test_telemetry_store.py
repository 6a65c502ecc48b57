"""Telemetry store: latency smoothing, windowed max queue, staleness."""

import pytest

from repro.core.telemetry_store import TelemetryStore
from repro.p4.headers import IntHopRecord
from repro.telemetry.records import ProbeReport, host_node, switch_node

H = host_node
S = switch_node


def _report(qdepth=0, latency=0.010, seq=0):
    records = [
        IntHopRecord(switch_id=1, egress_port=1, max_qdepth=qdepth, link_latency=latency, egress_ts=0.0)
    ]
    return ProbeReport(
        probe_src=10, probe_dst=20, seq=seq, sent_at=0.0, received_at=0.0,
        records=records, final_link_latency=latency,
    )


@pytest.fixture
def store(sim):
    return TelemetryStore(sim, staleness=2.0, qdepth_window=0.1)


def _advance(sim, dt):
    sim.schedule(dt, lambda: None)
    sim.run()


class TestLatency:
    def test_first_sample_sets_ewma(self, sim, store):
        store.update(_report(latency=0.012))
        assert store.link_delay(H(10), S(1)) == pytest.approx(0.012)

    def test_ewma_smoothing(self, sim, store):
        store.update(_report(latency=0.010))
        store.update(_report(latency=0.020))
        # alpha = 0.3: 0.3*0.020 + 0.7*0.010 = 0.013
        assert store.link_delay(H(10), S(1)) == pytest.approx(0.013)

    def test_default_when_unknown(self, sim, store):
        assert store.link_delay(S(5), S(6), default=0.042) == 0.042

    def test_stale_latency_returns_default(self, sim, store):
        store.update(_report(latency=0.010))
        _advance(sim, 3.0)  # beyond staleness=2.0
        assert store.link_delay(H(10), S(1), default=0.099) == 0.099

    def test_final_link_latency_recorded(self, sim, store):
        store.update(_report(latency=0.010))
        assert store.link_delay(S(1), H(20)) == pytest.approx(0.010)


class TestQdepth:
    def test_reading_recorded(self, sim, store):
        store.update(_report(qdepth=12))
        assert store.max_qdepth(S(1), H(20)) == 12

    def test_windowed_max_keeps_larger_reading(self, sim, store):
        """A second probe microseconds later reads the reset register (0);
        the store must not let it mask the real reading."""
        store.update(_report(qdepth=15))
        store.update(_report(qdepth=0))
        assert store.max_qdepth(S(1), H(20)) == 15

    def test_new_window_replaces_value(self, sim, store):
        store.update(_report(qdepth=15))
        _advance(sim, 0.2)  # past qdepth_window=0.1
        store.update(_report(qdepth=3))
        assert store.max_qdepth(S(1), H(20)) == 3

    def test_larger_value_always_wins_within_window(self, sim, store):
        store.update(_report(qdepth=3))
        store.update(_report(qdepth=9))
        assert store.max_qdepth(S(1), H(20)) == 9

    def test_stale_qdepth_reads_zero(self, sim, store):
        store.update(_report(qdepth=20))
        _advance(sim, 3.0)
        assert store.max_qdepth(S(1), H(20)) == 0

    def test_unknown_link_reads_zero(self, sim, store):
        assert store.max_qdepth(S(9), S(8)) == 0


class TestTopologyIntegration:
    def test_update_learns_topology(self, sim, store):
        store.update(_report())
        assert store.topology.has_edge(H(10), S(1))
        assert store.topology.has_edge(S(1), H(20))

    def test_reports_counted(self, sim, store):
        store.update(_report(seq=1))
        store.update(_report(seq=2))
        assert store.reports_processed == 2

    def test_link_state_inspection(self, sim, store):
        store.update(_report(qdepth=4, latency=0.011))
        state = store.link_state(S(1), H(20))
        assert state.max_qdepth == 4
        assert store.link_state(S(9), S(8)) is None

    def test_known_link_count(self, sim, store):
        store.update(_report())
        # h10->s1 (latency only) and s1->h20 (latency + qdepth).
        assert store.known_link_count() == 2


class _Now:
    """Stand-in for the simulator: the store only ever reads ``sim.now``."""

    now = 0.0


def _reference_update(links, node_seen, report, now, window):
    """``TelemetryStore.update`` written the long way round, from the three
    views a :class:`ProbeReport` offers."""
    from repro.core.telemetry_store import EWMA_ALPHA, LinkState

    for node in report.path_nodes():
        node_seen[node] = now
    for u, v, latency in report.link_latencies():
        state = links.setdefault((u, v), LinkState())
        if latency is not None:
            state.latency = latency
            if state.latency_ewma is None:
                state.latency_ewma = latency
            else:
                state.latency_ewma = EWMA_ALPHA * latency + (1.0 - EWMA_ALPHA) * state.latency_ewma
            state.latency_updated_at = now
            state.samples += 1
    for sw, downstream, _port, qdepth in report.port_observations():
        state = links.setdefault((sw, downstream), LinkState())
        readings = state.qdepth_readings
        while readings and now - readings[0][0] > window:
            readings.popleft()
        while readings and readings[-1][1] <= qdepth:
            readings.pop()
        readings.append((now, qdepth))
        state.qdepth_updated_at = now


def _recorded_reports():
    """(ingest time, report) pairs from one simulated second of mesh probing
    on the Fig. 4 network under CBR cross-traffic, plus the shapes a real
    capture never contains."""
    from repro.core.scheduler import NetworkAwareScheduler
    from repro.experiments.fig4_topology import build_fig4_network
    from repro.simnet.engine import Simulator
    from repro.simnet.flows import UdpCbrFlow, UdpSink
    from repro.simnet.random import run_streams
    from repro.telemetry.probe import ProbeResponder, ProbeSender
    from repro.units import mbps

    sim = Simulator()
    topo = build_fig4_network(sim, run_streams(7))
    net = topo.network
    scheduler = NetworkAwareScheduler(
        net.host(topo.scheduler_name),
        [net.address_of(n) for n in topo.worker_names],
        link_capacity_bps=topo.fabric_rate_bps,
        default_link_delay=topo.link_delay,
    )
    recorded = []
    scheduler.collector.subscribe(lambda report: recorded.append((sim.now, report)))
    addrs = [net.address_of(n) for n in topo.node_names]
    for name in topo.node_names:
        host = net.host(name)
        if name == topo.scheduler_name:
            ProbeResponder(host, collector=scheduler.collector)
        else:
            ProbeResponder(host, collector_addr=topo.scheduler_addr)
        targets = [a for a in addrs if a != host.addr]
        ProbeSender(host, targets, interval=0.05, probe_size=256).start()
    # Enough cross-traffic to put non-zero depths in the registers.
    first, last = topo.worker_names[0], topo.worker_names[-1]
    UdpSink(net.host(last))
    UdpCbrFlow(net.host(first), net.address_of(last), mbps(18), burstiness="cbr").start()
    sim.run(until=1.0)
    assert len(recorded) > 500
    assert any(r.max_qdepth for _t, rep in recorded for r in rep.records)

    def hop(switch_id, qdepth, latency):
        return IntHopRecord(switch_id, 1, qdepth, latency, 0.0)

    end = recorded[-1][0]
    extras = [
        # A path that crosses the same directed link twice.
        ProbeReport(1, 2, 1, 0.0, 0.0, [hop(3, 5, None), hop(4, 9, 0.01), hop(3, 2, 0.02),
                                        hop(4, 7, 0.03)], 0.011),
        # No switch at all, and no last-hop measurement.
        ProbeReport(1, 2, 2, 0.0, 0.0, [], None),
        # Long after the window: every earlier reading on s3->s4 is evicted.
        ProbeReport(1, 2, 3, 0.0, 0.0, [hop(3, 1, None), hop(4, 0, 0.012)], 0.010),
    ]
    return recorded + [(end + 0.01 * (i + 1) ** 3, rep) for i, rep in enumerate(extras)]


class TestUpdateMatchesReference:
    def test_single_pass_update_equals_three_view_reference(self):
        clock = _Now()
        store = TelemetryStore(clock, staleness=2.0, qdepth_window=0.05)
        links, node_seen = {}, {}
        for now, report in _recorded_reports():
            clock.now = now
            store.update(report)
            _reference_update(links, node_seen, report, now, store.qdepth_window)
            # Dict equality ignores order; the lists pin insertion order.
            assert store._links == links
            assert list(store._links) == list(links)
            assert store._node_seen == node_seen
            assert list(store._node_seen) == list(node_seen)
        assert store.reports_processed > 500
        assert store.topology.edges() == set(links)
        assert any(len(s.qdepth_readings) > 1 for s in links.values())
