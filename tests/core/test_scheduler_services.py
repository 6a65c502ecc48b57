"""Scheduler services over the wire: protocol, baselines, network-aware."""

import pytest

from repro.core.baselines import NearestScheduler, RandomScheduler
from repro.core.client import SchedulerClient
from repro.core.scheduler import METRIC_BANDWIDTH, METRIC_DELAY, NetworkAwareScheduler
from repro.errors import SchedulingError
from repro.experiments.fig4_topology import build_fig4_network
from repro.simnet.random import RandomStreams
from repro.telemetry.probe import ProbeResponder, ProbeSender
from repro.units import mbps


@pytest.fixture
def fig4(sim, streams):
    return build_fig4_network(sim, streams)


def _worker_addrs(topo):
    return [topo.network.address_of(n) for n in topo.worker_names]


def _query(sim, topo, metric=METRIC_DELAY, device="node1", warmup=0.0):
    """Round-trip one query from a device; returns the ranking.

    ``warmup`` lets probe telemetry accumulate before the query — a live
    deployment queries a scheduler that has been collecting for a while."""
    if warmup > 0:
        sim.run(until=sim.now + warmup)
    client = SchedulerClient(topo.network.host(device), topo.scheduler_addr)
    out = []
    client.query(metric, out.append)
    sim.run(until=sim.now + 5.0)
    assert out, "no scheduler response"
    return out[0]


class TestProtocol:
    def test_query_response_roundtrip(self, sim, fig4):
        NearestScheduler(
            fig4.network.host(fig4.scheduler_name), _worker_addrs(fig4), fig4.network
        )
        ranking = _query(sim, fig4)
        assert len(ranking) == 6  # 7 workers minus the requester

    def test_requester_excluded_from_ranking(self, sim, fig4):
        NearestScheduler(
            fig4.network.host(fig4.scheduler_name), _worker_addrs(fig4), fig4.network
        )
        ranking = _query(sim, fig4, device="node3")
        assert fig4.network.address_of("node3") not in [a for a, _ in ranking]

    def test_garbage_query_ignored(self, sim, fig4):
        sched = NearestScheduler(
            fig4.network.host(fig4.scheduler_name), _worker_addrs(fig4), fig4.network
        )
        h = fig4.network.host("node1")
        h.send(h.new_packet(fig4.scheduler_addr, dst_port=5000, message="garbage"))
        sim.run(until=1.0)
        assert sched.queries_served == 0

    def test_needs_servers(self, sim, fig4):
        with pytest.raises(SchedulingError):
            NearestScheduler(fig4.network.host(fig4.scheduler_name), [], fig4.network)


class TestNearest:
    def test_in_pod_neighbor_ranked_first(self, sim, fig4):
        """node7 and node8 are each other's nearest nodes (paper text)."""
        sched = NearestScheduler(
            fig4.network.host(fig4.scheduler_name), _worker_addrs(fig4), fig4.network
        )
        ranking = _query(sim, fig4, device="node7")
        assert ranking[0][0] == fig4.network.address_of("node8")
        assert ranking[0][1] == 3.0  # 3 switch hops

    def test_hop_distances_symmetric(self, sim, fig4):
        sched = NearestScheduler(
            fig4.network.host(fig4.scheduler_name), _worker_addrs(fig4), fig4.network
        )
        a = fig4.network.address_of("node1")
        b = fig4.network.address_of("node4")
        assert sched.hop_distance(a, b) == sched.hop_distance(b, a)

    def test_unknown_pair_rejected(self, sim, fig4):
        sched = NearestScheduler(
            fig4.network.host(fig4.scheduler_name), _worker_addrs(fig4), fig4.network
        )
        with pytest.raises(SchedulingError):
            sched.hop_distance(1, 999)


class TestRandom:
    def test_ranking_is_permutation(self, sim, fig4):
        RandomScheduler(
            fig4.network.host(fig4.scheduler_name),
            _worker_addrs(fig4),
            RandomStreams(3).get("p"),
        )
        ranking = _query(sim, fig4)
        addrs = [a for a, _ in ranking]
        expected = set(_worker_addrs(fig4)) - {fig4.network.address_of("node1")}
        assert set(addrs) == expected

    def test_same_seed_same_sequence(self, sim, fig4):
        s1 = RandomScheduler(
            fig4.network.host(fig4.scheduler_name),
            _worker_addrs(fig4),
            RandomStreams(3).get("p"),
        )
        r1 = [s1.rank(1, METRIC_DELAY) for _ in range(3)]
        s2 = RandomScheduler.__new__(RandomScheduler)  # fresh rng, same seed
        s2.server_addrs = s1.server_addrs
        s2._rng = RandomStreams(3).get("p")
        r2 = [s2.rank(1, METRIC_DELAY) for _ in range(3)]
        assert r1 == r2


class TestNetworkAware:
    def _aware(self, sim, fig4):
        sched = NetworkAwareScheduler(
            fig4.network.host(fig4.scheduler_name),
            _worker_addrs(fig4),
            link_capacity_bps=fig4.fabric_rate_bps,
        )
        # Mesh probing so the scheduler learns the whole topology.
        net = fig4.network
        all_addrs = [net.address_of(n) for n in fig4.node_names]
        for name in fig4.node_names:
            host = net.host(name)
            if name == fig4.scheduler_name:
                ProbeResponder(host, collector=sched.collector)
            else:
                ProbeResponder(host, collector_addr=fig4.scheduler_addr)
            ProbeSender(host, [a for a in all_addrs if a != host.addr], probe_size=256).start()
        return sched

    def test_learns_full_topology(self, sim, fig4):
        sched = self._aware(sim, fig4)
        sim.run(until=1.0)
        assert len(sched.store.topology.known_switches()) == 12
        assert len(sched.store.topology.known_hosts()) == 8

    def test_delay_ranking_prefers_in_pod_when_idle(self, sim, fig4):
        self._aware(sim, fig4)
        ranking = _query(sim, fig4, metric=METRIC_DELAY, device="node7", warmup=1.0)
        assert ranking[0][0] == fig4.network.address_of("node8")

    def test_bandwidth_ranking_idle_reports_capacity(self, sim, fig4):
        self._aware(sim, fig4)
        ranking = _query(sim, fig4, metric=METRIC_BANDWIDTH, device="node1", warmup=1.0)
        assert ranking[0][1] == pytest.approx(mbps(20), rel=0.01)

    def test_unknown_metric_rejected(self, sim, fig4):
        sched = self._aware(sim, fig4)
        sim.run(until=0.5)
        with pytest.raises(SchedulingError):
            sched.rank(fig4.network.address_of("node1"), "nonsense")


class TestRequesterViews:
    """``rank()`` keeps a per-requester view of ``server_addrs``; a
    reassignment drops every view."""

    def _fed(self, servers=None):
        from repro.simnet.engine import Simulator
        from repro.simnet.random import run_streams
        from tests.properties.test_property_inference import _fig4_mesh_reports

        sim = Simulator()
        topo = build_fig4_network(sim, run_streams(7))
        sched = NetworkAwareScheduler(
            topo.network.host(topo.scheduler_name),
            _worker_addrs(topo) if servers is None else servers,
            link_capacity_bps=topo.fabric_rate_bps,
            default_link_delay=topo.link_delay,
        )
        for report in _fig4_mesh_reports():
            sched.store.update(report)
        return sched

    def _rankings(self, sched, requesters):
        return [
            sched.rank(requester, metric)
            for requester in requesters
            for metric in ("delay", "bandwidth", "raw")
        ]

    def test_reassigned_servers_rank_as_a_fresh_scheduler(self):
        sched = self._fed()
        workers = list(sched.server_addrs)
        self._rankings(sched, workers)  # every requester's view is built
        servers = workers[::-2]         # fewer servers, in another order
        sched.server_addrs = servers
        assert sched.server_addrs == servers
        fresh = self._fed(servers)
        assert self._rankings(sched, workers) == self._rankings(fresh, workers)
        assert {addr for addr, _v in sched.rank(workers[1], "delay")} == (
            set(servers) - {workers[1]}
        )


class TestClient:
    def test_retry_on_loss(self, sim, fig4):
        """No scheduler service bound: the query times out and retries, then
        reports failure with an empty ranking."""
        client = SchedulerClient(fig4.network.host("node1"), fig4.scheduler_addr)
        out = []
        client.query(METRIC_DELAY, out.append, timeout=0.2, retries=2)
        sim.run(until=5.0)
        assert out == [[]]
        assert client.retries == 2
        assert client.failures == 1

    def test_concurrent_queries_correlated(self, sim, fig4):
        NearestScheduler(
            fig4.network.host(fig4.scheduler_name), _worker_addrs(fig4), fig4.network
        )
        client = SchedulerClient(fig4.network.host("node1"), fig4.scheduler_addr)
        results = {}
        for i in range(3):
            client.query(METRIC_DELAY, lambda r, i=i: results.setdefault(i, r))
        sim.run(until=5.0)
        assert set(results) == {0, 1, 2}
        assert all(results[i] for i in results)
