"""Probe route optimization (greedy set cover over directed ports)."""

import pytest

from repro.errors import TelemetryError
from repro.experiments.fig4_topology import build_fig4_network
from repro.simnet.random import RandomStreams
from repro.telemetry.coverage import (
    all_fabric_ports,
    coverage_of,
    greedy_probe_cover,
    ports_covered_by_pair,
)


@pytest.fixture
def fig4(sim):
    return build_fig4_network(sim, RandomStreams(0))


class TestPortSets:
    def test_pair_coverage_follows_route(self, sim, fig4):
        net = fig4.network
        covered = ports_covered_by_pair(net, "node7", "node8")
        # Route: node7 - s11 - s04 - s12 - node8.
        assert covered == {("s11", "s04"), ("s04", "s12"), ("s12", "node8")}

    def test_coverage_is_directional(self, sim, fig4):
        net = fig4.network
        forward = ports_covered_by_pair(net, "node7", "node8")
        reverse = ports_covered_by_pair(net, "node8", "node7")
        assert forward.isdisjoint(reverse)

    def test_all_fabric_ports_count(self, sim, fig4):
        # 8 leaf-core links + 8 host links + 4 ring links = 20 links; each
        # link contributes switch-egress ports at its switch endpoints:
        # host links 1 each (8), leaf-core 2 each (16), ring 2 each (8).
        assert len(all_fabric_ports(fig4.network)) == 32

    def test_union_coverage(self, sim, fig4):
        net = fig4.network
        pairs = [("node7", "node8"), ("node8", "node7")]
        covered = coverage_of(net, pairs)
        assert len(covered) == 6


class TestGreedyCover:
    def test_cover_is_complete(self, sim, fig4):
        net = fig4.network
        pairs = greedy_probe_cover(net)
        covered = coverage_of(net, pairs)
        # Everything reachable by host-pair probes is covered.
        reachable = coverage_of(
            net,
            [(a, b) for a in net.hosts for b in net.hosts if a != b],
        )
        assert covered == reachable

    def test_cover_much_smaller_than_mesh(self, sim, fig4):
        pairs = greedy_probe_cover(fig4.network)
        mesh_size = 8 * 7
        assert len(pairs) < mesh_size / 2  # at least 2x cheaper than mesh

    def test_cover_deterministic(self, sim):
        t1 = build_fig4_network(sim, RandomStreams(0))
        pairs1 = greedy_probe_cover(t1.network)
        pairs2 = greedy_probe_cover(t1.network)
        assert pairs1 == pairs2

    def test_restricted_sources(self, sim, fig4):
        """Probing only from two hosts covers what those hosts can reach."""
        net = fig4.network
        pairs = greedy_probe_cover(net, sources=["node1", "node8"])
        assert all(src in ("node1", "node8") for src, _dst in pairs)
        covered = coverage_of(net, pairs)
        reachable = coverage_of(net, [("node1", "node8"), ("node8", "node1")])
        assert covered >= reachable

    def test_unreachable_required_port_rejected(self, sim, fig4):
        net = fig4.network
        with pytest.raises(TelemetryError):
            greedy_probe_cover(net, required={("s01", "mars")})

    def test_needs_two_hosts(self, sim, fig4):
        with pytest.raises(TelemetryError):
            greedy_probe_cover(fig4.network, sources=["node1"])

    def test_optimized_layout_feeds_real_probing(self, sim, fig4):
        """End-to-end: run probes only on the optimized pairs and verify the
        scheduler's store learns the same directed fabric ports."""
        from repro.core import TelemetryStore
        from repro.telemetry.collector import IntCollector
        from repro.telemetry.probe import ProbeResponder, ProbeSender

        net = fig4.network
        pairs = greedy_probe_cover(net)
        collector = IntCollector(net.host(fig4.scheduler_name))
        store = TelemetryStore(sim)
        collector.subscribe(store.update)
        for name in fig4.node_names:
            host = net.host(name)
            if name == fig4.scheduler_name:
                ProbeResponder(host, collector=collector)
            else:
                ProbeResponder(host, collector_addr=fig4.scheduler_addr)
        by_src = {}
        for src, dst in pairs:
            by_src.setdefault(src, []).append(net.address_of(dst))
        for src, targets in by_src.items():
            ProbeSender(net.host(src), targets, probe_size=256).start()
        sim.run(until=1.5)
        # Every switch adjacency in the optimized cover is in the store.
        expected = coverage_of(net, pairs)
        sw_edges = {
            (u, v)
            for u, v in store.topology.edges()
            if u[0] == "sw"
        }
        # Map names -> inferred ids for comparison.
        def to_id(name):
            if name in net.switches:
                return ("sw", net.switch(name).switch_id)
            return ("host", net.address_of(name))

        expected_ids = {(to_id(u), to_id(v)) for u, v in expected}
        assert expected_ids <= store.topology.edges()
