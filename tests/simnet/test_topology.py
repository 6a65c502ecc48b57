"""Network construction and finalization rules."""

import pytest

from repro.errors import TopologyError
from repro.simnet.random import RandomStreams
from repro.simnet.topology import Network
from repro.units import mbps, ms

from .graph_reference import network_graph


def _net(sim):
    return Network(sim, RandomStreams(0))


class TestConstruction:
    def test_duplicate_node_name_rejected(self, sim):
        net = _net(sim)
        net.add_host("x")
        with pytest.raises(TopologyError):
            net.add_switch("x")

    def test_self_link_rejected(self, sim):
        net = _net(sim)
        net.add_host("a")
        with pytest.raises(TopologyError):
            net.connect("a", "a", rate_bps=1e6, delay=0.0)

    def test_parallel_link_rejected(self, sim):
        net = _net(sim)
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "b", rate_bps=1e6, delay=0.0)
        with pytest.raises(TopologyError):
            net.connect("b", "a", rate_bps=1e6, delay=0.0)

    def test_connect_unknown_node_rejected(self, sim):
        net = _net(sim)
        net.add_host("a")
        with pytest.raises(TopologyError):
            net.connect("a", "ghost", rate_bps=1e6, delay=0.0)

    def test_switch_ids_sequential(self, sim):
        net = _net(sim)
        switches = [net.add_switch(f"s{i:02d}") for i in range(1, 4)]
        assert [s.switch_id for s in switches] == [1, 2, 3]

    def test_port_toward(self, sim):
        net = _net(sim)
        net.add_host("a")
        net.add_switch("s01")
        net.add_switch("s02")
        net.connect("s01", "a", rate_bps=1e6, delay=0.0)
        net.connect("s01", "s02", rate_bps=1e6, delay=0.0)
        assert net.port_toward("s01", "a") == 0
        assert net.port_toward("s01", "s02") == 1
        with pytest.raises(TopologyError):
            net.port_toward("s02", "a")

    def test_attach_host_directional_rates(self, sim):
        net = _net(sim)
        net.add_host("h")
        net.add_switch("s01")
        link = net.attach_host(
            "h", "s01", fabric_rate_bps=mbps(20), delay=ms(10), injection_multiplier=10
        )
        # host is endpoint a (first argument).
        assert link.rate_ab_bps == mbps(200)
        assert link.rate_ba_bps == mbps(20)

    def test_attach_host_requires_host_and_switch(self, sim):
        net = _net(sim)
        net.add_host("h")
        net.add_host("h2")
        net.add_switch("s01")
        with pytest.raises(TopologyError):
            net.attach_host("s01", "h", fabric_rate_bps=1e6, delay=0.0)
        with pytest.raises(TopologyError):
            net.attach_host("h", "h2", fabric_rate_bps=1e6, delay=0.0)

    def test_attach_host_multiplier_validated(self, sim):
        net = _net(sim)
        net.add_host("h")
        net.add_switch("s01")
        with pytest.raises(TopologyError):
            net.attach_host(
                "h", "s01", fabric_rate_bps=1e6, delay=0.0, injection_multiplier=0.5
            )


class TestFinalize:
    def test_multihomed_host_rejected(self, sim):
        net = _net(sim)
        net.add_host("h")
        net.add_switch("s01")
        net.add_switch("s02")
        net.connect("h", "s01", rate_bps=1e6, delay=0.0)
        net.connect("h", "s02", rate_bps=1e6, delay=0.0)
        with pytest.raises(TopologyError):
            net.finalize()

    def test_disconnected_graph_rejected(self, sim):
        net = _net(sim)
        net.add_host("a")
        net.add_host("b")
        net.add_switch("s01")
        net.connect("a", "s01", rate_bps=1e6, delay=0.0)
        # b left unconnected
        with pytest.raises(TopologyError):
            net.finalize()

    def test_two_islands_rejected(self, sim):
        net = _net(sim)
        for island in ("1", "2"):
            net.add_host("h" + island)
            net.add_switch("s0" + island)
            net.connect("h" + island, "s0" + island, rate_bps=1e6, delay=0.0)
        with pytest.raises(TopologyError, match="not connected"):
            net.finalize()

    def test_mutation_after_finalize_rejected(self, sim, dumbbell):
        with pytest.raises(TopologyError):
            dumbbell.add_host("late")
        with pytest.raises(TopologyError):
            dumbbell.finalize()

    def test_finalize_binds_programs(self, sim, dumbbell):
        assert dumbbell.switch("s01").program is not None
        assert dumbbell.finalized

    def test_int_register_sized_to_ports(self, sim, line3):
        s02 = line3.switch("s02")  # 3 ports: s01, h2, h3
        reg = s02.program.register("max_qdepth")
        assert reg.size == 3


class TestLookups:
    def test_node_host_switch_accessors(self, sim, dumbbell):
        assert dumbbell.host("h1").name == "h1"
        assert dumbbell.switch("s01").name == "s01"
        assert dumbbell.node("h1") is dumbbell.host("h1")
        with pytest.raises(TopologyError):
            dumbbell.host("s01")
        with pytest.raises(TopologyError):
            dumbbell.switch("h1")
        with pytest.raises(TopologyError):
            dumbbell.node("ghost")

    def test_switch_by_id(self, sim, line3):
        assert line3.switch_by_id(1).name == "s01"
        assert line3.switch_by_id(2).name == "s02"
        with pytest.raises(TopologyError):
            line3.switch_by_id(42)

    def test_graph_view(self, sim, line3):
        g = network_graph(line3)
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 4
        assert g.nodes["h1"]["kind"] == "host"
        assert g.nodes["s01"]["kind"] == "switch"
        assert g.edges["s01", "s02"]["delay"] == pytest.approx(ms(10))

    def test_adjacency_mirrors_graph_view(self, sim, line3):
        g = network_graph(line3)
        assert set(line3.adjacency) == set(g.nodes)
        assert {
            (u, v): delay for u, nbrs in line3.adjacency.items() for v, delay in nbrs.items()
        } == {
            edge: g.edges[edge]["delay"]
            for u, v in g.edges for edge in ((u, v), (v, u))
        }

    def test_shortest_path(self, sim, line3):
        assert line3.shortest_path("h1", "h2") == ["h1", "s01", "s02", "h2"]

    def test_shortest_path_memo_hands_out_fresh_lists(self, sim, line3):
        path = line3.shortest_path("h1", "h2")
        path.reverse()
        path.append("scribble")
        assert line3.shortest_path("h1", "h2") == ["h1", "s01", "s02", "h2"]

    def test_shortest_path_follows_live_wiring_before_finalize(self, sim, streams):
        net = Network(sim, streams)
        for name in ("h1", "h2"):
            net.add_host(name)
        for name in ("s01", "s02", "s03"):
            net.add_switch(name)
        net.connect("h1", "s01", rate_bps=mbps(20), delay=ms(10))
        net.connect("s01", "s02", rate_bps=mbps(20), delay=ms(10))
        net.connect("s02", "s03", rate_bps=mbps(20), delay=ms(10))
        net.connect("s03", "h2", rate_bps=mbps(20), delay=ms(10))
        assert net.shortest_path("h1", "h2") == ["h1", "s01", "s02", "s03", "h2"]
        # A shortcut wired afterwards is seen: nothing was cached yet.
        net.connect("s01", "s03", rate_bps=mbps(20), delay=ms(10))
        assert net.shortest_path("h1", "h2") == ["h1", "s01", "s03", "h2"]
        net.finalize()
        assert net.shortest_path("h1", "h2") == ["h1", "s01", "s03", "h2"]
