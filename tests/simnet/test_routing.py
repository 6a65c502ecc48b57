"""Static routing: shortest paths, tie-breaking, table installation."""

import pytest

from repro.errors import RoutingError
from repro.simnet.addressing import PROTO_UDP
from repro.simnet.random import RandomStreams
from repro.simnet.routing import compute_routes, shortest_path
from repro.simnet.topology import Network
from repro.units import mbps, ms


def _diamond(sim):
    """h1 - s01 - {s02, s03} - s04 - h2: two equal-cost paths."""
    net = Network(sim, RandomStreams(0))
    net.add_host("h1")
    net.add_host("h2")
    for s in ("s01", "s02", "s03", "s04"):
        net.add_switch(s)
    for a, b in [
        ("h1", "s01"),
        ("s01", "s02"),
        ("s01", "s03"),
        ("s02", "s04"),
        ("s03", "s04"),
        ("s04", "h2"),
    ]:
        net.connect(a, b, rate_bps=mbps(20), delay=ms(10))
    net.finalize()
    return net


def test_equal_cost_tie_breaks_lexicographically(sim):
    net = _diamond(sim)
    path = shortest_path(net.graph(), "h1", "h2")
    assert path == ["h1", "s01", "s02", "s04", "h2"]  # s02 < s03


def test_unknown_endpoint_rejected(sim, dumbbell):
    with pytest.raises(RoutingError):
        shortest_path(dumbbell.graph(), "h1", "ghost")


def test_trivial_path(sim, dumbbell):
    assert shortest_path(dumbbell.graph(), "h1", "h1") == ["h1"]


def test_path_never_transits_host(sim):
    """Even if a host is topologically between two nodes, routes avoid it."""
    net = Network(sim, RandomStreams(0))
    net.add_host("h1")
    net.add_host("h2")
    net.add_switch("s01")
    net.add_switch("s02")
    # Long switch detour vs short 'path' through h1: still must use switches.
    net.connect("h1", "s01", rate_bps=mbps(20), delay=ms(1))
    net.connect("s01", "s02", rate_bps=mbps(20), delay=ms(1))
    net.connect("s02", "h2", rate_bps=mbps(20), delay=ms(1))
    net.finalize()
    path = shortest_path(net.graph(), "h1", "h2")
    assert path == ["h1", "s01", "s02", "h2"]
    assert all(n not in ("h3",) for n in path)


def test_compute_routes_covers_all_switch_host_pairs(sim, line3):
    routes = compute_routes(line3)
    assert set(routes) == {"s01", "s02"}
    for sw, table in routes.items():
        assert set(table) == {"h1", "h2", "h3"}


def test_next_hops_consistent(sim, line3):
    routes = compute_routes(line3)
    assert routes["s01"]["h2"] == "s02"
    assert routes["s01"]["h1"] == "h1"
    assert routes["s02"]["h1"] == "s01"


def test_installed_routes_forward_correctly(sim):
    """End-to-end across the diamond: packets actually arrive."""
    net = _diamond(sim)
    got = []
    net.host("h2").bind(PROTO_UDP, 9, lambda p: got.append(p.hop_count))
    h1 = net.host("h1")
    h1.send(h1.new_packet(net.address_of("h2"), dst_port=9))
    sim.run()
    assert got == [3]  # s01, s02 (tie-break), s04


def test_weighted_paths_prefer_lower_delay(sim):
    net = Network(sim, RandomStreams(0))
    net.add_host("h1")
    net.add_host("h2")
    for s in ("s01", "s02", "s03"):
        net.add_switch(s)
    net.connect("h1", "s01", rate_bps=mbps(20), delay=ms(1))
    # Direct but slow vs two-hop but fast.
    net.connect("s01", "s03", rate_bps=mbps(20), delay=ms(50))
    net.connect("s01", "s02", rate_bps=mbps(20), delay=ms(1))
    net.connect("s02", "s03", rate_bps=mbps(20), delay=ms(1))
    net.connect("s03", "h2", rate_bps=mbps(20), delay=ms(1))
    net.finalize()
    path = shortest_path(net.graph(), "h1", "h2")
    assert path == ["h1", "s01", "s02", "s03", "h2"]


def test_fig4_route_table_equals_per_pair_reference(sim):
    """The per-switch search installs exactly the per-pair shortest paths
    on the experiment topology (12 switches x 8 hosts)."""
    from repro.experiments.fig4_topology import build_fig4_network

    net = build_fig4_network(sim, RandomStreams(0)).network
    g = net.graph()
    routes = compute_routes(net)
    assert len(routes) == 12 and all(len(table) == 8 for table in routes.values())
    assert routes == {
        sw: {dst: shortest_path(g, sw, dst)[1] for dst in net.hosts}
        for sw in net.switches
    }
