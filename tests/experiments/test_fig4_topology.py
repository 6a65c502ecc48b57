"""The Fig. 4 topology must realize every property the paper states."""

import pytest

from repro.experiments.fig4_topology import build_fig4_network
from repro.simnet.random import RandomStreams
from repro.units import mbps, ms

from tests.simnet.graph_reference import network_graph


@pytest.fixture
def topo(sim):
    return build_fig4_network(sim, RandomStreams(0))


def test_eight_nodes_twelve_switches(topo):
    assert len(topo.network.hosts) == 8
    assert len(topo.network.switches) == 12
    assert len(topo.node_names) == 8


def test_node6_is_scheduler(topo):
    assert topo.scheduler_name == "node6"
    assert topo.scheduler_addr == topo.network.address_of("node6")
    assert len(topo.worker_names) == 7
    assert "node6" not in topo.worker_names


def test_uniform_link_delay(topo):
    for link in topo.network.links.values():
        assert link.propagation_delay == pytest.approx(ms(10))


def test_fabric_rate_is_20mbps(topo):
    assert topo.fabric_rate_bps == mbps(20)
    for link in topo.network.links.values():
        # Every switch-egress direction runs at the fabric rate.
        assert min(link.rate_ab_bps, link.rate_ba_bps) == pytest.approx(mbps(20))


def test_in_pod_pairs_are_three_hops_apart(topo):
    """'Node 7 and Node 8 are the nearest nodes for each other.'"""
    net = topo.network
    for a, b in [("node1", "node2"), ("node3", "node4"),
                 ("node5", "node6"), ("node7", "node8")]:
        path = net.shortest_path(a, b)
        assert len(path) - 2 == 3  # 3 switches between the hosts


def test_in_pod_pair_is_strictly_nearest(topo):
    net = topo.network
    dist = {
        other: len(net.shortest_path("node7", other)) - 2
        for other in topo.node_names
        if other != "node7"
    }
    assert dist["node8"] == 3
    assert all(d > 3 for name, d in dist.items() if name != "node8")


def test_cross_pod_distances(topo):
    net = topo.network
    # Adjacent pods: 4 switches.  Opposite pods: 5 switches.
    assert len(net.shortest_path("node1", "node3")) - 2 == 4
    assert len(net.shortest_path("node1", "node5")) - 2 == 5


def test_switch_names_sorted_like_ids(topo):
    """Lexicographic name order must match numeric switch-id order so the
    control plane and the scheduler tie-break identically."""
    switches = sorted(topo.network.switches.values(), key=lambda s: s.name)
    ids = [s.switch_id for s in switches]
    assert ids == sorted(ids)


def test_pod_assignment(topo):
    assert topo.pod_of["node1"] == topo.pod_of["node2"] == 1
    assert topo.pod_of["node7"] == topo.pod_of["node8"] == 4


def test_cores_form_ring(topo):
    g = network_graph(topo.network)
    for i in range(4):
        a = topo.core_names[i]
        b = topo.core_names[(i + 1) % 4]
        assert g.has_edge(a, b)


def test_unknown_scheduler_rejected(sim):
    with pytest.raises(ValueError):
        build_fig4_network(sim, RandomStreams(0), scheduler_name="node99")


def test_every_host_single_homed(topo):
    for host in topo.network.hosts.values():
        assert len(host.ports) == 1
