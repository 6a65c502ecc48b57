"""Inferred topology: learning from path observations, path queries."""

import pytest

from repro.core.topology_inference import InferredTopology
from repro.errors import SchedulingError
from repro.telemetry.records import host_node, switch_node


H = host_node
S = switch_node


def _learned():
    """Two pods: h1-s1-s3-s2-h2 and h1-s1-s3-s4-h3 style paths."""
    topo = InferredTopology()
    topo.observe_path([H(1), S(1), S(3), S(2), H(2)])
    topo.observe_path([H(2), S(2), S(3), S(1), H(1)])
    topo.observe_path([H(1), S(1), S(3), S(4), H(3)])
    return topo


def test_observe_creates_directed_edges():
    topo = InferredTopology()
    topo.observe_path([H(1), S(1), H(2)])
    assert topo.has_edge(H(1), S(1))
    assert topo.has_edge(S(1), H(2))
    assert not topo.has_edge(S(1), H(1))  # reverse not observed


def test_node_classification():
    topo = _learned()
    assert topo.known_hosts() == {H(1), H(2), H(3)}
    assert topo.known_switches() == {S(1), S(2), S(3), S(4)}


def test_repeated_observation_idempotent():
    topo = InferredTopology()
    topo.observe_path([H(1), S(1), H(2)])
    edges_before = topo.edge_count()
    topo.observe_path([H(1), S(1), H(2)])
    assert topo.edge_count() == edges_before


def test_path_found():
    topo = _learned()
    assert topo.path(H(1), H(2)) == [H(1), S(1), S(3), S(2), H(2)]


def test_path_never_transits_host():
    """h2 -> h3 would be shortest via h1's edges if hosts forwarded; the
    learned directed graph must route around via switches only."""
    topo = _learned()
    path = topo.path(H(2), H(3))
    assert path[0] == H(2) and path[-1] == H(3)
    assert all(n[0] == "sw" for n in path[1:-1])


def test_unknown_endpoint_rejected():
    topo = _learned()
    with pytest.raises(SchedulingError):
        topo.path(H(99), H(1))
    with pytest.raises(SchedulingError):
        topo.path(H(1), H(99))


def test_unreachable_rejected():
    topo = InferredTopology()
    topo.observe_path([H(1), S(1), H(2)])
    topo.observe_path([H(3), S(2), H(4)])  # disjoint island
    with pytest.raises(SchedulingError):
        topo.path(H(1), H(4))


def test_trivial_path():
    topo = _learned()
    assert topo.path(H(1), H(1)) == [H(1)]


def test_min_hop_tie_breaks_by_node_id():
    """Two equal-hop routes: the one through the smaller switch id wins."""
    topo = InferredTopology()
    topo.observe_path([H(1), S(1), S(5), S(4), H(2)])
    topo.observe_path([H(1), S(1), S(2), S(4), H(2)])
    assert topo.path(H(1), H(2)) == [H(1), S(1), S(2), S(4), H(2)]


def test_reachable_hosts_sorted_and_excludes_origin():
    topo = _learned()
    assert topo.reachable_hosts(H(1)) == [H(2), H(3)]


def test_reachable_hosts_respects_direction():
    topo = InferredTopology()
    topo.observe_path([H(1), S(1), H(2)])  # only h1 -> h2 direction known
    assert topo.reachable_hosts(H(2)) == []


def test_learning_a_shortcut_replaces_the_cached_answer():
    """The version moves only when a node or edge is new, and a move drops
    every cached tree."""
    topo = InferredTopology()
    topo.observe_path([H(1), S(1), S(2), S(3), H(2)])
    assert topo.path(H(1), H(2)) == [H(1), S(1), S(2), S(3), H(2)]
    version = topo.version
    topo.observe_path([H(1), S(1), S(2), S(3), H(2)])
    topo.observe_path([H(1), S(1), S(2)])  # a new tuple, nothing new in it
    assert topo.version == version
    topo.observe_path([H(3), S(1), S(3), H(4)])  # new edge s1 -> s3
    assert topo.version == version + 1
    assert topo.path(H(1), H(2)) == [H(1), S(1), S(3), H(2)]
    assert topo.edges() == {
        (H(1), S(1)), (S(1), S(2)), (S(2), S(3)), (S(3), H(2)),
        (H(3), S(1)), (S(1), S(3)), (S(3), H(4)),
    }
