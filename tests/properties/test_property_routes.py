"""Property test: one search per source answers as the per-pair search.

``compute_routes`` and ``Network.shortest_path`` run a single exhaustive
lexicographic Dijkstra per source over the plain adjacency dicts; the
per-pair ``shortest_path`` over the networkx view (``tests/simnet/graph_reference.py``) (prune the other
hosts, search one pair) is the definition they must reproduce — on graphs
dense in equal-delay ties, where only the tie-break tells paths apart.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.simnet.engine import Simulator
from repro.simnet.random import RandomStreams
from repro.simnet.routing import compute_routes

from tests.simnet.graph_reference import network_graph, shortest_path
from repro.simnet.topology import Network
from repro.units import mbps, ms


@st.composite
def networks(draw):
    """A connected switch graph (random tree plus chords, link delays from
    {1, 2, 3} ms so equal-cost paths abound, switch names shuffled against
    switch ids) with 2-8 single-homed hosts."""
    n = draw(st.integers(2, 7))
    names = draw(st.permutations([f"s{i:02d}" for i in range(1, n + 1)]))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    chords = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(chords, max_size=2 * n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    delays = st.sampled_from([ms(1), ms(2), ms(3)])
    net = Network(Simulator(), RandomStreams(0))
    for name in names:
        net.add_switch(name)
    for a, b in sorted(edges):
        net.connect(names[a], names[b], rate_bps=mbps(20), delay=draw(delays))
    for i in range(draw(st.integers(2, 8))):
        net.add_host(f"h{i}")
        net.connect(
            f"h{i}", names[draw(st.integers(0, n - 1))],
            rate_bps=mbps(20), delay=draw(delays),
        )
    return net


@given(networks())
@settings(max_examples=60, deadline=None)
def test_per_switch_search_equals_per_pair_shortest_paths(net):
    g = network_graph(net)
    assert compute_routes(net) == {
        sw: {dst: shortest_path(g, sw, dst)[1] for dst in net.hosts}
        for sw in net.switches
    }
    # Finalizing installs those routes and freezes the topology; the
    # memoised Network.shortest_path still answers as the reference does.
    net.finalize()
    hosts, switches = sorted(net.hosts), sorted(net.switches)
    for src in hosts[:3] + switches[:2]:
        for dst in hosts + switches:
            for _answer in ("computed", "from the memo"):
                assert net.shortest_path(src, dst) == shortest_path(g, src, dst)
    for src, dst in (("h0", "ghost"), ("ghost", "h0")):
        with pytest.raises(RoutingError) as reference:
            shortest_path(g, src, dst)
        with pytest.raises(RoutingError, match=f"^{re.escape(str(reference.value))}$"):
            net.shortest_path(src, dst)
