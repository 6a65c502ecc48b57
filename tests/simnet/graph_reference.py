"""The networkx reference the routing tests hold the run path to.

``compute_routes`` and ``Network.shortest_path`` search plain adjacency
dicts, one exhaustive lexicographic Dijkstra per source.  The per-pair
definition they must reproduce lives here, beside its callers, over a
networkx view of the physical topology — so the package itself never
imports networkx.
"""

from __future__ import annotations

import heapq
from typing import Dict, List

import networkx as nx

from repro.errors import RoutingError


def network_graph(network) -> nx.Graph:
    """Undirected networkx graph of ``network``'s live wiring; nodes carry
    their ``kind`` (host/switch), edges the link object, rate and
    propagation delay."""
    g = nx.Graph()
    for name in list(network.hosts) + list(network.switches):
        g.add_node(name, kind="host" if name in network.hosts else "switch")
    for link in network.links.values():
        g.add_edge(
            link.port_a.node.name,
            link.port_b.node.name,
            link=link,
            rate_bps=link.rate_bps,
            delay=link.propagation_delay,
        )
    return g


def shortest_path(g: nx.Graph, src: str, dst: str) -> List[str]:
    """Delay-weighted shortest path with lexicographic tie-breaking, never
    transiting a host node."""
    if src not in g or dst not in g:
        raise RoutingError(f"unknown endpoint in ({src!r}, {dst!r})")
    if src == dst:
        return [src]
    # Prune other hosts so they cannot be used as transit.
    keep = {n for n, d in g.nodes(data=True) if d.get("kind") != "host"} | {src, dst}
    # networkx's own Dijkstra tie-breaks by heap order; this one carries an
    # explicit lexicographic secondary criterion.
    return _lexicographic_shortest_path(g.subgraph(keep), src, dst)


def _lexicographic_shortest_path(g: nx.Graph, src: str, dst: str) -> List[str]:
    """Dijkstra where among equal-cost paths the lexicographically smallest
    node sequence wins.  O(E log V) with tuple-compared labels."""
    best: Dict[str, tuple] = {}
    heap: list = [((0.0, (src,)), src)]
    while heap:
        (cost, path), u = heapq.heappop(heap)
        if u in best:
            continue
        best[u] = (cost, path)
        if u == dst:
            return list(path)
        for v in sorted(g.neighbors(u)):
            if v in best:
                continue
            w = float(g.edges[u, v]["delay"])
            heapq.heappush(heap, ((cost + w, path + (v,)), v))
    raise RoutingError(f"no path from {src!r} to {dst!r}")
