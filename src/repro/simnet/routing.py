"""Static shortest-path routing and forwarding-table installation.

The paper's testbed uses static routes installed into the BMv2 forwarding
tables by a control script; likewise here.  Routes are shortest paths by
propagation delay with deterministic lexicographic tie-breaking, so two runs
of the same topology always install identical tables.

Only switches get forwarding tables (hosts are single-homed and always emit
through port 0), and routes never transit a host: hosts are removed from the
routing graph except as path endpoints.
"""

from __future__ import annotations

import heapq
from typing import Container, Dict, List, Mapping, TYPE_CHECKING

from repro.errors import RoutingError

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.simnet.topology import Network

__all__ = ["shortest_path", "shortest_paths_from", "compute_routes", "install_all_routes"]


def _routing_weight(g: nx.Graph, u: str, v: str) -> float:
    return float(g.edges[u, v]["delay"])


def shortest_path(g: nx.Graph, src: str, dst: str) -> List[str]:
    """Delay-weighted shortest path with lexicographic tie-breaking, never
    transiting a host node.  The per-pair definition over
    :meth:`Network.graph`: nothing on the run path calls it, the tests hold
    :func:`shortest_paths_from` to it."""
    if src not in g or dst not in g:
        raise RoutingError(f"unknown endpoint in ({src!r}, {dst!r})")
    if src == dst:
        return [src]
    # Prune other hosts so they cannot be used as transit.
    keep = {n for n, d in g.nodes(data=True) if d.get("kind") != "host"} | {src, dst}
    # networkx's own Dijkstra tie-breaks by heap order; ours carries an
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
            w = _routing_weight(g, u, v)
            heapq.heappush(heap, ((cost + w, path + (v,)), v))
    raise RoutingError(f"no path from {src!r} to {dst!r}")


def shortest_paths_from(
    adjacency: Mapping[str, Mapping[str, float]], hosts: Container[str], src: str
) -> Dict[str, tuple]:
    """Every node's :func:`shortest_path` from ``src`` in one exhaustive
    search over ``{name: {neighbor: delay}}``: the same ``(cost, path)``
    labels, costs summed in path order, so each result is the per-pair
    search's to the bit.  Hosts other than ``src`` are settled but never
    expanded — they end paths, never carry them."""
    best: Dict[str, tuple] = {}
    heap: list = [(0.0, (src,), src)]
    while heap:
        cost, path, u = heapq.heappop(heap)
        if u in best:
            continue
        best[u] = path
        if u in hosts and u != src:
            continue
        for v, delay in adjacency[u].items():
            if v not in best:
                heapq.heappush(heap, (cost + delay, path + (v,), v))
    return best


def compute_routes(network: "Network") -> Dict[str, Dict[str, str]]:
    """For every switch, the next-hop node toward every host destination.

    Returns ``{switch_name: {dst_host_name: next_hop_name}}`` — for each
    pair the second node of :func:`shortest_path`, found by one search per
    switch rather than one per pair.
    """
    routes: Dict[str, Dict[str, str]] = {}
    for sw in network.switches:
        paths = shortest_paths_from(network.adjacency, network.hosts, sw)
        table = routes[sw] = {}
        for dst in network.hosts:
            path = paths.get(dst)
            if path is None:
                raise RoutingError(f"no path from {sw!r} to {dst!r}")
            table[dst] = path[1]
    return routes


def install_all_routes(network: "Network") -> None:
    """Populate every switch's forwarding table from :func:`compute_routes`."""
    routes = compute_routes(network)
    for sw_name, table in routes.items():
        switch = network.switch(sw_name)
        program = switch.program
        if program is None:
            raise RoutingError(f"switch {sw_name!r} has no program to install routes into")
        install = getattr(program, "install_route", None)
        if install is None:
            raise RoutingError(
                f"switch {sw_name!r} program {type(program).__name__} lacks install_route"
            )
        for dst_host, next_hop in table.items():
            dst_addr = network.address_of(dst_host)
            port_index = network.port_toward(sw_name, next_hop)
            install(dst_addr, port_index)
