"""Topology inference from INT record ordering (Section III-B).

"The scheduler dynamically builds the network topology using telemetry data
reported via probe packets.  Specifically, it learns which network devices
are connected to each other by checking the order of INT data in probe
packets."

The inferred topology is a *directed* graph over
:data:`~repro.telemetry.records.TelemetryNodeId` values: an edge (u, v)
means a probe was observed flowing u -> v, and the telemetry attached to the
edge (queue depth of u's egress toward v, latency of the u->v link) is
specific to that direction.

Path selection on the inferred graph uses minimum hop count with
lexicographic tie-breaking over node ids.  The simulated control plane
breaks routing ties lexicographically over node *names*, and the standard
topologies name switches in id order (``s01`` .. ``s12``), so the
scheduler's idea of "the path data will take" agrees with the installed
routes — the working assumption the paper makes implicitly.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import SchedulingError
from repro.telemetry.records import TelemetryNodeId

__all__ = ["InferredTopology"]


class InferredTopology:
    """Incrementally learned directed network map."""

    def __init__(self) -> None:
        # node -> successors in ascending id order (what makes the search
        # in _paths_from lexicographic without comparing paths).
        self._succ: Dict[TelemetryNodeId, List[TelemetryNodeId]] = {}
        self._edges: Set[Tuple[TelemetryNodeId, TelemetryNodeId]] = set()
        self._seen_paths: Set[Tuple[TelemetryNodeId, ...]] = set()
        # Bumped only when a node or edge is new.  Telemetry values,
        # staleness and quarantine never touch the graph, so between bumps
        # every path() answer is a lookup in the requester's cached tree.
        self.version = 0
        self._trees: Dict[TelemetryNodeId, Dict[TelemetryNodeId, tuple]] = {}

    # -- learning ----------------------------------------------------------

    def observe_path(self, nodes: Sequence[TelemetryNodeId]) -> None:
        """Record that a probe traversed ``nodes`` in order."""
        seen = tuple(nodes)
        if seen in self._seen_paths:
            return
        self._seen_paths.add(seen)
        succ, edges = self._succ, self._edges
        size = len(succ) + len(edges)
        for node in seen:
            succ.setdefault(node, [])
        for edge in zip(seen, seen[1:]):
            if edge not in edges:
                edges.add(edge)
                insort(succ[edge[0]], edge[1])
        if len(succ) + len(edges) > size:
            self.version += 1
            self._trees.clear()

    # -- queries ------------------------------------------------------------

    def edges(self) -> Set[Tuple[TelemetryNodeId, TelemetryNodeId]]:
        """Every directed edge observed so far (a copy)."""
        return set(self._edges)

    def known_nodes(self) -> Set[TelemetryNodeId]:
        return set(self._succ)

    def known_hosts(self) -> Set[TelemetryNodeId]:
        return {n for n in self._succ if n[0] == "host"}

    def known_switches(self) -> Set[TelemetryNodeId]:
        return {n for n in self._succ if n[0] == "sw"}

    def has_node(self, node: TelemetryNodeId) -> bool:
        return node in self._succ

    def has_edge(self, u: TelemetryNodeId, v: TelemetryNodeId) -> bool:
        return (u, v) in self._edges

    def _paths_from(self, src: TelemetryNodeId) -> Dict[TelemetryNodeId, tuple]:
        """The min-hop, lexicographically smallest path from ``src`` to every
        node it reaches, cached until the graph next grows.  Breadth-first,
        one hop count per round: a round's nodes are visited in ascending
        order of their own path and each node's successors in ascending id,
        so the first path to reach a node is the smallest one and the next
        round comes out sorted the same way.  Hosts other than ``src`` are
        settled but never expanded — they end paths, never carry them."""
        tree = self._trees.get(src)
        if tree is None:
            succ = self._succ
            tree = {src: (src,)}
            frontier = [src]
            while frontier:
                reached = []
                for u in frontier:
                    path = tree[u]
                    for v in succ[u]:
                        if v not in tree:
                            tree[v] = path + (v,)
                            if v[0] != "host":
                                reached.append(v)
                frontier = reached
            self._trees[src] = tree
        return tree

    def path(self, src: TelemetryNodeId, dst: TelemetryNodeId) -> List[TelemetryNodeId]:
        """Min-hop directed path with lexicographic tie-breaking, never
        transiting a host (hosts are endpoints only).  The list is the
        caller's to mutate.

        Raises :class:`SchedulingError` when either endpoint is unknown or
        unreachable — the caller decides how to rank unreachable servers.
        """
        if src not in self._succ:
            raise SchedulingError(f"node {src} not yet in inferred topology")
        if dst not in self._succ:
            raise SchedulingError(f"node {dst} not yet in inferred topology")
        path = self._paths_from(src).get(dst)
        if path is None:
            raise SchedulingError(f"no inferred path from {src} to {dst}")
        return list(path)

    def reachable_hosts(self, src: TelemetryNodeId) -> List[TelemetryNodeId]:
        """Edge nodes reachable from ``src`` — Algorithm 1's ``E(G, e_n)``."""
        if src not in self._succ:
            return []
        return sorted(n for n in self._paths_from(src) if n[0] == "host" and n != src)

    def edge_count(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<InferredTopology hosts={len(self.known_hosts())} "
            f"switches={len(self.known_switches())} edges={self.edge_count()}>"
        )
