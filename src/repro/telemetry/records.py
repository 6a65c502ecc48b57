"""Telemetry record types shared by the collector and the scheduler core."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.p4.headers import NO_LATENCY, IntHopRecord, IntStack

__all__ = ["ProbeReport", "TelemetryNodeId", "switch_node", "host_node", "node_label"]

# Nodes in the *inferred* topology are identified either by INT switch id or
# by edge-node address; a small tagged union keeps the two spaces disjoint.
TelemetryNodeId = Tuple[str, int]


def switch_node(switch_id: int) -> TelemetryNodeId:
    return ("sw", switch_id)


def host_node(addr: int) -> TelemetryNodeId:
    return ("host", addr)


def node_label(node: TelemetryNodeId) -> str:
    """``("sw", 3)`` -> ``"sw:3"`` (stable, greppable, JSON-friendly)."""
    return f"{node[0]}:{node[1]}"


@dataclass(slots=True)
class ProbeReport:
    """One probe: the INT stack plus endpoint measurements.

    ``records`` are in path order.  The collector publishes them as an
    :class:`~repro.p4.headers.IntStack` (the validated wire bytes, decoded
    when read); hand-built reports pass a list.  Either way, read them once
    per use: each read of a wire stack decodes again.
    ``final_link_latency`` is the last-hop (last switch -> destination
    host) latency measured by the receiving host's clock against the last
    switch's egress stamp; ``None`` when the probe traversed no switch.
    """

    probe_src: int                     # edge-node address that emitted the probe
    probe_dst: int                     # edge-node address that terminated it
    seq: int
    sent_at: float                     # sender clock at emission
    received_at: float                 # receiver clock at arrival
    records: Sequence[IntHopRecord] = field(default_factory=list)
    final_link_latency: Optional[float] = None
    collected_at: float = 0.0          # scheduler sim-time when ingested

    @property
    def hop_count(self) -> int:
        return len(self.records)

    def int_fields(self) -> Tuple[Tuple[Any, ...], float]:
        """``(fields, per_second)``: ``(switch_id, max_qdepth,
        link_latency)`` of every hop, flattened into one tuple in path
        order (:meth:`IntStack.fields`), which is what the collector side
        ingests.  A latency is :data:`~repro.p4.headers.NO_LATENCY` when
        not measured and ``latency / per_second`` seconds otherwise:
        microseconds from a wire stack, seconds from hand-built records,
        so both forms of one probe ingest the same floats.

        A probe's path is fixed by its endpoints and ``fields[::3]``, its
        switch ids.  Routes are static, so per-path work keyed by that is
        done once."""
        records = self.records
        if type(records) is IntStack:
            return records.fields(), 1e6
        fields: List[Any] = []
        for r in records:
            latency = r.link_latency
            fields += (r.switch_id, r.max_qdepth, NO_LATENCY if latency is None else latency)
        return tuple(fields), 1.0

    def path_nodes(self) -> List[TelemetryNodeId]:
        """The inferred path: src host, each switch in stack order, dst host
        (Section III-B's ordering-based topology inference)."""
        return [
            host_node(self.probe_src),
            *[switch_node(r.switch_id) for r in self.records],
            host_node(self.probe_dst),
        ]

    def link_latencies(self) -> List[Tuple[TelemetryNodeId, TelemetryNodeId, Optional[float]]]:
        """Per-link latency measurements along the path, ``(upstream,
        downstream, latency-or-None)``."""
        nodes = self.path_nodes()
        latencies: List[Optional[float]] = [r.link_latency for r in self.records]
        latencies.append(self.final_link_latency)
        return [
            (nodes[i], nodes[i + 1], latencies[i])
            for i in range(len(nodes) - 1)
        ]

    def port_observations(
        self,
    ) -> List[Tuple[TelemetryNodeId, TelemetryNodeId, int, int]]:
        """Per-switch egress observations along the path.

        Each entry is ``(switch, downstream_neighbor, egress_port,
        max_qdepth)``: record *i* was appended at switch *i*'s egress toward
        the next path element, so its queue-depth reading belongs to the
        directed link switch_i -> next."""
        nodes = self.path_nodes()
        out: List[Tuple[TelemetryNodeId, TelemetryNodeId, int, int]] = []
        for i, rec in enumerate(self.records):
            out.append((nodes[i + 1], nodes[i + 2], rec.egress_port, rec.max_qdepth))
        return out
