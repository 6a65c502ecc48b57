"""Telemetry record types shared by the collector and the scheduler core."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.p4.headers import IntHopRecord

__all__ = ["ProbeReport", "TelemetryNodeId", "switch_node", "host_node"]

# Nodes in the *inferred* topology are identified either by INT switch id or
# by edge-node address; a small tagged union keeps the two spaces disjoint.
TelemetryNodeId = Tuple[str, int]


def switch_node(switch_id: int) -> TelemetryNodeId:
    return ("sw", switch_id)


def host_node(addr: int) -> TelemetryNodeId:
    return ("host", addr)


@dataclass(slots=True)
class ProbeReport:
    """One fully-decoded probe: the INT stack plus endpoint measurements.

    ``records`` are in path order.  ``final_link_latency`` is the last-hop
    (last switch -> destination host) latency measured by the receiving
    host's clock against the last switch's egress stamp; ``None`` when the
    probe traversed no switch.
    """

    probe_src: int                     # edge-node address that emitted the probe
    probe_dst: int                     # edge-node address that terminated it
    seq: int
    sent_at: float                     # sender clock at emission
    received_at: float                 # receiver clock at arrival
    records: List[IntHopRecord] = field(default_factory=list)
    final_link_latency: Optional[float] = None
    collected_at: float = 0.0          # scheduler sim-time when ingested

    @property
    def hop_count(self) -> int:
        return len(self.records)

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
