"""Packet-path tracing — the simulator's tcpdump.

A :class:`PacketTracer` hooks a set of nodes and records hop events
(ingress/egress/drop) for packets matching a predicate.  Used for debugging
experiments ("why did this transfer stall?") and for validating routing in
tests.

A tracer occupies the observer slot of each node it watches
(:meth:`~repro.simnet.node.Node.set_observer`); the node's data path offers
it hop events — hosts, the staged pipeline and the drop handler by testing
the slot, a switch on compiled closures through a hook ``compile`` binds
into them.  No handler is wrapped or replaced, so tracing attaches to a
live network and :meth:`PacketTracer.detach` simply empties the slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.simnet.node import Node
from repro.simnet.packet import Packet

__all__ = ["HopEvent", "PacketTracer", "flow_predicate", "probe_predicate"]


@dataclass(frozen=True)
class HopEvent:
    """One observation of a packet at a node."""

    time: float
    node: str
    kind: str          # "ingress" | "egress" | "drop" | "truncated"
    packet_id: int
    flow_id: int
    seq: int
    size_bytes: int
    enq_depth: Optional[int] = None   # egress events only


def flow_predicate(flow_id: int) -> Callable[[Packet], bool]:
    """Match one flow's packets."""
    return lambda packet: packet.flow_id == flow_id


def probe_predicate(packet: Packet) -> bool:
    """Match INT probes."""
    return packet.is_probe


class PacketTracer:
    """Records matching packets' hop events across the attached nodes.

    ``probes_only`` declares the packet class the tracer can match: when
    set, nodes offer it probe packets only (``predicate`` then sees nothing
    else), which keeps the hook out of the data-packet path entirely.
    ``probe_stride`` narrows the probes the same way: nodes offer the ones
    with ``(seq - 1) % probe_stride == 0`` and test that before the call.
    """

    probe_stride = 1

    def __init__(
        self,
        nodes: Iterable[Node],
        *,
        predicate: Optional[Callable[[Packet], bool]] = None,
        probes_only: bool = False,
        max_events: int = 100_000,
    ) -> None:
        self.predicate = predicate
        self.probes_only = probes_only
        self.max_events = max_events
        self.events: List[HopEvent] = []
        self.truncated = False
        self._nodes: List[Node] = []
        for node in nodes:
            node.set_observer(self)
            self._nodes.append(node)

    def detach(self) -> None:
        """Stop observing every attached node."""
        for node in self._nodes:
            node.set_observer(None)
        self._nodes.clear()

    # -- recording ----------------------------------------------------------

    def record(self, node: Node, kind: str, packet: Packet, enq_depth=None) -> None:
        """The observer hook: one packet seen at ``node`` (``kind`` is
        ``"ingress"``, ``"egress"`` or ``"drop"``)."""
        predicate = self.predicate
        if predicate is not None and not predicate(packet):
            return
        if self.truncated:
            return
        if len(self.events) >= self.max_events:
            # Truncation is loud, not silent: one sentinel event marks where
            # the trace stops (neutral ids so per-packet analyses — which
            # filter on ingress/egress/drop kinds — are unaffected), and the
            # run's event log gets a warning when observability is attached.
            self.truncated = True
            self.events.append(
                HopEvent(
                    time=node.sim.now,
                    node=node.name,
                    kind="truncated",
                    packet_id=-1,
                    flow_id=-1,
                    seq=-1,
                    size_bytes=0,
                )
            )
            obs = getattr(node.sim, "obs", None)
            if obs:
                obs.events.warning(
                    "packet_tracer_truncated",
                    node=node.name,
                    max_events=self.max_events,
                )
            return
        self.events.append(
            HopEvent(
                time=node.sim.now,
                node=node.name,
                kind=kind,
                packet_id=packet.packet_id,
                flow_id=packet.flow_id,
                seq=packet.seq,
                size_bytes=packet.size_bytes,
                enq_depth=enq_depth,
            )
        )

    # -- analysis -----------------------------------------------------------

    def drops(self) -> List[HopEvent]:
        return [e for e in self.events if e.kind == "drop"]

    def __len__(self) -> int:
        return len(self.events)
