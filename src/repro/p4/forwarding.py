"""Plain L3 forwarding program — the non-telemetry baseline data plane.

Matches the destination address against the ``ipv4_forward`` exact-match
table, decrements TTL, and forwards.  The INT program subclasses this and
adds the telemetry behaviour on top, mirroring how the paper's P4 program
extends ordinary forwarding.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable

from repro.errors import DataPlaneError
from repro.p4.pipeline import P4Program, PipelineContext
from repro.p4.tables import ExactMatchTable
from repro.simnet.packet import FLAG_PROBE

__all__ = ["PlainForwardingProgram", "RouteTable", "FORWARD_TABLE"]

FORWARD_TABLE = "ipv4_forward"


class RouteTable(ExactMatchTable):
    """The forwarding table with the compiled hop's route slots: ``routes``
    maps a destination to the egress port the hop resolved from its entry.
    Writing a destination's entry drops its slot."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.routes: Dict[Hashable, Any] = {}

    def add_entry(self, key: Hashable, action: str, **params: Any) -> None:
        super().add_entry(key, action, **params)
        self.routes.pop(key, None)

    def set_entry(self, key: Hashable, action: str, **params: Any) -> None:
        super().set_entry(key, action, **params)
        self.routes.pop(key, None)


class PlainForwardingProgram(P4Program):
    """Destination-address exact-match forwarding with TTL handling."""

    def __init__(self) -> None:
        super().__init__()
        self.forward_table = self.tables[FORWARD_TABLE] = RouteTable(FORWARD_TABLE)

    def ingress(self, ctx: PipelineContext) -> None:
        # "routing" phase scope: TTL check + the ipv4_forward exact-match
        # lookup — the per-packet forwarding decision on the hot path.
        prof = ctx.switch.sim.profiler
        if prof is not None:
            prof.phase_begin("routing")
        packet = ctx.packet
        if packet.ttl <= 1:
            ctx.mark_drop()
        else:
            action, params = self.forward_table.lookup(packet.dst_addr)
            if action == "forward":
                packet.ttl -= 1
                ctx.set_egress_port(params["port"])
            else:  # "drop" (table miss or explicit drop entry)
                ctx.mark_drop()
        if prof is not None:
            prof.phase_end()

    # Control-plane helper used by the routing module.
    def install_route(self, dst_addr: int, port_index: int) -> None:
        self.forward_table.set_entry(dst_addr, "forward", port=port_index)

    # -- fast path ----------------------------------------------------------

    def _compile_hop(self, probe_stamp=None):
        """The switch hop as one closure, called by the engine as
        ``hop(packet, in_port)`` for a frame arriving from the wire:
        ``probe_stamp`` (a subclass's probe-only ingress work, run before
        routing as its staged ``ingress`` does before calling up), the TTL
        check, the route, the TTL decrement and the hand-off to the egress
        port — no context object and no further frame before
        :meth:`Port.send`.  The switch's receive and forward counts and the
        packet's hop count are reads of the ports' books and the TTL, so the
        hop writes none of them.

        The route is a slot: :attr:`RouteTable.routes` maps a destination
        to its egress :class:`~repro.simnet.nic.Port`, filled by the first
        frame to take its ``forward`` entry.  ``set_entry`` drops the
        destination's slot, so a route set after compile reaches the next
        frame; a miss, or a drop entry, takes the exact-match lookup every
        time, and each miss is counted.

        One plain body and one phase-protocol body with the scopes of the
        staged ``Switch.on_ingress`` (p4_pipeline, then enqueue around the
        send); profiles name the closure after that handler."""
        table = self.forward_table
        entries = table._entries
        routes = table.routes
        switch = self.switch
        sim = switch.sim
        ports = switch.ports
        pipeline_drop = switch._pipeline_drop

        def route(dst):
            """The exact-match lookup behind an empty slot: the egress port,
            now in the slot, or None to drop (a miss takes the table's
            default action, drop)."""
            entry = entries.get(dst)
            if entry is None:
                table.misses += 1
            elif entry[0] == "forward":
                port = routes[dst] = ports[entry[1]["port"]]
                return port
            return None

        def hop(packet, in_port) -> None:
            prof = sim.profiler
            if prof is None:
                if packet.flags & FLAG_PROBE and probe_stamp is not None:
                    probe_stamp(packet)
                if packet.ttl > 1:
                    try:
                        port = routes[packet.dst_addr]
                    except KeyError:
                        port = route(packet.dst_addr)
                        if port is None:
                            pipeline_drop(packet)
                            return
                    packet.ttl -= 1
                    port.send(packet)
                    return
                pipeline_drop(packet)
                return
            prof.phase_first("p4_pipeline")
            if packet.flags & FLAG_PROBE and probe_stamp is not None:
                probe_stamp(packet)
            if packet.ttl > 1:
                try:
                    port = routes[packet.dst_addr]
                except KeyError:
                    port = route(packet.dst_addr)
                if port is not None:
                    packet.ttl -= 1
                    prof.phase_next("enqueue")
                    port.send(packet)
                    prof.phase_end()
                    return
            prof.phase_end()
            pipeline_drop(packet)

        hop.__qualname__ = "Switch.on_ingress"
        return hop

    def compile(self):
        cls = type(self)
        if (
            cls.process_ingress is not P4Program.process_ingress
            or cls.process_egress is not P4Program.process_egress
            or cls.parse is not P4Program.parse
            or cls.ingress is not PlainForwardingProgram.ingress
            or cls.egress is not P4Program.egress
            or cls.deparse is not P4Program.deparse
            # No probe branch to bind an observer's hook into: an observed
            # plain switch runs the staged path.
            or (self.switch is not None and self.switch.observer is not None)
        ):
            return None
        if self.switch is None:
            raise DataPlaneError("forwarding program compiled before bind()")

        def egress(packet, out_port, enq_depth: int) -> None:
            return None  # plain forwarding has an empty egress stage

        # The empty fold: a data frame's start makes no egress call.
        return self._compile_hop(), egress, ()
