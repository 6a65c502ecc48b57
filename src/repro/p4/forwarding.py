"""Plain L3 forwarding program — the non-telemetry baseline data plane.

Matches the destination address against the ``ipv4_forward`` exact-match
table, decrements TTL, and forwards.  The INT program subclasses this and
adds the telemetry behaviour on top, mirroring how the paper's P4 program
extends ordinary forwarding.
"""

from __future__ import annotations

from repro.errors import DataPlaneError
from repro.p4.pipeline import P4Program, PipelineContext
from repro.simnet.packet import FLAG_PROBE

__all__ = ["PlainForwardingProgram", "FORWARD_TABLE"]

FORWARD_TABLE = "ipv4_forward"


class PlainForwardingProgram(P4Program):
    """Destination-address exact-match forwarding with TTL handling."""

    def __init__(self) -> None:
        super().__init__()
        self.forward_table = self.declare_table(FORWARD_TABLE, default_action="drop")

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
        ``hop(packet, in_port)`` for a frame arriving from the wire: the
        switch's receive counter, ``probe_stamp`` (a subclass's probe-only
        ingress work, run before routing as its staged ``ingress`` does
        before calling up), the TTL check and exact-match lookup with the
        table's own hit/miss counters, the forwarding counters and the
        hand-off to the egress port — no context object and no further
        frame before :meth:`Port.send`.  Captures the table's entry dict and
        the switch's port list by reference, so control-plane ``set_entry``
        updates are visible immediately.

        One plain body and one phase-protocol body with the scopes of the
        staged ``Switch.on_ingress`` (p4_pipeline, then enqueue around the
        send); profiles name the closure after that handler."""
        table = self.forward_table
        entries = table._entries
        switch = self.switch
        sim = switch.sim
        ports = switch.ports

        def hop(packet, in_port) -> None:
            prof = sim.profiler
            if prof is None:
                switch.packets_received += 1
                if packet.flags & FLAG_PROBE and probe_stamp is not None:
                    probe_stamp(packet)
                if packet.ttl > 1:
                    entry = entries.get(packet.dst_addr)
                    if entry is None:
                        table.misses += 1
                        entry = table.default_action
                    else:
                        table.hits += 1
                    if entry[0] == "forward":
                        packet.ttl -= 1
                        packet.hop_count += 1
                        switch.packets_forwarded += 1
                        ports[entry[1]["port"]].send(packet)
                        return
                switch.packets_dropped_pipeline += 1
                return
            prof.phase_first("p4_pipeline")
            switch.packets_received += 1
            if packet.flags & FLAG_PROBE and probe_stamp is not None:
                probe_stamp(packet)
            if packet.ttl > 1:
                entry = entries.get(packet.dst_addr)
                if entry is None:
                    table.misses += 1
                    entry = table.default_action
                else:
                    table.hits += 1
                if entry[0] == "forward":
                    packet.ttl -= 1
                    packet.hop_count += 1
                    switch.packets_forwarded += 1
                    prof.phase_next("enqueue")
                    ports[entry[1]["port"]].send(packet)
                    prof.phase_end()
                    return
            prof.phase_end()
            switch.packets_dropped_pipeline += 1

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

        return self._compile_hop(), egress
