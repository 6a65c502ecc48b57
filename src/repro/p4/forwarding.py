"""Plain L3 forwarding program — the non-telemetry baseline data plane.

Matches the destination address against the ``ipv4_forward`` exact-match
table, decrements TTL, and forwards.  The INT program subclasses this and
adds the telemetry behaviour on top, mirroring how the paper's P4 program
extends ordinary forwarding.
"""

from __future__ import annotations

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

    def _compile_ingress(self, probe_stamp=None):
        """The forwarding decision as one closure: TTL check + exact-match
        lookup with the table's own hit/miss counters, no context object.
        Captures the table's entry dict by reference, so control-plane
        ``set_entry`` updates are visible immediately.  ``probe_stamp`` is
        a subclass's probe-only ingress work, run before routing as its
        staged ``ingress`` does before calling up."""
        table = self.forward_table
        entries = table._entries

        def fast_ingress(packet) -> int:
            if probe_stamp is not None and packet.flags & FLAG_PROBE:
                probe_stamp(packet)
            if packet.ttl <= 1:
                return -1
            entry = entries.get(packet.dst_addr)
            if entry is None:
                table.misses += 1
                entry = table.default_action
            else:
                table.hits += 1
            if entry[0] == "forward":
                packet.ttl -= 1
                return entry[1]["port"]
            return -1

        return fast_ingress

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

        def fast_egress(packet, port_index: int, enq_depth: int) -> None:
            return None  # plain forwarding has an empty egress stage

        return self._compile_ingress(), fast_egress
