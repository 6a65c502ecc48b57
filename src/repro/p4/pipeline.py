"""The P4 program structure: Parser -> Ingress -> Egress -> Deparser.

Section II of the paper describes the four programmable blocks; this module
gives them a Python API.  A :class:`P4Program` is instantiated once per
switch; the switch invokes :meth:`P4Program.process_ingress` when a packet
arrives and :meth:`P4Program.process_egress` when the packet leaves its
egress queue (i.e. with BMv2's ``enq_qdepth`` available).

Per-packet state flows through a :class:`PipelineContext`, the analogue of
P4 user metadata.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import DataPlaneError
from repro.p4.registers import RegisterArray
from repro.p4.tables import ExactMatchTable
from repro.simnet.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.switch import Switch

__all__ = ["PipelineContext", "P4Program"]


class PipelineContext:
    """Per-packet metadata threaded through the pipeline stages."""

    __slots__ = ("packet", "switch", "in_port", "egress_port", "dropped", "enq_depth", "meta")

    def __init__(self, packet: Packet, switch: "Switch", in_port: Optional[int]) -> None:
        self.packet = packet
        self.switch = switch
        self.in_port = in_port
        self.egress_port: Optional[int] = None
        self.dropped = False
        # Queue depth observed at enqueue; only meaningful during egress.
        self.enq_depth: int = 0
        # Free-form user metadata (P4's ``metadata`` struct).
        self.meta: Dict[str, Any] = {}

    def mark_drop(self) -> None:
        self.dropped = True

    def set_egress_port(self, port_index: int) -> None:
        self.egress_port = port_index


class P4Program:
    """Base class for data-plane programs.

    Subclasses override the four stage methods.  The base class provides the
    register/table declaration API (:meth:`declare_register`,
    :meth:`declare_table`) used by programs and inspected by tests and the
    control plane.
    """

    def __init__(self) -> None:
        self.registers: Dict[str, RegisterArray] = {}
        self.tables: Dict[str, ExactMatchTable] = {}
        self.switch: Optional["Switch"] = None

    # -- declaration --------------------------------------------------------

    def declare_register(self, name: str, size: int, initial: int = 0) -> RegisterArray:
        if name in self.registers:
            raise DataPlaneError(f"register {name!r} already declared")
        reg = RegisterArray(name, size, initial)
        self.registers[name] = reg
        return reg

    def declare_table(self, name: str, default_action: str = "drop") -> ExactMatchTable:
        if name in self.tables:
            raise DataPlaneError(f"table {name!r} already declared")
        table = ExactMatchTable(name, default_action)
        self.tables[name] = table
        return table

    def register(self, name: str) -> RegisterArray:
        try:
            return self.registers[name]
        except KeyError:
            raise DataPlaneError(f"unknown register {name!r}") from None

    def table(self, name: str) -> ExactMatchTable:
        try:
            return self.tables[name]
        except KeyError:
            raise DataPlaneError(f"unknown table {name!r}") from None

    # -- lifecycle ----------------------------------------------------------

    def bind(self, switch: "Switch") -> None:
        """Attach the program to its switch (called once at build time)."""
        if self.switch is not None:
            raise DataPlaneError("program already bound to a switch")
        self.switch = switch
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for programs that size resources from switch port count."""

    def compile(self):
        """Fold the pipeline into precompiled per-switch closures.

        Returns ``(hop, egress)`` or ``None``.  The closures cover every
        packet class the program handles — data packets and probes alike —
        with zero :class:`PipelineContext` allocations:

        * ``hop(packet, in_port) -> None`` — what ``Switch.on_ingress``
          does, with parser + ingress control folded in: counters, the
          forwarding decision and the egress port's ``send``;
        * ``egress(packet, out_port, enq_depth) -> None`` — what
          ``Switch.on_egress`` does, with parser + egress + deparser folded
          in.

        The switch binds them into its ports' slots, so the engine and the
        ports call them directly.  Implementations must preserve every
        externally observable effect of the staged path (switch and table
        counters, register read/write counters, clock reads, packet
        mutations, profiler phases) and must return ``None`` whenever any
        stage has been overridden by a subclass they do not know about —
        the staged context path then remains the oracle, as it does under
        ``REPRO_SLOWPATH=1``.

        Nothing calls an observer hook around compiled closures: an
        implementation either binds ``self.switch.observer``'s ``record``
        into the closures it returns (the switch recompiles whenever the
        slot changes) or returns ``None`` while an observer is attached,
        leaving the staged path, which tests the slot itself.

        The base program has no ingress control, so it has no fast path.
        """
        return None

    # -- stages (override in subclasses) -------------------------------------

    def parse(self, ctx: PipelineContext) -> None:
        """Classify the packet; populate ``ctx.meta``."""

    def ingress(self, ctx: PipelineContext) -> None:
        """Forwarding decision: call ``ctx.set_egress_port`` or ``ctx.mark_drop``."""
        raise NotImplementedError

    def egress(self, ctx: PipelineContext) -> None:
        """Egress-time processing (queue depth available in ``ctx.enq_depth``)."""

    def deparse(self, ctx: PipelineContext) -> None:
        """Reassemble the packet before it hits the wire."""

    # -- driver entry points (called by the switch) ---------------------------

    def process_ingress(self, packet: Packet, in_port: Optional[int]) -> PipelineContext:
        if self.switch is None:
            raise DataPlaneError("program not bound to a switch")
        ctx = PipelineContext(packet, self.switch, in_port)
        self.parse(ctx)
        self.ingress(ctx)
        if not ctx.dropped and ctx.egress_port is None:
            raise DataPlaneError(
                f"{type(self).__name__} on {self.switch.name}: ingress neither "
                "forwarded nor dropped the packet"
            )
        return ctx

    def process_egress(self, packet: Packet, out_port: int, enq_depth: int) -> None:
        if self.switch is None:
            raise DataPlaneError("program not bound to a switch")
        ctx = PipelineContext(packet, self.switch, None)
        ctx.egress_port = out_port
        ctx.enq_depth = enq_depth
        self.parse(ctx)
        self.egress(ctx)
        self.deparse(ctx)
