"""Switches: nodes that run a programmable data-plane pipeline.

A :class:`Switch` delegates every forwarding decision to its bound
:class:`~repro.p4.pipeline.P4Program`:

* packet arrival -> ``program.process_ingress`` (parser + ingress control);
* packet leaving an egress queue -> ``program.process_egress`` (parser +
  egress control + deparser), with the queue depth the packet observed at
  enqueue time — the BMv2 ``enq_qdepth`` intrinsic the INT program records.

A program that compiles (:meth:`~repro.p4.pipeline.P4Program.compile`)
replaces both with closures the ports call straight from their slots — one
hop closure per switch from arrival to the egress port's ``send``, one
egress stage — so these handlers stay the staged oracle.

The program is bound *after* the topology is wired (``Network.finalize``),
because programs size per-port resources (the INT registers) from the final
port count.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.errors import DataPlaneError
from repro.simnet.engine import Simulator
from repro.simnet.nic import Port
from repro.simnet.node import Clock, Node
from repro.simnet.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.p4.pipeline import P4Program

__all__ = ["Switch"]


class Switch(Node):
    """A store-and-forward switch with a P4-style pipeline."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        addr: int,
        switch_id: int,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(sim, name, addr, clock)
        self.switch_id = switch_id
        self.program: Optional["P4Program"] = None
        self.packets_dropped_pipeline = 0
        # The compiled hop, egress stage and data-frame fold
        # (P4Program.compile), or None when the program has no fast path /
        # REPRO_SLOWPATH=1 forces the staged oracle path.  Ports call them
        # through their slots (see entry_points); the staged handlers below
        # never test for them.
        self._fast_ingress = None
        self._fast_egress = None
        self._fast_fold = None

    # -- counters, read from the ports' books ---------------------------------

    @property
    def packets_forwarded(self) -> int:
        """Packets the pipeline handed to an egress port: over the ports,
        those each queue accepted plus those it dropped."""
        return sum(port.queue.stats.enqueued + port.queue.stats.dropped for port in self.ports)

    @property
    def packets_received(self) -> int:
        """Packets that arrived: each was forwarded or dropped in the pipeline."""
        return self.packets_forwarded + self.packets_dropped_pipeline

    # -- program ---------------------------------------------------------------

    def bind_program(self, program: "P4Program") -> None:
        if self.program is not None:
            raise DataPlaneError(f"switch {self.name} already has a program")
        self.program = program
        program.bind(self)
        self._bind_ports()

    def _bind_ports(self) -> None:
        """(Re)build the compiled closures before rebinding the slots: at
        bind time, and whenever the observer slot changes — ``compile``
        binds the observer's hook as a closure local, so an unobserved
        switch's closures never test for one."""
        compiled = None
        if self.program is not None and os.environ.get("REPRO_SLOWPATH", "") != "1":
            compiled = self.program.compile()
        self._fast_ingress, self._fast_egress, self._fast_fold = compiled or (None, None, None)
        super()._bind_ports()

    def entry_points(self):
        if self._fast_ingress is None:
            return self.on_ingress, self.on_egress, None
        return self._fast_ingress, self._fast_egress, self._fast_fold

    def _pipeline_drop(self, packet: Packet) -> None:
        """The pipeline dropped ``packet`` (TTL expiry, no route, a drop
        entry): counted and reported as a queue drop is."""
        self.packets_dropped_pipeline += 1
        self._report_drop(packet, f"pipeline:{self.name}")

    # -- data path ----------------------------------------------------------
    #
    # The staged pipeline: the oracle the compiled closures must match
    # effect for effect, and the path of programs without a fast path.

    def on_ingress(self, packet: Packet, in_port: Port) -> None:
        # Phase scopes (profiled runs only): p4_pipeline covers the parser +
        # ingress control (routing/int_stamp sub-phases open inside the
        # program), enqueue covers the egress-port send.  phase_first
        # backdates p4_pipeline to the handler's start, so the entry
        # bookkeeping is attributed rather than lost.
        self._observe("ingress", packet)
        prof = self.sim.profiler
        if prof is not None:
            prof.phase_first("p4_pipeline")
        if self.program is None:
            raise DataPlaneError(f"switch {self.name} has no data-plane program")
        ctx = self.program.process_ingress(packet, in_port.port_index)
        if ctx.dropped:
            if prof is not None:
                prof.phase_end()
            self._pipeline_drop(packet)
            return
        assert ctx.egress_port is not None
        if prof is None:
            self.port(ctx.egress_port).send(packet)
            return
        prof.phase_next("enqueue")
        self.port(ctx.egress_port).send(packet)
        prof.phase_end()

    def on_egress(self, packet: Packet, out_port: Port, enq_depth: int) -> None:
        self._observe("egress", packet, enq_depth)
        assert self.program is not None
        self.program.process_egress(packet, out_port.port_index, enq_depth)
