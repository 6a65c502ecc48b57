"""The paper's INT data-plane program (Section III-A, Fig. 2).

Behaviour, per packet class:

* **Regular packet** at egress: fold the queue depth it observed at enqueue
  into the per-port ``max_qdepth`` register (``reg = max(reg, enq_qdepth)``)
  and forward it *unmodified* — the paper's core design choice that avoids
  growing every data packet with INT metadata.

* **Probe packet** at ingress: if the upstream hop stamped an egress
  timestamp, measure upstream link latency as ``local_clock - stamp``.
  This runs before the packet is enqueued, so the measurement excludes this
  switch's queueing delay (Section III-C).

* **Probe packet** at egress: read-and-reset the ``max_qdepth`` register for
  the probe's egress port, append a hop record ``(switch_id, port, qdepth,
  upstream link latency, egress timestamp)`` to the probe payload, and stamp
  the egress timestamp for the next hop's latency measurement.

Registers are per egress port — one register per INT parameter per port, not
per packet (Section III-A).
"""

from __future__ import annotations

from repro.errors import DataPlaneError, PacketError
from repro.p4.forwarding import PlainForwardingProgram
from repro.p4.headers import append_hop_fields
from repro.p4.pipeline import P4Program, PipelineContext
from repro.simnet.packet import FLAG_PROBE, HEADER_OVERHEAD

__all__ = ["IntTelemetryProgram", "MAX_QDEPTH_REGISTER"]

MAX_QDEPTH_REGISTER = "max_qdepth"


class IntTelemetryProgram(PlainForwardingProgram):
    """Forwarding + register-based INT collection."""

    def __init__(self) -> None:
        super().__init__()
        self._qdepth_reg = None  # sized at bind time from the port count
        self.probes_processed = 0
        self.malformed_probes = 0

    @property
    def data_packets_observed(self) -> int:
        """Data packets the egress stage folded into the max-depth register:
        every frame started on this switch's ports that was not a probe."""
        switch = self.switch
        if switch is None:
            return 0
        started = sum(port.queue.stats.dequeued for port in switch.ports)
        return started - self.probes_processed

    def on_bind(self) -> None:
        assert self.switch is not None
        num_ports = max(1, len(self.switch.ports))
        self._qdepth_reg = self.declare_register(MAX_QDEPTH_REGISTER, num_ports, initial=0)
        # One fold write per data packet, counted by the ports' books.
        self._qdepth_reg.fold_writes = lambda: self.data_packets_observed

    # -- parser ---------------------------------------------------------------

    def parse(self, ctx: PipelineContext) -> None:
        # Probe classification: the probe flag models the paper's
        # "UDP with certain IP header fields set (aka Geneve option)".
        ctx.meta["is_probe"] = ctx.packet.is_probe

    # -- ingress ---------------------------------------------------------------

    def ingress(self, ctx: PipelineContext) -> None:
        packet = ctx.packet
        if ctx.meta["is_probe"] and packet.last_egress_ts is not None:
            # Upstream link latency, measured before enqueueing.  Probe-only
            # phase scope (int_stamp): data packets never pay the clock reads.
            assert self.switch is not None
            prof = self.switch.sim.profiler
            if prof is not None:
                prof.phase_begin("int_stamp")
            arrival = self.switch.clock.read()
            packet.int_link_latency = arrival - packet.last_egress_ts
            if prof is not None:
                prof.phase_end()
        super().ingress(ctx)

    # -- fast path -------------------------------------------------------------

    def compile(self):
        """Both packet classes as context-free closures: the switch hop
        (plain routing for data packets; the ``int_stamp`` latency
        measurement before routing for probes) and the egress stage (the
        per-port max-depth register fold for data packets; the
        collect-and-reset + hop-record append for probes).  Each mirrors
        the staged stage bodies effect for effect (counters, clock reads,
        register accesses, packet mutations).  The fold is the register's
        value list: the ports fold a data packet into their cell as it
        starts, with no call to the egress stage.

        The switch's packet observer, if any, is bound here too.  One that
        matches only probes gets its hook inside the two probe branches,
        behind the test of its declared ``probe_stride``, so a data packet
        runs exactly the unobserved closures' bytecode; one that matches
        every packet gets both closures prefixed with it, and no fold: the
        egress stage then sees every frame."""
        cls = type(self)
        if (
            cls.process_ingress is not P4Program.process_ingress
            or cls.process_egress is not P4Program.process_egress
            or cls.parse is not IntTelemetryProgram.parse
            or cls.ingress is not IntTelemetryProgram.ingress
            or cls.egress is not IntTelemetryProgram.egress
            or cls.deparse is not P4Program.deparse
        ):
            return None
        if self._qdepth_reg is None:
            raise DataPlaneError("INT program compiled before bind()")
        assert self.switch is not None
        reg = self._qdepth_reg
        values = reg._values  # reset() wipes in place, so identity is stable
        switch = self.switch
        sim = switch.sim
        clock_read = switch.clock.read
        switch_id = switch.switch_id
        observer = switch.observer
        observe_all = observe_probe = None
        stride = 1
        if observer is not None:
            if observer.probes_only:
                observe_probe = observer.record
                stride = observer.probe_stride
            else:
                observe_all = observer.record

        def int_stamp(packet) -> None:
            if observe_probe is not None and (packet.seq - 1) % stride == 0:
                observe_probe(switch, "ingress", packet)
            if packet.last_egress_ts is not None:
                prof = sim.profiler
                if prof is None:
                    packet.int_link_latency = clock_read() - packet.last_egress_ts
                else:
                    prof.phase_begin("int_stamp")
                    packet.int_link_latency = clock_read() - packet.last_egress_ts
                    prof.phase_end()

        def egress(packet, out_port, enq_depth: int) -> None:
            if not packet.flags & FLAG_PROBE:
                # reg.fold_max(port, enq_depth): the books count it.
                port_index = out_port.port_index
                if enq_depth > values[port_index]:
                    values[port_index] = enq_depth
                return
            if observe_probe is not None and (packet.seq - 1) % stride == 0:
                observe_probe(switch, "egress", packet, enq_depth)
            self.probes_processed += 1
            # reg.read_and_reset(port), bounds check and counters included.
            port_index = out_port.port_index
            if not 0 <= port_index < reg.size:
                reg._check(port_index)
            reg.reads += 1
            reg._writes += 1
            qdepth = values[port_index]
            values[port_index] = reg.initial
            egress_ts = clock_read()
            payload = packet.payload
            if payload is None:
                raise DataPlaneError(
                    f"probe packet #{packet.packet_id} has no payload to extend"
                )
            try:
                payload = append_hop_fields(
                    payload, switch_id, port_index, qdepth,
                    packet.int_link_latency, egress_ts,
                )
            except PacketError:
                self.malformed_probes += 1
                reg.max_update(port_index, qdepth)
                return
            packet.payload = payload
            wire_size = HEADER_OVERHEAD + len(payload)
            if wire_size > packet.size_bytes:
                packet.size_bytes = wire_size
            packet.int_link_latency = None
            packet.last_egress_ts = egress_ts

        hop = self._compile_hop(int_stamp)
        if observe_all is None:
            return hop, egress, values

        def observed_hop(packet, in_port) -> None:
            observe_all(switch, "ingress", packet)
            hop(packet, in_port)

        def observed_egress(packet, out_port, enq_depth: int) -> None:
            observe_all(switch, "egress", packet, enq_depth)
            egress(packet, out_port, enq_depth)

        observed_hop.__qualname__ = hop.__qualname__
        return observed_hop, observed_egress, None

    # -- egress ---------------------------------------------------------------

    def egress(self, ctx: PipelineContext) -> None:
        assert self.switch is not None
        if self._qdepth_reg is None:
            raise DataPlaneError("INT program used before bind()")
        packet = ctx.packet
        port = ctx.egress_port
        assert port is not None
        if not ctx.meta["is_probe"]:
            self._qdepth_reg.fold_max(port, ctx.enq_depth)
            return

        # Probe: collect-and-reset the register, append the hop record.
        # Field-level append (append_hop_fields): identical bytes to the
        # IntHopRecord/append_hop_record pair without the per-hop record
        # construction.
        self.probes_processed += 1
        qdepth = self._qdepth_reg.read_and_reset(port)
        egress_ts = self.switch.clock.read()
        if packet.payload is None:
            raise DataPlaneError(
                f"probe packet #{packet.packet_id} has no payload to extend"
            )
        try:
            new_payload = append_hop_fields(
                packet.payload,
                self.switch.switch_id,
                port,
                qdepth,
                packet.int_link_latency,
                egress_ts,
            )
        except PacketError:
            # Probe-flagged packet with an undecodable payload (corruption
            # or spoofing).  A hardware pipeline would forward it untouched;
            # the register value it consumed is restored so real probes
            # still collect it.
            self.malformed_probes += 1
            self._qdepth_reg.max_update(port, qdepth)
            return
        # Probes are padded to a fixed frame size (the paper's 1.5 KB
        # packets), so growing the INT stack does not change the wire size
        # unless the stack outgrows the padding.
        packet.payload = new_payload
        packet.size_bytes = max(packet.size_bytes, HEADER_OVERHEAD + len(new_payload))
        packet.int_link_latency = None
        packet.last_egress_ts = egress_ts
