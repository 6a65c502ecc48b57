"""Probe generation and termination.

:class:`ProbeSender` emits probe packets on a fixed period (paper default:
100 ms) toward one or more targets.  Probes are UDP datagrams flagged with
the probe bit (the paper's Geneve-style marking), carry an empty INT stack,
and are padded to a fixed frame size so the INT metadata appended in flight
does not change the wire footprint (paper: 1.5 KB frames).

:class:`ProbeResponder` terminates probes at any node.  If the node hosts
the collector, the probe is handed over directly; otherwise the responder
wraps the probe's INT stack in a small report datagram and forwards it to
the scheduler (mesh-probing mode).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import TelemetryError
from repro.p4.headers import PROBE_HEADER_SIZE, encode_probe_header
from repro.simnet.addressing import PORT_PROBE, PROTO_UDP
from repro.simnet.engine import PeriodicTimer
from repro.simnet.host import Host
from repro.simnet.packet import FLAG_PROBE, HEADER_OVERHEAD, MTU, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.collector import IntCollector

__all__ = ["ProbeSender", "ProbeResponder", "PORT_PROBE_REPORT", "DEFAULT_PROBE_INTERVAL"]

PORT_PROBE_REPORT = 5002
DEFAULT_PROBE_INTERVAL = 0.1   # seconds (paper Section III-A)
DEFAULT_PROBE_SIZE = MTU       # paper: 1.5 KB probe frames


class ProbeSender:
    """Periodic probe source attached to one host."""

    def __init__(
        self,
        host: Host,
        targets: Sequence[int],
        *,
        interval: float = DEFAULT_PROBE_INTERVAL,
        probe_size: int = DEFAULT_PROBE_SIZE,
    ) -> None:
        targets = [t for t in targets if t != host.addr]
        if not targets:
            raise TelemetryError(
                f"probe sender on {host.name} needs at least one target other than itself"
            )
        if interval <= 0:
            raise TelemetryError(f"probe interval must be positive, got {interval}")
        min_size = HEADER_OVERHEAD + PROBE_HEADER_SIZE
        if probe_size < min_size:
            raise TelemetryError(
                f"probe size {probe_size} too small; need >= {min_size} bytes"
            )
        self.host = host
        self.targets = targets
        self.interval = interval
        self.probe_size = probe_size
        self.probes_sent = 0
        self._seq = 0
        self._target_index = 0
        self._src_port = host.ephemeral_port()
        # One emission template per target, as UdpCbrFlow keeps per flow:
        # a probe is a copy-and-patch of it, with the sender clock patched
        # into ``message``.
        self._templates = [
            Packet.template(
                host.addr, target, src_port=self._src_port, dst_port=PORT_PROBE,
                size_bytes=probe_size, payload=encode_probe_header(0), flags=FLAG_PROBE,
            )
            for target in targets
        ]
        # Each target is probed once per interval, but emission is spread
        # round-robin across the interval and phase-shifted per host:
        # synchronized probe bursts would queue behind each other at shared
        # egress ports and read as phantom congestion.
        phase = (host.addr * 0.618034) % 1.0
        self._timer = PeriodicTimer(
            host.sim,
            self._tick_period(),
            self._tick,
            start_delay=self._tick_period() * (0.05 + 0.9 * phase),
        )

    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def _tick_period(self) -> float:
        return self.interval / len(self.targets)

    def set_interval(self, interval: float) -> None:
        """Retune the probing period (adaptive-probing control plane).  The
        new period takes effect from the next firing."""
        if interval <= 0:
            raise TelemetryError(f"probe interval must be positive, got {interval}")
        self.interval = interval
        self._timer.period = self._tick_period()

    @property
    def overhead_bps(self) -> float:
        """Offered probe load of this sender (paper: 120 Kbps per node)."""
        return len(self.targets) * self.probe_size * 8.0 / self.interval

    def _tick(self) -> None:
        index = self._target_index % len(self.targets)
        self._target_index += 1
        host = self.host
        self._seq = seq = self._seq + 1
        packet = self._templates[index].copy_patch(seq, host.sim.now)
        packet.message = host.clock.read()  # sender clock, for the report
        self.probes_sent += 1
        obs = host.sim.obs
        if obs:
            target = packet.dst_addr
            obs.probe_sent(src=host.addr, dst=target, seq=seq)
            trace = getattr(obs, "trace", None)
            if trace is not None and trace.wants_probe(seq):
                trace.probe_sent(
                    src=host.addr,
                    dst=target,
                    seq=seq,
                    packet_id=packet.packet_id,
                )
        host.send(packet)


class ProbeResponder:
    """Terminates probes arriving at a host.

    With a local collector (the scheduler node), hands the probe over
    directly.  Otherwise forwards a compact report to ``collector_addr`` —
    the mesh-mode path.  Report packets are regular (non-probe) UDP traffic.
    """

    def __init__(
        self,
        host: Host,
        *,
        collector: Optional["IntCollector"] = None,
        collector_addr: Optional[int] = None,
    ) -> None:
        if collector is None and collector_addr is None:
            raise TelemetryError(
                f"probe responder on {host.name} needs a collector or a collector address"
            )
        self.host = host
        self.collector = collector
        self.collector_addr = collector_addr
        self.probes_terminated = 0
        self.reports_forwarded = 0
        # Mesh-mode report template: per report, copy-and-patch it and set
        # the source port, the size and the 7-tuple message.
        self._report = (
            None if collector is not None
            else Packet.template(host.addr, collector_addr, dst_port=PORT_PROBE_REPORT)
        )
        host.bind(PROTO_UDP, PORT_PROBE, self._on_probe)

    def _on_probe(self, packet: Packet) -> None:
        payload = packet.payload
        if not packet.flags & FLAG_PROBE or payload is None:
            return
        self.probes_terminated += 1
        host = self.host
        received_at = host.clock.read()
        final_link_latency: Optional[float] = None
        if packet.last_egress_ts is not None:
            final_link_latency = received_at - packet.last_egress_ts
        sent_at = packet.message if isinstance(packet.message, float) else 0.0

        if self.collector is not None:
            self.collector.ingest_probe(
                probe_src=packet.src_addr,
                probe_dst=host.addr,
                seq=packet.seq,
                sent_at=sent_at,
                received_at=received_at,
                payload=payload,
                final_link_latency=final_link_latency,
            )
            return

        src_port = host.ephemeral_port()
        report = self._report.copy_patch(0, host.sim.now)
        report.src_port = src_port
        report.size_bytes = HEADER_OVERHEAD + len(payload) + 24
        report.message = (
            packet.src_addr, host.addr, packet.seq, sent_at, received_at, payload,
            final_link_latency,
        )
        self.reports_forwarded += 1
        host.send(report)
