"""Base node machinery shared by hosts and switches: ports and clocks.

The clock model matters for fidelity: the paper synchronizes BMv2 switches
with NTP (Section III-C, footnote 1) and attributes the negative-gain tail of
Fig. 8 to *measurement jitter*.  :class:`Clock` therefore exposes a local
time reading = simulated time + a fixed offset (residual NTP error) + white
noise (reading jitter).  Link-latency measurements computed from two
different clocks inherit exactly the error the paper describes.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.simnet.engine import Simulator
from repro.simnet.link import Link
from repro.simnet.nic import Port
from repro.simnet.packet import FLAG_PROBE, Packet
from repro.simnet.queueing import DEFAULT_QUEUE_CAPACITY
from repro.simnet.random import prefetch

__all__ = ["Clock", "Node"]


class Clock:
    """A node-local clock with NTP-style offset and reading jitter."""

    def __init__(
        self,
        sim: Simulator,
        offset: float = 0.0,
        jitter_std: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if jitter_std < 0:
            raise ValueError(f"jitter_std must be >= 0, got {jitter_std}")
        if jitter_std > 0 and rng is None:
            raise ValueError("a jittery clock requires an rng")
        self._sim = sim
        self.offset = offset
        self.jitter_std = jitter_std
        self._rng = rng
        # Noise samples, prefetched in blocks of 256 (see prefetch).
        self._noise = prefetch(lambda: self._rng.normal(0.0, self.jitter_std, 256))

    def read(self) -> float:
        """Local time: true time + offset + one sample of reading noise."""
        t = self._sim._now + self.offset
        if self.jitter_std > 0:
            t += next(self._noise)
        return t


class Node:
    """A device with named identity, an address, ports, and a clock.

    Subclasses implement :meth:`on_ingress` (packet arrived from the wire)
    and may override :meth:`on_egress` (packet leaving an egress queue —
    where P4 egress stages run).
    """

    def __init__(self, sim: Simulator, name: str, addr: int, clock: Optional[Clock] = None) -> None:
        self.sim = sim
        self.name = name
        self.addr = addr
        self.clock = clock if clock is not None else Clock(sim)
        self.ports: List[Port] = []
        self.packets_dropped = 0
        # Per-packet service-time variance (software forwarding jitter).
        # 0.0 = deterministic; j draws each transmission time uniformly from
        # [1-j, 1+j] x nominal.  Switches get a non-zero default from the
        # Network builder; hosts stay deterministic.
        self.service_jitter: float = 0.0
        self._service_rng: Optional[np.random.Generator] = None
        self._service_factors = prefetch(self._service_block)
        # The packet observer watching this node (a PacketTracer), or None.
        # A declared slot the data path tests, rather than handlers wrapped
        # onto the instance: the methods stay the class's own, and nothing
        # has to look into the instance dict to learn a node is observed
        # (see DESIGN.md section 7, "Observed path").
        self.observer: Optional[Any] = None

    def set_observer(self, observer: Optional[Any]) -> None:
        """Attach the node's packet observer, or detach it with ``None``.

        An observer declares ``probes_only`` (it matches nothing but probe
        packets, so data packets need not be offered) and ``probe_stride``
        (of the probes it matches those with ``(seq - 1) % probe_stride ==
        0``; 1 for all), and takes hop events through
        ``record(node, kind, packet, enq_depth=None)``."""
        if observer is not None and self.observer is not None:
            raise TopologyError(f"{self.name}: a packet observer is already attached")
        self.observer = observer
        self._bind_ports()

    def set_service_jitter(self, jitter: float, rng: np.random.Generator) -> None:
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"service jitter must be in [0, 1), got {jitter}")
        self.service_jitter = jitter
        self._service_rng = rng
        self._service_factors = prefetch(self._service_block)
        for port in self.ports:
            port._jitter = self._service_factors if jitter != 0.0 else None

    def _service_block(self) -> np.ndarray:
        # Each element-wise operation rounds exactly as the scalar
        # expression does.
        return 1.0 + self.service_jitter * (2.0 * self._service_rng.random(512) - 1.0)

    def service_time_factor(self) -> float:
        """Multiplier applied to one packet's transmission time:
        ``1 + j(2u - 1)`` for one uniform draw ``u``.  Ports draw the same
        stream inline (``next(node._service_factors)``)."""
        if self.service_jitter <= 0.0:
            return 1.0
        return next(self._service_factors)

    # -- wiring -----------------------------------------------------------

    def add_port(
        self,
        link: Link,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
    ) -> Port:
        port = Port(self, len(self.ports), link, queue_capacity)
        self.ports.append(port)
        return port

    def port(self, index: int) -> Port:
        try:
            return self.ports[index]
        except IndexError:
            raise TopologyError(f"{self.name}: no port {index}") from None

    # -- data path (subclass responsibilities) ------------------------------

    def entry_points(self) -> Tuple[Callable[..., None], Callable[..., None], Any]:
        """What a port hands this node's frames to: ``(ingress, egress,
        fold)``.  ``ingress(packet, in_port)`` takes a frame arriving from
        the wire and ``egress(packet, out_port, enq_depth)`` one leaving an
        egress queue.  ``fold`` says what a data frame's start does instead
        of the egress call: ``None`` (this default) makes the call for every
        frame; a register's value list takes ``enq_depth`` as a max into the
        port's cell; ``()`` does nothing.  Probes always get the call.
        Ports bind all three when they are built and wired, and again
        whenever :meth:`_bind_ports` runs (observer changes, a switch's
        recompile)."""
        return self.on_ingress, self.on_egress, None

    def arrival_sinks(self) -> Optional[dict]:
        """The counting sinks a port sending to this node may book frames
        for instead of delivering them, by UDP port (see
        :class:`~repro.simnet.host.Host`); ``None``, the default, books
        nothing."""
        return None

    def _bind_ports(self) -> None:
        """Rebind the slots that hand this node its frames: its ports'
        egress slots and fold cells, and its peers' delivery and arrival
        book slots."""
        ingress, egress, fold = self.entry_points()
        sinks = self.arrival_sinks()
        for port in self.ports:
            port._egress = egress
            port._fold = fold
            if port._peer is not None:
                port._peer._deliver = ingress
                port._peer._sinks = sinks

    def on_ingress(self, packet: Packet, in_port: Port) -> None:
        raise NotImplementedError

    def on_egress(self, packet: Packet, out_port: Port, enq_depth: int) -> None:
        """Called as ``packet`` leaves ``out_port``'s queue.  Default: no-op
        (plain hosts have no programmable egress stage)."""

    def _observe(self, kind: str, packet: Packet, enq_depth: Optional[int] = None) -> None:
        """Offer one hop event to the attached observer.  For the paths where
        a call per packet is affordable (drops, the staged pipeline); the hot
        handlers inline the same test."""
        observer = self.observer
        if observer is not None and (
            (packet.seq - 1) % observer.probe_stride == 0
            if packet.flags & FLAG_PROBE
            else not observer.probes_only
        ):
            observer.record(self, kind, packet, enq_depth)

    def on_packet_dropped(self, packet: Packet, port: Port) -> None:
        self.packets_dropped += 1
        self._report_drop(packet, f"{self.name}[{port.port_index}]")

    def _report_drop(self, packet: Packet, where: str) -> None:
        """Offer a drop to the packet observer and the hub (``where`` labels
        it: a queue ``name[port]``, ``pipeline:name``, ``misrouted:name``)."""
        self._observe("drop", packet)
        obs = self.sim.obs
        if obs:
            obs.packet_dropped(
                queue=where,
                flow_id=packet.flow_id,
                seq=packet.seq,
                size_bytes=packet.size_bytes,
                is_probe=packet.is_probe,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} addr={self.addr} ports={len(self.ports)}>"
