"""Adaptive probing — congestion-sensitive probe-rate control.

Fig. 9 shows the tension the paper leaves open: fast probing (100 ms)
detects congestion promptly but costs constant overhead; slow probing is
cheap but stale.  Related work (selective INT, Kim et al.; event detection,
Vestin et al.) resolves it by making telemetry rate follow network state.

:class:`AdaptiveProbingController` runs next to the scheduler's collector:

* every report is inspected; a max-queue reading at or above
  ``congestion_threshold`` marks the network "active";
* periodically, the controller picks the fast interval if anything was
  active within ``cooldown`` seconds, the slow interval otherwise;
* on a change it sends a rate-control datagram to every probe sender, whose
  :class:`ProbeRateListener` retunes the local sender.

The probing-overhead ablation benchmark quantifies the trade-off against
fixed-fast and fixed-slow probing.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import TelemetryError
from repro.simnet.addressing import PROTO_UDP
from repro.simnet.engine import PeriodicTimer
from repro.simnet.host import Host
from repro.simnet.packet import HEADER_OVERHEAD, Packet
from repro.telemetry.collector import IntCollector
from repro.telemetry.probe import ProbeSender
from repro.telemetry.records import ProbeReport

__all__ = ["AdaptiveProbingController", "ProbeRateListener", "PORT_PROBE_CTRL"]

PORT_PROBE_CTRL = 5004

DEFAULT_FAST_INTERVAL = 0.1   # the paper's default probing period
DEFAULT_SLOW_INTERVAL = 1.0   # idle-network period (10x cheaper)
# Queue depth that counts as congestion.  The controller's trigger is
# binary, so it uses the stricter bound from Fig. 3 (queues below ~5
# packets occur on links under 50 % utilization): a lower threshold keeps
# the fleet probing fast forever on phantom one-off collisions between
# probes/reports themselves.
DEFAULT_THRESHOLD = 5
DEFAULT_COOLDOWN = 2.0        # seconds of quiet before slowing down


class AdaptiveProbingController:
    """Scheduler-side probe-rate governor."""

    def __init__(
        self,
        host: Host,
        collector: IntCollector,
        sender_addrs: Sequence[int],
        *,
        fast_interval: float = DEFAULT_FAST_INTERVAL,
        slow_interval: float = DEFAULT_SLOW_INTERVAL,
        congestion_threshold: int = DEFAULT_THRESHOLD,
        cooldown: float = DEFAULT_COOLDOWN,
        decision_period: float = 0.5,
    ) -> None:
        if fast_interval <= 0 or slow_interval <= 0:
            raise TelemetryError("probe intervals must be positive")
        if fast_interval > slow_interval:
            raise TelemetryError("fast interval must be <= slow interval")
        self.host = host
        self.sender_addrs = list(sender_addrs)
        self.fast_interval = fast_interval
        self.slow_interval = slow_interval
        self.congestion_threshold = congestion_threshold
        self.cooldown = cooldown
        self.current_interval = fast_interval
        self.rate_changes = 0
        self._last_congestion_at = -float("inf")
        collector.subscribe(self._on_report)
        self._timer = PeriodicTimer(host.sim, decision_period, self._decide)
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    # -- inputs -------------------------------------------------------------

    def _on_report(self, report: ProbeReport) -> None:
        for _sw, _down, _port, qdepth in report.port_observations():
            if qdepth >= self.congestion_threshold:
                self._last_congestion_at = self.host.sim.now
                return

    # -- control ------------------------------------------------------------

    def _decide(self) -> None:
        congested_recently = (
            self.host.sim.now - self._last_congestion_at <= self.cooldown
        )
        desired = self.fast_interval if congested_recently else self.slow_interval
        if desired != self.current_interval:
            self.current_interval = desired
            self.rate_changes += 1
            self._broadcast(desired)

    def _broadcast(self, interval: float) -> None:
        # Pace the fan-out: a back-to-back burst of control datagrams would
        # itself queue at the scheduler's uplink and read as congestion —
        # a self-triggering control loop.
        for i, addr in enumerate(self.sender_addrs):
            self.host.sim.schedule(i * 0.01, self._send_control, addr, interval)

    def _send_control(self, addr: int, interval: float) -> None:
        packet = self.host.new_packet(
            addr,
            protocol=PROTO_UDP,
            src_port=PORT_PROBE_CTRL,
            dst_port=PORT_PROBE_CTRL,
            size_bytes=HEADER_OVERHEAD + 8,
            message=("probe_rate", interval),
        )
        self.host.send(packet)


class ProbeRateListener:
    """Node-side receiver applying rate-control messages to a local sender."""

    def __init__(self, host: Host, sender: ProbeSender) -> None:
        self.host = host
        self.sender = sender
        self.rate_updates = 0
        host.bind(PROTO_UDP, PORT_PROBE_CTRL, self._on_control)

    def _on_control(self, packet: Packet) -> None:
        msg = packet.message
        if not (isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "probe_rate"):
            return
        interval = float(msg[1])
        if interval <= 0:
            return
        if interval != self.sender.interval:
            self.sender.set_interval(interval)
            self.rate_updates += 1
