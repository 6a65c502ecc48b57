"""SNMP-style port-counter polling.

Real deployments poll interface octet counters (IF-MIB ``ifOutOctets``)
over a management network every 10–60 s and derive average utilization per
window.  Two properties matter for the comparison with INT, and both are
modelled:

* **coarse time resolution** — only window-averaged rates, no queue
  occupancy, so a 5-second burst inside a 30-second window dilutes to
  one-sixth of its true intensity;
* **reporting lag** — a counter read reflects the *previous* window.

Polling happens out of band (management networks are physically separate),
so poll traffic does not perturb the data plane; the paper's INT probes, in
contrast, share the data network and pay for it (a cost the overhead
benchmarks quantify).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import TelemetryError
from repro.simnet.engine import PeriodicTimer, Simulator
from repro.simnet.topology import Network

__all__ = ["PortCounterSample", "SnmpPoller", "DEFAULT_POLL_INTERVAL"]

DEFAULT_POLL_INTERVAL = 30.0  # the paper's "typical SNMP monitoring interval"

# Directed link key: (node name, neighbor name) — the egress of `node`
# toward `neighbor`.
PortKey = Tuple[str, str]


@dataclass(frozen=True)
class PortCounterSample:
    """One poll window's result for one directed port."""

    window_start: float
    window_end: float
    bytes_sent: int
    utilization: float  # average over the window, in [0, ...]


class SnmpPoller:
    """Polls every switch egress port's byte counter on a fixed interval."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        *,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> None:
        if poll_interval <= 0:
            raise TelemetryError(f"poll interval must be positive, got {poll_interval}")
        self.sim = sim
        self.network = network
        self.poll_interval = poll_interval
        self.polls_completed = 0
        self._last_counters: Dict[PortKey, int] = {}
        self._last_poll_at: float = sim.now
        self._latest: Dict[PortKey, PortCounterSample] = {}
        self._ports = self._discover_ports()
        # Baseline snapshot so the first window measures a full interval.
        for key, port in self._ports.items():
            self._last_counters[key] = self._read_counter(port)
        self._timer = PeriodicTimer(sim, poll_interval, self._poll)

    def _discover_ports(self):
        ports = {}
        for sw_name, switch in self.network.switches.items():
            for port in switch.ports:
                peer_name = port.peer.node.name
                ports[(sw_name, peer_name)] = port
        return ports

    @staticmethod
    def _read_counter(port) -> int:
        link = port.link
        return link.carried("a" if port is link.port_a else "b")

    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def _poll(self) -> None:
        now = self.sim.now
        window = now - self._last_poll_at
        if window <= 0:
            return
        for key, port in self._ports.items():
            counter = self._read_counter(port)
            sent = counter - self._last_counters[key]
            self._last_counters[key] = counter
            rate = sent * 8.0 / window
            self._latest[key] = PortCounterSample(
                window_start=self._last_poll_at,
                window_end=now,
                bytes_sent=sent,
                utilization=rate / port.rate_bps,
            )
        self._last_poll_at = now
        self.polls_completed += 1

    # -- queries -----------------------------------------------------------

    def utilization(self, node: str, toward: str) -> float:
        """Latest window-average utilization of the directed port, 0.0 when
        never polled."""
        sample = self._latest.get((node, toward))
        return sample.utilization if sample is not None else 0.0

    def sample(self, node: str, toward: str) -> Optional[PortCounterSample]:
        return self._latest.get((node, toward))

    def known_ports(self) -> List[PortKey]:
        return sorted(self._ports)
