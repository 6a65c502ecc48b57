"""Ground-truth instrumentation (the experimenter's view, not the scheduler's).

The scheduler must *infer* network state from INT; experiments and tests,
however, need the true state to validate those inferences.  This module
samples queue depths and link utilization directly from simulator objects.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.simnet.engine import PeriodicTimer, Simulator
from repro.simnet.nic import Port
from repro.simnet.topology import Network

__all__ = ["QueueSampler", "link_utilizations"]


class QueueSampler:
    """Periodically samples the backlog of selected egress ports.

    Results are ``{port_label: [(t, depth), ...]}`` where the label is
    ``"node[i]"``.
    """

    def __init__(self, sim: Simulator, ports: List[Port], interval: float = 0.01) -> None:
        self.sim = sim
        self.ports = ports
        self.samples: Dict[str, List[Tuple[float, int]]] = {
            self._label(p): [] for p in ports
        }
        self._timer = PeriodicTimer(sim, interval, self._sample, start_delay=0.0)

    @staticmethod
    def _label(port: Port) -> str:
        return f"{port.node.name}[{port.port_index}]"

    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def _sample(self) -> None:
        now = self.sim.now
        for port in self.ports:
            self.samples[self._label(port)].append((now, port.backlog))

    def max_depth(self, port: Port) -> int:
        """Maximum sampled backlog for one port."""
        series = self.samples[self._label(port)]
        return max((d for _, d in series), default=0)


def link_utilizations(network: Network, window: float) -> Dict[str, float]:
    """True utilization of every link direction, with every byte carried so
    far counted against ``window`` seconds (the run's mean when ``window`` is
    the time run so far), each against its own direction's rate — access
    links are asymmetric.  Keys are ``"<link name>:a"`` (sent by ``link.port_a``) and
    ``"<link name>:b"``."""
    out: Dict[str, float] = {}
    for name, link in network.links.items():
        for key, rate in (("a", link.rate_ab_bps), ("b", link.rate_ba_bps)):
            out[f"{name}:{key}"] = (link.carried(key) * 8.0) / (rate * window)
    return out
