"""Future-work extensions the paper sketches in Section VI, implemented.

* **Compute-aware scheduling** — "we will extend the network-aware scheduler
  with compute-aware scheduler to take the availability of compute nodes
  into account".  :class:`ComputeAwareScheduler` consumes the periodic load
  reports edge servers emit and adds an expected compute-wait term to the
  delay score (or discounts bandwidth by server busyness).

* **Heterogeneous servers** — "tasks may have certain hardware (e.g., GPU)
  or software (e.g., Keras) requirements".
  :class:`HeterogeneityAwareScheduler` registers per-server capability sets
  and filters candidates against the requirements carried in extended
  queries (``metric = (base_metric, requirements)``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.scheduler import (
    METRIC_BANDWIDTH,
    METRIC_DELAY,
    NetworkAwareScheduler,
)
from repro.errors import SchedulingError
from repro.simnet.addressing import PROTO_UDP
from repro.simnet.host import Host
from repro.simnet.packet import Packet

__all__ = ["ComputeAwareScheduler", "HeterogeneityAwareScheduler", "PORT_LOAD_REPORT"]

# Must match repro.edge.server.PORT_LOAD_REPORT; redeclared here to keep the
# core package independent of the edge layer.
PORT_LOAD_REPORT = 5003

# A load report older than this is treated as "server idle" rather than
# trusted — a crashed reporter should not pin a stale high load forever.
LOAD_STALENESS = 5.0


class ComputeAwareScheduler(NetworkAwareScheduler):
    """Network + compute-aware ranking.

    Delay metric: ``score = network_delay + load × mean_exec_time``, i.e.
    the estimated wait for the server to drain its outstanding tasks.
    Bandwidth metric: ``score = available_bw / (1 + load)`` — a busy server
    is worth proportionally less even over an uncongested path.
    """

    def __init__(
        self,
        host: Host,
        server_addrs: Sequence[int],
        *,
        mean_exec_time: float = 5.0,
        **kwargs,
    ) -> None:
        super().__init__(host, server_addrs, **kwargs)
        if mean_exec_time < 0:
            raise SchedulingError("mean_exec_time must be >= 0")
        self.mean_exec_time = mean_exec_time
        # addr -> (running, queued, updated_at)
        self._loads: Dict[int, Tuple[int, int, float]] = {}
        self.load_reports_received = 0
        host.bind(PROTO_UDP, PORT_LOAD_REPORT, self._on_load_report)

    def _on_load_report(self, packet: Packet) -> None:
        msg = packet.message
        if not (isinstance(msg, tuple) and len(msg) == 4 and msg[0] == "load_report"):
            return
        _tag, addr, running, queued = msg
        self._loads[addr] = (int(running), int(queued), self.host.sim.now)
        self.load_reports_received += 1

    def server_load(self, addr: int) -> int:
        entry = self._loads.get(addr)
        if entry is None:
            return 0
        running, queued, updated_at = entry
        if self.host.sim.now - updated_at > LOAD_STALENESS:
            return 0
        return running + queued

    def rank(self, requester_addr: int, metric: str) -> List[Tuple[int, float]]:
        base = super().rank(requester_addr, metric)
        if metric == METRIC_DELAY:
            scored = [
                (addr, value + self.server_load(addr) * self.mean_exec_time)
                for addr, value in base
            ]
            scored.sort(key=lambda item: (item[1], item[0]))
        elif metric == METRIC_BANDWIDTH:
            scored = [
                (addr, value / (1.0 + self.server_load(addr)))
                for addr, value in base
            ]
            scored.sort(key=lambda item: (-item[1], item[0]))
        else:  # pragma: no cover - guarded by the base class
            scored = base
        return scored


class HeterogeneityAwareScheduler(ComputeAwareScheduler):
    """Adds capability matching on top of compute-aware ranking.

    Queries may carry requirements: ``metric = (base_metric,
    frozenset_of_requirements)``.  Servers lacking any required capability
    are excluded from the ranking entirely (a wrong-hardware server is not a
    worse choice, it is not a choice)."""

    def __init__(
        self,
        host: Host,
        server_addrs: Sequence[int],
        *,
        capabilities: Optional[Dict[int, Set[str]]] = None,
        **kwargs,
    ) -> None:
        super().__init__(host, server_addrs, **kwargs)
        self.capabilities: Dict[int, Set[str]] = {
            addr: set(caps) for addr, caps in (capabilities or {}).items()
        }

    def eligible(self, addr: int, requirements: FrozenSet[str]) -> bool:
        if not requirements:
            return True
        return set(requirements).issubset(self.capabilities.get(addr, set()))

    def rank(self, requester_addr: int, metric) -> List[Tuple[int, float]]:
        if isinstance(metric, tuple):
            base_metric, requirements = metric
            requirements = frozenset(requirements)
        else:
            base_metric, requirements = metric, frozenset()
        ranked = super().rank(requester_addr, base_metric)
        return [
            (addr, value) for addr, value in ranked if self.eligible(addr, requirements)
        ]
