"""A network-aware scheduler driven by SNMP-style counters instead of INT.

Same protocol and the same ranking rules as
:class:`~repro.core.scheduler.NetworkAwareScheduler`, but its view of the
network is the legacy one:

* topology is *static configuration* (legacy NMSes import it), not inferred;
* per-link load is the window-averaged utilization from the poller — stale
  by up to one poll interval and blind to sub-window bursts;
* no queue-occupancy signal exists, so the delay metric can only penalize a
  link proportionally to its average utilization.

Comparing this scheduler against the INT one isolates exactly what the
paper claims high-precision telemetry buys.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.scheduler import METRIC_BANDWIDTH, METRIC_DELAY, SchedulerService
from repro.errors import SchedulingError
from repro.legacy.snmp import SnmpPoller
from repro.simnet.host import Host
from repro.simnet.topology import Network

__all__ = ["SnmpScheduler"]


class SnmpScheduler(SchedulerService):
    """Rank edge servers from port-counter utilization."""

    def __init__(
        self,
        host: Host,
        server_addrs: Sequence[int],
        network: Network,
        poller: SnmpPoller,
        *,
        # Utilization -> delay penalty: a fully-utilized hop adds this much
        # expected delay (plays the role of INT's k * max_qdepth term).
        full_utilization_penalty: float = 0.5,
        **kwargs,
    ) -> None:
        super().__init__(host, server_addrs, **kwargs)
        self.network = network
        self.poller = poller
        self.full_utilization_penalty = full_utilization_penalty
        # Static topology knowledge: paths and base delays from the NMS
        # configuration database.
        self._paths: Dict[Tuple[int, int], List[str]] = {}
        names = list(network.hosts)
        for a in names:
            for b in names:
                if a != b:
                    self._paths[
                        (network.address_of(a), network.address_of(b))
                    ] = network.shortest_path(a, b)

    def _path(self, src_addr: int, dst_addr: int) -> List[str]:
        try:
            return self._paths[(src_addr, dst_addr)]
        except KeyError:
            raise SchedulingError(
                f"no configured path between {src_addr} and {dst_addr}"
            ) from None

    def _path_delay(self, path: List[str]) -> float:
        total = 0.0
        adjacency = self.network.adjacency
        for u, v in zip(path, path[1:]):
            total += adjacency[u][v]
            if u in self.network.switches:
                total += self.full_utilization_penalty * self.poller.utilization(u, v)
        return total

    def _path_bandwidth(self, path: List[str]) -> float:
        avail = float("inf")
        for u, v in zip(path, path[1:]):
            if u not in self.network.switches:
                continue  # host injection is not the bottleneck
            capacity = self.network.node(u).ports[
                self.network.port_toward(u, v)
            ].rate_bps
            utilization = min(1.0, self.poller.utilization(u, v))
            avail = min(avail, capacity * (1.0 - utilization))
        return avail if avail != float("inf") else 0.0

    def rank(self, requester_addr: int, metric: str) -> List[Tuple[int, float]]:
        candidates = self.candidates_for(requester_addr)
        if metric == METRIC_DELAY:
            scored = [
                (addr, self._path_delay(self._path(requester_addr, addr)))
                for addr in candidates
            ]
            scored.sort(key=lambda item: (item[1], item[0]))
        elif metric == METRIC_BANDWIDTH:
            scored = [
                (addr, self._path_bandwidth(self._path(requester_addr, addr)))
                for addr in candidates
            ]
            scored.sort(key=lambda item: (-item[1], item[0]))
        else:
            raise SchedulingError(f"unknown ranking metric {metric!r}")
        return scored
