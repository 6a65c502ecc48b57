"""Deterministic fault execution on the simulation engine.

A :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan` to one
simulation: :meth:`arm` schedules every primitive event on the engine (and
registers the injector as ``sim.faults``, mirroring the ``sim.obs``
convention), and each firing mutates the targeted link, switch, or edge
server.  Every injection/recovery is mirrored into the observability layer
(``fault_injected`` / ``fault_recovered`` events plus counters) when a hub is
attached.

Determinism: event *schedules* are pure data, and the only randomness —
per-packet loss draws — comes from the injector's dedicated
:mod:`repro.simnet.random` stream, so identical (plan, seed) pairs replay
identically, event log and all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import FaultError
from repro.faults.plan import (
    LINK_DEGRADE,
    LINK_DOWN,
    LINK_RESTORE,
    LINK_UP,
    PACKET_LOSS,
    PROBE_LOSS,
    REGISTER_WIPE,
    SERVER_CRASH,
    SERVER_PAUSE,
    SERVER_RECOVER,
    FaultEvent,
    FaultPlan,
)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.edge.server import EdgeServer
    from repro.simnet.engine import Simulator
    from repro.simnet.link import Link
    from repro.simnet.switch import Switch
    from repro.simnet.topology import Network

__all__ = ["FaultInjector"]


class FaultInjector:
    """Executes a fault plan against one network/simulation pair."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        plan: FaultPlan,
        *,
        servers: Optional[Dict[str, "EdgeServer"]] = None,
        rng: Optional["np.random.Generator"] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.plan = plan
        # host name -> EdgeServer, for server_* targets.
        self.servers: Dict[str, "EdgeServer"] = dict(servers or {})
        self.rng = rng
        self.fired: List[Tuple[float, FaultEvent]] = []
        self.faults_injected = 0
        self.faults_recovered = 0
        self._armed = False
        if plan.needs_rng() and rng is None:
            raise FaultError(
                f"plan {plan.name!r} contains probabilistic loss events; "
                "pass rng=streams.get('faults') so replays are deterministic"
            )

    # -- scheduling --------------------------------------------------------

    def arm(self) -> int:
        """Schedule every primitive plan event; returns the count scheduled.
        Events dated before the current sim time are clamped to *now* (they
        still fire, in plan order)."""
        if self._armed:
            raise FaultError("fault injector already armed")
        self._armed = True
        self.sim.faults = self
        for link in self.network.links.values():
            link.arm_faults()
        events = self.plan.expanded()
        for ev in events:
            self.sim.schedule_at(max(ev.time, self.sim.now), self._fire, ev)
        return len(events)

    # -- execution ---------------------------------------------------------

    def _fire(self, ev: FaultEvent) -> None:
        handler = self._HANDLERS.get(ev.kind)
        if handler is None:  # pragma: no cover - plan validation prevents this
            raise FaultError(f"no handler for fault kind {ev.kind!r}")
        handler(self, ev)
        self.fired.append((self.sim.now, ev))

    def _mirror(self, ev: FaultEvent, target: str, **detail) -> None:
        if ev.is_recovery:
            self.faults_recovered += 1
        else:
            self.faults_injected += 1
        obs = self.sim.obs
        if obs:
            if ev.is_recovery:
                obs.fault_recovered(fault=ev.kind, target=target, **detail)
            else:
                obs.fault_injected(fault=ev.kind, target=target, **detail)

    # -- target resolution -------------------------------------------------

    def _links_for(self, ev: FaultEvent) -> List["Link"]:
        if ev.target == "*":
            return list(self.network.links.values())
        link = self.network.links.get(ev.target)
        if link is None:
            raise FaultError(
                f"fault {ev.kind!r}: no link named {ev.target!r} "
                f"(known: {sorted(self.network.links)})"
            )
        return [link]

    def _switches_for(self, ev: FaultEvent) -> List["Switch"]:
        if ev.target == "*":
            return list(self.network.switches.values())
        if ev.target not in self.network.switches:
            raise FaultError(f"fault {ev.kind!r}: no switch named {ev.target!r}")
        return [self.network.switches[ev.target]]

    def _servers_for(self, ev: FaultEvent) -> List[Tuple[str, "EdgeServer"]]:
        if ev.target == "*":
            return sorted(self.servers.items())
        server = self.servers.get(ev.target)
        if server is None:
            raise FaultError(
                f"fault {ev.kind!r}: no edge server registered on {ev.target!r} "
                f"(known: {sorted(self.servers)})"
            )
        return [(ev.target, server)]

    # -- handlers ----------------------------------------------------------

    def _on_link_down(self, ev: FaultEvent) -> None:
        for link in self._links_for(ev):
            link.set_up(False)
            self._mirror(ev, link.name)

    def _on_link_up(self, ev: FaultEvent) -> None:
        for link in self._links_for(ev):
            link.set_up(True)
            self._mirror(ev, link.name)

    def _on_link_degrade(self, ev: FaultEvent) -> None:
        for link in self._links_for(ev):
            link.set_degradation(rate_factor=ev.rate_factor, extra_delay=ev.extra_delay)
            self._mirror(
                ev, link.name, rate_factor=ev.rate_factor, extra_delay=ev.extra_delay
            )

    def _on_link_restore(self, ev: FaultEvent) -> None:
        for link in self._links_for(ev):
            link.set_degradation(rate_factor=1.0, extra_delay=0.0)
            link.set_loss(rate=0.0, probe_rate=0.0)
            self._mirror(ev, link.name)

    def _on_packet_loss(self, ev: FaultEvent) -> None:
        for link in self._links_for(ev):
            link.set_loss(rate=ev.rate, rng=self.rng)
            self._mirror(ev, link.name, rate=ev.rate)

    def _on_probe_loss(self, ev: FaultEvent) -> None:
        for link in self._links_for(ev):
            link.set_loss(probe_rate=ev.rate, rng=self.rng)
            self._mirror(ev, link.name, rate=ev.rate)

    def _on_register_wipe(self, ev: FaultEvent) -> None:
        for switch in self._switches_for(ev):
            if switch.program is None:
                continue
            for reg in switch.program.registers.values():
                reg.reset()
            self._mirror(ev, switch.name)

    def _on_server_crash(self, ev: FaultEvent) -> None:
        for name, server in self._servers_for(ev):
            dropped = server.crash()
            self._mirror(ev, name, tasks_dropped=dropped)

    def _on_server_pause(self, ev: FaultEvent) -> None:
        for name, server in self._servers_for(ev):
            server.pause()
            self._mirror(ev, name)

    def _on_server_recover(self, ev: FaultEvent) -> None:
        for name, server in self._servers_for(ev):
            server.recover()
            self._mirror(ev, name)

    _HANDLERS = {
        LINK_DOWN: _on_link_down,
        LINK_UP: _on_link_up,
        LINK_DEGRADE: _on_link_degrade,
        LINK_RESTORE: _on_link_restore,
        PACKET_LOSS: _on_packet_loss,
        PROBE_LOSS: _on_probe_loss,
        REGISTER_WIPE: _on_register_wipe,
        SERVER_CRASH: _on_server_crash,
        SERVER_PAUSE: _on_server_pause,
        SERVER_RECOVER: _on_server_recover,
    }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector plan={self.plan.name!r} events={len(self.plan)} "
            f"fired={len(self.fired)}>"
        )
