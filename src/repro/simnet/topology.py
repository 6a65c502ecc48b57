"""Network construction: hosts, switches, links, and finalization.

Usage::

    sim = Simulator()
    net = Network(sim, streams=RandomStreams(seed))
    h1, h2 = net.add_host("h1"), net.add_host("h2")
    s1 = net.add_switch("s1")
    net.connect("h1", "s1", rate_bps=mbps(20), delay=ms(10))
    net.connect("s1", "h2", rate_bps=mbps(20), delay=ms(10))
    net.finalize()          # binds data-plane programs + installs routes

``finalize`` must be called exactly once after all wiring; it

1. binds each switch's P4 program (programs size per-port INT registers
   from the final port count),
2. computes shortest-path routes and installs forwarding table entries,
3. validates the topology (hosts single-homed, graph connected).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import RoutingError, TopologyError
from repro.simnet.addressing import AddressBook
from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.link import Link
from repro.simnet.node import Clock, Node
from repro.simnet.queueing import DEFAULT_QUEUE_CAPACITY
from repro.simnet.random import RandomStreams
from repro.simnet.routing import install_all_routes, shortest_paths_from
from repro.simnet.switch import Switch

__all__ = ["Network"]


class Network:
    """Container/owner of every node and link in one simulated network."""

    def __init__(
        self,
        sim: Simulator,
        streams: Optional[RandomStreams] = None,
        *,
        clock_offset_std: float = 100e-6,
        clock_jitter_std: float = 20e-6,
        switch_service_jitter: float = 0.15,
        default_queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        program_factory: Optional[Callable[[], object]] = None,
    ) -> None:
        self.sim = sim
        self.streams = streams if streams is not None else RandomStreams(0)
        self.addresses = AddressBook()
        self.clock_offset_std = clock_offset_std
        self.clock_jitter_std = clock_jitter_std
        # Per-packet forwarding-time variance at switches, reproducing BMv2's
        # software data plane (the paper's footnote 3 bottleneck is not a
        # clean deterministic 20 Mb/s).  This is what lets queues re-form at
        # every congested hop instead of only at a flow's first bottleneck.
        self.switch_service_jitter = switch_service_jitter
        self.default_queue_capacity = default_queue_capacity
        if program_factory is None:
            from repro.p4.int_program import IntTelemetryProgram

            program_factory = IntTelemetryProgram
        self.program_factory = program_factory

        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        self.links: Dict[str, Link] = {}
        # name -> {neighbor: propagation delay}: what routing and the
        # connectivity check read.  Filled by connect(); do not mutate.
        self.adjacency: Dict[str, Dict[str, float]] = {}
        # (node_name, neighbor_name) -> egress port index on node_name.
        self._port_toward: Dict[Tuple[str, str], int] = {}
        self._switch_ids: Dict[int, Switch] = {}
        self._next_switch_id = 1
        self._finalized = False
        # Static once finalized, so computed once: the shortest-path tree of
        # every source asked about so far.
        self._paths: Dict[str, Dict[str, tuple]] = {}

    # -- construction ----------------------------------------------------

    def _make_clock(self, name: str) -> Clock:
        rng = self.streams.get(f"clock/{name}")
        offset = float(rng.normal(0.0, self.clock_offset_std)) if self.clock_offset_std > 0 else 0.0
        return Clock(
            self.sim,
            offset=offset,
            jitter_std=self.clock_jitter_std,
            rng=rng if self.clock_jitter_std > 0 else None,
        )

    def _check_mutable(self) -> None:
        if self._finalized:
            raise TopologyError("network already finalized; topology is immutable")

    def add_host(self, name: str) -> Host:
        self._check_mutable()
        addr = self.addresses.register(name)
        host = Host(self.sim, name, addr, clock=self._make_clock(name))
        self.hosts[name] = host
        self.adjacency[name] = {}
        return host

    def add_switch(self, name: str) -> Switch:
        self._check_mutable()
        addr = self.addresses.register(name)
        switch = Switch(
            self.sim, name, addr, switch_id=self._next_switch_id, clock=self._make_clock(name)
        )
        self._switch_ids[switch.switch_id] = switch
        self._next_switch_id += 1
        if self.switch_service_jitter > 0:
            switch.set_service_jitter(
                self.switch_service_jitter, self.streams.get(f"service/{name}")
            )
        self.switches[name] = switch
        self.adjacency[name] = {}
        return switch

    def connect(
        self,
        name_a: str,
        name_b: str,
        *,
        rate_bps: float,
        delay: float,
        rate_ab_bps: Optional[float] = None,
        rate_ba_bps: Optional[float] = None,
        queue_capacity: Optional[int] = None,
        ecn_threshold: Optional[int] = None,
    ) -> Link:
        """Create a full-duplex link between two existing nodes.

        ``rate_bps`` is the nominal (symmetric) capacity; the optional
        directional overrides model asymmetric bottlenecks such as fast host
        injection into a rate-limited software switch.  ``ecn_threshold``
        switches both egress queues to RED/ECN marking at that depth."""
        self._check_mutable()
        if name_a == name_b:
            raise TopologyError(f"self-link on {name_a!r}")
        node_a = self.node(name_a)
        node_b = self.node(name_b)
        if (name_a, name_b) in self._port_toward or (name_b, name_a) in self._port_toward:
            raise TopologyError(f"nodes {name_a!r} and {name_b!r} already connected")
        link_name = f"{name_a}<->{name_b}"
        link = Link(link_name, rate_bps, delay, rate_ab_bps=rate_ab_bps, rate_ba_bps=rate_ba_bps)
        cap = queue_capacity if queue_capacity is not None else self.default_queue_capacity
        if ecn_threshold is not None:
            from repro.simnet.queueing import RedEcnQueue

            port_a = node_a.add_port(link, queue=RedEcnQueue(cap, mark_threshold=ecn_threshold))
            port_b = node_b.add_port(link, queue=RedEcnQueue(cap, mark_threshold=ecn_threshold))
        else:
            port_a = node_a.add_port(link, cap)
            port_b = node_b.add_port(link, cap)
        link.attach(port_a, port_b)
        self.links[link_name] = link
        self._port_toward[(name_a, name_b)] = port_a.port_index
        self._port_toward[(name_b, name_a)] = port_b.port_index
        self.adjacency[name_a][name_b] = self.adjacency[name_b][name_a] = float(delay)
        return link

    def attach_host(
        self,
        host_name: str,
        switch_name: str,
        *,
        fabric_rate_bps: float,
        delay: float,
        injection_multiplier: float = 10.0,
        queue_capacity: Optional[int] = None,
    ) -> Link:
        """Connect a host to a switch with the testbed's asymmetric rates:
        the host injects at ``injection_multiplier`` x the fabric rate (end
        hosts outrun the software switch) while the switch egress toward the
        host runs at the fabric rate (the BMv2 forwarding bottleneck).  The
        resulting congestion points are all at switch egress queues — where
        INT registers can see them."""
        if injection_multiplier < 1.0:
            raise TopologyError("injection_multiplier must be >= 1")
        if host_name not in self.hosts:
            raise TopologyError(f"{host_name!r} is not a host")
        if switch_name not in self.switches:
            raise TopologyError(f"{switch_name!r} is not a switch")
        return self.connect(
            host_name,
            switch_name,
            rate_bps=fabric_rate_bps,
            delay=delay,
            rate_ab_bps=fabric_rate_bps * injection_multiplier,  # host -> switch
            rate_ba_bps=fabric_rate_bps,                         # switch -> host
            queue_capacity=queue_capacity,
        )

    # -- lookup ------------------------------------------------------------

    def node(self, name: str) -> Node:
        node = self.hosts.get(name) or self.switches.get(name)
        if node is None:
            raise TopologyError(f"unknown node {name!r}")
        return node

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise TopologyError(f"unknown host {name!r}") from None

    def switch(self, name: str) -> Switch:
        try:
            return self.switches[name]
        except KeyError:
            raise TopologyError(f"unknown switch {name!r}") from None

    def address_of(self, name: str) -> int:
        return self.addresses.address_of(name)

    def name_of(self, addr: int) -> str:
        return self.addresses.name_of(addr)

    def port_toward(self, node_name: str, neighbor_name: str) -> int:
        """Egress port index on ``node_name`` facing ``neighbor_name``."""
        try:
            return self._port_toward[(node_name, neighbor_name)]
        except KeyError:
            raise TopologyError(
                f"no direct link from {node_name!r} to {neighbor_name!r}"
            ) from None

    def switch_by_id(self, switch_id: int) -> Switch:
        try:
            return self._switch_ids[switch_id]
        except KeyError:
            raise TopologyError(f"no switch with id {switch_id}") from None

    # -- paths -----------------------------------------------------------------

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """Ground-truth shortest path by propagation delay (the route the
        static control plane installs), read from ``src``'s shortest-path
        tree — memoised once the network is finalized; the returned list is
        the caller's to mutate."""
        if src not in self.adjacency or dst not in self.adjacency:
            raise RoutingError(f"unknown endpoint in ({src!r}, {dst!r})")
        tree = self._paths.get(src)
        if tree is None:
            tree = shortest_paths_from(self.adjacency, self.hosts, src)
            if self._finalized:
                self._paths[src] = tree
        if dst not in tree:
            raise RoutingError(f"no path from {src!r} to {dst!r}")
        return list(tree[dst])

    # -- finalization ----------------------------------------------------------

    def finalize(self) -> None:
        """Bind programs, validate, and install routes.  Idempotence is
        intentionally rejected: re-finalizing indicates a construction bug."""
        self._check_mutable()
        for name, host in self.hosts.items():
            if len(host.ports) != 1:
                raise TopologyError(
                    f"host {name!r} must be single-homed, has {len(host.ports)} links"
                )
        stack = list(self.adjacency)[:1]
        reached = set(stack)
        while stack:
            for name in self.adjacency[stack.pop()]:
                if name not in reached:
                    reached.add(name)
                    stack.append(name)
        if len(reached) < len(self.adjacency):
            raise TopologyError("topology is not connected")
        for switch in self.switches.values():
            switch.bind_program(self.program_factory())
        install_all_routes(self)
        self._finalized = True

    @property
    def finalized(self) -> bool:
        return self._finalized
