"""Property tests: topology inference and the telemetry store."""

import functools
import heapq
import random
from typing import Dict, List, Sequence, Set, Tuple

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.estimators import BandwidthEstimator, DelayEstimator
from repro.core.scheduler import NetworkAwareScheduler
from repro.core.telemetry_store import TelemetryStore
from repro.core.topology_inference import InferredTopology
from repro.errors import SchedulingError
from repro.experiments.fig4_topology import build_fig4_network
from repro.p4.headers import IntHopRecord
from repro.simnet.engine import Simulator
from repro.simnet.random import run_streams
from repro.telemetry.records import (
    ProbeReport, TelemetryNodeId, host_node, switch_node,
)
from tests.core.test_telemetry_store import _recorded_reports


# Random "physical" paths: host -> switches -> host, no repeated switches.
paths = st.builds(
    lambda src, switches, dst: [host_node(src)]
    + [switch_node(s) for s in switches]
    + [host_node(dst)],
    src=st.integers(1, 5),
    switches=st.lists(st.integers(10, 30), unique=True, max_size=6),
    dst=st.integers(6, 9),
)


@given(st.lists(paths, min_size=1, max_size=15))
@settings(max_examples=80)
def test_observed_endpoints_always_connected(observed):
    topo = InferredTopology()
    for path in observed:
        topo.observe_path(path)
    # Every observed (src, dst) pair must be connected by *some* inferred
    # path whose intermediate nodes are switches.
    for path in observed:
        found = topo.path(path[0], path[-1])
        assert found[0] == path[0]
        assert found[-1] == path[-1]
        assert all(n[0] == "sw" for n in found[1:-1])
        # The inferred path can never beat the shortest observation.
        assert len(found) <= len(path)


@given(st.lists(paths, min_size=1, max_size=15))
@settings(max_examples=40)
def test_inferred_edges_only_from_observations(observed):
    topo = InferredTopology()
    legit = set()
    for path in observed:
        topo.observe_path(path)
        legit.update(zip(path, path[1:]))
    assert topo.edges() == legit


qdepth_updates = st.lists(
    st.tuples(
        st.floats(0.0, 10.0, allow_nan=False),   # inter-report gap
        st.integers(0, 60),                       # reading
    ),
    min_size=1,
    max_size=30,
)


@given(qdepth_updates)
@settings(max_examples=60, deadline=None)
def test_store_qdepth_never_below_latest_window_max(updates):
    """After any update sequence, the stored value is >= the largest reading
    delivered within the last window, and never negative."""
    sim = Simulator()
    store = TelemetryStore(sim, staleness=1e9, qdepth_window=0.5)

    def report(q):
        return ProbeReport(
            probe_src=1, probe_dst=2, seq=0, sent_at=0.0, received_at=0.0,
            records=[IntHopRecord(switch_id=7, egress_port=0, max_qdepth=q,
                                  link_latency=0.01, egress_ts=0.0)],
            final_link_latency=0.01,
        )

    recent = []
    for gap, reading in updates:
        sim.schedule(gap, lambda: None)
        sim.run()
        store.update(report(reading))
        recent = [(t, q) for t, q in recent if sim.now - t <= 0.5]
        recent.append((sim.now, reading))
        stored = store.max_qdepth(switch_node(7), host_node(2))
        assert stored >= max(q for _t, q in recent)
        assert stored >= 0


# -- cached shortest-path trees == the per-pair search ----------------------


class _ReferenceTopology:
    """``InferredTopology`` as it was before ``path()`` was served from one
    cached tree per source: ``observe_path``, ``known_hosts``, ``path`` and
    ``reachable_hosts`` are the old bodies, verbatim — a fresh heap search
    per (src, dst) over an ``nx.DiGraph``."""

    def __init__(self) -> None:
        self._g = nx.DiGraph()

    def observe_path(self, nodes: Sequence[TelemetryNodeId]) -> None:
        """Record that a probe traversed ``nodes`` in order."""
        for node in nodes:
            if node not in self._g:
                self._g.add_node(node)
        for u, v in zip(nodes, nodes[1:]):
            if not self._g.has_edge(u, v):
                self._g.add_edge(u, v)

    def known_hosts(self) -> Set[TelemetryNodeId]:
        return {n for n in self._g.nodes if n[0] == "host"}

    def path(self, src: TelemetryNodeId, dst: TelemetryNodeId) -> List[TelemetryNodeId]:
        if src not in self._g:
            raise SchedulingError(f"node {src} not yet in inferred topology")
        if dst not in self._g:
            raise SchedulingError(f"node {dst} not yet in inferred topology")
        if src == dst:
            return [src]
        best: Dict[TelemetryNodeId, Tuple[int, tuple]] = {}
        heap: List[Tuple[Tuple[int, tuple], TelemetryNodeId]] = [((0, (src,)), src)]
        while heap:
            (hops, path), u = heapq.heappop(heap)
            if u in best:
                continue
            best[u] = (hops, path)
            if u == dst:
                return list(path)
            for v in sorted(self._g.successors(u)):
                if v in best:
                    continue
                if v[0] == "host" and v != dst:
                    continue  # hosts never forward
                heapq.heappush(heap, ((hops + 1, path + (v,)), v))
        raise SchedulingError(f"no inferred path from {src} to {dst}")

    def reachable_hosts(self, src: TelemetryNodeId) -> List[TelemetryNodeId]:
        """Edge nodes reachable from ``src`` — Algorithm 1's ``E(G, e_n)``."""
        out = []
        for host in sorted(self.known_hosts()):
            if host == src:
                continue
            try:
                self.path(src, host)
            except SchedulingError:
                continue
            out.append(host)
        return out


class _ReferenceDelayEstimator(DelayEstimator):
    """``DelayEstimator`` as it was before rankings walked cached per-path
    link plans: ``path_delay`` and ``delay_between`` are the old bodies,
    verbatim — one ``store.link_delay`` / ``store.max_qdepth`` lookup per
    hop of a fresh ``topology.path``."""

    def path_delay(
        self, path: Sequence[TelemetryNodeId], *, allow_stale: bool = False
    ) -> float:
        """Algorithm 1's inner loops: total link delay + k × total queue
        occupancy along a directed path.  ``allow_stale`` ranks from
        last-known link latencies past the staleness horizon (degraded
        mode); queue terms still decay — an old congestion reading is
        evidence of nothing."""
        total_link = 0.0
        total_hop = 0.0
        for u, v in zip(path, path[1:]):
            total_link += self.store.link_delay(
                u, v, default=self.default_link_delay, allow_stale=allow_stale
            )
            if u[0] == "sw":
                qdepth = self.store.max_qdepth(u, v)
                if qdepth >= self.qdepth_floor:
                    total_hop += self.k * qdepth
        return total_link + total_hop

    def delay_between(
        self, src: TelemetryNodeId, dst: TelemetryNodeId, *, allow_stale: bool = False
    ) -> float:
        """Delay over the path the inferred topology predicts data will take."""
        path = self.store.topology.path(src, dst)
        return self.path_delay(path, allow_stale=allow_stale)


class _ReferenceBandwidthEstimator(BandwidthEstimator):
    """``BandwidthEstimator``'s per-hop bodies from before path plans,
    verbatim: ``link_available_bw``, ``path_throughput`` and
    ``throughput_between``."""

    def link_available_bw(self, u: TelemetryNodeId, v: TelemetryNodeId) -> float:
        """Available bandwidth of the directed link u->v in bits/s."""
        q = self.store.max_qdepth(u, v)
        utilization = self.curve.utilization(q)
        return self.link_capacity_bps * (1.0 - utilization)

    def path_throughput(self, path: Sequence[TelemetryNodeId]) -> float:
        """``throughput = min(b_1 ... b_k)`` over the path's links.  Host
        uplinks (first hop) are included: they share the same capacity."""
        if len(path) < 2:
            raise SchedulingError("throughput needs a path with at least one link")
        return min(self.link_available_bw(u, v) for u, v in zip(path, path[1:]))

    def throughput_between(self, src: TelemetryNodeId, dst: TelemetryNodeId) -> float:
        path = self.store.topology.path(src, dst)
        return self.path_throughput(path)


def _outcome(call, *args):
    try:
        return call(*args)
    except SchedulingError as exc:
        return f"SchedulingError: {exc}"


# A small id space, so observations share switches (equal-hop alternatives,
# loops) and a host shows up as source of one probe and destination of
# another.  Probes may cross a switch twice and may cross none.
_hosts = st.integers(1, 5).map(host_node)
_switches = st.integers(10, 16).map(switch_node)
_probe_paths = st.builds(
    lambda src, switches, dst: [src, *switches, dst],
    _hosts, st.lists(_switches, max_size=5), _hosts,
)
# Queries reach one id past each range: endpoints never observed.
_endpoints = st.one_of(
    st.integers(1, 6).map(host_node), st.integers(10, 17).map(switch_node)
)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), _probe_paths),
        st.tuples(st.just("query"), _endpoints, _endpoints),
    ),
    min_size=1, max_size=40,
)


@given(_steps)
@settings(max_examples=300, deadline=None)
def test_cached_trees_equal_per_pair_search_while_learning(steps):
    topo, reference = InferredTopology(), _ReferenceTopology()
    for step in steps:
        if step[0] == "observe":
            size = len(reference._g) + reference._g.number_of_edges()
            version = topo.version
            topo.observe_path(step[1])
            reference.observe_path(step[1])
            grew = len(reference._g) + reference._g.number_of_edges() > size
            assert topo.version == version + grew
            assert topo.edges() == set(reference._g.edges)
        else:
            _tag, src, dst = step
            assert _outcome(topo.path, src, dst) == _outcome(reference.path, src, dst)
            assert topo.reachable_hosts(src) == reference.reachable_hosts(src)


def test_path_hands_out_fresh_lists():
    topo = InferredTopology()
    topo.observe_path([host_node(1), switch_node(10), switch_node(11), host_node(2)])
    expected = topo.path(host_node(1), host_node(2))
    topo.path(host_node(1), host_node(2)).reverse()
    topo.path(host_node(1), host_node(2)).clear()
    assert topo.path(host_node(1), host_node(2)) == expected


@functools.lru_cache(maxsize=None)
def _fig4_mesh_reports():
    return tuple(report for _now, report in _recorded_reports())


def _fed_scheduler(quarantine_ttl, reference=False):
    """A network-aware scheduler on an idle Fig. 4 network: nothing moves
    its clock or its store but the test.  The ``reference`` one resolves
    every path with the per-pair search and prices it hop by hop, with the
    estimators' old bodies; its topology has no ``version``, so it never
    builds a plan."""
    sim = Simulator()
    fig4 = build_fig4_network(sim, run_streams(7))
    net = fig4.network
    scheduler = NetworkAwareScheduler(
        net.host(fig4.scheduler_name),
        [net.address_of(n) for n in fig4.worker_names],
        link_capacity_bps=fig4.fabric_rate_bps,
        default_link_delay=fig4.link_delay,
        quarantine_ttl=quarantine_ttl,
    )
    if reference:
        store = scheduler.store
        store.topology = _ReferenceTopology()
        delay, bandwidth = scheduler.delay_estimator, scheduler.bandwidth_estimator
        scheduler.delay_estimator = _ReferenceDelayEstimator(
            store, k=delay.k, default_link_delay=delay.default_link_delay,
            qdepth_floor=delay.qdepth_floor,
        )
        scheduler.bandwidth_estimator = _ReferenceBandwidthEstimator(
            store, link_capacity_bps=bandwidth.link_capacity_bps, curve=bandwidth.curve
        )
    return sim, scheduler


def _assert_same_rankings(scheduler, ref_scheduler):
    for requester in scheduler.server_addrs:
        for metric in ("delay", "bandwidth", "raw"):
            assert scheduler.rank(requester, metric) == ref_scheduler.rank(
                requester, metric
            )
    assert scheduler.quarantined_nodes == ref_scheduler.quarantined_nodes


# A core switch of the Fig. 4 mesh: until its first report lands, paths
# detour around it; afterwards the lexicographically smaller path through it
# takes over, so plans cached before the topology grew must be dropped.
_CORE_SWITCH = 2


@given(
    seed=st.integers(0, 2**32 - 1),
    quarantine_ttl=st.sampled_from([None, 0.04]),
    every=st.integers(1, 40),
    held_back=st.sampled_from([None, _CORE_SWITCH]),
)
@example(seed=0, quarantine_ttl=0.04, every=7, held_back=_CORE_SWITCH)
@example(seed=1, quarantine_ttl=None, every=7, held_back=None)
@settings(max_examples=12, deadline=None)
def test_rankings_equal_reference_search_under_shuffled_arrivals(
    seed, quarantine_ttl, every, held_back
):
    """Same reports, same order, same clock; one scheduler ranks by walking
    cached per-path link plans over cached trees, the other runs the
    per-pair search and prices each hop with a store lookup.  Reports land
    10 ms apart, so with the TTL set a host missing from the last four is
    quarantined and the stale rankers run too; past 2 s the staleness
    horizon starts zeroing readings, and a last round 2.5 s after the final
    report finds every link stale.  With ``held_back`` set, no report
    crossing that switch lands before half-way."""
    reports = list(_fig4_mesh_reports())
    random.Random(seed).shuffle(reports)
    reports = reports[:320]
    if held_back is not None:
        early = [r for r in reports if held_back not in {h.switch_id for h in r.records}]
        early = early[: len(reports) // 2]
        chosen = {id(r) for r in early}
        reports = early + [r for r in reports if id(r) not in chosen]
    sim, scheduler = _fed_scheduler(quarantine_ttl)
    ref_sim, ref_scheduler = _fed_scheduler(quarantine_ttl, reference=True)
    quarantined = False
    for i, report in enumerate(reports, 1):
        for s, sched in ((sim, scheduler), (ref_sim, ref_scheduler)):
            s.run(until=0.01 * i)
            sched.store.update(report)
        if i % every:
            continue
        _assert_same_rankings(scheduler, ref_scheduler)
        quarantined = quarantined or bool(scheduler.quarantined_nodes)
    assert quarantined == (quarantine_ttl is not None)
    for s in (sim, ref_sim):
        s.run(until=0.01 * len(reports) + 2.5)
    _assert_same_rankings(scheduler, ref_scheduler)
