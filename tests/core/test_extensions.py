"""Future-work extensions: compute-aware and heterogeneity-aware ranking."""

import pytest

from repro.core.extensions import ComputeAwareScheduler, HeterogeneityAwareScheduler
from repro.core.scheduler import METRIC_BANDWIDTH, METRIC_DELAY
from repro.edge.server import EdgeServer
from repro.errors import SchedulingError
from repro.experiments.fig4_topology import build_fig4_network
from repro.telemetry.probe import ProbeResponder, ProbeSender


@pytest.fixture
def fig4(sim, streams):
    return build_fig4_network(sim, streams)


def _wire_probing(fig4, sched):
    net = fig4.network
    all_addrs = [net.address_of(n) for n in fig4.node_names]
    for name in fig4.node_names:
        host = net.host(name)
        if name == fig4.scheduler_name:
            ProbeResponder(host, collector=sched.collector)
        else:
            ProbeResponder(host, collector_addr=fig4.scheduler_addr)
        ProbeSender(host, [a for a in all_addrs if a != host.addr], probe_size=256).start()


def _worker_addrs(fig4):
    return [fig4.network.address_of(n) for n in fig4.worker_names]


class TestComputeAware:
    def _sched(self, fig4, **kw):
        return ComputeAwareScheduler(
            fig4.network.host(fig4.scheduler_name),
            _worker_addrs(fig4),
            link_capacity_bps=fig4.fabric_rate_bps,
            mean_exec_time=5.0,
            **kw,
        )

    def test_load_reports_consumed(self, sim, fig4):
        sched = self._sched(fig4)
        _wire_probing(fig4, sched)
        EdgeServer(
            fig4.network.host("node1"),
            load_report_addr=fig4.scheduler_addr,
            load_report_interval=0.5,
        )
        sim.run(until=2.0)
        assert sched.load_reports_received >= 3
        assert sched.server_load(fig4.network.address_of("node1")) == 0

    def test_loaded_server_penalized_in_delay_rank(self, sim, fig4):
        sched = self._sched(fig4)
        _wire_probing(fig4, sched)
        sim.run(until=1.0)
        node8 = fig4.network.address_of("node8")
        base = sched.rank(fig4.network.address_of("node7"), METRIC_DELAY)
        assert base[0][0] == node8  # idle: in-pod neighbour first
        # Report heavy load on node8 directly.
        sched._loads[node8] = (3, 2, sim.now)
        loaded = sched.rank(fig4.network.address_of("node7"), METRIC_DELAY)
        assert loaded[0][0] != node8
        penalty = dict(loaded)[node8] - dict(base)[node8]
        assert penalty == pytest.approx(5 * 5.0)  # load x mean_exec_time

    def test_loaded_server_discounted_in_bandwidth_rank(self, sim, fig4):
        sched = self._sched(fig4)
        _wire_probing(fig4, sched)
        sim.run(until=1.0)
        node8 = fig4.network.address_of("node8")
        base = dict(sched.rank(fig4.network.address_of("node7"), METRIC_BANDWIDTH))
        sched._loads[node8] = (1, 0, sim.now)
        loaded = dict(sched.rank(fig4.network.address_of("node7"), METRIC_BANDWIDTH))
        assert loaded[node8] == pytest.approx(base[node8] / 2.0)

    def test_stale_load_ignored(self, sim, fig4):
        sched = self._sched(fig4)
        node8 = fig4.network.address_of("node8")
        sched._loads[node8] = (5, 5, 0.0)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert sched.server_load(node8) == 0

    def test_negative_mean_exec_rejected(self, sim, fig4):
        with pytest.raises(SchedulingError):
            ComputeAwareScheduler(
                fig4.network.host(fig4.scheduler_name),
                _worker_addrs(fig4),
                link_capacity_bps=fig4.fabric_rate_bps,
                mean_exec_time=-1.0,
            )


class TestHeterogeneityAware:
    def _sched(self, fig4, capabilities):
        return HeterogeneityAwareScheduler(
            fig4.network.host(fig4.scheduler_name),
            _worker_addrs(fig4),
            link_capacity_bps=fig4.fabric_rate_bps,
            capabilities=capabilities,
        )

    def test_requirements_filter_candidates(self, sim, fig4):
        gpu_node = fig4.network.address_of("node2")
        sched = self._sched(fig4, {gpu_node: {"gpu"}})
        _wire_probing(fig4, sched)
        sim.run(until=1.0)
        ranked = sched.rank(
            fig4.network.address_of("node1"), (METRIC_DELAY, frozenset({"gpu"}))
        )
        assert [a for a, _ in ranked] == [gpu_node]

    def test_no_requirements_keeps_everyone(self, sim, fig4):
        sched = self._sched(fig4, {})
        _wire_probing(fig4, sched)
        sim.run(until=1.0)
        ranked = sched.rank(fig4.network.address_of("node1"), METRIC_DELAY)
        assert len(ranked) == 6

    def test_unsatisfiable_requirement_empty(self, sim, fig4):
        sched = self._sched(fig4, {})
        _wire_probing(fig4, sched)
        sim.run(until=1.0)
        ranked = sched.rank(
            fig4.network.address_of("node1"), (METRIC_DELAY, frozenset({"tpu"}))
        )
        assert ranked == []

    def test_eligible_needs_every_required_capability(self, sim, fig4):
        addr = fig4.network.address_of("node3")
        sched = self._sched(fig4, {addr: {"gpu", "keras"}})
        assert sched.eligible(addr, frozenset({"gpu"}))
        assert not sched.eligible(addr, frozenset({"gpu", "fpga"}))
        assert sched.eligible(addr, frozenset())
