"""Block-prefetched random streams hand out exactly the scalar draws.

Two per-frame draws are taken from numpy in blocks and served one at a time
by ``repro.simnet.random.prefetch``: a Poisson CBR flow's exponential gaps,
and a node's service-time factors ``1 + j(2u - 1)``.  Both must equal, bit for bit, what one scalar
draw per use would have produced — across several refills, and (for the
node) across a mid-run ``set_service_jitter`` that swaps the stream.
"""

import numpy as np
import pytest

from repro.simnet.addressing import PROTO_UDP
from repro.simnet.flows import UdpCbrFlow
from repro.simnet.node import Node
from repro.simnet.random import RandomStreams
from repro.simnet.topology import Network
from repro.units import mbps, ms

GAP_BLOCK = 256
FACTOR_BLOCK = 512


def _scalar_gaps(seed, mean_gap, n):
    rng = np.random.default_rng(seed)
    return [float(rng.exponential(mean_gap)) for _ in range(n)]


def _scalar_factors(rng, jitter, n):
    return [1.0 + jitter * (2.0 * float(rng.random()) - 1.0) for _ in range(n)]


class TestCbrGaps:
    def test_gaps_equal_scalar_draws_across_refills(self, dumbbell):
        flow = UdpCbrFlow(
            dumbbell.host("h1"), dumbbell.address_of("h2"), mbps(4),
            rng=np.random.default_rng(77),
        )
        n = 3 * GAP_BLOCK + 5
        assert [next(flow._gaps) for _ in range(n)] == _scalar_gaps(77, flow.mean_gap, n)

    def test_emission_instants_follow_the_scalar_gaps(self, sim, quiet_network_factory):
        """End to end: the first emission fires one gap after start, each
        later one a gap after the last, summed as the engine sums them."""
        net = quiet_network_factory()
        net.add_host("h1")
        net.add_host("h2")
        net.add_switch("s01")
        net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(1))
        net.attach_host("h2", "s01", fabric_rate_bps=mbps(20), delay=ms(1))
        net.finalize()
        created = []
        net.host("h2").bind(PROTO_UDP, 5201, lambda p: created.append(p.created_at))
        flow = UdpCbrFlow(
            net.host("h1"), net.address_of("h2"), mbps(8),
            rng=np.random.default_rng(5),
        )
        flow.run_for(1.0)
        sim.run(until=2.0)
        assert len(created) > 2 * GAP_BLOCK
        expected, t = [], 0.0
        for gap in _scalar_gaps(5, flow.mean_gap, len(created)):
            t = t + gap
            expected.append(t)
        assert created == expected

    def test_cbr_mode_draws_nothing(self, dumbbell):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        flow = UdpCbrFlow(
            dumbbell.host("h1"), dumbbell.address_of("h2"), mbps(4), burstiness="cbr",
            rng=rng,
        )
        assert {next(flow._gaps) for _ in range(10)} == {flow.mean_gap}
        assert rng.bit_generator.state == state


class TestServiceFactors:
    def _node(self, sim):
        return Node(sim, "s", 1)

    def test_factors_equal_scalar_formula_across_refills(self, sim):
        node = self._node(sim)
        node.set_service_jitter(0.15, np.random.default_rng(3))
        n = 3 * FACTOR_BLOCK + 7
        got = [node.service_time_factor() for _ in range(n)]
        assert got == _scalar_factors(np.random.default_rng(3), 0.15, n)

    def test_set_service_jitter_mid_run_restarts_the_block(self, sim):
        node = self._node(sim)
        node.set_service_jitter(0.15, np.random.default_rng(3))
        before = [node.service_time_factor() for _ in range(FACTOR_BLOCK + 10)]
        node.set_service_jitter(0.4, np.random.default_rng(9))
        after = [node.service_time_factor() for _ in range(FACTOR_BLOCK + 10)]
        assert before == _scalar_factors(np.random.default_rng(3), 0.15, FACTOR_BLOCK + 10)
        assert after == _scalar_factors(np.random.default_rng(9), 0.4, FACTOR_BLOCK + 10)

    def test_jitter_free_node_draws_nothing(self, sim):
        node = self._node(sim)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        node.set_service_jitter(0.0, rng)
        assert node.service_time_factor() == 1.0
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("frames", [3, FACTOR_BLOCK + 3])
    def test_port_serializes_with_the_scalar_factor(self, sim, frames):
        """The port draws the factor stream itself: every frame through a
        jittered switch egress arrives exactly when nominal time x the next
        scalar factor says, refill included."""
        net = Network(
            sim, RandomStreams(11), clock_offset_std=0.0, clock_jitter_std=0.0,
            switch_service_jitter=0.2,
        )
        net.add_host("h1")
        net.add_host("h2")
        net.add_switch("s01")
        net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(1))
        net.attach_host("h2", "s01", fabric_rate_bps=mbps(20), delay=ms(1))
        net.finalize()
        h1, dst = net.host("h1"), net.address_of("h2")
        arrivals = []
        net.host("h2").bind(PROTO_UDP, 5, lambda p: arrivals.append(sim.now))
        for k in range(frames):      # 10 ms apart: every port idle on arrival
            sim.schedule(0.01 * k, lambda: h1.send(h1.new_packet(dst, dst_port=5, size_bytes=1000)))
        sim.run()
        factors = _scalar_factors(RandomStreams(11).get("service/s01"), 0.2, frames)
        uplink, fabric = (1000 * 8.0) / mbps(200), (1000 * 8.0) / mbps(20)
        # The sums in the order the ports evaluate them.
        expected = [
            ((0.01 * k + uplink) + ms(1)) + fabric * factor + ms(1)
            for k, factor in enumerate(factors)
        ]
        assert arrivals == expected
