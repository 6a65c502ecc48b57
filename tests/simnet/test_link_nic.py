"""Links, ports, and store-and-forward timing."""

import pytest

from repro.errors import TopologyError
from repro.simnet.addressing import PROTO_UDP
from repro.simnet.link import Link
from repro.units import mbps, ms, transmission_time


class TestLinkConstruction:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(TopologyError):
            Link("l", 0.0, 0.01)

    def test_rejects_negative_delay(self):
        with pytest.raises(TopologyError):
            Link("l", 1e6, -0.001)

    def test_symmetric_rate_default(self):
        link = Link("l", mbps(20), ms(10))
        assert link.rate_ab_bps == link.rate_ba_bps == mbps(20)

    def test_directional_rates(self):
        link = Link("l", mbps(20), ms(10), rate_ab_bps=mbps(200))
        assert link.rate_ab_bps == mbps(200)
        assert link.rate_ba_bps == mbps(20)

    def test_rejects_nonpositive_directional_rate(self):
        with pytest.raises(TopologyError):
            Link("l", mbps(20), ms(10), rate_ab_bps=-1.0)


class TestDelivery:
    def _two_hosts(self, sim, quiet_network_factory):
        net = quiet_network_factory()
        net.add_host("a")
        net.add_host("b")
        net.add_switch("s01")
        net.connect("a", "s01", rate_bps=mbps(20), delay=ms(10))
        net.connect("s01", "b", rate_bps=mbps(20), delay=ms(10))
        net.finalize()
        return net

    def test_one_way_delivery_time(self, sim, quiet_network_factory):
        """1500 B across two 20 Mb/s 10 ms links via one switch:
        2 x (0.6 ms serialization + 10 ms propagation) = 21.2 ms."""
        net = self._two_hosts(sim, quiet_network_factory)
        arrivals = []
        net.host("b").bind(PROTO_UDP, 5, lambda p: arrivals.append(sim.now))
        pkt = net.host("a").new_packet(net.address_of("b"), dst_port=5, size_bytes=1500)
        net.host("a").send(pkt)
        sim.run()
        expected = 2 * (transmission_time(1500, mbps(20)) + ms(10))
        assert arrivals == [pytest.approx(expected)]

    def test_faster_direction_is_faster(self, sim, quiet_network_factory):
        net = quiet_network_factory()
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "b", rate_bps=mbps(10), delay=0.0, rate_ab_bps=mbps(100))
        net.finalize()
        t_ab = []
        t_ba = []
        net.host("b").bind(PROTO_UDP, 5, lambda p: t_ab.append(sim.now))
        net.host("a").bind(PROTO_UDP, 5, lambda p: t_ba.append(sim.now))
        net.host("a").send(net.host("a").new_packet(net.address_of("b"), dst_port=5, size_bytes=1500))
        sim.run()
        start = sim.now
        net.host("b").send(net.host("b").new_packet(net.address_of("a"), dst_port=5, size_bytes=1500))
        sim.run()
        assert t_ab[0] == pytest.approx(transmission_time(1500, mbps(100)))
        assert t_ba[0] - start == pytest.approx(transmission_time(1500, mbps(10)))

    def test_serialization_back_to_back(self, sim, quiet_network_factory):
        """Two packets sent together: the second arrives one serialization
        time after the first (pipelined through the single link)."""
        net = quiet_network_factory()
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "b", rate_bps=mbps(20), delay=ms(1))
        net.finalize()
        arrivals = []
        net.host("b").bind(PROTO_UDP, 5, lambda p: arrivals.append(sim.now))
        for _ in range(2):
            net.host("a").send(
                net.host("a").new_packet(net.address_of("b"), dst_port=5, size_bytes=1500)
            )
        sim.run()
        tx = transmission_time(1500, mbps(20))
        assert arrivals[0] == pytest.approx(tx + ms(1))
        assert arrivals[1] - arrivals[0] == pytest.approx(tx)

    def test_drop_tail_on_burst(self, sim, quiet_network_factory):
        net = quiet_network_factory()
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "b", rate_bps=mbps(20), delay=ms(1), queue_capacity=4)
        net.finalize()
        received = []
        net.host("b").bind(PROTO_UDP, 5, lambda p: received.append(p.seq))
        # Burst of 10: 1 in service + 4 queued fit; the rest are dropped.
        for i in range(10):
            net.host("a").send(
                net.host("a").new_packet(net.address_of("b"), dst_port=5, size_bytes=1500, seq=i)
            )
        sim.run()
        assert received == [0, 1, 2, 3, 4]
        assert net.host("a").ports[0].packets_dropped == 5

    def test_byte_accounting(self, sim, quiet_network_factory):
        net = quiet_network_factory()
        net.add_host("a")
        net.add_host("b")
        link = net.connect("a", "b", rate_bps=mbps(20), delay=0.0)
        net.finalize()
        net.host("b").bind(PROTO_UDP, 5, lambda p: None)
        net.host("a").send(net.host("a").new_packet(net.address_of("b"), dst_port=5, size_bytes=500))
        sim.run()
        assert sum(link.bytes_carried.values()) == 500

    def test_port_busy_flag(self, sim, quiet_network_factory):
        net = quiet_network_factory()
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "b", rate_bps=mbps(1), delay=0.0)
        net.finalize()
        port = net.host("a").ports[0]
        net.host("a").send(net.host("a").new_packet(net.address_of("b"), size_bytes=1500))
        assert port.busy
        sim.run()
        assert not port.busy
        assert port.backlog == 0


class TestLinkFaultState:
    def _pair(self, sim, quiet_network_factory):
        net = quiet_network_factory()
        net.add_host("a")
        net.add_host("b")
        link = net.connect("a", "b", rate_bps=mbps(20), delay=ms(1))
        net.finalize()
        received = []
        net.host("b").bind(PROTO_UDP, 5, lambda p: received.append(p.seq))
        return net, link, received

    def _send(self, net, seq=0):
        net.host("a").send(
            net.host("a").new_packet(net.address_of("b"), dst_port=5, size_bytes=500, seq=seq)
        )

    def test_link_down_loses_frames(self, sim, quiet_network_factory):
        net, link, received = self._pair(sim, quiet_network_factory)
        link.set_up(False)
        self._send(net, seq=0)
        sim.run()
        assert received == []
        assert link.packets_lost == 1
        link.set_up(True)
        self._send(net, seq=1)
        sim.run()
        assert received == [1]

    def test_degradation_slows_and_delays(self, sim, quiet_network_factory):
        net, link, received = self._pair(sim, quiet_network_factory)
        arrivals = []
        net.host("b").bind(PROTO_UDP, 6, lambda p: arrivals.append(sim.now))
        link.set_degradation(rate_factor=0.5, extra_delay=ms(20))
        net.host("a").send(
            net.host("a").new_packet(net.address_of("b"), dst_port=6, size_bytes=1500)
        )
        sim.run()
        expected = transmission_time(1500, mbps(10)) + ms(1) + ms(20)
        assert arrivals == [pytest.approx(expected)]

    def test_set_loss_requires_rng(self, sim, quiet_network_factory):
        _net, link, _received = self._pair(sim, quiet_network_factory)
        with pytest.raises(TopologyError):
            link.set_loss(rate=0.5)
        with pytest.raises(TopologyError):
            link.set_loss(rate=1.5, rng=object())

    def test_probe_loss_spares_data(self, sim, quiet_network_factory):
        import random

        net, link, received = self._pair(sim, quiet_network_factory)
        link.set_loss(probe_rate=1.0, rng=random.Random(1))
        self._send(net, seq=0)  # data packet: unaffected
        sim.run()
        assert received == [0]

    def test_restore_clears_impairment(self, sim, quiet_network_factory):
        import random

        _net, link, _received = self._pair(sim, quiet_network_factory)
        link.set_loss(rate=1.0, rng=random.Random(1))
        link.set_degradation(rate_factor=0.5, extra_delay=ms(5))
        assert link.impaired
        link.set_loss(rate=0.0, probe_rate=0.0)
        link.set_degradation(rate_factor=1.0, extra_delay=0.0)
        assert not link.impaired
        assert link.rate_factor == 1.0 and link.extra_delay == 0.0
