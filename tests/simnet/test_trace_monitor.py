"""Packet tracing and ground-truth monitoring instrumentation."""

import pytest

from repro.errors import TopologyError
from repro.obs.tracing import SampledProbeTracer
from repro.simnet.addressing import PROTO_UDP
from repro.simnet.engine import Simulator
from repro.simnet.flows import UdpCbrFlow, UdpSink, reset_flow_ids
from repro.simnet.monitor import QueueSampler, link_utilizations
from repro.simnet.packet import FLAG_PROBE, reset_packet_ids
from repro.simnet.random import RandomStreams
from repro.simnet.topology import Network
from repro.simnet.trace import PacketTracer, flow_predicate, probe_predicate
from repro.telemetry.collector import IntCollector
from repro.telemetry.probe import ProbeResponder, ProbeSender
from repro.units import mbps, ms, transmission_time


class TestPacketTracer:
    def _all_nodes(self, net):
        return list(net.hosts.values()) + list(net.switches.values())

    def test_records_full_path(self, sim, line3):
        net = line3
        tracer = PacketTracer(self._all_nodes(net))
        net.host("h2").bind(PROTO_UDP, 9, lambda p: None)
        h1 = net.host("h1")
        pkt = h1.new_packet(net.address_of("h2"), dst_port=9)
        h1.send(pkt)
        sim.run()
        assert tracer.path_of(pkt.packet_id) == ["s01", "s02", "h2"]

    def test_predicate_filters(self, sim, line3):
        net = line3
        sink = UdpSink(net.host("h2"))
        f1 = UdpCbrFlow(net.host("h1"), net.address_of("h2"), mbps(2), burstiness="cbr")
        f2 = UdpCbrFlow(net.host("h3"), net.address_of("h2"), mbps(2), burstiness="cbr")
        tracer = PacketTracer(self._all_nodes(net), predicate=flow_predicate(f1.flow_id))
        f1.run_for(1.0)
        f2.run_for(1.0)
        sim.run(until=2.0)
        assert len(tracer) > 0
        assert all(e.flow_id == f1.flow_id for e in tracer.events)

    def test_drop_events_recorded(self, sim, quiet_network_factory):
        net = quiet_network_factory()
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "b", rate_bps=mbps(1), delay=0.0, queue_capacity=2)
        net.finalize()
        tracer = PacketTracer([net.host("a")])
        a = net.host("a")
        for i in range(10):
            a.send(a.new_packet(net.address_of("b"), dst_port=9, size_bytes=1500, seq=i))
        sim.run()
        assert len(tracer.drops()) == 7  # 1 in service + 2 queued survive

    def test_one_way_delay(self, sim, line3):
        net = line3
        tracer = PacketTracer(self._all_nodes(net))
        net.host("h2").bind(PROTO_UDP, 9, lambda p: None)
        h1 = net.host("h1")
        pkt = h1.new_packet(net.address_of("h2"), dst_port=9, size_bytes=1500)
        h1.send(pkt)
        sim.run()
        delay = tracer.one_way_delay(pkt.packet_id)
        # h1 egress -> h2 ingress: 3 links of 10 ms, fast host injection,
        # two fabric serializations (loose tolerance: switch service jitter).
        expected = (
            3 * ms(10)
            + transmission_time(1500, mbps(200))
            + 2 * transmission_time(1500, mbps(20))
        )
        assert delay == pytest.approx(expected, rel=0.1)

    def test_detach_restores_handlers(self, sim, line3):
        net = line3
        nodes = self._all_nodes(net)
        originals = [
            (n.on_ingress, n.on_egress, n.on_packet_dropped) for n in nodes
        ]
        net.host("h2").bind(PROTO_UDP, 9, lambda p: None)
        h1 = net.host("h1")
        tracer = PacketTracer(nodes)
        # Attaching wraps nothing — the handlers stay the class's own (bound
        # methods compare with ==, which checks __self__ and __func__) — yet
        # a packet's hops are recorded while the tracer is attached ...
        for node, handlers in zip(nodes, originals):
            assert (node.on_ingress, node.on_egress, node.on_packet_dropped) == handlers
            assert node.on_ingress.__func__ is type(node).on_ingress
        first = h1.new_packet(net.address_of("h2"), dst_port=9)
        h1.send(first)
        sim.run()
        assert tracer.path_of(first.packet_id) == ["s01", "s02", "h2"]
        recorded = len(tracer)
        tracer.detach()
        # ... and none after detach, which leaves every handler as it was.
        for node, handlers in zip(nodes, originals):
            assert (node.on_ingress, node.on_egress, node.on_packet_dropped) == handlers
            assert node.observer is None
        h1.send(h1.new_packet(net.address_of("h2"), dst_port=9))
        sim.run()
        assert len(tracer) == recorded

    def test_one_observer_per_node(self, sim, line3):
        first = PacketTracer([line3.switch("s01")])
        with pytest.raises(TopologyError):
            PacketTracer([line3.switch("s01")])
        first.detach()
        PacketTracer([line3.switch("s01")])

    def test_truncation_cap(self, sim, line3):
        net = line3
        tracer = PacketTracer(self._all_nodes(net), max_events=5)
        sink = UdpSink(net.host("h2"))
        UdpCbrFlow(net.host("h1"), net.address_of("h2"), mbps(5), burstiness="cbr").run_for(1.0)
        sim.run(until=2.0)
        # 5 real hop events plus exactly one "truncated" sentinel marking
        # where recording stopped — truncation is never silent.
        assert len(tracer) == 6
        assert tracer.truncated
        assert [e.kind for e in tracer.events].count("truncated") == 1
        assert tracer.events[-1].kind == "truncated"
        # The sentinel's neutral ids keep per-packet analyses clean.
        assert tracer.events[-1].packet_id == -1
        assert all(e.kind != "truncated" for e in tracer.drops())

    def test_truncation_warns_via_obs(self, sim, line3):
        from repro.obs import Observability

        net = line3
        obs = Observability()
        obs.bind_sim(sim)
        tracer = PacketTracer(self._all_nodes(net), max_events=3)
        UdpSink(net.host("h2"))
        UdpCbrFlow(net.host("h1"), net.address_of("h2"), mbps(5), burstiness="cbr").run_for(1.0)
        sim.run(until=2.0)
        assert tracer.truncated
        warnings = [
            r for r in obs.events.snapshot()
            if r.get("event") == "warning"
            and r.get("reason") == "packet_tracer_truncated"
        ]
        assert len(warnings) == 1
        assert warnings[0]["max_events"] == 3

    def test_probe_predicate(self, sim, line3):
        net = line3
        collector = IntCollector(net.host("h3"))
        ProbeResponder(net.host("h3"), collector=collector)
        ProbeSender(net.host("h1"), [net.address_of("h3")]).start()
        UdpSink(net.host("h2"))
        UdpCbrFlow(net.host("h1"), net.address_of("h2"), mbps(2), burstiness="cbr").run_for(1.0)
        tracer = PacketTracer([net.switch("s01")], predicate=probe_predicate)
        sim.run(until=1.0)
        assert len(tracer) > 0
        assert all(e.kind in ("ingress", "egress") for e in tracer.events)


def _congested_probe_run(make_tracer, *, staged=False):
    """h1 probes h3 every 5 ms across s01 -> s02 while a 30 Mb/s CBR flow
    h1 -> h2 overruns s01's 6-frame, 20 Mb/s egress queue on the shared
    middle link, so probes are tail-dropped mid-path.  Returns the tracer
    ``make_tracer(nodes)`` built, after the run."""
    reset_packet_ids()
    reset_flow_ids()
    sim = Simulator()
    net = Network(sim, RandomStreams(99))
    for name in ("h1", "h2", "h3"):
        net.add_host(name)
    for name in ("s01", "s02"):
        net.add_switch(name)
    net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
    net.connect("s01", "s02", rate_bps=mbps(20), delay=ms(10), queue_capacity=6)
    net.attach_host("h2", "s02", fabric_rate_bps=mbps(20), delay=ms(10))
    net.attach_host("h3", "s02", fabric_rate_bps=mbps(20), delay=ms(10))
    net.finalize()
    assert all((sw._fast_ingress is None) == staged for sw in net.switches.values())
    collector = IntCollector(net.host("h3"))
    ProbeResponder(net.host("h3"), collector=collector)
    ProbeSender(net.host("h1"), [net.address_of("h3")], interval=0.005).start()
    UdpSink(net.host("h2"))
    UdpCbrFlow(
        net.host("h1"), net.address_of("h2"), mbps(30), burstiness="cbr"
    ).run_for(1.0)
    tracer = make_tracer(list(net.hosts.values()) + list(net.switches.values()))
    sim.run(until=1.0)
    assert collector.reports_ingested > 0
    return tracer


class TestProbeClassTracer:
    """A tracer that declares ``probes_only`` is offered probes alone — by
    the compiled closures' probe branches, or by the slot tests of hosts,
    the staged pipeline and the drop handler — and must record exactly what
    an all-packet tracer filtered down to probes records."""

    @pytest.mark.parametrize("staged", [False, True], ids=["compiled", "staged"])
    def test_same_events_as_filtered_all_packet_tracer(self, monkeypatch, staged):
        if staged:
            monkeypatch.setenv("REPRO_SLOWPATH", "1")
        else:
            monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
        filtered = _congested_probe_run(
            lambda nodes: PacketTracer(nodes, predicate=probe_predicate),
            staged=staged,
        )
        declared = _congested_probe_run(
            lambda nodes: PacketTracer(nodes, probes_only=True), staged=staged
        )
        assert declared.events == filtered.events
        kinds = {(e.node, e.kind) for e in declared.events}
        # Every hook site fired: host egress/ingress, switch ingress/egress
        # on both switches, and the mid-path tail drop.
        assert kinds >= {
            ("h1", "egress"), ("s01", "ingress"), ("s01", "egress"), ("s01", "drop"),
            ("s02", "ingress"), ("s02", "egress"), ("h3", "ingress"),
        }

    def test_same_truncation_point(self):
        filtered = _congested_probe_run(
            lambda nodes: PacketTracer(nodes, predicate=probe_predicate, max_events=40)
        )
        declared = _congested_probe_run(
            lambda nodes: PacketTracer(nodes, probes_only=True, max_events=40)
        )
        assert declared.truncated and len(declared) == 41
        assert declared.events == filtered.events

    def test_sampled_probe_tracer_keeps_every_nth_probe(self):
        everything = _congested_probe_run(
            lambda nodes: PacketTracer(nodes, probes_only=True)
        )
        sampled = _congested_probe_run(lambda nodes: SampledProbeTracer(nodes, 5))
        assert sampled.events == [e for e in everything.events if (e.seq - 1) % 5 == 0]
        assert 0 < len(sampled) < len(everything)


class _CallLoggingSampledTracer(SampledProbeTracer):
    """Logs every call of the hook, kept or not."""

    def __init__(self, nodes, sample):
        self.calls = []
        super().__init__(nodes, sample)

    def record(self, node, kind, packet, enq_depth=None):
        self.calls.append((node.name, kind, packet.seq, bool(packet.flags & FLAG_PROBE)))
        super().record(node, kind, packet, enq_depth)


class TestProbeStride:
    """An observer that declares ``probe_stride`` is *called* for matching
    probes only: the nodes run the sampling test, not the hook."""

    @pytest.mark.parametrize("staged", [False, True], ids=["compiled", "staged"])
    def test_hook_called_for_matching_probes_only(self, monkeypatch, staged):
        if staged:
            monkeypatch.setenv("REPRO_SLOWPATH", "1")
        else:
            monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
        tracer = _congested_probe_run(
            lambda nodes: _CallLoggingSampledTracer(nodes, 5), staged=staged
        )
        assert tracer.probe_stride == 5
        assert all(probe and (seq - 1) % 5 == 0 for _n, _k, seq, probe in tracer.calls)
        # One event per call, from every hook site: host egress/ingress,
        # switch ingress/egress on both switches, the mid-path tail drop.
        assert len(tracer.calls) == len(tracer.events) > 0
        assert {(n, k) for n, k, _s, _p in tracer.calls} >= {
            ("h1", "egress"), ("s01", "ingress"), ("s01", "egress"), ("s01", "drop"),
            ("s02", "ingress"), ("s02", "egress"), ("h3", "ingress"),
        }

    def test_direct_record_of_a_non_matching_probe_records_nothing(self, sim, line3):
        host = line3.host("h1")
        tracer = SampledProbeTracer([host], 5)
        for seq in (1, 2, 5, 6):
            packet = host.new_packet(
                line3.address_of("h3"), dst_port=9, size_bytes=64, seq=seq, flags=FLAG_PROBE,
            )
            tracer.record(host, "egress", packet)
        assert [e.seq for e in tracer.events] == [1, 6]


class TestQueueSampler:
    def test_samples_backlog(self, sim, line3):
        net = line3
        port = net.switch("s01").port(net.port_toward("s01", "s02"))
        sampler = QueueSampler(sim, [port], interval=0.01)
        sampler.start()
        UdpSink(net.host("h2"))
        flow = UdpCbrFlow(
            net.host("h1"), net.address_of("h2"), mbps(19),
            rng=__import__("repro.simnet.random", fromlist=["RandomStreams"]).RandomStreams(1).get("f"),
        )
        flow.run_for(2.0)
        sim.run(until=2.0)
        assert sampler.max_depth(port) > 0
        series = sampler.samples["s01[1]"]
        assert len(series) == pytest.approx(200, abs=5)

    def test_stop_halts_sampling(self, sim, line3):
        port = net_port = line3.switch("s01").port(0)
        sampler = QueueSampler(sim, [port], interval=0.01)
        sampler.start()
        sim.run(until=0.5)
        sampler.stop()
        n = len(sampler.samples["s01[0]"])
        sim.run(until=1.0)
        assert len(sampler.samples["s01[0]"]) == n


class TestLinkUtilizations:
    def test_idle_zero(self, sim, line3):
        out = link_utilizations(line3, window=1.0)
        assert all(v == 0.0 for v in out.values())

    def test_loaded_direction_measured(self, sim, line3):
        net = line3
        UdpSink(net.host("h2"))
        UdpCbrFlow(net.host("h1"), net.address_of("h2"), mbps(10), burstiness="cbr").run_for(2.0)
        sim.run(until=2.0)
        out = link_utilizations(net, window=2.0)
        loaded = out["s01<->s02:a"]
        assert loaded == pytest.approx(0.5, abs=0.1)

    def test_asymmetric_access_link_uses_each_directions_rate(self, sim, line3):
        """h1 injects at 10 x the fabric rate (attach_host), so 10 Mb/s of
        CBR is 5 % of the host->switch direction and 50 % of the fabric
        directions — not 50 % everywhere, and read exactly from inside the
        run (the uplink elides nearly every completion)."""
        net = line3
        UdpSink(net.host("h2"))
        UdpCbrFlow(net.host("h1"), net.address_of("h2"), mbps(10), burstiness="cbr").run_for(2.0)
        inside = []
        sim.schedule_at(2.0, lambda: inside.append(link_utilizations(net, window=2.0)))
        sim.run(until=2.0)
        out = link_utilizations(net, window=2.0)
        assert inside == [out]
        link = net.links["h1<->s01"]
        assert link.rate_ab_bps == 10 * link.rate_ba_bps
        assert out["h1<->s01:a"] == pytest.approx(0.05, abs=0.01)
        assert out["h1<->s01:a"] == link.utilization(net.host("h1").ports[0], 2.0)
        assert out["h2<->s02:b"] == pytest.approx(0.5, abs=0.1)   # switch -> host
        assert out["h1<->s01:b"] == 0.0
