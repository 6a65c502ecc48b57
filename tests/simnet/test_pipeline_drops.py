"""Drops outside the queues are reported as queue drops are.

A packet the switch pipeline drops (TTL expiry, no route) and a packet a
host drops as misrouted reach the hub's ``packets_dropped_total`` and the
packet observer's ``drop`` event, on the compiled path and on the staged
oracle alike.
"""

import pytest

from repro.obs import Observability
from repro.simnet.addressing import PROTO_UDP
from repro.simnet.engine import Simulator
from repro.simnet.packet import Packet
from repro.simnet.random import RandomStreams
from repro.simnet.topology import Network
from repro.simnet.trace import PacketTracer
from repro.units import mbps, ms


def _line(monkeypatch, slowpath):
    """h1 -- s01 -- s02 -- s03 -- h2, watched by a hub and an all-packet tracer."""
    if slowpath:
        monkeypatch.setenv("REPRO_SLOWPATH", "1")
    else:
        monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
    sim = Simulator()
    obs = Observability()
    obs.bind_sim(sim)
    net = Network(sim, RandomStreams(0))
    net.add_host("h1")
    net.add_host("h2")
    for name in ("s01", "s02", "s03"):
        net.add_switch(name)
    net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(1))
    net.connect("s01", "s02", rate_bps=mbps(20), delay=ms(1))
    net.connect("s02", "s03", rate_bps=mbps(20), delay=ms(1))
    net.attach_host("h2", "s03", fabric_rate_bps=mbps(20), delay=ms(1))
    net.finalize()
    assert (net.switch("s01")._fast_ingress is None) == slowpath
    tracer = PacketTracer([*net.hosts.values(), *net.switches.values()])
    return sim, obs, net, tracer


def _dropped(obs):
    return {
        record["labels"]["queue"]: record["value"]
        for record in obs.metrics.snapshot()
        if record["name"] == "packets_dropped_total"
    }


@pytest.mark.parametrize("slowpath", [False, True], ids=["compiled", "staged"])
def test_pipeline_drops_are_reported(monkeypatch, slowpath):
    sim, obs, net, tracer = _line(monkeypatch, slowpath)
    h1 = net.host("h1")
    net.host("h2").bind(PROTO_UDP, 7, lambda p: pytest.fail("a dropped packet arrived"))
    expiring = Packet(h1.addr, net.address_of("h2"), dst_port=7, ttl=2)
    unrouted = h1.new_packet(12345, dst_port=7)
    h1.send(expiring)
    h1.send(unrouted)
    sim.run()
    assert _dropped(obs) == {"pipeline:s02": 1, "pipeline:s01": 1}
    drops = {(e.node, e.packet_id) for e in tracer.drops()}
    assert drops == {("s02", expiring.packet_id), ("s01", unrouted.packet_id)}
    assert net.switch("s01").packets_dropped_pipeline == 1
    assert net.switch("s02").packets_dropped_pipeline == 1
    assert expiring.hop_count == 1 and unrouted.hop_count == 0
    # Received = forwarded + dropped in the pipeline, at every switch.
    received = {name: sw.packets_received for name, sw in net.switches.items()}
    assert received == {"s01": 2, "s02": 1, "s03": 0}
    assert sorted(e.fields["queue"] for e in obs.events.of_kind("packet_dropped")) == [
        "pipeline:s01", "pipeline:s02",
    ]


def test_misrouted_drop_at_a_host_is_reported():
    """Hosts have one data path: no compiled twin."""
    sim = Simulator()
    obs = Observability()
    obs.bind_sim(sim)
    net = Network(sim, RandomStreams(0))
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b", rate_bps=mbps(20), delay=0.0)
    net.finalize()
    tracer = PacketTracer([net.host("b")], probes_only=False)
    a, b = net.host("a"), net.host("b")
    packet = a.new_packet(999, dst_port=5)
    a.send(packet)
    sim.run()
    assert _dropped(obs) == {"misrouted:b": 1}
    assert [(e.kind, e.packet_id) for e in tracer.events] == [
        ("ingress", packet.packet_id), ("drop", packet.packet_id),
    ]
    assert (b.packets_dropped, b.packets_misrouted, b.packets_received) == (1, 1, 1)
