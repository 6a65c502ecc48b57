"""The switch hop: five frames from the engine loop to the next delivery.

A frame crossing a compiled switch runs the engine loop, the switch's hop
closure (ingress stage, routing, counters), ``Port.send``, ``Port._start``
and the egress stage, which the port calls from a slot; ``_start`` pushes
the next delivery straight onto the heap.  The staged ``Switch.on_ingress``
and ``Switch.on_egress`` are the oracle and the path of uncompiled programs,
never a trampoline.  Whether a frame's transmit completion must be its own
event is one flag per link, kept current by the link's setters and by
arming a fault injector.
"""

import heapq
import sys

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.plan import REGISTER_WIPE
from repro.simnet.engine import Simulator
from repro.simnet.random import RandomStreams
from repro.simnet.topology import Network
from repro.simnet.trace import PacketTracer
from repro.units import mbps, ms


def _build(monkeypatch, slowpath=False):
    if slowpath:
        monkeypatch.setenv("REPRO_SLOWPATH", "1")
    else:
        monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
    sim = Simulator()
    net = Network(sim, RandomStreams(0))
    for host in ("h1", "h2"):
        net.add_host(host)
    net.add_switch("s01")
    for host in ("h1", "h2"):
        net.attach_host(host, "s01", fabric_rate_bps=mbps(20), delay=ms(10))
    net.finalize()
    return sim, net


def _slots(net):
    switch = net.switch("s01")
    delivers = {port._peer._deliver for port in switch.ports}
    egresses = {port._egress for port in switch.ports}
    return switch, delivers, egresses


class TestSlots:
    def test_compiled_switch_owns_its_ports_slots(self, monkeypatch):
        _sim, net = _build(monkeypatch)
        switch, delivers, egresses = _slots(net)
        assert delivers == {switch._fast_ingress} and egresses == {switch._fast_egress}
        assert switch._fast_ingress.__qualname__ == "Switch.on_ingress"
        h1 = net.host("h1")
        assert h1.ports[0]._egress == h1.on_egress
        assert switch.ports[0]._deliver == h1.on_ingress

    def test_slowpath_binds_the_staged_handlers(self, monkeypatch):
        _sim, net = _build(monkeypatch, slowpath=True)
        switch, delivers, egresses = _slots(net)
        assert switch._fast_ingress is None
        assert delivers == {switch.on_ingress} and egresses == {switch.on_egress}
        assert all(link.per_frame for link in net.links.values())

    def test_observer_rebinds_and_detach_restores(self, monkeypatch):
        _sim, net = _build(monkeypatch)
        switch, before, _ = _slots(net)
        tracer = PacketTracer([switch])
        _, observed, egresses = _slots(net)
        assert observed == {switch._fast_ingress} != before
        assert egresses == {switch._fast_egress}
        assert switch._fast_ingress.__qualname__ == "Switch.on_ingress"
        tracer.detach()
        _, after, _ = _slots(net)
        assert after == {switch._fast_ingress} and switch._fast_ingress is not None


def _hop_calls(monkeypatch, drawn):
    """The Python calls of one delivery dispatched by hand, after ``drawn``
    service factors were taken from the switch's stream."""
    sim, net = _build(monkeypatch)
    switch = net.switch("s01")
    for _ in range(drawn):
        switch.service_time_factor()
    h1 = net.host("h1")
    h1.send(h1.new_packet(net.address_of("h2"), dst_port=5, size_bytes=1200))
    time, _seq, _handle, fn, args = heapq.heappop(sim._heap)
    sim._now = time
    calls = []

    def trace(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    assert [e[3].__qualname__ for e in sim._heap] == ["Host.on_ingress"]
    return calls


def test_a_hop_is_five_frames(monkeypatch):
    """Dispatch one delivery by hand under a call tracer: the hop, the
    send, the start and the egress stage are the only Python calls — no
    post() call, no Switch.on_ingress / on_egress trampoline, and the service
    factor is a C-level ``next()``."""
    assert _hop_calls(monkeypatch, 1) == ["hop", "send", "_start", "egress"]


def test_only_a_block_boundary_adds_the_draw(monkeypatch):
    """The frame that opens a new block of 512 service factors calls the
    block draw; no other frame does."""
    assert _hop_calls(monkeypatch, 512) == [
        "hop", "send", "_start", "egress", "<lambda>", "_service_block",
    ]


class TestPerFrameFlag:
    def _link(self, monkeypatch):
        sim, net = _build(monkeypatch)
        return sim, net, net.links["h1<->s01"]

    def test_clean_link_elides(self, monkeypatch):
        _sim, _net, link = self._link(monkeypatch)
        assert not link.per_frame

    @pytest.mark.parametrize("impair,repair", [
        (lambda link: link.set_up(False), lambda link: link.set_up(True)),
        (
            lambda link: link.set_loss(rate=0.1, rng=RandomStreams(1).get("faults")),
            lambda link: link.set_loss(rate=0.0),
        ),
        (
            lambda link: link.set_loss(probe_rate=0.1, rng=RandomStreams(1).get("faults")),
            lambda link: link.set_loss(probe_rate=0.0),
        ),
        (
            lambda link: link.set_degradation(extra_delay=ms(5)),
            lambda link: link.set_degradation(),
        ),
    ], ids=["down", "loss", "probe-loss", "extra-delay"])
    def test_setters_keep_the_flag_current(self, monkeypatch, impair, repair):
        _sim, _net, link = self._link(monkeypatch)
        impair(link)
        assert link.per_frame
        repair(link)
        assert not link.per_frame

    def test_rate_degradation_alone_keeps_eliding(self, monkeypatch):
        _sim, _net, link = self._link(monkeypatch)
        link.set_degradation(rate_factor=0.5)
        assert not link.per_frame

    def test_armed_injector_pins_every_link(self, monkeypatch):
        sim, net, link = self._link(monkeypatch)
        FaultInjector(sim, net, FaultPlan(
            name="armed", events=(FaultEvent(time=9.0, kind=REGISTER_WIPE, target="*"),),
        )).arm()
        assert all(link.per_frame for link in net.links.values())
        link.set_degradation()
        link.set_up(True)
        assert link.per_frame
