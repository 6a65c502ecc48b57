"""The switch hop: four frames from the engine loop to the next delivery.

A data frame crossing a compiled switch runs the engine loop, the switch's
hop closure (ingress stage, routing), ``Port.send`` and ``Port._start``,
which folds the frame's enqueue depth into the register cell the program
handed the port; ``_start`` pushes the next delivery straight onto the
heap.  A probe adds the egress stage, which the port calls from a slot.
The staged ``Switch.on_ingress``
and ``Switch.on_egress`` are the oracle and the path of uncompiled programs,
never a trampoline.  Whether a frame's transmit completion must be its own
event is one flag per link, kept current by the link's setters and by
arming a fault injector.  The hop routes by a per-destination slot that a
route set after compile refreshes.
"""

import heapq
import sys

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.plan import REGISTER_WIPE
from repro.p4.headers import encode_probe_header
from repro.simnet.engine import Simulator
from repro.simnet.packet import FLAG_PROBE
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


def _hop_calls(monkeypatch, drawn, flags=0):
    """The Python calls of one delivery dispatched by hand, after ``drawn``
    service factors were taken from the switch's stream.  A first frame to
    the same host, run through, fills the hop's route slot and takes the
    first of those factors."""
    sim, net = _build(monkeypatch)
    switch = net.switch("s01")
    h1 = net.host("h1")
    h1.send(h1.new_packet(net.address_of("h2"), dst_port=5, size_bytes=1200))
    sim.run()
    for _ in range(drawn - 1):
        switch.service_time_factor()
    payload = encode_probe_header(0) if flags else None
    h1.send(h1.new_packet(
        net.address_of("h2"), dst_port=5, size_bytes=1200, flags=flags, payload=payload,
    ))
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


def test_a_hop_is_four_frames(monkeypatch):
    """Dispatch one delivery by hand under a call tracer: the hop, the
    send and the start are a data frame's only Python calls — no post()
    call, no Switch.on_ingress / on_egress trampoline, no egress stage (the
    start folds the register cell), and the service factor is a C-level
    ``next()``.  A probe's start still calls the egress stage."""
    assert _hop_calls(monkeypatch, 1) == ["hop", "send", "_start"]
    probe = _hop_calls(monkeypatch, 1, FLAG_PROBE)
    assert probe[probe.index("_start"):][:2] == ["_start", "egress"]


def test_only_a_block_boundary_adds_the_draw(monkeypatch):
    """The frame that opens a new block of 512 service factors calls the
    block draw; no other frame does."""
    assert _hop_calls(monkeypatch, 512) == [
        "hop", "send", "_start", "<lambda>", "_service_block",
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


class TestRouteSlot:
    """The compiled hop takes its egress port from a per-destination slot
    (``RouteTable.routes``), not from the entry.  A route set after
    compile must reach the next frame, and a destination no entry holds
    must still count a miss per frame."""

    UNKNOWN = 999

    def _run(self, monkeypatch, slowpath=False):
        """h1 sends a frame to h2; h2's route is re-pointed at h3's port;
        h1 sends to h2 again, then twice to an address no entry holds.
        Returns the frames each switch port sent, the frames h2 and h3
        took, the table's misses and the switch's pipeline drops."""
        if slowpath:
            monkeypatch.setenv("REPRO_SLOWPATH", "1")
        else:
            monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
        sim = Simulator()
        net = Network(sim, RandomStreams(0))
        hosts = ("h1", "h2", "h3")
        for host in hosts:
            net.add_host(host)
        net.add_switch("s01")
        for host in hosts:
            net.attach_host(host, "s01", fabric_rate_bps=mbps(20), delay=ms(10))
        net.finalize()
        switch = net.switch("s01")
        assert (switch._fast_ingress is None) == slowpath
        table = switch.program.forward_table
        h1, h2, h3 = (net.host(name) for name in hosts)
        toward_h3 = table.entries()[h3.addr][1]["port"]

        def send(dst):
            h1.send(h1.new_packet(dst, dst_port=5, size_bytes=500))

        def repoint():
            table.set_entry(h2.addr, "forward", port=toward_h3)

        sim.schedule_at(0.0, send, h2.addr)
        sim.schedule_at(0.1, repoint)
        sim.schedule_at(0.2, send, h2.addr)
        sim.schedule_at(0.3, send, self.UNKNOWN)
        sim.schedule_at(0.4, send, self.UNKNOWN)
        sim.run()
        return (
            [port.packets_sent for port in switch.ports],
            (h2.packets_received, h3.packets_misrouted),
            table.misses,
            switch.packets_dropped_pipeline,
        )

    def _expected(self):
        # The switch ports face h1, h2, h3 in that order: the first frame
        # leaves toward h2, the re-pointed one toward h3.
        return [0, 1, 1], (1, 1), 2, 2

    @pytest.mark.parametrize("slowpath", [False, True], ids=["compiled", "staged"])
    def test_a_route_set_after_compile_reaches_the_next_frame(self, monkeypatch, slowpath):
        assert self._run(monkeypatch, slowpath) == self._expected()

    def test_a_slot_never_refreshed_fails_it(self, monkeypatch):
        """The same run with ``set_entry`` leaving the slot alone: the
        re-pointed frame still leaves toward h2."""
        from repro.p4.forwarding import RouteTable
        from repro.p4.tables import ExactMatchTable

        monkeypatch.setattr(RouteTable, "set_entry", ExactMatchTable.set_entry)
        got = self._run(monkeypatch)
        assert got != self._expected()
        assert got[:2] == ([0, 2, 0], (2, 0))
