"""Property: counters read from the books equal counters written per frame.

A frame hop writes only the port books (``Port._sent``, ``_bytes`` and
friends, at frame start).  The counters a run no longer writes per frame —
a port queue's ``enqueued`` / ``dequeued`` / ``bytes_enqueued``, a switch's
``packets_forwarded`` / ``packets_received``, the INT program's
``data_packets_observed`` and its register's ``writes``, a host's
``packets_received`` and a packet's ``hop_count`` — are computed from the
books, the queue contents and the TTL when read.  A datagram for a
``UdpSink`` is not even delivered: the last port books it, and the host's
``packets_delivered``, the sink's per-flow dicts and ``events_executed``
read the arrivals at or before now.

Here the per-frame counts are kept the old way, by wrappers installed on
``Port.send``, ``Port._start`` and ``Port._finish`` before the network is
built.  They count and call through, and no packet observer is attached, so
a data frame still takes the compiled switch's register fold with no egress
call.  The reference puts every frame's transmit completion and every
frame's arrival at the instant a per-frame run would dispatch it (the
delivery posted at the start, or at the completion on a per-frame link),
and counts the events of a per-frame run from them.  Drawn schedules mix
wire loss, probes whose INT stack outgrows their padding at the first
switch, packets built with a small TTL (some expire in the pipeline),
queues that fill and drop, and datagrams of two flows per sender for each
host's sink.  At drawn instants mid-run, at the instants of drawn arrivals
and at the end, every derived counter must equal its reference, and every
packet reaching a host must carry the hop count its switch sends say.  Two
mutants of the books must fail it: one never credits a booked arrival, one
settles an arrival one frame early.  A run that drains its heap must end
on its last event, as a per-frame run does, booked arrivals included.
"""

from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p4.headers import encode_probe_header
from repro.p4.int_program import MAX_QDEPTH_REGISTER
from repro.simnet import flows
from repro.simnet.addressing import PORT_IPERF, PORT_PROBE, PROTO_UDP
from repro.simnet.engine import Simulator
from repro.simnet.flows import UdpSink
from repro.simnet.host import Host
from repro.simnet.nic import Port
from repro.simnet.packet import DEFAULT_TTL, FLAG_PROBE, Packet
from repro.simnet.random import RandomStreams
from repro.simnet.switch import Switch
from repro.simnet.topology import Network
from repro.units import mbps, ms

SLOT = 5e-6
SIZES = (64, 300, 1200, 1500)
# A 44 B probe is its 40 B of headers and the 4 B INT header: the first hop
# record (17 B) grows it at the first switch's egress.
PROBE_SIZES = (44, 256)
TTLS = (DEFAULT_TTL, 2, 3)

op = st.tuples(
    st.integers(0, 3),                                  # sender
    st.integers(0, 3),                                  # receiver (bumped if equal)
    st.integers(0, 400),                                # slot
    st.lists(st.sampled_from(SIZES), min_size=1, max_size=12),
    st.sampled_from((None, *PROBE_SIZES)),              # the burst opens with a probe
    st.sampled_from(TTLS),                              # its data frames' TTL
    st.integers(0, 1),                                  # which of the sender's flows
)


class _Reference:
    """The per-frame counts, kept by the wrappers."""

    def __init__(self, sim):
        self.sim = sim
        self.accepted = Counter()       # (node, port) -> frames the queue took
        self.sends = Counter()          # (node, port) -> send calls
        self.bytes = Counter()          # (node, port) -> bytes taken, at send size
        self.started = Counter()        # (node, port) -> frames started
        self.data_started = Counter()   # (node, port) -> non-probe frames started
        self.completions = []           # each frame's transmit-completion instant
        self.arrivals = []              # (instant, order, node, packet, size)
        self.events = []                # instants of the schedule's own events
        self.forwards = Counter()       # packet id -> sends by a switch port
        self.mismatches = []
        self.reached = Counter()        # what the run exercised

    def install(self, mp):
        send, start, finish = Port.send, Port._start, Port._finish

        def counted_send(port, packet):
            key = (port.node.name, port.port_index)
            size = packet.size_bytes
            if isinstance(port.node, Switch):
                self.forwards[packet.packet_id] += 1
            self.sends[key] += 1
            accepted = send(port, packet)
            if accepted:
                self.accepted[key] += 1
                self.bytes[key] += size
            else:
                self.reached["queue_drop"] += 1
            return accepted

        def counted_start(port, packet):
            key = (port.node.name, port.port_index)
            self.started[key] += 1
            if not packet.flags & FLAG_PROBE:
                self.data_started[key] += 1
            size = packet.size_bytes
            start(port, packet)
            if port._egress is not None and packet.size_bytes != size:
                self.reached["probe_grew"] += 1
            self.completions.append(port._busy_until)
            if not port.link.per_frame:
                # Delivered at completion + propagation, posted now.
                self.arrive(port, packet, port._busy_until + port.link.propagation_delay)

        def counted_finish(port, packet):
            lost = port.link.packets_lost
            finish(port, packet)
            if port.link.packets_lost == lost:
                link = port.link
                self.arrive(port, packet, self.sim.now + (link.propagation_delay + link.extra_delay))

        mp.setattr(Port, "send", counted_send)
        mp.setattr(Port, "_start", counted_start)
        mp.setattr(Port, "_finish", counted_finish)

    def arrive(self, port, packet, at):
        node = port._peer.node
        self.arrivals.append((at, len(self.arrivals), node, packet, packet.size_bytes))
        if not isinstance(node, Host) or packet.dst_addr != node.addr:
            return
        want = self.forwards[packet.packet_id]
        if packet.hop_count != want:
            self.mismatches.append(("hop_count", at, packet.packet_id, packet.hop_count, want))
        if packet.built_ttl != DEFAULT_TTL:
            self.reached["short_ttl_arrival"] += 1
        sink = node._sinks.get(packet.dst_port)
        if sink is not None and any(entry[2] is packet for entry in sink._book):
            self.reached["booked_arrival"] += 1

    def compare(self, net):
        now = net.sim.now
        for node in [*net.hosts.values(), *net.switches.values()]:
            for port in node.ports:
                key = (node.name, port.port_index)
                stats = port.queue.stats
                got = (stats.enqueued, stats.dequeued, stats.bytes_enqueued)
                want = (self.accepted[key], self.started[key], self.bytes[key])
                if got != want:
                    self.mismatches.append(("queue", now, key, got, want))
                if port.queue.depth:
                    self.reached["frames_waiting"] += 1
        for name, switch in net.switches.items():
            keys = [(name, port.port_index) for port in switch.ports]
            forwarded = sum(self.sends[k] for k in keys)
            program = switch.program
            got = (
                switch.packets_forwarded, switch.packets_received,
                program.data_packets_observed,
                program.register(MAX_QDEPTH_REGISTER).writes,
            )
            want = (
                forwarded, forwarded + switch.packets_dropped_pipeline,
                sum(self.data_started[k] for k in keys),
                # one fold per data frame, one read-and-reset per probe
                sum(self.started[k] for k in keys),
            )
            if got != want:
                self.mismatches.append(("switch", now, name, got, want))
        arrived = sorted(a for a in self.arrivals if a[0] <= now)
        for name, host in net.hosts.items():
            mine = [a for a in arrived if a[2] is host]
            delivered = [
                a for a in mine
                if a[3].dst_addr == host.addr
                and (a[3].protocol, a[3].dst_port) in host._handlers
            ]
            got = (host.packets_received, host.packets_delivered)
            want = (len(mine), len(delivered))
            if got != want:
                self.mismatches.append(("host", now, name, got, want))
            nbytes, npackets, first, last = {}, {}, {}, {}
            for at, _order, _node, packet, size in delivered:
                if packet.protocol == PROTO_UDP and packet.dst_port == PORT_IPERF:
                    fid = packet.flow_id
                    nbytes[fid] = nbytes.get(fid, 0) + size
                    npackets[fid] = npackets.get(fid, 0) + 1
                    first.setdefault(fid, at)
                    last[fid] = at
            sink = host._sinks[PORT_IPERF]
            got = [
                list(d.items()) for d in (
                    sink.bytes_by_flow, sink.packets_by_flow,
                    sink.first_arrival, sink.last_arrival,
                )
            ]
            want = [list(d.items()) for d in (nbytes, npackets, first, last)]
            if got != want:
                self.mismatches.append(("sink", now, name, got, want))
        # A per-frame run's events: the schedule's own, one per transmit
        # completion and one per arrival, each at or before now.
        events = (
            sum(at <= now for at in self.events)
            + sum(at <= now for at in self.completions)
            + len(arrived)
        )
        if net.sim.events_executed != events:
            self.mismatches.append(("events", now, net.sim.events_executed, events))


def _run(case, arrival_checks=()):
    """Run ``case`` with the reference wrappers installed; return them.
    ``arrival_checks`` picks arrival instants (indices into the sorted
    arrivals of a first run of the case) to compare at as well."""
    switches, attach, capacity, loss, slowpath, ops, checks = case
    edges = sorted(checks)
    instants = sorted({a[0] for a in _run(case).arrivals}) if arrival_checks else ()
    if instants:
        edges = sorted({*edges, *(instants[i % len(instants)] for i in arrival_checks)})
    with pytest.MonkeyPatch.context() as mp:
        if slowpath:
            mp.setenv("REPRO_SLOWPATH", "1")
        else:
            mp.delenv("REPRO_SLOWPATH", raising=False)
        sim = Simulator()
        ref = _Reference(sim)
        ref.install(mp)
        net = Network(
            sim, RandomStreams(3), clock_offset_std=0.0, clock_jitter_std=0.0,
            switch_service_jitter=0.15, default_queue_capacity=capacity,
        )
        names = [f"s{i + 1:02d}" for i in range(switches)]
        for name in names:
            net.add_switch(name)
        for left, right in zip(names, names[1:]):
            net.connect(left, right, rate_bps=mbps(20), delay=ms(1))
        hosts = [f"h{i}" for i in range(len(attach))]
        for host, at in zip(hosts, attach):
            net.add_host(host)
            net.attach_host(host, names[at % switches], fabric_rate_bps=mbps(20), delay=ms(1))
        net.finalize()
        assert (net.switch(names[0])._fast_ingress is None) == slowpath
        assert not any(node.observer for node in [*net.hosts.values(), *net.switches.values()])
        if loss:
            # Every link but the last host's: its frames can still be booked.
            rng = np.random.default_rng(11)
            for link in list(net.links.values())[:-1]:
                link.set_loss(rate=loss, rng=rng)
        for host in hosts:
            UdpSink(net.host(host), PORT_IPERF)
            net.host(host).bind(PROTO_UDP, PORT_PROBE, lambda p: None)

        def send(src_name, dst_name, sizes, probe_size, ttl, flow):
            src, dst = net.host(src_name), net.address_of(dst_name)
            for i, size in enumerate(sizes):
                if probe_size is not None and i == 0:
                    packet = src.new_packet(
                        dst, dst_port=PORT_PROBE, size_bytes=probe_size,
                        payload=encode_probe_header(0), flags=FLAG_PROBE,
                    )
                else:
                    packet = Packet(
                        src.addr, dst, dst_port=PORT_IPERF, size_bytes=size, ttl=ttl,
                        flow_id=flow, created_at=sim.now,
                    )
                src.send(packet)

        for sender, receiver, slot, sizes, probe_size, ttl, flow in ops:
            src = hosts[sender % len(hosts)]
            dst = hosts[receiver % len(hosts)]
            if dst == src:
                dst = hosts[(receiver + 1) % len(hosts)]
            flow_id = 1 + 2 * hosts.index(src) + flow
            sim.schedule_at(slot * SLOT, send, src, dst, sizes, probe_size, ttl, flow_id)
            ref.events.append(slot * SLOT)
        for at in edges:
            sim.run(until=at)
            ref.compare(net)
        sim.run()
        ref.compare(net)
        # A per-frame run ends on its last event: an arrival, often.
        last = max([*edges, *ref.events, *ref.completions, *(a[0] for a in ref.arrivals)])
        if sim.now != last:
            ref.mismatches.append(("clock", sim.now, last))
        ref.reached["wire_loss"] = sum(link.packets_lost for link in net.links.values())
        ref.reached["pipeline_drop"] = sum(
            sw.packets_dropped_pipeline for sw in net.switches.values()
        )
        ref.reached["arrival_checks"] = len(set(edges) & {a[0] for a in ref.arrivals})
    return ref


@given(
    switches=st.integers(1, 3),
    attach=st.lists(st.integers(0, 2), min_size=2, max_size=4),
    capacity=st.sampled_from([2, 5, 64]),
    loss=st.sampled_from([0.0, 0.2]),
    slowpath=st.booleans(),
    ops=st.lists(op, min_size=1, max_size=20),
    checks=st.lists(st.floats(0.0, 0.012, allow_nan=False), max_size=6),
    arrival_checks=st.lists(st.integers(0, 10_000), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_counters_read_from_the_books_equal_per_frame_counts(
    switches, attach, capacity, loss, slowpath, ops, checks, arrival_checks
):
    ref = _run((switches, attach, capacity, loss, slowpath, ops, checks), arrival_checks)
    assert ref.mismatches == []


FIXED_OPS = [
    (0, 1, 0, [1500] * 10, 44, 3, 0),
    (1, 0, 2, [1200] * 6, 256, 2, 1),
    (2, 1, 5, [300, 1500, 64], None, DEFAULT_TTL, 0),
    (0, 2, 30, [1200] * 4, 44, 2, 1),
    (0, 1, 60, [1500] * 8, None, DEFAULT_TTL, 1),
    (1, 2, 80, [1500] * 6 + [300] * 3, None, DEFAULT_TTL, 0),
    (0, 2, 90, [1200] * 4, None, DEFAULT_TTL, 1),
    *((1, 0, slot, [64], None, 2, slot % 2) for slot in range(100, 400, 50)),
    *((2, 1, slot, [64], 44, 3, 0) for slot in range(120, 400, 50)),
]
FIXED_CASE = (2, [0, 1, 0], 2, 0.2, False, FIXED_OPS, [0.0003, 0.0008, 0.002, 0.004, 0.009])
FIXED_ARRIVALS = [0, 7, 19, 40]


def test_the_property_reaches_the_cases_it_names():
    """One fixed case, so the generator's reach is not taken on faith:
    frames are lost on the wire, a probe outgrows its padding, short-TTL
    packets both arrive and expire, a queue drops, a mid-run check finds
    frames waiting, datagrams are booked for a sink, and checks fall on
    arrival instants."""
    ref = _run(FIXED_CASE, FIXED_ARRIVALS)
    assert ref.mismatches == []
    for case in (
        "wire_loss", "probe_grew", "short_ttl_arrival", "pipeline_drop",
        "queue_drop", "frames_waiting", "booked_arrival", "arrival_checks",
    ):
        assert ref.reached[case], case


def _mutant_settle(credit, early):
    """A copy of ``UdpSink._settle`` that counts nothing it settles
    (``credit=False``), or that also settles the first ``early`` arrivals
    still in flight."""

    def settle(sink):
        book = sink._book
        book.sort()
        due = min(len(book), bisect_right(book, (sink.host.sim.now, float("inf"))) + early)
        if credit:
            for arrival, _seq, packet in book[:due]:
                fid = packet.flow_id
                sink._bytes[fid] = sink._bytes.get(fid, 0) + packet.size_bytes
                sink._packets[fid] = sink._packets.get(fid, 0) + 1
                if fid not in sink._first:
                    sink._first[fid] = arrival
                sink._last[fid] = arrival
            sink.host._delivered += due
        del book[:due]
        sink._settle_at = len(book) + flows._BOOK_BATCH

    return settle


@pytest.mark.parametrize("credit,early", [
    pytest.param(False, 0, id="no_arrival_credit"),
    pytest.param(True, 1, id="settles_one_frame_early"),
])
def test_the_property_fails_a_mutant_of_the_books(credit, early):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(UdpSink, "_settle", _mutant_settle(credit, early))
        ref = _run(FIXED_CASE, FIXED_ARRIVALS)
    assert {m[0] for m in ref.mismatches} >= {"host", "sink"}, ref.mismatches[:3]
