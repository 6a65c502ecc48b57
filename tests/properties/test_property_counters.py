"""Property: counters read from the books equal counters written per frame.

A frame hop writes only the port books (``Port._sent``, ``_bytes`` and
friends, at frame start).  The counters a run no longer writes per frame —
a port queue's ``enqueued`` / ``dequeued`` / ``bytes_enqueued``, a switch's
``packets_forwarded`` / ``packets_received``, the INT program's
``data_packets_observed`` and its register's ``writes``, a host's
``packets_received`` and a packet's ``hop_count`` — are computed from the
books, the queue contents and the TTL when read.

Here the per-frame counts are kept the old way, by wrappers installed on
``Port.send``, ``Port._start`` and ``Host.on_ingress`` before the network is
built.  They count and call through, and no packet observer is attached, so
a data frame still takes the compiled switch's register fold with no egress
call.  Drawn schedules mix wire loss, probes whose INT stack outgrows their
padding at the first switch, packets built with a small TTL (some expire in
the pipeline) and queues that fill and drop.  At drawn instants mid-run and
at the end, every derived counter must equal its reference, and every
packet reaching a host must carry the hop count its switch sends say.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p4.headers import encode_probe_header
from repro.p4.int_program import MAX_QDEPTH_REGISTER
from repro.simnet.addressing import PORT_PROBE, PROTO_UDP
from repro.simnet.engine import Simulator
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
)


class _Reference:
    """The per-frame counts, kept by the wrappers."""

    def __init__(self):
        self.accepted = Counter()       # (node, port) -> frames the queue took
        self.sends = Counter()          # (node, port) -> send calls
        self.bytes = Counter()          # (node, port) -> bytes taken, at send size
        self.started = Counter()        # (node, port) -> frames started
        self.data_started = Counter()   # (node, port) -> non-probe frames started
        self.arrivals = Counter()       # host -> on_ingress calls
        self.forwards = Counter()       # packet id -> sends by a switch port
        self.mismatches = []
        self.reached = Counter()        # what the run exercised

    def install(self, mp):
        send, start, ingress = Port.send, Port._start, Host.on_ingress

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

        def counted_ingress(host, packet, in_port):
            self.arrivals[host.name] += 1
            if packet.dst_addr == host.addr:
                want = self.forwards[packet.packet_id]
                if packet.hop_count != want:
                    self.mismatches.append(
                        ("hop_count", host.sim.now, packet.packet_id, packet.hop_count, want)
                    )
                if packet.built_ttl != DEFAULT_TTL:
                    self.reached["short_ttl_arrival"] += 1
            return ingress(host, packet, in_port)

        mp.setattr(Port, "send", counted_send)
        mp.setattr(Port, "_start", counted_start)
        mp.setattr(Host, "on_ingress", counted_ingress)

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
        for name, host in net.hosts.items():
            if host.packets_received != self.arrivals[name]:
                self.mismatches.append(
                    ("host", now, name, host.packets_received, self.arrivals[name])
                )


def _run(case):
    """Run ``case`` with the reference wrappers installed; return them."""
    switches, attach, capacity, loss, slowpath, ops, checks = case
    ref = _Reference()
    with pytest.MonkeyPatch.context() as mp:
        if slowpath:
            mp.setenv("REPRO_SLOWPATH", "1")
        else:
            mp.delenv("REPRO_SLOWPATH", raising=False)
        ref.install(mp)
        sim = Simulator()
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
            rng = np.random.default_rng(11)
            for link in net.links.values():
                link.set_loss(rate=loss, rng=rng)
        for host in hosts:
            for port in (5, PORT_PROBE):
                net.host(host).bind(PROTO_UDP, port, lambda p: None)

        def send(src_name, dst_name, sizes, probe_size, ttl):
            src, dst = net.host(src_name), net.address_of(dst_name)
            for i, size in enumerate(sizes):
                if probe_size is not None and i == 0:
                    packet = src.new_packet(
                        dst, dst_port=PORT_PROBE, size_bytes=probe_size,
                        payload=encode_probe_header(0), flags=FLAG_PROBE,
                    )
                else:
                    packet = Packet(
                        src.addr, dst, dst_port=5, size_bytes=size, ttl=ttl,
                        created_at=sim.now,
                    )
                src.send(packet)

        for sender, receiver, slot, sizes, probe_size, ttl in ops:
            src = hosts[sender % len(hosts)]
            dst = hosts[receiver % len(hosts)]
            if dst == src:
                dst = hosts[(receiver + 1) % len(hosts)]
            sim.schedule_at(slot * SLOT, send, src, dst, sizes, probe_size, ttl)
        for at in checks:
            sim.schedule_at(at, ref.compare, net)
        sim.run()
        ref.compare(net)
        ref.reached["wire_loss"] = sum(link.packets_lost for link in net.links.values())
        ref.reached["pipeline_drop"] = sum(
            sw.packets_dropped_pipeline for sw in net.switches.values()
        )
    return ref


@given(
    switches=st.integers(1, 3),
    attach=st.lists(st.integers(0, 2), min_size=2, max_size=4),
    capacity=st.sampled_from([2, 5, 64]),
    loss=st.sampled_from([0.0, 0.2]),
    slowpath=st.booleans(),
    ops=st.lists(op, min_size=1, max_size=20),
    checks=st.lists(st.floats(0.0, 0.012, allow_nan=False), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_counters_read_from_the_books_equal_per_frame_counts(
    switches, attach, capacity, loss, slowpath, ops, checks
):
    ref = _run((switches, attach, capacity, loss, slowpath, ops, checks))
    assert ref.mismatches == []


def test_the_property_reaches_the_cases_it_names():
    """One fixed case, so the generator's reach is not taken on faith:
    frames are lost on the wire, a probe outgrows its padding, short-TTL
    packets both arrive and expire, a queue drops, and a mid-run check
    finds frames waiting."""
    ops = [
        (0, 1, 0, [1500] * 10, 44, 3),
        (1, 0, 2, [1200] * 6, 256, 2),
        (2, 1, 5, [300, 1500, 64], None, DEFAULT_TTL),
        (0, 2, 30, [1200] * 4, 44, 2),
        *((1, 0, slot, [64], None, 2) for slot in range(100, 400, 50)),
        *((2, 1, slot, [64], 44, 3) for slot in range(120, 400, 50)),
    ]
    ref = _run((2, [0, 1, 0], 2, 0.2, False, ops, [0.0003, 0.0008, 0.002, 0.004, 0.009]))
    assert ref.mismatches == []
    for case in (
        "wire_loss", "probe_grew", "short_ttl_arrival", "pipeline_drop",
        "queue_drop", "frames_waiting",
    ):
        assert ref.reached[case], case
