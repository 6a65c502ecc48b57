"""Property: eliding idle transmit completions changes nothing observable.

Random small topologies and send schedules are run twice — as built by
default, and under ``REPRO_SLOWPATH=1`` with one completion event per frame
(the oracle) — with a packet tracer on every node, and must agree on every
node's hop sequence ``(time, kind, packet, size, enq_depth)``, every host's
arrivals (probe payloads — the INT stack — included), drops, queue
statistics, link byte counters, ``events_executed`` and the jitter streams'
final state, at the end of the run and at an arbitrary ``run(until=t)`` cut.

Instants that coincide exactly are ordered by heap sequence number, which
elision assigns at a different moment than the oracle does (DESIGN.md §7),
so the schedule keeps *accidental* ties out: host ``i`` sends on its own
grid ``(k + frac_i) * SLOT``, offset from every other host's by an amount no
sum of frame times (whole multiples of 40 ns) can bridge.  The *deliberate*
tie is the case the design keeps in order: the jitter-free twins (``ta``,
``tb``, ...) share one grid, hang off one switch and always send equal
frames at the same instant to the same destination, so their deliveries tie
at every queue on the way — and must keep their order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p4.headers import encode_probe_header
from repro.p4.int_program import MAX_QDEPTH_REGISTER
from repro.simnet.addressing import PORT_PROBE, PROTO_UDP
from repro.simnet.engine import Simulator
from repro.simnet.packet import FLAG_PROBE
from repro.simnet.random import RandomStreams
from repro.simnet.topology import Network
from repro.simnet.trace import PacketTracer
from repro.units import mbps, ms

SLOT = 5.0000005e-6          # 5 us: a 1200 B frame holds an uplink ~10 slots
FRACS = (0.137258, 0.291731, 0.443519, 0.618034)     # host i's grid offset
TWIN_FRAC = 0.774597
TWINS = ("ta", "tb", "tc", "td")
SIZES = (64, 300, 1200, 1500)

burst = st.lists(st.sampled_from(SIZES), min_size=1, max_size=12)
op = st.tuples(
    st.integers(0, 3),          # sender (index into the hosts present)
    st.integers(0, 3),          # receiver (likewise; bumped if equal)
    st.integers(0, 400),        # slot
    burst,
    st.booleans(),              # first frame of the burst is a probe
)
twin_op = st.tuples(st.integers(0, 400), burst, st.booleans())


def _run(slowpath, case, until, twins=2):
    """Run ``case``; return its observable state, the heap pushes made and
    the hop trace as ``(time, node, kind, packet, seq)`` tuples in global
    order, packets numbered from the run's first."""
    switches, attach, twins_at, jitter, capacity, ops, twin_ops = case
    with pytest.MonkeyPatch.context() as mp:
        if slowpath:
            mp.setenv("REPRO_SLOWPATH", "1")
        else:
            mp.delenv("REPRO_SLOWPATH", raising=False)
        sim = Simulator()
        net = Network(
            sim, RandomStreams(3), clock_offset_std=0.0, clock_jitter_std=0.0,
            switch_service_jitter=jitter, default_queue_capacity=capacity,
        )
        names = [f"s{i + 1:02d}" for i in range(switches)]
        for name in names:
            net.add_switch(name)
        for left, right in zip(names, names[1:]):
            net.connect(left, right, rate_bps=mbps(20), delay=ms(1))
        hosts = [f"h{i}" for i in range(len(attach))]
        fracs = dict(zip(hosts, FRACS))
        twin_names = list(TWINS[:twins]) if twin_ops else []
        for twin in twin_names:
            hosts.append(twin)
            fracs[twin] = TWIN_FRAC
            attach = [*attach, twins_at]
        for host, at in zip(hosts, attach):
            net.add_host(host)
            net.attach_host(
                host, names[at % switches], fabric_rate_bps=mbps(20), delay=ms(1)
            )
        net.finalize()
    assert (net.switch(names[0])._fast_ingress is None) == slowpath

    nodes = [*net.hosts.values(), *net.switches.values()]
    tracer = PacketTracer(nodes)
    arrivals = {host: [] for host in hosts}
    for host in hosts:
        log = arrivals[host]
        for port in (5, PORT_PROBE):
            net.host(host).bind(
                PROTO_UDP, port,
                lambda p, _log=log: _log.append(
                    (sim.now, p.seq, p.size_bytes, p.enq_depth, p.payload)
                ),
            )
    refused = []
    seqs = iter(range(1, 1_000_000))

    def send(src_name, dst_name, sizes, probe):
        src, dst = net.host(src_name), net.address_of(dst_name)
        for i, size in enumerate(sizes):
            seq = next(seqs)
            if probe and i == 0:
                pkt = src.new_packet(
                    dst, dst_port=PORT_PROBE, size_bytes=256, seq=seq,
                    payload=encode_probe_header(0), flags=FLAG_PROBE,
                )
            else:
                pkt = src.new_packet(dst, dst_port=5, size_bytes=size, seq=seq)
            if not src.send(pkt):
                refused.append((sim.now, seq))

    plain = [host for host in hosts if host.startswith("h")]
    for sender, receiver, slot, sizes, probe in ops:
        src = plain[sender % len(plain)]
        dst = plain[receiver % len(plain)]
        if dst == src:
            dst = plain[(receiver + 1) % len(plain)]
        sim.schedule_at((slot + fracs[src]) * SLOT, send, src, dst, sizes, probe)
    for slot, sizes, probe in twin_ops:
        for twin in twin_names:
            sim.schedule_at((slot + TWIN_FRAC) * SLOT, send, twin, plain[0], sizes, probe)
    sim.run(until=until)

    first_id = min((e.packet_id for e in tracer.events), default=0)
    trace = [(e.time, e.node, e.kind, e.packet_id - first_id, e.seq) for e in tracer.events]
    hops = {node.name: [] for node in nodes}
    for e in tracer.events:
        hops[e.node].append(
            (e.time, e.kind, e.packet_id - first_id, e.seq, e.size_bytes, e.enq_depth)
        )
    ports = {
        f"{node.name}[{port.port_index}]": (
            port.packets_sent, port.packets_dropped, port.busy, port.backlog,
            port.queue.stats.enqueued, port.queue.stats.dequeued,
            port.queue.stats.dropped, port.queue.stats.bytes_enqueued,
            port.queue.stats.max_depth_seen,
        )
        for node in nodes for port in node.ports
    }
    switches_state = {
        name: (
            sw.packets_forwarded, sw.packets_dropped_pipeline,
            sw.program.probes_processed, sw.program.data_packets_observed,
            sw.program.register(MAX_QDEPTH_REGISTER).snapshot(),
            sw.service_time_factor(),       # the next draw
            sw._service_rng.bit_generator.state if jitter else None,
        )
        for name, sw in net.switches.items()
    }
    return {
        "now": sim.now,
        "events_executed": sim.events_executed,
        "hops": hops,
        "arrivals": arrivals,
        "refused": refused,
        "ports": ports,
        "switches": switches_state,
        "bytes_carried": {n: dict(link.bytes_carried) for n, link in net.links.items()},
    }, sim._seq, trace


@given(
    switches=st.integers(1, 3),
    attach=st.lists(st.integers(0, 2), min_size=2, max_size=4),
    twins_at=st.integers(0, 2),
    jitter=st.sampled_from([0.0, 0.15]),
    capacity=st.sampled_from([2, 5, 64]),
    ops=st.lists(op, min_size=1, max_size=20),
    twin_ops=st.lists(twin_op, max_size=4),
    until=st.one_of(st.none(), st.floats(0.0, 0.012, allow_nan=False)),
)
@settings(max_examples=60, deadline=None)
def test_elided_run_equals_the_per_frame_oracle(
    switches, attach, twins_at, jitter, capacity, ops, twin_ops, until
):
    case = (switches, attach, twins_at, jitter, capacity, ops, twin_ops)
    fast, fast_pushes, _ = _run(False, case, until)
    slow, slow_pushes, _ = _run(True, case, until)
    assert fast == slow
    if until is None:       # a cut can fall between a frame's start and its end
        assert fast_pushes <= slow_pushes


def test_the_property_reaches_the_cases_it_names():
    """One fixed case, so the generator's reach is not taken on faith:
    queues overflow, twins' deliveries tie at the switch and keep their
    order, a probe is stamped, and the fast side pushes fewer events."""
    case = (
        2, [0, 1, 0], 0, 0.0, 2,
        [(0, 1, 0, [1200] * 8, True), (2, 1, 3, [300, 1500, 64], False),
         (0, 1, 4, [1200], False), (1, 0, 200, [1200], True)],
        [(10, [1200, 1200], False), (14, [300], False)],
    )
    fast, fast_pushes, _ = _run(False, case, None)
    slow, slow_pushes, _ = _run(True, case, None)
    assert fast == slow and fast_pushes < slow_pushes
    assert fast["refused"] and any(p[6] for p in fast["ports"].values())
    assert sum(s[2] for s in fast["switches"].values()) >= 2
    ingress = [h for h in fast["hops"]["s01"] if h[1] == "ingress"]
    tied = [
        (a, b) for a, b in zip(ingress, ingress[1:]) if a[0] == b[0]
    ]
    assert tied and all(a[3] < b[3] for a, b in tied)     # ta's frame first


@given(
    switches=st.integers(1, 3),
    attach=st.lists(st.integers(0, 2), min_size=1, max_size=2),
    twins_at=st.integers(0, 2),
    twins=st.integers(2, len(TWINS)),
    capacity=st.sampled_from([2, 5, 64]),
    twin_ops=st.lists(twin_op, min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_ties_over_equal_delays_keep_start_order(
    switches, attach, twins_at, twins, capacity, twin_ops
):
    """DESIGN.md §7 "Tie order": deliveries over equal propagation delays
    keep their start order.  Jitter-free twins that start equal frames at
    the same instant deliver them at the same instant at every node on the
    way; the elided run must order those tied arrivals as the per-frame
    oracle does, and both in the order the frames started on the upstream
    wire (the packet's latest egress before the arrival)."""
    case = (switches, attach, twins_at, 0.0, capacity, [], twin_ops)
    fast, _, fast_trace = _run(False, case, None, twins)
    slow, _, slow_trace = _run(True, case, None, twins)
    assert fast == slow and fast_trace == slow_trace
    started = {}        # packet -> trace index of its latest egress
    arrivals = {}       # (time, node) -> start indices of the packets arriving
    for index, (time, node, kind, packet, _seq) in enumerate(fast_trace):
        if kind == "egress":
            started[packet] = index
        elif kind == "ingress":
            arrivals.setdefault((time, node), []).append(started[packet])
    tied = [starts for starts in arrivals.values() if len(starts) > 1]
    assert tied          # every op's first frames tie at the first switch
    assert all(starts == sorted(starts) for starts in tied)
