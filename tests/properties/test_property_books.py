"""Property: the books read from inside a run equal a per-frame log.

A port writes its books when a frame starts — ``packets_sent``, the link's
``bytes_carried`` / ``carried()``, the hub's ``link_bytes_total`` counter
and the elided completions ``events_executed`` credits — and every reader
discounts the one frame still on the wire (``now < _busy_until``).  Here
random small networks, some links lossy (wire-loss draws at the completion
instant) or delayed (both keep the per-frame event), run as built by default
and under ``REPRO_SLOWPATH=1``, with readers at random instants and at
exact frame completion instants, and one ulp before them.  Readers are
scheduled first, so each runs before every other event at its instant.

At a read at ``T`` the reference, summed from a log of every frame start
(``t1``, size) and every wire loss so far, is: frames with ``t1 <= T`` sent;
their bytes carried, less the lost ones; the hub counter holding those
bytes, stamped with the last carried ``t1``.  ``events_executed`` plus the
completion events still pending at or before ``T`` (a completion tied with
the reader and not yet run) is the same on both paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.simnet.addressing import PROTO_UDP
from repro.simnet.engine import Simulator
from repro.simnet.nic import Port
from repro.simnet.random import RandomStreams
from repro.simnet.topology import Network
from repro.units import mbps, ms

SLOT = 5.0000005e-6
FRACS = (0.137258, 0.291731, 0.443519)     # host i's grid offset (no accidental ties)
SIZES = (64, 300, 1200, 1500)
LINK_KINDS = ("clean", "lossy", "delayed")

op = st.tuples(
    st.integers(0, 2),                                  # sender
    st.integers(0, 2),                                  # receiver (bumped if equal)
    st.integers(0, 300),                                # slot
    st.lists(st.sampled_from(SIZES), min_size=1, max_size=6),
)
case_strategy = st.tuples(
    st.integers(1, 2),                                  # switches
    st.lists(st.integers(0, 1), min_size=2, max_size=3),  # host -> switch
    st.lists(st.sampled_from(LINK_KINDS), min_size=5, max_size=5),
    st.booleans(),                                      # hub attached
    st.lists(op, min_size=1, max_size=8),
)


def _run(slowpath, case, reads):
    """Run ``case`` with a reader at each instant of ``reads``; return the
    frame completion instants and, per read, the books and the reference."""
    switches, attach, kinds, hub, ops = case
    frames, losses, out = [], [], []
    with pytest.MonkeyPatch.context() as mp:
        if slowpath:
            mp.setenv("REPRO_SLOWPATH", "1")
        else:
            mp.delenv("REPRO_SLOWPATH", raising=False)
        sim = Simulator()
        net = Network(sim, RandomStreams(5), clock_offset_std=0.0, clock_jitter_std=0.0)
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
        links = sorted(net.links.values(), key=lambda link: link.name)
        for k, (link, kind) in enumerate(zip(links, kinds)):
            if kind == "lossy":
                link.set_loss(rate=0.3, rng=np.random.default_rng(k))
            elif kind == "delayed":
                link.set_degradation(extra_delay=ms(1))
        obs = None
        if hub:
            obs = Observability()
            obs.bind_sim(sim)
            obs.attach_network(net)

        start, finish = Port._start, Port._finish

        def logged_start(port, packet):
            start(port, packet)
            frames.append((port, port._busy_until, packet.size_bytes))

        def logged_finish(port, packet):
            lost = port.link.packets_lost
            finish(port, packet)
            if port.link.packets_lost > lost:
                losses.append((port, sim.now))

        mp.setattr(Port, "_start", logged_start)
        mp.setattr(Port, "_finish", logged_finish)
        ports = [port for link in links for port in (link.port_a, link.port_b)]

        def read():
            now = sim.now
            lost = set(losses)
            due = sum(
                1 for t, _s, _h, fn, _a in sim._heap
                if t <= now and getattr(fn, "__func__", None) is Port._tx_complete
            )
            books = {
                "sent": [port.packets_sent for port in ports],
                "bytes": [
                    link.bytes_carried[key] for link in links for key in ("a", "b")
                ],
                "carried": [link.carried(key) for link in links for key in ("a", "b")],
                "events": sim.events_executed + due,
            }
            done = [(p, t1, n) for p, t1, n in frames if t1 <= now]
            carried = [(p, t1, n) for p, t1, n in done if (p, t1) not in lost]
            reference = {
                "sent": [sum(1 for p, _t, _n in done if p is port) for port in ports],
                "bytes": [sum(n for p, _t, n in carried if p is port) for port in ports],
            }
            reference["carried"] = reference["bytes"]
            if obs is not None:
                counters = {
                    (r["labels"]["link"], r["labels"]["direction"]): (r["value"], r["updated_at"])
                    for r in obs.snapshot_records() if r.get("name") == "link_bytes_total"
                }
                books["hub"] = [
                    counters[(link.name, key)] for link in links for key in ("a", "b")
                ]
                reference["hub"] = [
                    (float(nbytes), max((t for p, t, _n in carried if p is port), default=0.0))
                    for port, nbytes in zip(ports, reference["bytes"])
                ]
            out.append((now, books, reference))

        for t in reads:                     # first: lowest sequence numbers
            sim.schedule_at(t, read)
        dst_of = {}
        seqs = iter(range(1, 1_000_000))

        def send(src, dst, sizes):
            for size in sizes:
                src.send(src.new_packet(dst, dst_port=5, size_bytes=size, seq=next(seqs)))

        for host in hosts:
            dst_of[host] = net.address_of(host)
            net.host(host).bind(PROTO_UDP, 5, lambda p: None)
        for sender, receiver, slot, sizes in ops:
            src = hosts[sender % len(hosts)]
            dst = hosts[receiver % len(hosts)]
            if dst == src:
                dst = hosts[(receiver + 1) % len(hosts)]
            sim.schedule_at((slot + FRACS[hosts.index(src)]) * SLOT, send,
                            net.host(src), dst_of[dst], sizes)
        sim.run()
        read()                              # after the run, too
    return sorted({t1 for _p, t1, _n in frames}), out, len(losses)


@given(case=case_strategy, data=st.data())
@settings(max_examples=40, deadline=None)
def test_books_read_in_run_equal_the_frame_log(case, data):
    t1s, _, _ = _run(False, case, [])
    ties = data.draw(st.lists(st.sampled_from(t1s), max_size=6)) if t1s else []
    reads = sorted({
        *ties,
        *(math.nextafter(t, 0.0) for t in ties),
        *data.draw(st.lists(st.floats(0.0, 0.004), max_size=4)),
    })
    fast_t1s, fast, _ = _run(False, case, reads)
    slow_t1s, slow, _ = _run(True, case, reads)
    assert fast_t1s == slow_t1s == t1s
    for now, books, reference in fast + slow:
        assert {k: v for k, v in books.items() if k != "events"} == reference, now
    assert [(now, books) for now, books, _ in fast] == [(now, books) for now, books, _ in slow]


def test_the_property_reaches_the_cases_it_names():
    """One fixed case: reads tie with every completion, on elided clean
    links and on a lossy per-frame one, frames are lost there, and the hub
    counts."""
    case = (1, [0, 0, 0], ["lossy", "clean", "clean", "clean", "clean"], True,
            [(0, 1, 0, [1200] * 6), (1, 2, 2, [300, 1500]), (2, 0, 40, [64, 1200])])
    t1s, _, _ = _run(False, case, [])
    reads = sorted({*t1s, *(math.nextafter(t, 0.0) for t in t1s)})
    _, fast, fast_lost = _run(False, case, reads)
    _, slow, slow_lost = _run(True, case, reads)
    assert fast_lost == slow_lost > 0
    assert len(t1s) > 10 and len(fast) == 2 * len(t1s) + 1
    for now, books, reference in fast + slow:
        assert "hub" in books
        assert {k: v for k, v in books.items() if k != "events"} == reference, now
    assert [b for _n, b, _r in fast] == [b for _n, b, _r in slow]
