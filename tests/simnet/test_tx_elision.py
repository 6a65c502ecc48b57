"""Completion elision: a port that posts no ``_tx_complete`` event for an
uncongested frame must be observationally identical to the per-frame path.

Every scenario is built and driven twice — once as built by default, once
under ``REPRO_SLOWPATH=1`` (staged pipeline, one completion event per frame:
the oracle) — and every observable must match: arrival instants, the depth
each frame saw at each enqueue, the INT max-depth register, queue
statistics, threshold callbacks, the jitter stream's final state, and, at
any ``run(until=t)``, the counters a completion event would have written.
"""

import math
from collections import deque

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.plan import REGISTER_WIPE
from repro.p4.headers import encode_probe_header
from repro.p4.int_program import MAX_QDEPTH_REGISTER
from repro.simnet.addressing import PORT_PROBE, PROTO_UDP
from repro.simnet.engine import Simulator
from repro.simnet.packet import FLAG_PROBE
from repro.simnet.random import RandomStreams
from repro.simnet.topology import Network
from repro.units import mbps, ms

UPLINK = mbps(200)                      # attach_host: 10 x the 20 Mb/s fabric
FRAME_TX = (1200 * 8.0) / UPLINK        # the float the port itself computes
SIZES = (1200, 300, 1500, 64, 900)


def _build(slowpath, *, jitter=0.0, ecn=None, capacity=None):
    """h1, h3 -- s01 -- h2: two senders into one 20 Mb/s switch egress."""
    with pytest.MonkeyPatch.context() as mp:
        if slowpath:
            mp.setenv("REPRO_SLOWPATH", "1")
        else:
            mp.delenv("REPRO_SLOWPATH", raising=False)
        sim = Simulator()
        net = Network(
            sim, RandomStreams(7), clock_offset_std=0.0, clock_jitter_std=0.0,
            switch_service_jitter=jitter,
        )
        for host in ("h1", "h2", "h3"):
            net.add_host(host)
        net.add_switch("s01")
        if ecn is None:
            for host in ("h1", "h2", "h3"):
                net.attach_host(
                    host, "s01", fabric_rate_bps=mbps(20), delay=ms(10),
                    queue_capacity=capacity,
                )
        else:
            for host in ("h1", "h2", "h3"):
                net.connect(
                    host, "s01", rate_bps=mbps(20), delay=ms(10),
                    rate_ab_bps=UPLINK, queue_capacity=capacity, ecn_threshold=ecn,
                )
        net.finalize()
    assert (net.switch("s01")._fast_ingress is None) == slowpath
    return sim, net


def _ports(net):
    return [
        (f"{node.name}[{port.port_index}]", port)
        for node in (*net.hosts.values(), *net.switches.values())
        for port in node.ports
    ]


def _drive(slowpath, *, until=None, threshold=None, **build):
    """The reference schedule: a burst that queues on the uplink and piles
    up at the switch egress, isolated frames that find every port idle, a
    second sender colliding at the switch, a frame landing mid-frame behind
    an isolated one, mixed sizes, and probes in all three situations."""
    sim, net = _build(slowpath, **build)
    h1, h2, h3 = net.host("h1"), net.host("h2"), net.host("h3")
    dst = net.address_of("h2")
    log = {"arrivals": [], "uplink_depths": [], "drops": [], "thresholds": []}

    def arrived(p):
        # A probe's payload is its INT stack: the register value it
        # collected (and reset) at the switch, and the switch's clock reads.
        log["arrivals"].append(
            (sim.now, p.seq, p.size_bytes, p.enq_depth, p.flags, p.payload)
        )

    h2.bind(PROTO_UDP, 5, arrived)
    h2.bind(PROTO_UDP, PORT_PROBE, arrived)
    if threshold is not None:
        for label, port in _ports(net):
            port.queue.threshold = threshold
            port.queue.on_threshold = (
                lambda depth, direction, _label=label:
                log["thresholds"].append((sim.now, _label, depth, direction))
            )

    def send(src, seq, size, probe=False):
        if probe:
            pkt = src.new_packet(
                dst, dst_port=PORT_PROBE, size_bytes=256, seq=seq,
                payload=encode_probe_header(0), flags=FLAG_PROBE,
                message=src.clock.read(),
            )
        else:
            pkt = src.new_packet(dst, dst_port=5, size_bytes=size, seq=seq)
        if src.send(pkt):
            log["uplink_depths"].append((sim.now, seq, pkt.enq_depth))
        else:
            log["drops"].append((sim.now, seq))

    seq = iter(range(10_000))
    for i in range(8):                                   # burst at t = 0
        send(h1, next(seq), SIZES[i % len(SIZES)], probe=(i == 3))
    for k in range(6):                                   # isolated frames
        sim.schedule(0.05 + 0.01 * k, send, h1, next(seq), SIZES[k % len(SIZES)], k == 2)
    for k in range(5):                                   # two hosts, same instant
        sim.schedule(0.2 + 0.004 * k, send, h1, next(seq), 1200)
        sim.schedule(0.2 + 0.004 * k, send, h3, next(seq), 1200)
    sim.schedule(0.3, send, h1, next(seq), 1200)         # isolated, then ...
    sim.schedule(0.3 + FRAME_TX / 3, send, h1, next(seq), 300)         # mid-frame
    sim.schedule(0.3 + FRAME_TX / 2, send, h1, next(seq), 256, True)   # mid-frame probe
    sim.run(until=until)

    s01 = net.switch("s01")
    log["sim"] = sim
    log["now"] = sim.now
    log["events_executed"] = sim.events_executed
    log["qdepth"] = s01.program.register(MAX_QDEPTH_REGISTER).snapshot()
    log["probes_processed"] = s01.program.probes_processed
    log["service_stream"] = (
        s01.service_time_factor(),      # the next draw: equal where the stream stands
        s01._service_rng.bit_generator.state if build.get("jitter") else None,
    )
    log["ports"] = {
        label: {
            "packets_sent": port.packets_sent,
            "packets_dropped": port.packets_dropped,
            "busy": port.busy,
            "backlog": port.backlog,
            "enqueued": port.queue.stats.enqueued,
            "dequeued": port.queue.stats.dequeued,
            "dropped": port.queue.stats.dropped,
            "bytes_enqueued": port.queue.stats.bytes_enqueued,
            "max_depth_seen": port.queue.stats.max_depth_seen,
            "marked": getattr(port.queue, "marked", None),
        }
        for label, port in _ports(net)
    }
    log["bytes_carried"] = {name: dict(link.bytes_carried) for name, link in net.links.items()}
    return log


def _observables(log):
    return {k: v for k, v in log.items() if k != "sim"}


# The threshold variants are a hub's view of the port: its crossing
# callback on every queue, at a depth only a backlog reaches (2, the
# long-standing "thresholds"), at the one the idle round trip itself crosses
# (1), and at the hub's default 48 of 64, which this schedule never reaches.
VARIANTS = {
    "quiet": {},
    "jittered": {"jitter": 0.15},
    "thresholds": {"threshold": 2},
    "threshold-1": {"threshold": 1},
    "threshold-48": {"threshold": 48},
    "red-ecn": {"ecn": 2},
    "overflow": {"capacity": 3, "threshold": 2, "jitter": 0.15},
}


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def runs(request):
    """(variant, default-built run, oracle run) of the reference schedule."""
    flags = VARIANTS[request.param]
    return request.param, _drive(False, **flags), _drive(True, **flags)


class TestEquivalence:
    def test_elision_actually_engaged(self, runs):
        """Sanity: the fast run really posted fewer events, otherwise the
        equivalence below proves nothing."""
        _variant, fast, slow = runs
        assert fast["sim"]._seq < slow["sim"]._seq

    def test_events_executed_identical(self, runs):
        """events_executed is an exported workload statistic: every elided
        completion is credited, so the count is path-invariant."""
        _variant, fast, slow = runs
        assert fast["events_executed"] == slow["events_executed"]
        assert fast["now"] == slow["now"]

    def test_arrival_times_identical(self, runs):
        variant, fast, slow = runs
        assert [a[:3] for a in fast["arrivals"]] == [a[:3] for a in slow["arrivals"]]
        dropped = sum(p["packets_dropped"] for p in fast["ports"].values())
        assert len(fast["arrivals"]) + dropped == 27
        assert bool(fast["drops"]) == bool(dropped) == (variant == "overflow")

    def test_enqueue_depths_identical(self, runs):
        """The depth every frame saw at the uplink (mid-frame pushes
        included) and at the switch egress — what INT folds into its
        register."""
        _variant, fast, slow = runs
        assert fast["uplink_depths"] == slow["uplink_depths"]
        assert [a[3] for a in fast["arrivals"]] == [a[3] for a in slow["arrivals"]]
        assert max(a[3] for a in fast["arrivals"]) > 0      # the switch did queue

    def test_int_register_and_stacks_identical(self, runs):
        _variant, fast, slow = runs
        assert fast["qdepth"] == slow["qdepth"]
        assert fast["probes_processed"] == slow["probes_processed"] >= 2
        stacks = [a[5] for a in fast["arrivals"] if a[4] & FLAG_PROBE]
        assert stacks and stacks == [a[5] for a in slow["arrivals"] if a[4] & FLAG_PROBE]

    def test_queue_stats_and_counters_identical(self, runs):
        variant, fast, slow = runs
        assert fast["ports"] == slow["ports"]
        assert fast["bytes_carried"] == slow["bytes_carried"]
        assert fast["drops"] == slow["drops"]
        if variant == "red-ecn":
            assert sum(p["marked"] for p in fast["ports"].values()) > 0

    def test_threshold_callbacks_identical(self, runs):
        variant, fast, slow = runs
        assert fast["thresholds"] == slow["thresholds"]
        directions = {d for *_rest, d in fast["thresholds"]}
        crossed = VARIANTS[variant].get("threshold") in (1, 2)
        assert directions == ({"up", "down"} if crossed else set())
        if variant == "threshold-1":
            # Every frame through an idle port crosses 0 -> 1 -> 0.
            idle = [t for t in fast["thresholds"] if t[1] == "h3[0]"]
            assert [d for *_rest, d in idle] == ["up", "down"] * 5

    def test_service_stream_state_identical(self, runs):
        variant, fast, slow = runs
        assert fast["service_stream"] == slow["service_stream"]
        assert (fast["service_stream"][0] != 1.0) == ("jitter" in VARIANTS[variant])


# Cut points for run(until=t): before, inside and after frames; the
# completion instant of the first isolated frame exactly (the oracle's event
# at t fires, so the frame must be on the books) and one ulp either side of
# it; the same for a burst frame and the frame a late push lands behind; the
# idle tail.
ISOLATED_T1 = 0.05 + FRAME_TX
SWEEP = (
    0.0, FRAME_TX / 2, FRAME_TX, FRAME_TX * 1.5, 0.001, 0.0105, 0.012, 0.05,
    math.nextafter(ISOLATED_T1, 0.0), ISOLATED_T1, math.nextafter(ISOLATED_T1, 1.0),
    0.0604, 0.2, 0.2 + FRAME_TX, 0.2101, 0.3, 0.3 + FRAME_TX / 2, 0.3 + FRAME_TX,
    0.31, 0.33, 5.0,
)


@pytest.mark.parametrize("jitter", [0.0, 0.15], ids=["quiet", "jittered"])
def test_counters_exact_at_every_cut(jitter):
    """``events_executed``, ``packets_sent``, ``bytes_carried``, ``busy`` and
    ``backlog`` read after ``run(until=t)`` are the oracle's, wherever t
    falls — with no call between ``run`` and the read."""
    for t in SWEEP:
        fast = _observables(_drive(False, until=t, jitter=jitter))
        slow = _observables(_drive(True, until=t, jitter=jitter))
        assert fast == slow, t
        assert fast["now"] == t


def test_cut_at_an_elided_completion_instant_counts_the_frame():
    """The isolated frame at t = 0.05 follows the burst's eight."""
    def uplink_at(t):
        return _drive(False, until=t)["ports"]["h1[0]"]

    before, at = uplink_at(math.nextafter(ISOLATED_T1, 0.0)), uplink_at(ISOLATED_T1)
    assert (before["packets_sent"], before["busy"]) == (8, True)
    assert (at["packets_sent"], at["busy"]) == (9, False)


def _pending(sim):
    return sorted(entry[3].__qualname__ for entry in sim._heap)


class TestMaterialisation:
    def _idle_pair(self):
        sim, net = _build(False)
        return sim, net, net.host("h1"), net.address_of("h2")

    def test_idle_port_posts_only_the_delivery(self):
        sim, net, h1, dst = self._idle_pair()
        h1.send(h1.new_packet(dst, dst_port=5, size_bytes=1200))
        assert _pending(sim) == ["Switch.on_ingress"]
        port = h1.ports[0]
        assert port.busy and port.packets_sent == 0
        sim.run(until=FRAME_TX)
        assert not port.busy and port.packets_sent == 1
        assert net.links["h1<->s01"].bytes_carried["a"] == 1200
        assert sim.events_executed == 1    # the elided completion, credited

    def test_books_exact_after_a_handler_raises(self):
        """Nothing is left to settle when a run ends in an exception: the
        port went idle at FRAME_TX, before the raising event at 5 ms."""
        sim, net, h1, dst = self._idle_pair()
        h1.send(h1.new_packet(dst, dst_port=5, size_bytes=1200))

        def fail():
            raise RuntimeError("handler failed")

        sim.schedule(ms(5), fail)
        with pytest.raises(RuntimeError):
            sim.run()
        port = h1.ports[0]
        assert not port.busy and sim.now == ms(5)
        assert port.packets_sent == 1
        assert net.links["h1<->s01"].bytes_carried["a"] == 1200
        assert sim.events_executed == 2     # the raising event + the completion

    def test_mid_frame_push_posts_one_completion(self):
        sim, _net, h1, dst = self._idle_pair()
        h1.send(h1.new_packet(dst, dst_port=5, size_bytes=1200))
        sim.run(until=FRAME_TX / 4)
        before = sim._seq
        h1.send(h1.new_packet(dst, dst_port=5, size_bytes=1200))
        assert sim._seq == before + 1
        assert _pending(sim) == ["Port._tx_complete", "Switch.on_ingress"]
        h1.send(h1.new_packet(dst, dst_port=5, size_bytes=1200))
        assert sim._seq == before + 1       # already posted: nothing new
        assert h1.ports[0].backlog == 2

    def test_in_run_read_discounts_the_frame_on_the_wire(self):
        """A read inside the simulation counts a completion that lies behind
        the clock, not one ahead."""
        sim, net, h1, dst = self._idle_pair()
        link = net.links["h1<->s01"]
        reads = []
        h1.send(h1.new_packet(dst, dst_port=5, size_bytes=1200))
        sim.schedule(FRAME_TX / 2, lambda: reads.append(link.carried("a")))
        sim.schedule(FRAME_TX * 2, lambda: reads.append(link.carried("a")))
        sim.run()
        assert reads == [0, 1200]


    def test_read_tied_with_a_materialised_completion_leaves_it_the_books(self):
        """A reader that runs at the completion instant itself, ahead of a
        completion event that was posted after all: the frame was booked at
        its start (once), and at ``now == t1`` it is no longer on the wire,
        so the reader counts it — on the oracle's per-frame path too."""
        def run(slowpath):
            sim, net = _build(slowpath)
            h1, dst, link = net.host("h1"), net.address_of("h2"), net.links["h1<->s01"]
            reads = []
            sim.schedule(FRAME_TX, lambda: reads.append(link.carried("a")))   # lower seq
            for at in (0.0, FRAME_TX / 2):
                sim.schedule(at, lambda: h1.send(h1.new_packet(dst, dst_port=5, size_bytes=1200)))
            sim.run(until=FRAME_TX)
            return reads, link.bytes_carried["a"], h1.ports[0].packets_sent, sim.events_executed

        assert run(False) == run(True) == ([1200], 1200, 1, 4)


class _CountingDeque(deque):
    """A queue's ``_items`` that counts what is appended to it."""

    appended = 0

    def append(self, item):
        self.appended += 1
        super().append(item)


@pytest.mark.parametrize("threshold,round_trips", [(None, 0), (1, 4), (2, 0), (48, 0)])
def test_idle_port_cuts_through_under_a_threshold(threshold, round_trips):
    """A hub sets a crossing threshold on every queue.  A frame that finds
    the port idle still skips the deque — unless the threshold is 1, the one
    depth that frame itself crosses on its way in and out."""
    sim, net = _build(False)
    h1, dst = net.host("h1"), net.address_of("h2")
    queue = h1.ports[0].queue
    items = queue._items = _CountingDeque()
    crossings = []
    queue.threshold = threshold
    queue.on_threshold = lambda depth, direction: crossings.append((depth, direction))
    for k in range(4):                      # each finds the uplink idle
        sim.schedule(0.01 * k, lambda: h1.send(h1.new_packet(dst, dst_port=5, size_bytes=1200)))
    sim.run()
    assert items.appended == round_trips
    assert crossings == [(1, "up"), (0, "down")] * round_trips
    assert (queue.stats.enqueued, queue.stats.dequeued, queue.stats.max_depth_seen) == (4, 4, 0)
    assert h1.ports[0].packets_sent == 4


class TestPerFrameGates:
    """Where completion has semantics of its own the frame keeps its event:
    an idle port then posts ``_tx_complete`` carrying the packet, and the
    delivery (or the wire loss) happens from there."""

    def _send_one(self, arrange):
        sim, net = _build(False)
        arrange(sim, net)
        h1 = net.host("h1")
        h1.send(h1.new_packet(net.address_of("h2"), dst_port=5, size_bytes=1200))
        _t, _s, _h, fn, args = min(sim._heap)    # (time, seq) decides
        return fn.__qualname__, args[0]

    def test_clean_link_elides(self):
        name, _arg = self._send_one(lambda sim, net: None)
        assert name == "Switch.on_ingress"

    @pytest.mark.parametrize("arrange", [
        lambda sim, net: net.links["h1<->s01"].set_up(False),
        lambda sim, net: net.links["h1<->s01"].set_loss(
            rate=0.5, rng=RandomStreams(1).get("faults")),
        lambda sim, net: net.links["h1<->s01"].set_degradation(extra_delay=ms(5)),
        lambda sim, net: FaultInjector(sim, net, FaultPlan(
            name="armed", events=(FaultEvent(time=9.0, kind=REGISTER_WIPE, target="*"),),
        )).arm(),
    ], ids=["link-down", "lossy-link", "extra-delay", "armed-injector"])
    def test_gate_keeps_per_frame(self, arrange):
        name, packet = self._send_one(arrange)
        assert name == "Port._tx_complete" and packet is not None

    def test_gate_closing_mid_run_books_owed_once(self):
        sim, net = _build(False)
        h1, link = net.host("h1"), net.links["h1<->s01"]

        def send(gated):
            link.set_degradation(extra_delay=ms(5) if gated else 0.0)
            h1.send(h1.new_packet(net.address_of("h2"), dst_port=5, size_bytes=1200))

        # One run(): nothing settles the port between frames but itself.
        for i, gated in enumerate((False, True, True, False)):
            sim.schedule(float(i), send, gated)
        sim.run()
        assert h1.ports[0].packets_sent == 4
        assert link.bytes_carried["a"] == 4 * 1200
        # Per frame: the send, two completions, two deliveries.
        assert sim.events_executed == 4 * 5

    def test_rate_degradation_alone_still_elides(self):
        """A slower serializer changes tx_time, which both paths compute at
        frame start; nothing is read at the completion instant."""
        sim, net = _build(False)
        net.links["h1<->s01"].set_degradation(rate_factor=0.5)
        h1 = net.host("h1")
        h1.send(h1.new_packet(net.address_of("h2"), dst_port=5, size_bytes=1200))
        assert _pending(sim) == ["Switch.on_ingress"]
        assert h1.ports[0]._busy_until == (1200 * 8.0) / (UPLINK * 0.5)

    def test_slowpath_env_selects_per_frame_and_staged(self):
        sim, net = _build(True)
        h1 = net.host("h1")
        h1.send(h1.new_packet(net.address_of("h2"), dst_port=5, size_bytes=1200))
        assert _pending(sim) == ["Port._tx_complete"]
