"""Transmit coalescing: batched back-to-back frames must be observationally
identical to the per-frame path.

A burst through a quiet (jitter-free, hook-free) network coalesces: each busy
port schedules all deliveries plus one batch-completion event instead of one
``_tx_complete`` per frame.  These tests drive the same burst twice — once
coalesced, once with the per-frame path forced — and assert every observable
matches: arrival times, INT ``enq_qdepth`` register folds, queue statistics,
mid-batch backlog reads, and the exported ``events_executed`` count.
"""

import pytest

from repro.p4.int_program import MAX_QDEPTH_REGISTER
from repro.simnet.addressing import PROTO_UDP
from repro.simnet.engine import Simulator
from repro.simnet.nic import Port
from repro.simnet.random import RandomStreams
from repro.simnet.topology import Network
from repro.units import mbps, ms

BURST = 12


def _run_burst(coalesce: bool, backlog_probe_times=()):
    """h1 -- s01 -- h2, a 12-packet back-to-back burst from h1; returns every
    externally observable outcome."""
    sim = Simulator()
    net = Network(
        sim,
        RandomStreams(7),
        clock_offset_std=0.0,
        clock_jitter_std=0.0,
        switch_service_jitter=0.0,
    )
    net.add_host("h1")
    net.add_host("h2")
    net.add_switch("s01")
    net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
    net.attach_host("h2", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
    net.finalize()

    h1, h2, s01 = net.host("h1"), net.host("h2"), net.switch("s01")
    if not coalesce:
        for node in (h1, h2, s01):
            for port in node.ports:
                port._coalesce = False

    arrivals = []
    h2.bind(PROTO_UDP, 5, lambda p: arrivals.append((sim.now, p.seq)))
    for seq in range(BURST):
        pkt = h1.new_packet(
            net.address_of("h2"), dst_port=5, size_bytes=1200, seq=seq
        )
        h1.send(pkt)

    backlog_reads = []
    uplink = h1.ports[0]
    for t in backlog_probe_times:
        sim.schedule(t, lambda: backlog_reads.append((sim.now, uplink.backlog)))

    sim.run()
    qdepth = s01.program.register(MAX_QDEPTH_REGISTER).snapshot()
    uplink_stats = uplink.queue.stats
    return {
        "arrivals": arrivals,
        "qdepth": qdepth,
        "enqueued": uplink_stats.enqueued,
        "dequeued": uplink_stats.dequeued,
        "max_depth_seen": uplink_stats.max_depth_seen,
        "packets_sent": uplink.packets_sent,
        "events_executed": sim.events_executed,
        "backlog_reads": backlog_reads,
        "sim": sim,
    }


@pytest.fixture(scope="module")
def coalesced():
    return _run_burst(True)


@pytest.fixture(scope="module")
def per_frame():
    return _run_burst(False)


class TestCoalescedEquivalence:
    def test_burst_actually_coalesced(self, coalesced, per_frame):
        """Sanity: the fast run really took the batch path (fewer engine
        pops), otherwise the equivalence below proves nothing."""
        assert (
            coalesced["sim"]._seq < per_frame["sim"]._seq
        ), "burst never engaged the coalesced path"

    def test_arrival_times_identical(self, coalesced, per_frame):
        assert len(coalesced["arrivals"]) == BURST
        assert coalesced["arrivals"] == per_frame["arrivals"]

    def test_int_qdepth_register_identical(self, coalesced, per_frame):
        """INT's enq_qdepth fold — the paper's telemetry signal — must see
        the exact same depths whether or not frames were batched."""
        assert coalesced["qdepth"] == per_frame["qdepth"]
        assert max(coalesced["qdepth"]) > 0  # the burst did queue

    def test_queue_stats_identical(self, coalesced, per_frame):
        for key in ("enqueued", "dequeued", "max_depth_seen", "packets_sent"):
            assert coalesced[key] == per_frame[key], key

    def test_events_executed_identical(self, coalesced, per_frame):
        """events_executed is an exported workload statistic: the batch path
        credits elided per-frame completions so the count is path-invariant."""
        assert coalesced["events_executed"] == per_frame["events_executed"]


class TestMidBatchObservability:
    def test_backlog_drains_logically_during_batch(self):
        """Reads of ``port.backlog`` while a batch is in flight must see the
        same depths the per-frame path reports at the same instants."""
        # 1200 B at 20 Mb/s = 0.48 ms serialization; probe between frames.
        times = [0.0002 + 0.00048 * k for k in range(BURST)]
        fast = _run_burst(True, backlog_probe_times=times)
        slow = _run_burst(False, backlog_probe_times=times)
        assert fast["backlog_reads"] == slow["backlog_reads"]
        depths = [d for _t, d in fast["backlog_reads"]]
        assert depths[0] > depths[-1]  # the queue visibly drained

    def test_mid_batch_push_observes_logical_depth(self):
        """A packet arriving mid-batch must record the same enq_depth either
        way — the depth INT stamps into the max-qdepth register."""

        def run(coalesce):
            sim = Simulator()
            net = Network(
                sim,
                RandomStreams(3),
                clock_offset_std=0.0,
                clock_jitter_std=0.0,
                switch_service_jitter=0.0,
            )
            net.add_host("h1")
            net.add_host("h2")
            net.add_switch("s01")
            net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
            net.attach_host("h2", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
            net.finalize()
            h1 = net.host("h1")
            if not coalesce:
                for port in h1.ports:
                    port._coalesce = False
            for seq in range(6):
                h1.send(
                    h1.new_packet(
                        net.address_of("h2"), dst_port=5, size_bytes=1200, seq=seq
                    )
                )
            depths = []

            def late_send():
                pkt = h1.new_packet(
                    net.address_of("h2"), dst_port=5, size_bytes=1200, seq=99
                )
                h1.send(pkt)
                depths.append(pkt.enq_depth)

            sim.schedule(0.0011, late_send)  # mid-burst, ~2.3 frames in
            sim.run()
            return depths

        assert run(True) == run(False)


class TestCoalescingGates:
    def test_slowpath_env_disables_coalescing_and_compile(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOWPATH", "1")
        sim = Simulator()
        net = Network(sim, RandomStreams(0), switch_service_jitter=0.0)
        net.add_host("h1")
        net.add_host("h2")
        net.add_switch("s01")
        net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
        net.attach_host("h2", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
        net.finalize()
        for node in (net.host("h1"), net.switch("s01")):
            for port in node.ports:
                assert port._coalesce is False
        assert net.switch("s01")._fast_ingress is None

    def test_jittered_node_never_batches(self, sim, streams):
        """Default networks give switches service jitter; their ports must
        take the per-frame path (per-node RNG draw order is semantics)."""
        net = Network(sim, streams)  # default switch_service_jitter=0.15
        net.add_host("h1")
        net.add_host("h2")
        net.add_switch("s01")
        net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
        net.attach_host("h2", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
        net.finalize()
        switch_port = net.switch("s01").ports[0]
        assert switch_port.node.service_jitter > 0
        assert switch_port._try_coalesce() is False

    @pytest.mark.parametrize("observed", ["h1", "s01"], ids=["sender", "receiver"])
    def test_packet_observer_closes_the_gate_until_detached(
        self, sim, quiet_network_factory, observed
    ):
        """A tracer on either end of the link keeps the per-frame path (its
        records carry per-frame instants and order); detaching it leaves no
        trace on the node, so the host port batches again."""
        from repro.simnet.trace import PacketTracer

        net = quiet_network_factory()
        net.add_host("h1")
        net.add_host("h2")
        net.add_switch("s01")
        net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
        net.attach_host("h2", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
        net.finalize()
        h1 = net.host("h1")
        tracer = PacketTracer([net.node(observed)])
        for _ in range(3):  # one in service, two queued
            h1.send(h1.new_packet(net.address_of("h2"), dst_port=5))
        uplink = h1.ports[0]
        assert uplink.backlog == 2
        assert uplink._try_coalesce() is False
        tracer.detach()
        assert uplink._try_coalesce() is True

    def test_probe_frames_end_the_batch(self, sim, quiet_network_factory):
        """A probe's egress stage reads clocks at its dequeue instant, so a
        batch must stop at the first probe in the queue."""
        from repro.simnet.packet import FLAG_PROBE

        net = quiet_network_factory()
        net.add_host("h1")
        net.add_host("h2")
        net.add_switch("s01")
        net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
        net.attach_host("h2", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
        net.finalize()
        h1 = net.host("h1")
        h1.send(h1.new_packet(net.address_of("h2"), dst_port=5))  # in service
        h1.send(h1.new_packet(net.address_of("h2"), dst_port=5))
        probe = h1.new_packet(net.address_of("h2"), dst_port=5, size_bytes=256)
        probe.flags |= FLAG_PROBE
        h1.send(probe)
        # Queue is [data, probe]: the probe-free prefix of 1 is below the
        # 2-frame batching minimum, so no batch forms.
        assert h1.ports[0]._try_coalesce() is False
