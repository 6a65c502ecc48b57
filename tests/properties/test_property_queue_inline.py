"""Property: a port's inlined queue bodies are :class:`DropTailQueue`'s.

``Port.send``, ``Port._start_next`` and ``Port._tx_complete`` carry inlined
copies of ``DropTailQueue.push`` / ``pop`` (and ``send`` a cut-through that
stands for a push and a pop on an idle port).  Here one host port, its
capacity (1-6) and crossing threshold (none, 1, 2 or the capacity) drawn,
sends frames of drawn sizes at drawn instants.  The run logs every send,
every frame start (the egress stage's call, with the enqueue depth it
reads) and every threshold crossing, in order.  The log is then replayed on
a bare ``DropTailQueue`` — a send is a ``push``, a frame start a ``pop`` —
which must rebuild the same log: the same depths, the same dropped frames,
the same crossings at the same places, and the same :class:`QueueStats`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.engine import Simulator
from repro.simnet.packet import Packet
from repro.simnet.queueing import DropTailQueue, QueueStats
from repro.simnet.random import RandomStreams
from repro.simnet.topology import Network
from repro.units import mbps

SLOT = 1e-3                  # send instants, on a 1 ms grid
SIZES = (64, 300, 1200, 1500)  # 0.5-12 ms each at 1 Mb/s


class _StartLog:
    """The sending host's packet observer: logs its frame starts."""

    probes_only = False
    probe_stride = 1

    def __init__(self, log, index_of):
        self.log = log
        self.index_of = index_of

    def record(self, node, kind, packet, enq_depth=None):
        if kind == "egress":
            self.log.append(("start", self.index_of[packet.packet_id], enq_depth))


def _run_port(capacity, threshold, sends):
    """Drive one port; return its log, the depth each send saw (None for a
    drop), its queue's stats and its drop count."""
    sim = Simulator()
    net = Network(sim, RandomStreams(0), clock_offset_std=0.0, clock_jitter_std=0.0)
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b", rate_bps=mbps(1), delay=0.0, queue_capacity=capacity)
    net.finalize()
    host = net.host("a")
    port = host.ports[0]
    log, depths, index_of = [], {}, {}
    host.set_observer(_StartLog(log, index_of))
    port.queue.threshold = threshold
    port.queue.on_threshold = lambda depth, direction: log.append(("cross", depth, direction))

    def send(i, size):
        packet = host.new_packet(net.address_of("b"), dst_port=9, size_bytes=size)
        index_of[packet.packet_id] = i
        log.append(("send", i, size))
        accepted = port.send(packet)
        depths[i] = packet.enq_depth if accepted else None

    for i, (slot, size) in enumerate(sends):
        sim.schedule_at(slot * SLOT, send, i, size)
    sim.run()
    return log, depths, port.queue.stats, port.packets_dropped


def _replay(log, capacity, threshold):
    """Rebuild ``log`` on a bare DropTailQueue; return it, the depths its
    pushes returned and its stats."""
    queue = DropTailQueue(capacity)
    out, depths = [], {}
    queue.threshold = threshold
    queue.on_threshold = lambda depth, direction: out.append(("cross", depth, direction))
    index_of = {}
    for entry in log:
        if entry[0] == "send":
            _kind, i, size = entry
            packet = Packet(1, 2, size_bytes=size)
            index_of[packet.packet_id] = i
            out.append(entry)
            depths[i] = queue.push(packet)
        elif entry[0] == "start":
            packet = queue.pop()
            assert packet is not None, "the port started a frame the queue does not hold"
            out.append(("start", index_of[packet.packet_id], packet.enq_depth))
    return out, depths, queue.stats


def _stats(stats):
    return {field: getattr(stats, field) for field in QueueStats.__slots__}


@given(
    capacity=st.integers(1, 6),
    threshold=st.sampled_from(("none", 1, 2, "capacity")),
    sends=st.lists(
        st.tuples(st.integers(0, 60), st.sampled_from(SIZES)), min_size=1, max_size=40
    ),
)
@settings(max_examples=300, deadline=None)
def test_port_queue_replays_on_a_drop_tail_queue(capacity, threshold, sends):
    threshold = {"none": None, "capacity": capacity}.get(threshold, threshold)
    log, depths, stats, dropped = _run_port(capacity, threshold, sends)
    replayed, ref_depths, reference = _replay(log, capacity, threshold)
    # Every frame start with the depth it reads, and every crossing, each
    # where it fell; the depth every send saw, and the drops (None).
    assert replayed == log
    assert depths == ref_depths
    assert _stats(stats) == _stats(reference)
    assert dropped == reference.dropped
    assert stats.enqueued == stats.dequeued == len(sends) - dropped
