"""Drop-tail queue semantics — the source of the INT enq_qdepth signal."""

import pytest

from repro.simnet.packet import Packet
from repro.simnet.queueing import DEFAULT_QUEUE_CAPACITY, DropTailQueue


def _pkt():
    return Packet(1, 2)


def test_empty_queue():
    q = DropTailQueue()
    assert len(q) == 0
    assert q.pop() is None


def test_fifo_order():
    q = DropTailQueue()
    packets = [_pkt() for _ in range(5)]
    for p in packets:
        q.push(p)
    popped = [q.pop() for _ in range(5)]
    assert popped == packets


def test_depth_at_enqueue_counts_waiting_packets():
    q = DropTailQueue()
    assert q.push(_pkt()) == 0  # first packet observes an empty queue
    assert q.push(_pkt()) == 1
    assert q.push(_pkt()) == 2


def test_pop_returns_recorded_depth():
    q = DropTailQueue()
    q.push(_pkt())
    q.push(_pkt())
    d0 = q.pop().enq_depth
    d1 = q.pop().enq_depth
    assert (d0, d1) == (0, 1)


def test_drop_tail_at_capacity():
    q = DropTailQueue(capacity=2)
    assert q.push(_pkt()) == 0
    assert q.push(_pkt()) == 1
    assert q.push(_pkt()) is None  # dropped
    assert q.stats.dropped == 1
    assert len(q) == 2


def test_capacity_validation():
    with pytest.raises(ValueError):
        DropTailQueue(capacity=0)


def test_default_capacity_is_bmv2_like():
    assert DEFAULT_QUEUE_CAPACITY == 64


def test_stats_counters():
    q = DropTailQueue(capacity=3)
    for _ in range(5):
        q.push(_pkt())
    q.pop()
    assert q.stats.enqueued == 3
    assert q.stats.dropped == 2
    assert q.stats.dequeued == 1
    assert q.stats.max_depth_seen == 2


def test_bytes_enqueued_accumulates():
    q = DropTailQueue()
    q.push(Packet(1, 2, size_bytes=100))
    q.push(Packet(1, 2, size_bytes=200))
    assert q.stats.bytes_enqueued == 300


def test_depth_recovers_after_drain():
    q = DropTailQueue(capacity=2)
    q.push(_pkt())
    q.push(_pkt())
    q.pop()
    assert q.push(_pkt()) == 1  # space freed, depth reflects current backlog
