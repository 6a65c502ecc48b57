"""Drop-tail FIFO egress queues with the statistics INT observes.

Each switch/host egress port owns one :class:`DropTailQueue`.  The data-plane
observable the paper builds on — *queue depth at enqueue time* (BMv2's
``enq_qdepth``) — is recorded here for every packet and handed to the
programmable pipeline at egress, where the INT program folds it into the
per-port max-queue-depth register (Section III-A).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.simnet.packet import Packet

__all__ = ["DropTailQueue", "QueueStats"]

DEFAULT_QUEUE_CAPACITY = 64  # packets; BMv2's default egress queue depth


class QueueStats:
    """Running counters for one egress queue."""

    __slots__ = ("enqueued", "dropped", "dequeued", "max_depth_seen", "bytes_enqueued")

    def __init__(self) -> None:
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0
        self.max_depth_seen = 0
        self.bytes_enqueued = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QueueStats enq={self.enqueued} deq={self.dequeued} "
            f"drop={self.dropped} max_depth={self.max_depth_seen}>"
        )


class DropTailQueue:
    """Bounded FIFO of packets.

    The depth observed at enqueue time — the number of packets already
    waiting when this packet arrived, the value a P4 program reads as
    ``enq_qdepth`` — is written onto the packet itself
    (:attr:`Packet.enq_depth`) rather than stored in a per-entry pair, so
    the queue entry is the bare packet and a push/pop cycle allocates
    nothing.  A packet arriving at an empty queue observes depth 0.
    """

    def __init__(self, capacity: int = DEFAULT_QUEUE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: Deque[Packet] = deque()
        self.stats = QueueStats()
        # Observability: when ``threshold`` is set, ``on_threshold(depth,
        # direction)`` fires as the depth crosses it upward ("up") or falls
        # back below it ("down").  Disabled (None) costs one check per op.
        self.threshold: Optional[int] = None
        self.on_threshold: Optional[Callable[[int, str], None]] = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth(self) -> int:
        """Current number of queued packets (excluding any in transmission)."""
        return len(self._items)

    @property
    def queued_bytes(self) -> int:
        """Total bytes currently waiting (ground-truth delay accounting)."""
        return sum(packet.size_bytes for packet in self._items)

    def push(self, packet: Packet) -> Optional[int]:
        """Enqueue ``packet``.  Returns the depth it observed (also recorded
        on ``packet.enq_depth``), or ``None`` if the queue was full and the
        packet was dropped (drop-tail)."""
        items = self._items
        stats = self.stats
        depth = len(items)
        if depth >= self.capacity:
            stats.dropped += 1
            return None
        packet.enq_depth = depth
        items.append(packet)
        stats.enqueued += 1
        stats.bytes_enqueued += packet.size_bytes
        if depth > stats.max_depth_seen:
            stats.max_depth_seen = depth
        threshold = self.threshold
        if threshold is not None and depth + 1 == threshold and self.on_threshold:
            self.on_threshold(threshold, "up")
        return depth

    def pop(self) -> Optional[Packet]:
        """Dequeue the head-of-line packet (its enqueue-time depth rides on
        ``packet.enq_depth``), or ``None`` when empty."""
        items = self._items
        if not items:
            return None
        self.stats.dequeued += 1
        packet = items.popleft()
        threshold = self.threshold
        if threshold is not None and len(items) == threshold - 1 and self.on_threshold:
            self.on_threshold(len(items), "down")
        return packet
