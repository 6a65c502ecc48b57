"""Delay and bandwidth estimation from INT telemetry (Sections III-C/III-D).

*Delay* (Algorithm 1's cost):  ``Delay(e_n, e_m) = Σ delay(l_i) + Σ k·Q(h_i)``
where ``delay(l_i)`` is the measured link latency and ``Q(h_i)`` the maximum
queue occupancy of hop *i* in the last probing interval.  ``k`` converts
packets of queue into seconds of wait; the paper uses k = 20 ms and leaves
auto-tuning as future work (implemented here as
:meth:`DelayEstimator.calibrated_k`).

*Bandwidth*: Fig. 3's empirical queue-depth <-> utilization relationship is
inverted to estimate per-link utilization from the collected max queue
depth, available bandwidth = capacity × (1 − utilization), and path
throughput = the bottleneck minimum (Section III-D).

Both are priced by :func:`walk`, one pass over a requester's
:class:`~repro.core.telemetry_store.PathTree` that reads each link once
however many candidates' paths cross it.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.core.telemetry_store import PathTree, TelemetryStore
from repro.telemetry.records import TelemetryNodeId

__all__ = [
    "DelayEstimator",
    "BandwidthEstimator",
    "QdepthUtilizationCurve",
    "DEFAULT_K",
    "walk",
]

DEFAULT_K = 0.020  # seconds of queue wait per packet of max queue depth (paper: 20 ms)


class DelayEstimator:
    """End-to-end one-way delay predictor over the inferred topology."""

    def __init__(
        self,
        store: TelemetryStore,
        *,
        k: float = DEFAULT_K,
        default_link_delay: float = 0.010,
        qdepth_floor: int = 3,
    ) -> None:
        if k < 0:
            raise ValueError(f"conversion factor k must be >= 0, got {k}")
        if qdepth_floor < 0:
            raise ValueError(f"qdepth_floor must be >= 0, got {qdepth_floor}")
        self.store = store
        self.k = k
        self.default_link_delay = default_link_delay
        # Noise floor: Fig. 3 shows max queue depths below ~5 packets even on
        # links under 50 % utilization, and the paper attributes its
        # negative-gain tail to exactly this — "probing packets can detect
        # small queue build up in network devices even when network
        # congestion is negligible".  Readings below the floor are treated
        # as no congestion so a one-packet blip does not out-weigh a 2-hop
        # (20 ms) detour.
        self.qdepth_floor = qdepth_floor

    def delays(
        self,
        src: TelemetryNodeId,
        candidates: Sequence[TelemetryNodeId],
        *,
        allow_stale: bool = False,
    ) -> List[float]:
        """Algorithm 1's inner loops for each candidate, over the path the
        inferred topology predicts data will take: total link delay + k ×
        total queue occupancy; ``inf`` for a candidate with no known path.
        ``allow_stale`` ranks from last-known link latencies past the
        staleness horizon (degraded mode); queue terms still decay — an old
        congestion reading is evidence of nothing."""
        store = self.store
        return walk(store.tree(src, candidates), store, delay=self, allow_stale=allow_stale)[0]

    def delay_between(
        self, src: TelemetryNodeId, dst: TelemetryNodeId, *, allow_stale: bool = False
    ) -> float:
        """:meth:`delays` for one candidate; raises :class:`SchedulingError`
        when no path is known."""
        store = self.store
        tree = store.tree(src, (dst,))
        if tree.slots[0] < 0:
            raise SchedulingError(f"no inferred path from {src} to {dst}")
        return walk(tree, store, delay=self, allow_stale=allow_stale)[0][0]

    @staticmethod
    def calibrated_k(
        samples: Iterable[Tuple[int, float]], baseline_delay: float
    ) -> float:
        """Least-squares fit of k from (max_qdepth, measured_one_way_delay)
        calibration pairs — the auto-tuning the paper defers to future work.

        Fits ``delay ≈ baseline_delay + k·q`` through the origin-shifted
        samples; returns :data:`DEFAULT_K` when the data carries no signal.
        """
        num = 0.0
        den = 0.0
        for q, delay in samples:
            excess = delay - baseline_delay
            num += q * excess
            den += q * q
        if den <= 0:
            return DEFAULT_K
        return max(0.0, num / den)


class QdepthUtilizationCurve:
    """Monotone piecewise-linear map: probing-interval max queue depth ->
    estimated egress utilization in [0, 1].

    The default knots follow the shape of the paper's Fig. 3 (max queue
    below ~5 packets up to 50 % utilization, sharp growth beyond): they can
    be replaced with measured pairs from the calibration experiment via
    :meth:`from_calibration`.
    """

    DEFAULT_KNOTS: List[Tuple[float, float]] = [
        (0.0, 0.00),
        (1.0, 0.15),
        (2.0, 0.30),
        (5.0, 0.50),
        (10.0, 0.70),
        (20.0, 0.85),
        (30.0, 0.95),
        (40.0, 1.00),
    ]

    def __init__(self, knots: Optional[Sequence[Tuple[float, float]]] = None) -> None:
        pts = sorted(knots) if knots is not None else list(self.DEFAULT_KNOTS)
        if len(pts) < 2:
            raise ValueError("need at least two calibration knots")
        qs = [q for q, _ in pts]
        us = [u for _, u in pts]
        if any(b < a for a, b in zip(us, us[1:])):
            raise ValueError("utilization knots must be non-decreasing in queue depth")
        if any(not 0.0 <= u <= 1.0 for u in us):
            raise ValueError("utilization values must lie in [0, 1]")
        self._qs = qs
        self._us = us

    @classmethod
    def from_calibration(
        cls, pairs: Sequence[Tuple[float, float]]
    ) -> "QdepthUtilizationCurve":
        """Build from measured (utilization, max_qdepth) calibration pairs
        (the output of the Fig. 3 experiment), inverting the axes and
        enforcing monotonicity by isotonic cummax."""
        if len(pairs) < 2:
            raise ValueError("need at least two calibration pairs")
        by_util = sorted(pairs)
        knots: List[Tuple[float, float]] = []
        max_q = 0.0
        for util, q in by_util:
            max_q = max(max_q, q)  # enforce monotone queue growth
            knots.append((max_q, min(1.0, max(0.0, util))))
        # Deduplicate queue-depth keys, keeping the largest utilization.
        dedup: dict = {}
        for q, u in knots:
            dedup[q] = max(dedup.get(q, 0.0), u)
        return cls(sorted(dedup.items()))

    @property
    def knots(self) -> List[Tuple[float, float]]:
        """The (max_qdepth, utilization) knots, in queue-depth order — the
        curve's full state, usable to serialize and reconstruct it."""
        return list(zip(self._qs, self._us))

    def utilization(self, max_qdepth: float) -> float:
        """Interpolated utilization estimate; clamps outside the knot range."""
        qs, us = self._qs, self._us
        if max_qdepth <= qs[0]:
            return us[0]
        if max_qdepth >= qs[-1]:
            return us[-1]
        i = bisect.bisect_right(qs, max_qdepth)
        q0, q1 = qs[i - 1], qs[i]
        u0, u1 = us[i - 1], us[i]
        frac = (max_qdepth - q0) / (q1 - q0)
        return u0 + frac * (u1 - u0)


class BandwidthEstimator:
    """Bottleneck available-bandwidth predictor (Section III-D)."""

    def __init__(
        self,
        store: TelemetryStore,
        *,
        link_capacity_bps: float,
        curve: Optional[QdepthUtilizationCurve] = None,
    ) -> None:
        if link_capacity_bps <= 0:
            raise ValueError("link capacity must be positive")
        self.store = store
        self.link_capacity_bps = link_capacity_bps
        self.curve = curve if curve is not None else QdepthUtilizationCurve()

    def throughputs(
        self, src: TelemetryNodeId, candidates: Sequence[TelemetryNodeId]
    ) -> List[float]:
        """``throughput = min(b_1 ... b_k)`` over the links of each
        candidate's inferred path, ``b = capacity × (1 − utilization(Q(h)))``;
        0.0 for a candidate with no known path or a path of no links.  Host
        uplinks (first hop) are included: they share the same capacity."""
        store = self.store
        return walk(store.tree(src, candidates), store, bandwidth=self)[1]

    def throughput_between(self, src: TelemetryNodeId, dst: TelemetryNodeId) -> float:
        """:meth:`throughputs` for one candidate; raises
        :class:`SchedulingError` when the path is unknown or has no link."""
        store = self.store
        tree = store.tree(src, (dst,))
        if tree.slots[0] <= 0:
            raise SchedulingError("throughput needs a path with at least one link")
        return walk(tree, store, bandwidth=self)[1][0]


def walk(
    tree: PathTree,
    store: TelemetryStore,
    *,
    delay: Optional[DelayEstimator] = None,
    bandwidth: Optional[BandwidthEstimator] = None,
    allow_stale: bool = False,
) -> Tuple[List[float], List[float]]:
    """Price every candidate of ``tree`` in one pass over its edges:
    ``(delays, throughputs)`` in candidate order, each list empty unless
    its estimator is given.

    Each link is read once, through :meth:`LinkState.delay` and
    :meth:`LinkState.qdepth`, and per slot the pass keeps three prefix
    values — the link-delay sum, the k·Q sum and the bottleneck.  A
    candidate's sums are the same float additions in the same order as a
    loop over its own path, and ``min`` is exact, so each value is the one
    that loop gives, to the bit."""
    now = store.sim.now
    staleness = store.staleness
    if delay is not None:
        default = delay.default_link_delay
        k = delay.k
        floor = delay.qdepth_floor
        link_sums = [0.0]
        queue_sums = [0.0]
    if bandwidth is not None:
        utilization = bandwidth.curve.utilization
        capacity = bandwidth.link_capacity_bps
        bottlenecks = [math.inf]
    for state, is_switch, parent in tree.edges:
        qdepth = state.qdepth(now, staleness)
        if delay is not None:
            link_sums.append(
                link_sums[parent] + state.delay(now, staleness, default, allow_stale)
            )
            queue_sum = queue_sums[parent]
            if is_switch and qdepth >= floor:
                queue_sum += k * qdepth
            queue_sums.append(queue_sum)
        if bandwidth is not None:
            available = capacity * (1.0 - utilization(qdepth))
            bottleneck = bottlenecks[parent]
            bottlenecks.append(available if available < bottleneck else bottleneck)
    slots = tree.slots
    delays: List[float] = []
    throughputs: List[float] = []
    if delay is not None:
        delays = [
            link_sums[slot] + queue_sums[slot] if slot >= 0 else math.inf
            for slot in slots
        ]
    if bandwidth is not None:
        throughputs = [bottlenecks[slot] if slot > 0 else 0.0 for slot in slots]
    return delays, throughputs
