"""Edge-server ranking — Algorithm 1 and its bandwidth-based twin.

Both functions return the *full* candidate list with the estimated metric,
matching the paper's first scheduler mode (sorted list; edge devices take the
head) while also enabling the second mode (devices apply their own policy to
the returned values).

Candidates absent from the inferred topology — or with no known directed
path — are ranked last with an infinite/zero metric rather than dropped:
a scheduler that silently hides servers it has not yet heard about would
starve them forever at startup.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.core.estimators import BandwidthEstimator, DelayEstimator
from repro.telemetry.records import TelemetryNodeId, node_label

__all__ = [
    "rank_by_delay",
    "rank_by_bandwidth",
    "explain_delay",
    "explain_bandwidth",
    "RankedServer",
]

RankedServer = Tuple[TelemetryNodeId, float]


def rank_by_delay(
    estimator: DelayEstimator,
    origin: TelemetryNodeId,
    candidates: Optional[Sequence[TelemetryNodeId]] = None,
) -> List[RankedServer]:
    """Algorithm 1: edge nodes sorted by estimated one-way delay from
    ``origin`` (ascending; ties broken by node id for determinism)."""
    candidates = _others(estimator, origin, candidates)
    ranked = list(zip(candidates, estimator.delays(origin, candidates)))
    ranked.sort(key=itemgetter(1, 0))
    return ranked


def rank_by_bandwidth(
    estimator: BandwidthEstimator,
    origin: TelemetryNodeId,
    candidates: Optional[Sequence[TelemetryNodeId]] = None,
) -> List[RankedServer]:
    """Section III-D: edge nodes sorted by estimated bottleneck available
    bandwidth from ``origin`` (descending; ties broken by node id)."""
    candidates = _others(estimator, origin, candidates)
    ranked = list(zip(candidates, estimator.throughputs(origin, candidates)))
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked


def _others(estimator, origin, candidates) -> List[TelemetryNodeId]:
    """``candidates`` without ``origin``; every host ``origin`` reaches
    when ``candidates`` is ``None``."""
    if candidates is None:
        return estimator.store.topology.reachable_hosts(origin)
    if origin in candidates:
        return [node for node in candidates if node != origin]
    return candidates


# -- decision explanations (audit trail) ------------------------------------
#
# These mirror the estimators' arithmetic term by term but return the full
# breakdown instead of one scalar.  They are deliberately separate from the
# rank_* hot paths: ranking runs on every scheduler query, explanation only
# when a decision audit is attached.


def explain_delay(
    estimator: DelayEstimator, origin: TelemetryNodeId, node: TelemetryNodeId
) -> Dict[str, Any]:
    """Algorithm 1's cost for one candidate, decomposed per hop.

    Each hop reads the per-link rules the ranking walks
    (:meth:`LinkState.delay`, :meth:`LinkState.qdepth`), so ``value`` is the
    estimate :meth:`DelayEstimator.delays` ranks by (summed hop by hop
    rather than links first, then queues, which can differ in the last
    bit); ``hops`` lists each directed hop's measured link delay, the Q(h)
    reading, and the ``k * Q(h)`` term actually charged (zero below the
    noise floor or at non-switch hops).
    """
    store = estimator.store
    try:
        path = store.topology.path(origin, node)
    except SchedulingError:
        return {"value": math.inf, "path": [], "hops": []}
    hops: List[Dict[str, Any]] = []
    total = 0.0
    for u, v in zip(path, path[1:]):
        link_delay = store.link_delay(u, v, default=estimator.default_link_delay)
        qdepth = store.max_qdepth(u, v) if u[0] == "sw" else 0
        queue_term = (
            estimator.k * qdepth
            if u[0] == "sw" and qdepth >= estimator.qdepth_floor
            else 0.0
        )
        total += link_delay + queue_term
        hops.append(
            {
                "u": node_label(u),
                "v": node_label(v),
                "link_delay": link_delay,
                "qdepth": qdepth,
                "queue_term": queue_term,
            }
        )
    return {"value": total, "path": [node_label(n) for n in path], "hops": hops}


def explain_bandwidth(
    estimator: BandwidthEstimator, origin: TelemetryNodeId, node: TelemetryNodeId
) -> Dict[str, Any]:
    """Section III-D's bottleneck bandwidth for one candidate, per hop:
    each link's Q(h) reading, the utilization the calibration curve maps it
    to, and the resulting available bandwidth; ``value`` is the minimum."""
    store = estimator.store
    try:
        path = store.topology.path(origin, node)
    except SchedulingError:
        return {"value": 0.0, "path": [], "hops": []}
    hops: List[Dict[str, Any]] = []
    value: Optional[float] = None
    for u, v in zip(path, path[1:]):
        qdepth = store.max_qdepth(u, v)
        utilization = estimator.curve.utilization(qdepth)
        available = estimator.link_capacity_bps * (1.0 - utilization)
        if value is None or available < value:
            value = available
        hops.append(
            {
                "u": node_label(u),
                "v": node_label(v),
                "qdepth": qdepth,
                "utilization": utilization,
                "available_bps": available,
            }
        )
    return {
        "value": value if value is not None else 0.0,
        "path": [node_label(n) for n in path],
        "hops": hops,
    }
