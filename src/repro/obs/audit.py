"""Scheduler decision audit trail — "why did the scheduler pick node X?".

Every ranking query the scheduler serves is stored here as the scheduler's
own :class:`~repro.core.scheduler.DecisionRecord`: the requester, the
metric, every candidate's estimated value, and — for the network-aware
policy — the per-hop Q(h) and link-delay terms Algorithm 1 summed to
produce that value, plus the telemetry age of each consulted hop (kept in
memory, not exported).  When a ground-truth reader is attached
(experiments only; a real deployment has no oracle), each candidate also
carries the *true* path delay at decision time, so the estimate-vs-truth
error of the paper's estimator becomes a measurable, exportable quantity
instead of folklore.  The audit is the one store of decisions: the
telemetry-quality and what-if observers and the decision samplers derive
what they report from it.

Candidate/hop payloads are plain dicts (JSONL-ready); telemetry node ids
``("sw", 3)`` are flattened to ``"sw:3"`` via :func:`node_label`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.records import node_label

__all__ = [
    "DecisionAudit",
    "NetworkGroundTruth",
    "node_label",
    "delay_error_stats",
    "estimate_and_truth",
]

DEFAULT_MAX_DECISIONS = 50_000


class DecisionAudit:
    """Bounded, append-only store of the scheduler's decision records."""

    def __init__(self, *, max_decisions: int = DEFAULT_MAX_DECISIONS) -> None:
        if max_decisions < 1:
            raise ValueError("max_decisions must be >= 1")
        self.max_decisions = max_decisions
        self.decisions: List[Any] = []
        self.dropped_decisions = 0

    def record(self, decision: Any) -> None:
        """Store one :class:`~repro.core.scheduler.DecisionRecord`, or
        count it dropped once the audit is full."""
        if len(self.decisions) >= self.max_decisions:
            self.dropped_decisions += 1
            return
        self.decisions.append(decision)

    def __len__(self) -> int:
        return len(self.decisions)

    def snapshot(self) -> List[Dict[str, Any]]:
        return [d.snapshot() for d in self.decisions]

    def error_report(self) -> Dict[str, Any]:
        """Estimate-vs-ground-truth summary over recorded delay decisions."""
        return delay_error_stats(
            c for d in self.decisions if d.metric == "delay" for c in d.candidates
        )


def estimate_and_truth(cand: Dict[str, Any]) -> Optional[Tuple[float, float]]:
    """A candidate's ``(estimated_delay, truth_delay)``, or ``None`` when it
    is no error sample.  Only the network-aware scheduler writes
    ``estimated_delay`` (baseline rank values are hop counts or random
    draws, not delays); a candidate missing either side, or with a
    non-finite estimate (unreachable), is skipped."""
    est = cand.get("estimated_delay")
    truth = cand.get("truth_delay")
    if not isinstance(est, (int, float)) or truth is None or not math.isfinite(est):
        return None
    return est, truth


def delay_error_stats(candidates: Any) -> Dict[str, Any]:
    """Aggregate ``estimated_delay`` against ``truth_delay`` over an iterable
    of candidate dicts; candidates :func:`estimate_and_truth` skips are
    counted."""
    n = 0
    skipped = 0
    sum_err = 0.0
    sum_abs = 0.0
    sum_est = 0.0
    sum_truth = 0.0
    for cand in candidates:
        pair = estimate_and_truth(cand)
        if pair is None:
            skipped += 1
            continue
        est, truth = pair
        err = est - truth
        n += 1
        sum_err += err
        sum_abs += abs(err)
        sum_est += est
        sum_truth += truth
    return {
        "samples": n,
        "skipped": skipped,
        "mean_error": sum_err / n if n else None,
        "mean_abs_error": sum_abs / n if n else None,
        "mean_estimate": sum_est / n if n else None,
        "mean_truth": sum_truth / n if n else None,
    }


class NetworkGroundTruth:
    """Oracle reading the *true* network state from live simulator objects.

    The scheduler must never see this (it would defeat the paper's premise);
    experiments attach it to the audit trail so every recorded estimate is
    stored next to the truth it was approximating.

    The true path delay mirrors what the delay estimator models: per hop,
    propagation delay plus the serialization backlog currently sitting in
    the egress queue (queued bytes, plus one in-service MTU when the
    serializer is busy) at that port's rate.
    """

    def __init__(self, network: Any) -> None:
        self.network = network

    def true_delay_between(self, src_addr: int, dst_addr: int) -> Optional[float]:
        """True delay over the physical shortest path between two hosts."""
        try:
            names = self.network.shortest_path(
                self.network.name_of(src_addr), self.network.name_of(dst_addr)
            )
        except Exception:
            return None
        from repro.simnet.packet import MTU

        total = 0.0
        for u_name, v_name in zip(names, names[1:]):
            port = self.network.node(u_name).port(
                self.network.port_toward(u_name, v_name)
            )
            pending_bytes = port.queue.queued_bytes + (MTU if port.busy else 0)
            total += port.link.propagation_delay + (pending_bytes * 8.0) / port.rate_bps
        return total
