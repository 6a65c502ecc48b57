"""Scheduler decision audit trail — "why did the scheduler pick node X?".

Every ranking query the scheduler serves can be recorded as a
:class:`Decision`: the requester, the metric, every candidate's estimated
value, and — for the network-aware policy — the per-hop Q(h) and link-delay
terms Algorithm 1 summed to produce that value.  When a ground-truth reader
is attached (experiments only; a real deployment has no oracle), each
candidate also carries the *true* path delay at decision time, so the
estimate-vs-truth error of the paper's estimator becomes a measurable,
exportable quantity instead of folklore.

Candidate/hop payloads are plain dicts (JSONL-ready); telemetry node ids
``("sw", 3)`` are flattened to ``"sw:3"`` via :func:`node_label`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.records import TelemetryNodeId, node_label

__all__ = [
    "Decision",
    "DecisionAudit",
    "NetworkGroundTruth",
    "node_label",
    "delay_error_stats",
]

DEFAULT_MAX_DECISIONS = 50_000


@dataclass(frozen=True)
class Decision:
    """One ranking query, fully explained.

    ``candidates`` entries always carry ``server_addr`` and ``value``; the
    network-aware scheduler adds ``hops`` (per-hop estimate terms) and, with
    ground truth attached, ``truth_delay``.
    """

    time: float
    requester_addr: int
    metric: str
    chosen_addr: Optional[int]
    candidates: Tuple[Dict[str, Any], ...] = field(default_factory=tuple)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": "decision-audit",
            "time": self.time,
            "requester_addr": self.requester_addr,
            "metric": self.metric,
            "chosen_addr": self.chosen_addr,
            "candidates": [dict(c) for c in self.candidates],
        }


class DecisionAudit:
    """Bounded, append-only store of :class:`Decision` records."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        *,
        max_decisions: int = DEFAULT_MAX_DECISIONS,
    ) -> None:
        if max_decisions < 1:
            raise ValueError("max_decisions must be >= 1")
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.max_decisions = max_decisions
        self.decisions: List[Decision] = []
        self.dropped_decisions = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def record(
        self,
        *,
        requester_addr: int,
        metric: str,
        candidates: Sequence[Dict[str, Any]],
        chosen_addr: Optional[int],
        time: Optional[float] = None,
    ) -> Optional[Decision]:
        if len(self.decisions) >= self.max_decisions:
            self.dropped_decisions += 1
            return None
        decision = Decision(
            time=time if time is not None else self._clock(),
            requester_addr=requester_addr,
            metric=metric,
            chosen_addr=chosen_addr,
            candidates=tuple(candidates),
        )
        self.decisions.append(decision)
        return decision

    def __len__(self) -> int:
        return len(self.decisions)

    def snapshot(self) -> List[Dict[str, Any]]:
        return [d.snapshot() for d in self.decisions]

    def error_report(self) -> Dict[str, Any]:
        """Estimate-vs-ground-truth summary over recorded delay decisions."""
        return delay_error_stats(
            c for d in self.decisions if d.metric == "delay" for c in d.candidates
        )


def delay_error_stats(candidates: Any) -> Dict[str, Any]:
    """Aggregate ``estimated_delay`` against ``truth_delay`` over an iterable
    of candidate dicts.  Only the network-aware scheduler writes
    ``estimated_delay`` (baseline rank values are hop counts or random draws,
    not delays); candidates missing either side, or with a non-finite
    estimate (unreachable), are skipped but counted."""
    n = 0
    skipped = 0
    sum_err = 0.0
    sum_abs = 0.0
    sum_est = 0.0
    sum_truth = 0.0
    for cand in candidates:
        est = cand.get("estimated_delay")
        truth = cand.get("truth_delay")
        if (
            not isinstance(est, (int, float))
            or truth is None
            or not math.isfinite(est)
        ):
            skipped += 1
            continue
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

    # -- node resolution ---------------------------------------------------

    def _name(self, node: TelemetryNodeId) -> str:
        kind, ident = node
        if kind == "sw":
            return self.network.switch_by_id(ident).name
        return self.network.name_of(ident)

    # -- truth readings ----------------------------------------------------

    def hop_truth(self, u: TelemetryNodeId, v: TelemetryNodeId) -> Dict[str, Any]:
        """True state of the directed hop u->v right now."""
        from repro.simnet.packet import MTU

        u_name = self._name(u)
        v_name = self._name(v)
        port = self.network.node(u_name).port(
            self.network.port_toward(u_name, v_name)
        )
        pending_bytes = port.queue.queued_bytes + (MTU if port.busy else 0)
        return {
            "u": node_label(u),
            "v": node_label(v),
            "true_qdepth": port.backlog,
            "true_delay": port.link.propagation_delay
            + (pending_bytes * 8.0) / port.rate_bps,
        }

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
