"""Structured event log: typed, sim-time-stamped JSONL-ready records.

Every record is an :class:`Event` — ``(time, kind, fields)`` — appended to a
bounded in-memory log.  The typed helpers (``probe_sent``, ``packet_dropped``,
``task_transition``, ...) exist so call sites stay greppable and the schema
stays discoverable in one place (:data:`EVENT_KINDS`); ``emit`` accepts any
kind for forward compatibility.

High-frequency sources (per-probe events at mesh-probing rates) are expected
to *sample* — see ``Observability.probe_sample`` — while their exact totals
live in the metrics registry.  The log itself also enforces ``max_events``
so a pathological emitter cannot exhaust memory; overflow is counted, never
silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Event", "EventLog", "EVENT_KINDS"]

# The documented schema.  Fields listed per kind are the ones instrumentation
# emits today; extra fields are allowed (records are open dicts on the wire).
EVENT_KINDS = {
    "probe_sent":       ("src", "dst", "seq"),
    "probe_received":   ("src", "dst", "seq", "hops"),
    "probe_lost":       ("src", "dst", "seq", "lost"),
    "packet_dropped":   ("queue", "flow_id", "seq", "size_bytes", "is_probe"),
    "queue_threshold":  ("queue", "depth", "threshold", "direction"),
    "task_transition":  ("task_id", "state", "device", "server_addr"),
    "warning":          ("reason",),
    "fault_injected":   ("fault", "target"),
    "fault_recovered":  ("fault", "target"),
    "node_quarantined": ("node", "age"),
    "node_unquarantined": ("node",),
    "alert":            ("rule", "series", "target", "value", "threshold", "state"),
    # Runner resilience (the Runner's own log, wall-clock time):
    "runner_run_retry":  ("spec_hash", "attempt", "failure_kind", "error_type",
                          "backoff_s"),
    "cache_corrupt":     ("spec_hash", "reason"),
}

DEFAULT_MAX_EVENTS = 200_000


@dataclass(frozen=True)
class Event:
    """One observation: what happened, when (sim time), and its payload."""

    time: float
    kind: str
    fields: Dict[str, Any]

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": "event", "event": self.kind, "time": self.time, **self.fields}


class EventLog:
    """Append-only, bounded, sim-time-stamped event buffer."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        *,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.max_events = max_events
        self.events: List[Event] = []
        self.dropped_events = 0      # emits refused because the log was full
        self._counts: Dict[str, int] = {}

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    # -- emission ----------------------------------------------------------

    def emit(self, kind: str, *, time: Optional[float] = None, **fields: Any) -> None:
        """Record one event.  ``time`` overrides the clock — used when
        mirroring timestamps measured elsewhere (task lifecycle records)."""
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(
            Event(time if time is not None else self._clock(), kind, fields)
        )

    # Typed helpers — the documented schema, one per EVENT_KINDS entry.

    def probe_sent(self, *, src: int, dst: int, seq: int, **extra: Any) -> None:
        self.emit("probe_sent", src=src, dst=dst, seq=seq, **extra)

    def probe_received(self, *, src: int, dst: int, seq: int, **extra: Any) -> None:
        self.emit("probe_received", src=src, dst=dst, seq=seq, **extra)

    def probe_lost(self, *, src: int, dst: int, seq: int, lost: int, **extra: Any) -> None:
        self.emit("probe_lost", src=src, dst=dst, seq=seq, lost=lost, **extra)

    def packet_dropped(self, *, queue: str, **extra: Any) -> None:
        self.emit("packet_dropped", queue=queue, **extra)

    def queue_threshold(
        self, *, queue: str, depth: int, threshold: int, direction: str, **extra: Any
    ) -> None:
        self.emit(
            "queue_threshold",
            queue=queue, depth=depth, threshold=threshold, direction=direction,
            **extra,
        )

    def task_transition(
        self, *, task_id: int, state: str, time: Optional[float] = None, **extra: Any
    ) -> None:
        self.emit("task_transition", time=time, task_id=task_id, state=state, **extra)

    def warning(self, reason: str, **extra: Any) -> None:
        self.emit("warning", reason=reason, **extra)

    def fault_injected(self, *, fault: str, target: str, **extra: Any) -> None:
        self.emit("fault_injected", fault=fault, target=target, **extra)

    def fault_recovered(self, *, fault: str, target: str, **extra: Any) -> None:
        self.emit("fault_recovered", fault=fault, target=target, **extra)

    def node_quarantined(self, *, node: str, age: float, **extra: Any) -> None:
        self.emit("node_quarantined", node=node, age=age, **extra)

    def node_unquarantined(self, *, node: str, **extra: Any) -> None:
        self.emit("node_unquarantined", node=node, **extra)

    def alert(
        self,
        *,
        rule: str,
        series: str,
        target: str,
        value: float,
        threshold: float,
        state: str,
        time: Optional[float] = None,
        **extra: Any,
    ) -> None:
        """One health-alert edge: ``state`` is ``"fire"`` or ``"clear"``."""
        self.emit(
            "alert",
            time=time,
            rule=rule, series=series, target=target,
            value=value, threshold=threshold, state=state,
            **extra,
        )

    def runner_run_retry(
        self,
        *,
        spec_hash: str,
        attempt: int,
        failure_kind: Optional[str],
        error_type: Optional[str],
        backoff_s: float,
        **extra: Any,
    ) -> None:
        self.emit(
            "runner_run_retry",
            spec_hash=spec_hash, attempt=attempt, failure_kind=failure_kind,
            error_type=error_type, backoff_s=backoff_s, **extra,
        )

    def cache_corrupt(self, *, spec_hash: str, reason: str, **extra: Any) -> None:
        self.emit("cache_corrupt", spec_hash=spec_hash, reason=reason, **extra)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def counts_by_kind(self) -> Dict[str, int]:
        """Total emits per kind — includes events refused at the cap."""
        return dict(self._counts)

    def of_kind(self, kind: str) -> List[Event]:
        return [e for e in self.events if e.kind == kind]

    def snapshot(self) -> List[Dict[str, Any]]:
        return [e.snapshot() for e in self.events]
