"""Causal span tracing: where a task's end-to-end delay actually went.

The paper's core claim (Section III-C, Algorithm 1) is that task delay
decomposes into per-link latencies plus ``k * Q(h)`` queue terms.  The
decision audit can say how good the *final* estimate was; this module says
*where along the causal path* the measured time went.  Three lifecycles are
instrumented as traces (Dapper-style: a trace is a tree of spans, each span
a named ``[start, end]`` interval in sim time with attributes):

* **tasks** — device submit -> scheduler decision -> network transfer ->
  server queue wait -> execution -> result return;
* **probes** — emit -> per-hop INT stamping (reusing
  :class:`~repro.simnet.trace.PacketTracer` hop events) -> collector ingest;
* **scheduler decisions** — child spans of the task trace carrying the
  telemetry snapshot age per hop of the chosen path.

Spans are assembled *after* the run from timestamps staged by tiny live
hooks (the same pattern as the harness's task-lifecycle mirroring), so the
hot path pays one dict write per hook and the simulation's event order is
never perturbed.  The wire format is the ``repro.obs.export`` JSONL format
with ``kind: "span"``; :func:`write_chrome_trace` converts an export to
Chrome trace-event JSON loadable in Perfetto, and
:func:`render_trace_report` is the trace section of ``repro report``: the
critical-path decomposition against the Algorithm-1 estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.export import _fmt_ms, _run_key, _run_title
from repro.simnet.trace import PacketTracer

__all__ = [
    "SampledProbeTracer",
    "Span",
    "SpanTracer",
    "SEGMENT_NAMES",
    "task_segments",
    "render_trace_report",
    "write_chrome_trace",
]

# The critical-path segments of one completed task, in causal order.  They
# are contiguous by construction — each segment starts where the previous
# one ends — so their sum telescopes to the measured end-to-end delay.
SEGMENT_NAMES = (
    "scheduling",      # submit -> ranked response at the device
    "transfer",        # ranked response -> task data fully at the server
    "server_queue",    # arrival -> execution start (run-queue wait)
    "execute",         # execution start -> end
    "result_return",   # execution end -> result back at the device
)

DEFAULT_MAX_SPANS = 100_000
# Probe traces are sampled by sequence number: per-hop tracing of every
# probe at mesh rates would dominate the span buffer without adding
# information (probes on one path are interchangeable).
DEFAULT_PROBE_SAMPLE = 25


def _finite(value: Any) -> Any:
    """JSON-safe numbers: canonical_json rejects NaN/inf, so unreachable-path
    estimates (math.inf) become None on the wire."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class SampledProbeTracer(PacketTracer):
    """Hop events of every ``sample``-th probe, by sequence number — the
    probes :meth:`SpanTracer.wants_probe` selects.  A probe-class observer
    that declares its stride, so the nodes it watches run the sampling test
    themselves and call the hook for the one probe in ``sample`` it keeps;
    ``record`` repeats the test for anyone who calls it directly."""

    def __init__(self, nodes: Iterable[Any], sample: int) -> None:
        self.probe_stride = sample
        super().__init__(nodes, probes_only=True)

    def record(self, node: Any, kind: str, packet: Any, enq_depth=None) -> None:
        if (packet.seq - 1) % self.probe_stride == 0:
            super().record(node, kind, packet, enq_depth)


@dataclass(frozen=True)
class Span:
    """One named interval in a trace: ``[start, end]`` in sim seconds."""

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
        }


class SpanTracer:
    """Stages live timestamps during a run, assembles spans afterwards.

    Live hooks (``task_request``, ``decision_query``, ``decision``,
    ``task_server_event``, ``probe_sent``, ``probe_ingested``) are one dict
    write each; :meth:`assemble` turns the staged state plus the task
    records and the attached :class:`~repro.simnet.trace.PacketTracer` into
    the span tree.  Span ids are sequential per tracer, so a run's trace
    export is a pure function of the simulation (deterministic across
    serial / parallel / cached executions).
    """

    def __init__(
        self,
        *,
        probe_sample: int = DEFAULT_PROBE_SAMPLE,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        if probe_sample < 1:
            raise ValueError("probe_sample must be >= 1")
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.probe_sample = probe_sample
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped_spans = 0
        self._next_span_id = 1
        self._clock: Callable[[], float] = lambda: 0.0
        # Staged live state, keyed for deterministic post-run assembly.
        self._task_requests: Dict[int, int] = {}           # task_id -> request_id
        self._decisions: Dict[int, Dict[str, Any]] = {}    # request_id -> staged
        self._server_events: Dict[int, List[Tuple[str, float, int]]] = {}
        self._probes: Dict[Tuple[int, int, int], Dict[str, Any]] = {}
        # PacketTracer over the probe-sampled packets (see trace_packets);
        # supplies the per-hop INT stamping events.
        self.packet_tracer: Optional[Any] = None
        self._assembled = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def __len__(self) -> int:
        return len(self.spans)

    # -- live hooks (hot path: one guard + one dict write) -------------------

    def wants_probe(self, seq: int) -> bool:
        """Deterministic probe sampling by sequence number (seq starts at 1,
        so the very first probe of a run is always traced)."""
        return (seq - 1) % self.probe_sample == 0

    def trace_packets(self, nodes: Iterable[Any]) -> None:
        """Attach a packet tracer over exactly the sampled probes to
        ``nodes``; its hop events become the probe traces' hop spans."""
        self.packet_tracer = SampledProbeTracer(nodes, self.probe_sample)

    def probe_sent(self, *, src: int, dst: int, seq: int, packet_id: int) -> None:
        self._probes[(src, dst, seq)] = {
            "packet_id": packet_id,
            "sent_at": self._clock(),
            "ingested_at": None,
            "hops": None,
        }

    def probe_ingested(self, *, src: int, dst: int, seq: int, hops: int) -> None:
        staged = self._probes.get((src, dst, seq))
        if staged is not None and staged["ingested_at"] is None:
            staged["ingested_at"] = self._clock()
            staged["hops"] = hops

    def task_request(self, task_id: int, request_id: int) -> None:
        self._task_requests[task_id] = request_id

    def decision_query(self, request_id: int) -> None:
        self._decisions[request_id] = {"queried_at": self._clock()}

    def decision(self, request_id: int, **attributes: Any) -> None:
        staged = self._decisions.setdefault(
            request_id, {"queried_at": self._clock()}
        )
        staged["responded_at"] = self._clock()
        staged["attributes"] = {k: _finite(v) for k, v in attributes.items()}

    def task_server_event(
        self, task_id: int, event: str, *, server_addr: int
    ) -> None:
        self._server_events.setdefault(task_id, []).append(
            (event, self._clock(), server_addr)
        )

    # -- span recording ------------------------------------------------------

    def record_span(
        self,
        trace_id: str,
        name: str,
        start: float,
        end: float,
        *,
        parent_id: Optional[int] = None,
        **attributes: Any,
    ) -> Optional[int]:
        """Append one span; returns its id, or None when the buffer is full
        (overflow is counted, never silent)."""
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return None
        span_id = self._next_span_id
        self._next_span_id += 1
        self.spans.append(
            Span(
                trace_id=trace_id,
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                start=start,
                end=end,
                attributes={k: _finite(v) for k, v in attributes.items()},
            )
        )
        return span_id

    # -- post-run assembly -----------------------------------------------------

    def assemble(self, task_records: List[Any]) -> None:
        """Build the span trees from the staged state.  ``task_records`` is
        the run's :class:`~repro.edge.metrics.TaskRecord` list in submission
        order; probe traces come after task traces, in sorted key order, so
        the export is deterministic."""
        if self._assembled:
            return
        self._assembled = True
        hop_index: Dict[int, List[Any]] = {}
        if self.packet_tracer is not None:
            for event in self.packet_tracer.events:
                if event.kind != "truncated":
                    hop_index.setdefault(event.packet_id, []).append(event)
        for record in task_records:
            self._assemble_task(record)
        for key in sorted(self._probes):
            self._assemble_probe(key, hop_index)

    def _assemble_task(self, record: Any) -> None:
        trace_id = f"task-{record.task_id}"
        events = self._server_events.get(record.task_id, [])
        # Retried tasks may leave events from several servers; score the
        # attempt the record settled on when it is represented at all.
        matching = [e for e in events if e[2] == record.server_addr]
        if matching:
            events = matching

        def last(name: str) -> Optional[float]:
            times = [t for e, t, _addr in events if e == name]
            return times[-1] if times else None

        arrived = last("arrived")
        exec_start = last("exec_start")
        exec_end = last("exec_end")
        result_sent = last("result_sent")

        submitted = record.submitted_at
        ranked = record.ranking_received_at
        end = record.result_received_at
        if end is None:
            # Failed / unfinished: close the root at the last known instant.
            candidates = [submitted, ranked, record.transfer_completed,
                          arrived, exec_start, exec_end, result_sent]
            end = max(t for t in candidates if t is not None)

        segments = task_segments(
            record, arrived=arrived, exec_start=exec_start, exec_end=exec_end
        )
        root = self.record_span(
            trace_id, "task", submitted, end,
            task_id=record.task_id,
            job_id=record.job_id,
            device=record.device,
            server_addr=record.server_addr,
            size_class=record.size_class.label,
            data_bytes=record.data_bytes,
            failed=record.failed,
            end_to_end=(end - submitted) if record.result_received_at is not None else None,
            segments=segments,
        )
        if root is None:
            return
        if ranked is not None:
            scheduling = self.record_span(
                trace_id, "scheduling", submitted, ranked, parent_id=root
            )
            self._assemble_decision(trace_id, record.task_id, scheduling)
            transfer_end = arrived if arrived is not None else record.transfer_completed
            if transfer_end is not None and scheduling is not None:
                self.record_span(
                    trace_id, "transfer", ranked, transfer_end, parent_id=root,
                    retransmissions=record.retransmissions,
                    device_ack_at=record.transfer_completed,
                )
        if arrived is not None and exec_start is not None:
            self.record_span(
                trace_id, "server_queue", arrived, exec_start, parent_id=root
            )
        if exec_start is not None and exec_end is not None:
            self.record_span(
                trace_id, "execute", exec_start, exec_end, parent_id=root,
                nominal_exec_time=record.exec_time,
            )
        if exec_end is not None and record.result_received_at is not None:
            self.record_span(
                trace_id, "result_return", exec_end, record.result_received_at,
                parent_id=root, result_sent_at=result_sent,
            )

    def _assemble_decision(
        self, trace_id: str, task_id: int, parent_id: Optional[int]
    ) -> None:
        request_id = self._task_requests.get(task_id)
        if request_id is None:
            return
        staged = self._decisions.get(request_id)
        if staged is None or "responded_at" not in staged:
            return
        self.record_span(
            trace_id, "scheduler_decision",
            staged["queried_at"], staged["responded_at"],
            parent_id=parent_id,
            request_id=request_id,
            **staged.get("attributes", {}),
        )

    def _assemble_probe(
        self, key: Tuple[int, int, int], hop_index: Dict[int, List[Any]]
    ) -> None:
        src, dst, seq = key
        staged = self._probes[key]
        trace_id = f"probe-{src}-{dst}-{seq}"
        hops = hop_index.get(staged["packet_id"], [])
        ingested = staged["ingested_at"]
        sent = staged["sent_at"]
        end = ingested
        if end is None:
            end = hops[-1].time if hops else sent
        root = self.record_span(
            trace_id, "probe", sent, end,
            src=src, dst=dst, seq=seq,
            packet_id=staged["packet_id"],
            lost=ingested is None,
        )
        if root is None:
            return
        # One child span per node visited, in visit order: the INT stamping
        # path.  A node's span covers its first to last sighting (ingress,
        # egress, or drop) of the probe packet.
        per_node: Dict[str, List[Any]] = {}
        order: List[str] = []
        for event in hops:
            if event.node not in per_node:
                order.append(event.node)
            per_node.setdefault(event.node, []).append(event)
        for node in order:
            events = per_node[node]
            depths = [e.enq_depth for e in events if e.enq_depth is not None]
            self.record_span(
                trace_id, "hop", events[0].time, events[-1].time,
                parent_id=root,
                node=node,
                dropped=any(e.kind == "drop" for e in events),
                enq_depth=max(depths) if depths else None,
            )
        if ingested is not None:
            self.record_span(
                trace_id, "collect", ingested, ingested, parent_id=root,
                hops_applied=staged["hops"],
            )

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> List[Dict[str, Any]]:
        return [span.snapshot() for span in self.spans]


def task_segments(
    record: Any,
    *,
    arrived: Optional[float],
    exec_start: Optional[float],
    exec_end: Optional[float],
) -> Optional[Dict[str, float]]:
    """The critical-path decomposition of one completed task, or None when
    any boundary is missing.  Segments are defined boundary-to-boundary, so
    ``sum(segments.values()) == record.completion_time`` exactly (up to
    float addition order) — the acceptance invariant the tests assert."""
    end = record.result_received_at
    ranked = record.ranking_received_at
    if record.failed or end is None or ranked is None:
        return None
    if arrived is None or exec_start is None or exec_end is None:
        return None
    boundaries = [record.submitted_at, ranked, arrived, exec_start, exec_end, end]
    if any(b > a for b, a in zip(boundaries, boundaries[1:])):
        return None  # out-of-order attempt timelines (overlapping retries)
    return {
        "scheduling": ranked - record.submitted_at,
        "transfer": arrived - ranked,
        "server_queue": exec_start - arrived,
        "execute": exec_end - exec_start,
        "result_return": end - exec_end,
    }


# -- trace section of ``repro report`` ---------------------------------------


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def render_trace_report(records: List[Dict[str, Any]]) -> str:
    """Human-readable summary of a ``--trace-out`` export: per run, the
    critical-path decomposition of completed tasks next to the Algorithm-1
    estimate the scheduler acted on."""
    spans = [r for r in records if r.get("kind") == "span"]
    if not spans:
        return "no span records found (was the file written via --trace-out?)"
    traces = {s["trace_id"] for s in spans}
    task_traces = {t for t in traces if t.startswith("task-")}
    lines = [
        f"spans: {len(spans)} across {len(traces)} traces "
        f"({len(task_traces)} task, {len(traces) - len(task_traces)} probe)"
    ]
    runs: Dict[Tuple[Tuple[str, Any], ...], List[Dict[str, Any]]] = {}
    for span in spans:
        runs.setdefault(_run_key(span), []).append(span)
    for key in sorted(runs):
        group = runs[key]
        tasks = [s for s in group if s["name"] == "task"]
        probes = [s for s in group if s["name"] == "probe"]
        decomposed = [
            s for s in tasks if s.get("attributes", {}).get("segments")
        ]
        lines.append(
            f"  {_run_title(key)}: {len(tasks)} task traces "
            f"({len(decomposed)} decomposed), {len(probes)} probe traces"
        )
        if decomposed:
            e2e = [s["attributes"]["end_to_end"] for s in decomposed]
            mean_e2e = _mean(e2e)
            lines.append(
                f"    critical path (mean over {len(decomposed)} tasks, "
                f"end-to-end {_fmt_ms(mean_e2e)}):"
            )
            seg_means = {}
            for name in SEGMENT_NAMES:
                seg_means[name] = _mean(
                    [s["attributes"]["segments"][name] for s in decomposed]
                )
                share = 100.0 * seg_means[name] / mean_e2e if mean_e2e else 0.0
                lines.append(
                    f"      {name:<14} {_fmt_ms(seg_means[name]):>12}  ({share:5.1f}%)"
                )
            residual = max(
                abs(sum(s["attributes"]["segments"].values())
                    - s["attributes"]["end_to_end"])
                for s in decomposed
            )
            lines.append(
                f"      segment sum vs measured end-to-end: "
                f"max residual {residual * 1e3:.6f} ms"
            )
        decisions = [s for s in group if s["name"] == "scheduler_decision"]
        estimates = [
            s["attributes"]["estimated_delay"]
            for s in decisions
            if s.get("attributes", {}).get("estimated_delay") is not None
        ]
        if estimates:
            # Algorithm 1 estimates the one-way network path delay; the
            # measured counterparts are the transfer / result-return legs.
            line = (
                f"    Algorithm-1 estimate (sum link delay + k*Q(h)): "
                f"mean {_fmt_ms(_mean(estimates))} over {len(estimates)} decisions"
            )
            if decomposed:
                line += (
                    f" vs measured transfer {_fmt_ms(seg_means['transfer'])}, "
                    f"result return {_fmt_ms(seg_means['result_return'])}"
                )
            lines.append(line)
        ages = [
            s["attributes"]["telemetry_age_max"]
            for s in decisions
            if s.get("attributes", {}).get("telemetry_age_max") is not None
        ]
        if ages:
            lines.append(
                f"    telemetry snapshot age at decision: mean "
                f"{_fmt_ms(_mean(ages))}, max {_fmt_ms(max(ages))}"
            )
        lost = [p for p in probes if p.get("attributes", {}).get("lost")]
        if probes:
            flight = [
                p["end"] - p["start"]
                for p in probes
                if not p.get("attributes", {}).get("lost")
            ]
            detail = f"mean flight {_fmt_ms(_mean(flight))}" if flight else "none delivered"
            lines.append(
                f"    probes (sampled): {len(probes)} traced, "
                f"{len(lost)} lost, {detail}"
            )
    return "\n".join(lines)


# -- Chrome trace-event export ------------------------------------------------


def write_chrome_trace(records: List[Dict[str, Any]], path: str) -> int:
    """Convert a span export to Chrome trace-event JSON (the ``{"traceEvents":
    [...]}`` object form) loadable in Perfetto or chrome://tracing.  Runs map
    to processes, traces to threads, spans to complete ("X") events with
    sim-time microseconds.  Returns the number of span events written."""
    spans = [r for r in records if r.get("kind") == "span"]
    spans.sort(key=lambda s: (_run_key(s), s["trace_id"], s["span_id"]))
    events: List[Dict[str, Any]] = []
    pids: Dict[Tuple[Tuple[str, Any], ...], int] = {}
    tids: Dict[Tuple[int, str], int] = {}
    n = 0
    for span in spans:
        key = _run_key(span)
        pid = pids.get(key)
        if pid is None:
            pid = len(pids) + 1
            pids[key] = pid
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": _run_title(key)},
            })
        tkey = (pid, span["trace_id"])
        tid = tids.get(tkey)
        if tid is None:
            tid = sum(1 for p, _t in tids if p == pid) + 1
            tids[tkey] = tid
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": span["trace_id"]},
            })
        args = dict(span.get("attributes", {}))
        args["span_id"] = span["span_id"]
        if span.get("parent_id") is not None:
            args["parent_id"] = span["parent_id"]
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": span["trace_id"].split("-", 1)[0],
            "ts": round(span["start"] * 1e6, 3),
            "dur": round(max(0.0, span["end"] - span["start"]) * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": args,
        })
        n += 1
    with open(path, "w") as fh:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            fh, sort_keys=True, separators=(",", ":"),
        )
        fh.write("\n")
    return n
