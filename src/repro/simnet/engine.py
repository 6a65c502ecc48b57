"""Discrete-event simulation core.

A deliberately small engine in the style of ns-3's scheduler: a binary heap
of ``(time, sequence, callback)`` entries.  Callbacks run at their scheduled
simulated time; ties are broken by insertion order so the simulation is fully
deterministic for a given seed.

The engine is callback-based rather than coroutine-based: profiling of early
prototypes showed the callback form is ~3x faster in CPython for the millions
of per-packet events the Fig. 5–9 experiments generate, and the network
stack's state machines (queues, transports) are naturally event-driven.
"""

from __future__ import annotations

import heapq
import time as _walltime
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = [
    "EventHandle",
    "Simulator",
    "PeriodicTimer",
    "EngineProfiler",
    "render_profile",
    "phase_coverage",
]

_perf_counter = _walltime.perf_counter
_INF = float("inf")

# Calibration repeats behind each overhead estimate; prices are the minimum.
_CALIBRATION_REPEATS = 5

# Heap entries are plain (time, seq, handle, fn, args) tuples: tuple
# comparison runs in C and the seq tiebreaker guarantees the later fields are
# never compared.  The callback and its arguments live in the tuple itself so
# the hot loop never touches handle attributes — and fire-and-forget events
# posted via :meth:`Simulator.post` carry ``None`` in the handle slot,
# skipping the ``EventHandle`` allocation entirely.  A sentinel (see
# :meth:`Simulator.run`) carries ``None`` in the callback slot too.
_HeapEntry = Tuple[float, int, Optional["EventHandle"], Callable[..., Any], tuple]


class EventHandle:
    """Handle to a scheduled event, usable for cancellation.

    Cancellation is lazy: the heap entry stays in the queue and is discarded
    when popped, which keeps ``cancel`` O(1).
    """

    __slots__ = ("time", "fn", "args", "cancelled", "fired")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<EventHandle t={self.time:.6f} {name} [{state}]>"


class EngineProfiler:
    """Hot-path profile of one simulation: per-event-type counts and handler
    wall-time, plus the event-queue high-water mark.

    Event types are handler qualnames (``PortQueue._dequeue`` etc.), so the
    profile maps directly onto the code to optimize.  Wall-times are real
    (``perf_counter``) and therefore nondeterministic — the runner keeps the
    summary in the result *provenance*, never in the cached payload, so
    profiled runs stay byte-identical across serial / parallel / cached.

    **Phase scopes.**  Handlers are coarse: ``Switch.on_ingress`` is one
    number covering routing lookup, the P4 pipeline, and the egress enqueue.
    Instrumented components open nested *phase scopes* inside the running
    handler via :meth:`phase_begin` / :meth:`phase_next` / :meth:`phase_end`;
    each scope accumulates under a semicolon-joined path rooted at the
    handler qualname (``Switch.on_ingress;p4_pipeline;routing``) — the
    collapsed-stack form flamegraph tooling consumes directly.  Paths are
    interned in a two-level ``parent -> name -> path`` table, so steady state
    is two dict lookups on cached string hashes (no key tuple built per
    scope), one clock read per edge, and one small-dict update per scope.
    Scopes must balance within a handler; the engine resets the path between
    events so an unbalanced scope cannot leak across events.

    The profiler also self-reports an *overhead estimate*: per-scope and
    per-event accounting costs are measured by a short calibration loop at
    summary time and multiplied out, so every profile carries an honest
    bound on how much of its wall time is the profiler itself.
    """

    __slots__ = (
        "by_type",
        "events_total",
        "queue_high_water",
        "wall_s",
        "phases",
        "phase_firsts",
        "phase_nexts",
        "memory",
        "_stack",
        "_path",
        "_paths",
        "_t0",
    )

    def __init__(self) -> None:
        # name -> [count, wall_seconds]; a mutable list keeps the per-event
        # update to one dict lookup + two inplace adds.
        self.by_type: Dict[str, List[float]] = {}
        self.events_total = 0
        self.queue_high_water = 0
        self.wall_s = 0.0
        # path -> [count, wall_seconds] for phase scopes, path rooted at the
        # handler qualname the scope ran under.
        self.phases: Dict[str, List[float]] = {}
        # Scope-opening style counters, for the overhead model: phase_first
        # opens cost no clock read, phase_next opens share the close's read.
        # (Total scope count is derived from `phases` at summary time.)
        self.phase_firsts = 0
        self.phase_nexts = 0
        # Memory attribution (gc / tracemalloc), attached by the runner's
        # MemoryCapture when enabled; rides into the summary untouched.
        self.memory: Optional[Dict[str, Any]] = None
        # Scope state: parent paths + start times, current path, and the
        # parent -> name -> path intern table.
        self._stack: List[Tuple[str, float]] = []
        self._path = ""
        self._paths: Dict[str, Dict[str, str]] = {}
        # Wall-clock timestamp of the running event's start, stamped by the
        # engine loop; lets phase_first open the first scope of a handler
        # with zero extra clock reads.
        self._t0 = 0.0

    # -- phase scopes ------------------------------------------------------

    def _intern(self, parent: str, name: str) -> str:
        """Join, record and return the path of scope ``name`` under
        ``parent`` (the intern table's miss path)."""
        path = f"{parent};{name}" if parent else name
        self._paths.setdefault(parent, {})[name] = path
        return path

    def phase_begin(self, name: str) -> None:
        """Open a phase scope named ``name`` under the current path."""
        parent = self._path
        try:
            path = self._paths[parent][name]
        except KeyError:
            path = self._intern(parent, name)
        self._stack.append((parent, _perf_counter()))
        self._path = path

    def phase_first(self, name: str) -> None:
        """Open the *first* scope of a handler, backdated to the handler's
        own start time (stamped by the engine loop).  Costs no clock read,
        and the handler's entry bookkeeping lands inside the scope instead
        of leaking into unattributed self-time — this is what keeps phase
        coverage of the hot handlers near 1.0.  Falls back to
        :meth:`phase_begin` semantics when scopes are already open (the
        handler was called from inside another instrumented path)."""
        parent = self._path
        try:
            path = self._paths[parent][name]
        except KeyError:
            path = self._intern(parent, name)
        if self._stack:
            start = _perf_counter()
        else:
            start = self._t0
            self.phase_firsts += 1
        self._stack.append((parent, start))
        self._path = path

    def phase_end(self) -> None:
        """Close the innermost open phase scope.  The record lookup, the
        count and the stack pop happen before the closing clock read, inside
        the span it records, so only the time add after the read falls
        outside phase coverage."""
        path = self._path
        entry = self.phases.get(path)
        if entry is None:
            entry = self.phases[path] = [0, 0.0]
        entry[0] += 1
        self._path, start = self._stack.pop()
        entry[1] += _perf_counter() - start

    def phase_next(self, name: str) -> None:
        """Close the current scope and open a sibling named ``name`` with a
        single clock read — the cheap transition for sequential phases.
        Looks the record up before the read, as :meth:`phase_end` does."""
        entry = self.phases.get(self._path)
        t = _perf_counter()
        parent, start = self._stack[-1]
        if entry is None:
            self.phases[self._path] = [1, t - start]
        else:
            entry[0] += 1
            entry[1] += t - start
        self.phase_nexts += 1
        try:
            path = self._paths[parent][name]
        except KeyError:
            path = self._intern(parent, name)
        self._stack[-1] = (parent, t)
        self._path = path

    def _enter_event(self, handler_name: str) -> None:
        """Root the phase path at the running handler (engine loop only)."""
        self._path = handler_name

    def _exit_event(self) -> None:
        if self._stack:
            # A handler raised (or forgot phase_end) with scopes open:
            # drop them so the imbalance cannot leak into the next event.
            self._stack.clear()
        self._path = ""

    # -- overhead self-measurement ----------------------------------------

    @staticmethod
    def _calibrate(iterations: int = 2000) -> Tuple[float, float, float]:
        """Measure the profiler's per-operation costs on this machine with a
        throwaway profiler: (seconds per clock read, seconds per scope
        record, seconds per event accounting), each with the bare loop
        iteration cost subtracted.  Called at summary time; the result is
        real wall-time and nondeterministic by design."""
        # Bare loop baseline, subtracted from every per-op measurement so
        # the model charges the profiler for its own work — calls included —
        # but not the calibration loop's own iteration cost.
        t0 = _perf_counter()
        for _ in range(iterations):
            pass
        baseline = (_perf_counter() - t0) / iterations

        t0 = _perf_counter()
        for _ in range(iterations):
            _perf_counter()
        per_read = max((_perf_counter() - t0) / iterations - baseline, 0.0)

        # A begin/end pair costs two clock reads plus the stack push/pop and
        # the phases-dict record; isolate the non-clock part.
        scratch = EngineProfiler()
        scratch._enter_event("calibration")
        t0 = _perf_counter()
        for _ in range(iterations):
            scratch.phase_begin("a")
            scratch.phase_end()
        per_pair_full = (_perf_counter() - t0) / iterations - baseline
        per_record = max(per_pair_full - 2.0 * per_read, 0.0)

        # Per-event accounting: a qualname lookup, the path and start-time
        # stores, two clock reads, the open-scope test and one small-dict
        # update — the _run_profiled bookkeeping around fn(*args).
        by_type = scratch.by_type
        fn = scratch.summary
        t0 = _perf_counter()
        for _ in range(iterations):
            name = getattr(fn, "__qualname__", None) or repr(fn)
            scratch._path = name
            ts = _perf_counter()
            scratch._t0 = ts
            elapsed = _perf_counter() - ts
            if scratch._stack:
                scratch._exit_event()
            stats = by_type.get(name)
            if stats is None:
                by_type[name] = [1, elapsed]
            else:
                stats[0] += 1
                stats[1] += elapsed
        per_event = max((_perf_counter() - t0) / iterations - baseline, 0.0)
        return per_read, per_record, per_event

    def overhead_estimate(self) -> Dict[str, Any]:
        """Self-measured accounting cost: per-op prices from a calibration
        loop, multiplied by exact op counts.  Every recorded scope is one
        record; clock reads depend on how scopes were opened — begin/end
        pairs read twice, a phase_next shares one read between close and
        open, and a phase_first open reads nothing.  Each price is the
        minimum over several calibration repeats (the ``timeit``
        convention): a repeat can only be slowed by the machine, never sped
        up, so the minimum is the stable reading."""
        per_read, per_record, per_event = (
            min(prices)
            for prices in zip(*(self._calibrate() for _ in range(_CALIBRATION_REPEATS)))
        )
        pairs = sum(int(entry[0]) for entry in self.phases.values())
        reads = max(2 * pairs - self.phase_firsts - self.phase_nexts, 0)
        # Per-event accounting is paid per dispatch; events_total also
        # counts completions that never became an event (see Simulator.run).
        dispatched = sum(int(stats[0]) for stats in self.by_type.values())
        total = (
            reads * per_read
            + pairs * per_record
            + dispatched * per_event
        )
        return {
            "phase_pairs": pairs,
            "clock_reads": reads,
            "per_read_s": per_read,
            "per_record_s": per_record,
            "per_event_s": per_event,
            "total_s": total,
            "fraction_of_wall": (total / self.wall_s) if self.wall_s else 0.0,
        }

    def summary(self) -> Dict[str, Any]:
        out = {
            "events_total": self.events_total,
            "queue_high_water": self.queue_high_water,
            "wall_s": self.wall_s,
            "by_type": {
                name: {"count": int(count), "wall_s": wall}
                for name, (count, wall) in sorted(self.by_type.items())
            },
            "phases": {
                path: {"count": int(count), "wall_s": wall}
                for path, (count, wall) in sorted(self.phases.items())
            },
            "overhead": self.overhead_estimate(),
            "memory": self.memory,
        }
        out["phase_coverage"] = phase_coverage(out)
        return out


def phase_coverage(summary: Dict[str, Any]) -> Dict[str, float]:
    """Fraction of each handler's wall time attributed to its direct child
    phases (``sum(child inclusive) / handler inclusive``), for handlers that
    have at least one phase.  The nesting invariant makes each fraction
    ≤ 1.0 up to clock noise; values near 1.0 mean the phase taxonomy
    explains nearly all of the handler's cost."""
    phases = summary.get("phases") or {}
    children: Dict[str, float] = {}
    for path, stats in phases.items():
        head, sep, tail = path.partition(";")
        if sep and ";" not in tail:
            children[head] = children.get(head, 0.0) + float(stats["wall_s"])
    out: Dict[str, float] = {}
    for handler, covered in children.items():
        handler_stats = (summary.get("by_type") or {}).get(handler)
        if handler_stats and handler_stats.get("wall_s"):
            out[handler] = covered / float(handler_stats["wall_s"])
    return dict(sorted(out.items()))


def render_profile(summary: Dict[str, Any]) -> str:
    """Human-readable engine profile: top event types by handler wall-time,
    top phases, per-handler phase coverage, the self-measured profiler
    overhead, and (when captured) the memory attribution."""
    lines = [
        f"engine profile: {summary['events_total']} events, "
        f"queue high-water {summary['queue_high_water']}, "
        f"wall {summary['wall_s']:.3f} s"
    ]
    by_type = summary.get("by_type", {})
    top = sorted(by_type.items(), key=lambda kv: kv[1]["wall_s"], reverse=True)
    for name, stats in top[:12]:
        share = (
            100.0 * stats["wall_s"] / summary["wall_s"] if summary["wall_s"] else 0.0
        )
        lines.append(
            f"  {name:<44} {stats['count']:>9} events  "
            f"{stats['wall_s'] * 1e3:>9.1f} ms  ({share:4.1f}%)"
        )
    if len(top) > 12:
        lines.append(f"  ... and {len(top) - 12} more event types")

    phases = summary.get("phases") or {}
    if phases:
        lines.append("hot-path phases (inclusive wall time):")
        top_phases = sorted(
            phases.items(), key=lambda kv: kv[1]["wall_s"], reverse=True
        )
        for path, stats in top_phases[:16]:
            lines.append(
                f"  {path:<52} {stats['count']:>9}x  "
                f"{stats['wall_s'] * 1e3:>9.1f} ms"
            )
        if len(top_phases) > 16:
            lines.append(f"  ... and {len(top_phases) - 16} more phases")
    coverage = summary.get("phase_coverage") or {}
    if coverage:
        covered = ", ".join(
            f"{name} {100.0 * frac:.1f}%" for name, frac in coverage.items()
        )
        lines.append(f"phase coverage (child/handler wall): {covered}")
    overhead = summary.get("overhead")
    if overhead:
        lines.append(
            f"profiler overhead (self-measured): ~{overhead['total_s'] * 1e3:.1f} ms "
            f"({100.0 * overhead['fraction_of_wall']:.1f}% of profiled wall) "
            f"over {overhead['phase_pairs']} phase scopes"
        )
    memory = summary.get("memory")
    if memory:
        lines.append(
            f"memory: gc collections {memory.get('gc_collections', 0)}, "
            f"collected {memory.get('gc_collected', 0)} objects, "
            f"allocated-blocks delta {memory.get('allocated_blocks_delta', 0)}"
        )
        for site in (memory.get("tracemalloc") or {}).get("top", [])[:5]:
            lines.append(
                f"  alloc {site['size_kb']:>9.1f} KiB  {site['count']:>8} blocks  "
                f"{site['site']}"
            )
    return "\n".join(lines)


class Simulator:
    """Event queue with a simulated clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, print, "one second in")
        sim.run(until=10.0)

    Invariants:

    * :attr:`now` never decreases.
    * Events scheduled for the same time fire in scheduling order.
    * Events may only be scheduled at or after :attr:`now`.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[_HeapEntry] = []
        self._seq: int = 0
        self._running = False
        self._stop_requested = False
        # Cancelled entries still sitting in the heap.  Lazy cancellation
        # leaves tombstones until popped; when they outnumber the live
        # entries the heap is compacted in one O(n) rebuild.  Every other
        # entry is live, so pending_events() is one subtraction.
        self._tombstones: int = 0
        self.events_cancelled: int = 0
        # Observability hub (repro.obs.Observability) or None when disabled.
        # Instrumented components read this at call time and guard with one
        # truthy check, so a run without observability pays nothing else.
        self.obs: Optional[Any] = None
        # Fault injector (repro.faults.FaultInjector) or None.  Set by
        # FaultInjector.arm() — the same registered-on-the-engine convention
        # as `obs`, so any component can discover the active fault plan.
        self.faults: Optional[Any] = None
        # EngineProfiler or None.  run() dispatches to a separate profiled
        # loop when set, so the unprofiled hot loop stays untouched.
        self.profiler: Optional[EngineProfiler] = None
        # The ports whose elided transmit completions, and the sinks whose
        # booked arrivals, events_executed counts (see there).
        self._ports: List[Any] = []
        self._sinks: List[Any] = []
        # Window-edge and stop entries in the heap (see run()).
        self._sentinels = 0

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Events dispatched, plus one per transmit completion and one per
        sink arrival at or before ``now`` that never was an event: what one
        event per completion and per arrival would have counted, exact
        inside a handler too.

        No loop counts dispatches: every entry pushed and every arrival
        booked took a sequence number, so those dispatched or booked are
        the numbers taken less the live entries still queued and the
        cancelled ones.  The ports add their elided completions
        (``Port.completions_elided``); the sinks take back the arrivals
        booked for after now (``UdpSink.arrivals_in_flight``)."""
        live = len(self._heap) - self._sentinels - self._tombstones
        return (
            self._seq - live - self.events_cancelled
            + sum(port.completions_elided for port in self._ports)
            - sum(sink.arrivals_in_flight for sink in self._sinks)
        )

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.9f}s in the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f} before now={self._now:.9f}"
            )
        handle = EventHandle(time, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle, fn, args))
        return handle

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` seconds from now, fire-and-forget.

        The hot-path twin of :meth:`schedule`: no :class:`EventHandle` is
        allocated, so the event cannot be cancelled.  Per-packet machinery
        (NIC transmit completions, link propagation) never cancels its
        events, which makes this the zero-allocation scheduling path —
        one heap tuple per event and nothing else.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.9f}s in the past")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, None, fn, args))

    def reschedule(self, handle: EventHandle, delay: float) -> EventHandle:
        """Re-arm a handle that has already fired, reusing the object.

        This is the event-pool path for self-rescheduling machinery
        (periodic timers, CBR sources): the owner's own handle is its
        free-list of one.  Only a *fired* handle may be reused — a cancelled
        handle still has a tombstone entry in the heap, and resurrecting it
        would alias the new event with the stale entry (the tombstone would
        fire it early).  The guards below make that aliasing impossible.
        """
        if handle.cancelled:
            raise SimulationError("cannot reschedule a cancelled handle")
        if not handle.fired:
            raise SimulationError(
                "cannot reschedule a pending handle (cancel it and schedule anew)"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.9f}s in the past")
        time = self._now + delay
        handle.time = time
        handle.fired = False
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle, handle.fn, handle.args))
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event.  Cancelling twice or cancelling an event
        that already fired is an error — it almost always indicates a state
        machine bug in the caller."""
        if handle.fired:
            raise SimulationError("cannot cancel an event that already fired")
        if handle.cancelled:
            raise SimulationError("event already cancelled")
        handle.cancelled = True
        self.events_cancelled += 1
        self._tombstones += 1
        # Compact once tombstones dominate: routing/fault churn can cancel
        # far more events than the run ever pops, and each tombstone costs a
        # log(n) discard later.  One O(n) rebuild amortises to O(1) per
        # cancel and keeps the heap near its live size.
        if self._tombstones > 64 and self._tombstones * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap in one rebuild.

        Compacts *in place* (slice assignment, not rebinding): the run loops
        hold a local alias to the heap list, and a cancel fired from inside a
        handler must compact the list that alias points at.
        """
        live = [
            entry for entry in self._heap
            if entry[2] is None or not entry[2].cancelled
        ]
        self._heap[:] = live
        heapq.heapify(self._heap)
        self._tombstones = 0

    # -- execution --------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or ``until`` is reached.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so back-to-back ``run`` calls
        behave like contiguous wall-clock windows.

        The window edge is one sentinel entry, ``(until, inf, None, None,
        None)``: it sorts after every event at ``until``, those scheduled
        during the run included, and ends the loop when popped — as a
        :meth:`stop` entry ``(now, -1, ...)`` does before any other event at
        ``now``.  No ``until`` is an edge at infinity, so the loop tests
        neither the heap top nor a flag per event.  Sentinels left behind
        (a stop, a raising handler) are purged on return.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stop_requested = False
        profiler = self.profiler
        if profiler is not None:
            counted = self.events_executed
        heap = self._heap
        heapq.heappush(heap, (_INF if until is None else until, _INF, None, None, None))
        self._sentinels += 1
        try:
            if profiler is not None:
                executed = self._run_profiled()
            else:
                # Hot loop: the heap, its pop and the event's own fields are
                # locals; the clock is stored per event because handlers
                # read it.  Nothing counts dispatches (see events_executed).
                pop = heapq.heappop
                while True:
                    time, _seq, handle, fn, args = pop(heap)
                    if handle is not None:
                        if handle.cancelled:
                            self._tombstones -= 1
                            continue
                        handle.fired = True
                    elif fn is None:
                        break
                    self._now = time
                    fn(*args)
                self._sentinels -= 1
        finally:
            self._running = False
            if self._sentinels:
                heap[:] = [entry for entry in heap if entry[3] is not None]
                heapq.heapify(heap)
                self._sentinels = 0
        if until is not None and self._now < until and not self._stop_requested:
            # The window edge was popped, so every event at or before
            # ``until`` has run.
            self._now = until
        elif until is None and not self._stop_requested:
            # The heap drained; the last arrivals booked for a sink, if any,
            # are the run's last events.
            for sink in self._sinks:
                last = sink.last_booked()
                if last is not None and last > self._now:
                    self._now = last
        if profiler is not None:
            # The profiled loop counted its dispatches; add the credits.
            profiler.events_total += self.events_executed - counted - executed

    def _run_profiled(self) -> int:
        """The :meth:`run` loop with per-event profiling.  A separate copy so
        the unprofiled loop pays nothing; semantics are identical — the
        profiler observes, never perturbs, the event order."""
        profiler = self.profiler
        by_type = profiler.by_type
        heap = self._heap
        pop = heapq.heappop
        clock = _walltime.perf_counter
        executed = 0
        loop_start = clock()
        try:
            while True:
                time, _seq, handle, fn, args = pop(heap)
                if handle is None and fn is None:
                    self._sentinels -= 1
                    break
                # The queue length before the pop, sentinels not counted.
                depth = len(heap) + 1 - self._sentinels
                if depth > profiler.queue_high_water:
                    profiler.queue_high_water = depth
                if handle is not None:
                    if handle.cancelled:
                        self._tombstones -= 1
                        continue
                    handle.fired = True
                self._now = time
                name = getattr(fn, "__qualname__", None) or repr(fn)
                profiler._path = name
                t0 = clock()
                profiler._t0 = t0
                fn(*args)
                elapsed = clock() - t0
                if profiler._stack:
                    profiler._exit_event()
                stats = by_type.get(name)
                if stats is None:
                    by_type[name] = [1, elapsed]
                else:
                    stats[0] += 1
                    stats[1] += elapsed
                executed += 1
        finally:
            profiler._exit_event()
            profiler.events_total += executed
            profiler.wall_s += clock() - loop_start
        return executed

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event: a stop
        entry that sorts before every other event at ``now``."""
        if self._running:
            self._stop_requested = True
            self._sentinels += 1
            heapq.heappush(self._heap, (self._now, -1, None, None, None))

    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued, and of sink
        arrivals booked for after now (``UdpSink.arrivals_in_flight``):
        every heap entry but the tombstones and the sentinels is live."""
        return (
            len(self._heap) - self._tombstones - self._sentinels
            + sum(sink.arrivals_in_flight for sink in self._sinks)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self._now:.6f} pending={self.pending_events()} "
            f"executed={self.events_executed}>"
        )


class PeriodicTimer:
    """Fires a callback at a fixed period until stopped.

    Used by probe senders (100 ms INT collection), CBR traffic sources, and
    the ping application.  The first firing happens at ``start_delay`` after
    :meth:`start` (default: one full period).
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        fn: Callable[..., Any],
        *args: Any,
        start_delay: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"timer period must be positive, got {period}")
        self._sim = sim
        self.period = period
        self._fn = fn
        self._args = args
        # Cached label for the profiler's phase scope: attributes the 48K+
        # timer fires of a big run to the callbacks behind them.
        self._fn_label = getattr(fn, "__qualname__", None) or "callback"
        self._start_delay = period if start_delay is None else start_delay
        self._handle: Optional[EventHandle] = None
        self.fire_count = 0

    @property
    def running(self) -> bool:
        return self._handle is not None

    def start(self) -> None:
        if self._handle is not None:
            raise SimulationError("timer already started")
        self._handle = self._sim.schedule(self._start_delay, self._fire)

    def stop(self) -> None:
        if self._handle is not None:
            if not self._handle.fired:
                self._sim.cancel(self._handle)
            self._handle = None

    def _fire(self) -> None:
        self.fire_count += 1
        handle = self._handle
        if handle is not None and handle.fired and not handle.cancelled:
            # Self-rescheduling fast path: re-arm the handle that just fired
            # us instead of allocating a fresh handle + bound method per
            # period (48K+ fires in a big run).  The guard falls back to a
            # fresh schedule when _fire was invoked out-of-band (tests
            # driving the callback directly).
            self._sim.reschedule(handle, self.period)
        else:
            self._handle = self._sim.schedule(self.period, self._fire)
        prof = self._sim.profiler
        if prof is None:
            self._fn(*self._args)
            return
        prof.phase_begin(self._fn_label)
        self._fn(*self._args)
        prof.phase_end()
