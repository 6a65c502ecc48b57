"""Property: the sentinel run loop dispatches exactly as the per-event-test
loop it replaced.

``Simulator.run`` ends a window on a sentinel heap entry (``until``, or a
``stop()``) instead of testing the heap top and a stop flag per event.  :class:`PeekingSimulator` keeps that earlier loop, test-local, as
the reference.  Random programs run on both — and on the profiled loop —
and must agree on the dispatch order, and on ``now``, ``events_executed``
and ``pending_events()`` read from inside every handler (a sentinel is not
an event) and after every call.  Programs put events at exactly ``until``
and schedule more there from inside the run, stop with followers at the
same instant (twice in one handler, too), cancel enough far-future handles
from a handler to compact the heap mid-run, raise from a handler, and run
back-to-back ``run(until)`` windows.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simnet.engine import EngineProfiler, Simulator

_INF = float("inf")
GRID = 0.25                 # event instants and window edges share one grid
BURST = 80                  # far-future handles; cancelling them compacts


class PeekingSimulator(Simulator):
    """The reference: one heap-top peek and one stop-flag test per event,
    no sentinel entries, and a heap scan before the clock jumps to
    ``until``."""

    def stop(self):
        self._stop_requested = True

    def pending_events(self):
        return len(self._heap) - self._tombstones

    def run(self, until=None):
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stop_requested = False
        limit = _INF if until is None else until
        heap = self._heap
        try:
            while heap and not self._stop_requested:
                if heap[0][0] > limit:
                    break
                time, _seq, handle, fn, args = heapq.heappop(heap)
                if handle is not None:
                    if handle.cancelled:
                        self._tombstones -= 1
                        continue
                    handle.fired = True
                self._now = time
                self._dispatched += 1
                fn(*args)
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stop_requested:
            if not any(
                t <= until and (h is None or not h.cancelled)
                for t, _s, h, _f, _a in heap
            ):
                self._now = until


class Boom(Exception):
    pass


ACTIONS = ("stop", "stop_twice", "at_until", "follower", "later", "cancel_burst", "raise")

event = st.tuples(
    st.integers(0, 12),                                     # instant, in GRID units
    st.lists(st.sampled_from(ACTIONS), max_size=3),
    st.booleans(),                                          # handle (schedule) or post
)
call = st.one_of(st.none(), st.integers(0, 14))            # until, in GRID units


def drive(sim, events, calls):
    """Run the program on ``sim``; return everything it observed."""
    log = []
    window = {"until": None}
    burst = [sim.schedule_at(1000.0 + i, log.append, ("burst", i)) for i in range(BURST)]

    def seen(label):
        log.append((label, sim.now, sim.events_executed, sim.pending_events()))

    def child(label):
        seen(label)

    def fire(label, actions):
        seen(label)
        for k, action in enumerate(actions):
            tag = f"{label}/{k}"
            if action == "stop":
                sim.stop()
            elif action == "stop_twice":
                sim.stop()
                sim.stop()
            elif action == "at_until":
                until = window["until"]
                if until is not None and until >= sim.now:
                    sim.schedule_at(until, child, tag)
            elif action == "follower":
                sim.post(0.0, child, tag)
            elif action == "later":
                sim.schedule(GRID, child, tag)
            elif action == "cancel_burst":
                for handle in burst:
                    if not handle.cancelled and not handle.fired:
                        sim.cancel(handle)
            else:
                raise Boom(tag)
        seen(f"{label}/end")

    for i, (slot, actions, handled) in enumerate(events):
        if handled:
            sim.schedule_at(slot * GRID, fire, f"e{i}", actions)
        else:
            sim.post(slot * GRID, fire, f"e{i}", actions)

    for until in calls:
        window["until"] = None if until is None else until * GRID
        try:
            sim.run(until=window["until"])
            outcome = "returned"
        except Boom as exc:
            outcome = f"raised {exc}"
        log.append(("run", outcome, sim.now, sim.events_executed, sim.pending_events()))
    return log


def _profiled():
    sim = Simulator()
    sim.profiler = EngineProfiler()
    return sim


@given(events=st.lists(event, max_size=14), calls=st.lists(call, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_run_loop_equals_the_peeking_loop(events, calls):
    reference = drive(PeekingSimulator(), events, calls)
    assert drive(Simulator(), events, calls) == reference
    assert drive(_profiled(), events, calls) == reference


def test_the_property_reaches_the_cases_it_names():
    """One fixed program, so the generator's reach is not taken on faith:
    an event at the window edge and one scheduled there from inside the
    run both fire in that window, a double stop leaves its same-instant
    follower for the next call, a mid-run cancel compacts the heap, a
    raise ends its call early, and back-to-back windows move the clock
    edge to edge on the plain and the profiled loop alike."""
    events = [
        (4, ["at_until", "cancel_burst"], True),
        (8, [], False),                         # exactly at the first edge
        (9, ["follower", "stop_twice"], True),
        (10, ["raise"], False),
        (11, [], True),
        (11, ["later"], True),
    ]
    calls = [8, None, 10, 12, 14]
    compactions = []

    class Counting(Simulator):
        def _compact(self):
            compactions.append(len(self._heap))
            super()._compact()

    log = drive(Counting(), events, calls)
    assert log == drive(PeekingSimulator(), events, calls)
    assert log == drive(_profiled(), events, calls)
    assert [entry[0] for entry in log] == [
        "e0", "e0/end", "e1", "e1/end", "e0/0", "run",  # e0/0 came at the edge
        "e2", "e2/end", "run",                          # stopped before e2/0
        "e2/0", "e3", "run",                            # raised
        "e4", "e4/end", "e5", "e5/end", "e5/0", "run",  # e5/0 came at the edge
        "run",                                          # an empty window
    ]
    calls_out = [entry for entry in log if entry[0] == "run"]
    assert [c[1] for c in calls_out] == [
        "returned", "returned", "raised e3/0", "returned", "returned",
    ]
    assert [c[2] for c in calls_out] == [2.0, 2.25, 2.5, 3.0, 3.5]
    assert compactions                                  # mid-run, from e0
