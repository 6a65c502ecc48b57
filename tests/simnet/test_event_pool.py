"""Event-pool scheduling: post(), handle reuse via reschedule(), the O(1)
live-event count (heap size less tombstones), and tombstone compaction.

The fast-path engine has three scheduling tiers: ``schedule`` (allocates a
cancellable :class:`EventHandle`), ``post`` (fire-and-forget, no handle at
all), and ``reschedule`` (re-arms a *fired* handle in place — the event-pool
path self-rescheduling machinery like PeriodicTimer and CBR sources use).
The aliasing tests pin down the safety property: a handle can never be
reused while a stale heap entry could still fire it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simnet.engine import PeriodicTimer, Simulator


class TestPost:
    def test_post_fires_in_order(self, sim):
        log = []
        sim.post(2.0, log.append, "b")
        sim.post(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_post_ties_break_by_insertion_order(self, sim):
        log = []
        sim.post(1.0, log.append, "first")
        sim.schedule(1.0, log.append, "second")
        sim.post(1.0, log.append, "third")
        sim.run()
        assert log == ["first", "second", "third"]

    def test_post_in_past_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.post(-0.1, lambda: None)

    def test_post_counts_as_pending(self, sim):
        sim.post(1.0, lambda: None)
        sim.post(2.0, lambda: None)
        assert sim.pending_events() == 2
        sim.run()
        assert sim.pending_events() == 0

    def test_post_does_not_block_clock_jump(self, sim):
        sim.post(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        sim.run(until=20.0)
        assert sim.now == 20.0


class TestReschedule:
    def test_reschedule_reuses_the_same_object(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        again = sim.reschedule(handle, 1.0)
        assert again is handle
        assert not handle.fired
        sim.run()
        assert fired == ["x", "x"]
        assert handle.fired

    def test_reschedule_pending_handle_rejected(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.reschedule(handle, 2.0)

    def test_reschedule_cancelled_handle_rejected(self, sim):
        # A cancelled handle still has a tombstone in the heap; resurrecting
        # it would alias the new event with the stale entry.
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        with pytest.raises(SimulationError):
            sim.reschedule(handle, 2.0)

    def test_reschedule_negative_delay_rejected(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.reschedule(handle, -1.0)

    def test_rescheduled_handle_can_be_cancelled(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        sim.run()
        sim.reschedule(handle, 1.0)
        sim.cancel(handle)
        sim.run()
        assert fired == [1]

    def test_no_aliasing_across_cancel_and_fresh_schedule(self, sim):
        """A cancelled handle's tombstone must never fire a later event that
        happens to reuse the same callback."""
        fired = []
        stale = sim.schedule(1.0, fired.append, "stale")
        sim.cancel(stale)
        sim.schedule(1.0, fired.append, "fresh")
        sim.run()
        assert fired == ["fresh"]

    def test_periodic_timer_reuses_its_handle(self, sim):
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        timer.start()
        first = timer._handle
        sim.run(until=5.5)
        assert timer.fire_count == 5
        assert timer._handle is first  # event-pool reuse, not reallocation
        timer.stop()
        sim.run(until=10.0)
        assert timer.fire_count == 5


class TestLiveCounter:
    def test_pending_events_tracks_all_paths(self, sim):
        h1 = sim.schedule(1.0, lambda: None)
        sim.post(2.0, lambda: None)
        h3 = sim.schedule(3.0, lambda: None)
        assert sim.pending_events() == 3
        sim.cancel(h1)
        assert sim.pending_events() == 2
        sim.run(until=2.5)
        assert sim.pending_events() == 1
        sim.run()
        assert sim.pending_events() == 0
        del h3

    def test_counter_constant_time(self, sim):
        """pending_events() must not scan the heap: its result is exact even
        while tombstones outnumber live entries."""
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(50)]
        for handle in handles[10:]:
            sim.cancel(handle)
        assert sim.pending_events() == 10

class TestCompaction:
    def test_mass_cancel_compacts_heap(self, sim):
        keep = [sim.schedule(100.0 + i, lambda: None) for i in range(10)]
        churn = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
        for handle in churn:
            sim.cancel(handle)
        # Tombstones were dropped eagerly instead of lingering until popped:
        # the heap stays within live + the 64-tombstone compaction floor,
        # never anywhere near the 500 cancelled entries.
        assert len(sim._heap) <= 10 + 64
        assert sim.pending_events() == 10
        sim.run()
        assert sim.events_executed == 10
        del keep

    def test_events_survive_compaction_in_order(self, sim):
        log = []
        for i in range(200):
            sim.schedule(float(i), log.append, i)
        doomed = [sim.schedule(1000.0 + i, lambda: None) for i in range(300)]
        for handle in doomed:
            sim.cancel(handle)
        sim.run()
        assert log == list(range(200))

    def test_cancel_from_inside_handler_compacts_safely(self, sim):
        """Compaction triggered mid-run must mutate the same list the run
        loop is iterating (in-place), not rebind the attribute."""
        doomed = [sim.schedule(50.0 + i, lambda: None) for i in range(300)]
        log = []

        def mass_cancel():
            for handle in doomed:
                sim.cancel(handle)

        sim.schedule(1.0, mass_cancel)
        sim.schedule(2.0, log.append, "after")
        sim.run()
        assert log == ["after"]
        assert sim.pending_events() == 0

    def test_compaction_preserves_cancel_counters(self, sim):
        doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        for handle in doomed:
            sim.cancel(handle)
        assert sim.events_cancelled == 200
        sim.run()
        assert sim.events_executed == 0


class TestRepeatability:
    def test_mixed_paths_are_deterministic(self):
        """The same schedule/post/reschedule/cancel sequence produces the
        same firing order on a fresh simulator."""

        def drive():
            sim = Simulator()
            log = []

            def tick(tag):
                log.append((sim.now, tag))

            timer = PeriodicTimer(sim, 0.5, tick, "timer")
            timer.start()
            sim.post(1.25, tick, "post")
            handle = sim.schedule(0.75, tick, "sched")
            sim.run(until=1.0)
            sim.reschedule(handle, 0.5)
            doomed = sim.schedule(1.4, tick, "doomed")
            sim.cancel(doomed)
            sim.run(until=2.0)
            timer.stop()
            return log

        assert drive() == drive()


# -- pending_events() against a brute-force count ------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.floats(0.0, 5.0)),
        st.tuples(st.just("post"), st.floats(0.0, 5.0)),
        st.tuples(st.just("reschedule"), st.floats(0.0, 5.0)),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("run"), st.one_of(st.none(), st.floats(0.0, 6.0))),
    ),
    max_size=60,
)


def _live(sim):
    return [e for e in sim._heap if e[2] is None or not e[2].cancelled]


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, burst=st.integers(0, 150))
def test_pending_events_is_the_live_heap_count(ops, burst):
    """Random schedule / post / reschedule / cancel / run sequences, with a
    burst of handles whose mass cancel compacts the heap:
    ``pending_events()`` equals the live entries counted one by one after
    every operation, and ``run(until)`` runs every live entry at or before
    ``until`` and leaves the clock there."""
    sim = Simulator()
    fired_times = []

    def fire():
        fired_times.append(sim.now)

    handles = [sim.schedule(10.0 + i, fire) for i in range(burst)]
    for kind, arg in ops:
        if kind == "schedule":
            handles.append(sim.schedule(arg, fire))
        elif kind == "post":
            sim.post(arg, fire)
        elif kind == "reschedule":
            reusable = [h for h in handles if h.fired and not h.cancelled]
            if reusable:
                sim.reschedule(reusable[0], arg)
        elif kind == "cancel":
            pending = [h for h in handles if not h.fired and not h.cancelled]
            for handle in pending[: arg or len(pending)]:
                sim.cancel(handle)
        else:
            until = arg
            now, fired = sim.now, len(fired_times)
            sim.run(until=until)
            ran = fired_times[fired:]
            if until is not None:
                assert all(t <= until for t in ran)
                assert not any(e[0] <= until for e in _live(sim))
                assert sim.now == max(now, until)
            else:
                assert not _live(sim)
        assert sim.pending_events() == len(_live(sim))
        assert sim._tombstones == len(sim._heap) - len(_live(sim))
