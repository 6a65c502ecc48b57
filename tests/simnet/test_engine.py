"""Discrete-event engine: ordering, cancellation, timers."""

import pytest

from repro.errors import SimulationError
from repro.simnet.engine import PeriodicTimer


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_run_in_time_order(self, sim):
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        log = []
        for label in "abcde":
            sim.schedule(1.0, log.append, label)
        sim.run()
        assert log == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_nested_scheduling(self, sim):
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(0.5, inner)

        def inner():
            log.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 1.5)]

    def test_schedule_in_past_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_before_now_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_zero_delay_event_runs(self, sim):
        log = []
        sim.schedule(0.0, log.append, 1)
        sim.run()
        assert log == [1]

    def test_events_executed_counter(self, sim):
        for i in range(7):
            sim.schedule(i * 0.1, lambda: None)
        sim.run()
        assert sim.events_executed == 7


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        log = []
        sim.schedule(1.0, log.append, "early")
        sim.schedule(10.0, log.append, "late")
        sim.run(until=5.0)
        assert log == ["early"]
        assert sim.now == 5.0  # clock advanced to the window edge

    def test_run_until_then_continue(self, sim):
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.schedule(7.0, log.append, "b")
        sim.run(until=5.0)
        sim.run(until=10.0)
        assert log == ["a", "b"]

    def test_max_events(self, sim):
        log = []
        for i in range(10):
            sim.schedule(i * 0.1 + 0.1, log.append, i)
        sim.run(max_events=3)
        assert log == [0, 1, 2]

    def test_stop_from_inside_event(self, sim):
        log = []
        sim.schedule(1.0, lambda: (log.append("a"), sim.stop()))
        sim.schedule(2.0, log.append, "b")
        sim.run()
        assert log[0] == "a"
        assert "b" not in log

    def test_step_returns_false_on_empty(self, sim):
        assert sim.step() is False

    def test_step_executes_one(self, sim):
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(2.0, log.append, 2)
        assert sim.step() is True
        assert log == [1]

    def test_reentrant_run_rejected(self, sim):
        def evil():
            sim.run()

        sim.schedule(1.0, evil)
        with pytest.raises(SimulationError):
            sim.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        log = []
        handle = sim.schedule(1.0, log.append, "x")
        sim.cancel(handle)
        sim.run()
        assert log == []

    def test_double_cancel_rejected(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        with pytest.raises(SimulationError):
            sim.cancel(handle)

    def test_cancel_after_fire_rejected(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.cancel(handle)

    def test_pending_events_excludes_cancelled(self, sim):
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(h1)
        assert sim.pending_events() == 1

    def test_cancelled_counter(self, sim):
        h = sim.schedule(1.0, lambda: None)
        sim.cancel(h)
        assert sim.events_cancelled == 1


class TestPeriodicTimer:
    def test_fires_at_period(self, sim):
        times = []
        timer = PeriodicTimer(sim, 1.0, lambda: times.append(sim.now))
        timer.start()
        sim.run(until=3.5)
        assert times == pytest.approx([1.0, 2.0, 3.0])

    def test_custom_start_delay(self, sim):
        times = []
        timer = PeriodicTimer(sim, 1.0, lambda: times.append(sim.now), start_delay=0.25)
        timer.start()
        sim.run(until=2.5)
        assert times == pytest.approx([0.25, 1.25, 2.25])

    def test_stop_halts_firing(self, sim):
        times = []
        timer = PeriodicTimer(sim, 1.0, lambda: times.append(sim.now))
        timer.start()
        sim.schedule(2.5, timer.stop)
        sim.run(until=10.0)
        assert times == pytest.approx([1.0, 2.0])

    def test_double_start_rejected(self, sim):
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        timer.start()
        with pytest.raises(SimulationError):
            timer.start()

    def test_stop_before_start_is_noop(self, sim):
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        timer.stop()  # must not raise

    def test_nonpositive_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_fire_count(self, sim):
        timer = PeriodicTimer(sim, 0.5, lambda: None)
        timer.start()
        sim.run(until=2.6)
        assert timer.fire_count == 5

    def test_jitter_fn_applied(self, sim):
        times = []
        timer = PeriodicTimer(
            sim, 1.0, lambda: times.append(sim.now), jitter_fn=lambda: 0.1
        )
        timer.start()
        sim.run(until=3.5)
        # First firing at the plain start delay, then period + jitter.
        assert times == pytest.approx([1.0, 2.1, 3.2])

    def test_args_passed(self, sim):
        log = []
        timer = PeriodicTimer(sim, 1.0, log.append, "tick")
        timer.start()
        sim.run(until=2.5)
        assert log == ["tick", "tick"]


class TestClockUnderEventBudget:
    """Regression: ``run(until=, max_events=)`` must not jump the clock to
    ``until`` when the event budget cut execution short with runnable work
    still pending inside the window."""

    def test_budget_exhausted_does_not_jump(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run(until=10.0, max_events=2)
        assert sim.now == 2.0  # event at 3.0 is still pending, not skipped

    def test_budget_exhausted_exactly_at_drain_still_jumps(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0, max_events=1)
        assert sim.now == 5.0  # queue is empty: the window completes

    def test_pending_cancelled_event_does_not_block_jump(self, sim):
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        sim.cancel(handle)
        sim.run(until=5.0, max_events=1)
        assert sim.now == 5.0

    def test_pending_event_beyond_until_does_not_block_jump(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        sim.run(until=5.0, max_events=1)
        assert sim.now == 5.0

    def test_resumed_run_executes_the_left_behind_work(self, sim):
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: log.append(t))
        sim.run(until=10.0, max_events=2)
        sim.run(until=10.0)
        assert log == [1.0, 2.0, 3.0]
        assert sim.now == 10.0

    def test_stop_requested_does_not_jump(self, sim):
        sim.schedule(1.0, sim.stop)
        sim.run(until=5.0)
        assert sim.now == 1.0


class TestEngineProfiler:
    def _profiled_sim(self):
        from repro.simnet.engine import EngineProfiler, Simulator

        sim = Simulator()
        sim.profiler = EngineProfiler()
        return sim

    def test_counts_events_by_handler(self):
        sim = self._profiled_sim()
        log = []

        def handler_a():
            log.append("a")

        def handler_b():
            log.append("b")

        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, handler_a)
        sim.schedule(4.0, handler_b)
        sim.run()
        summary = sim.profiler.summary()
        assert summary["events_total"] == 4
        by_type = summary["by_type"]
        a_key = next(k for k in by_type if "handler_a" in k)
        b_key = next(k for k in by_type if "handler_b" in k)
        assert by_type[a_key]["count"] == 3
        assert by_type[b_key]["count"] == 1
        assert by_type[a_key]["wall_s"] >= 0.0

    def test_queue_high_water(self):
        sim = self._profiled_sim()
        for t in range(1, 8):
            sim.schedule(float(t), lambda: None)
        sim.run()
        assert sim.profiler.queue_high_water == 7

    def test_profiled_run_same_semantics(self, sim):
        """The profiled loop must execute the same events in the same order
        as the plain loop — it observes, never perturbs."""
        from repro.simnet.engine import EngineProfiler, Simulator

        def build(s):
            log = []
            s.schedule(2.0, log.append, "b")
            s.schedule(1.0, log.append, "a")
            h = s.schedule(1.5, log.append, "x")
            s.cancel(h)
            s.schedule(3.0, log.append, "c")
            return log

        plain_log = build(sim)
        sim.run(until=10.0)
        prof_sim = Simulator()
        prof_sim.profiler = EngineProfiler()
        prof_log = build(prof_sim)
        prof_sim.run(until=10.0)
        assert prof_log == plain_log == ["a", "b", "c"]
        assert prof_sim.now == sim.now == 10.0
        assert prof_sim.events_executed == sim.events_executed
        assert prof_sim.profiler.events_total == 3

    def test_render_profile(self):
        from repro.simnet.engine import render_profile

        sim = self._profiled_sim()
        sim.schedule(1.0, lambda: None)
        sim.run()
        text = render_profile(sim.profiler.summary())
        assert "engine profile: 1 events" in text
        assert "queue high-water 1" in text


class TestPhaseScopes:
    def _profiled_sim(self):
        from repro.simnet.engine import EngineProfiler, Simulator

        sim = Simulator()
        sim.profiler = EngineProfiler()
        return sim

    def test_paths_root_at_handler_and_nest(self):
        sim = self._profiled_sim()
        prof = sim.profiler

        def handler():
            prof.phase_begin("outer")
            prof.phase_begin("inner")
            prof.phase_end()
            prof.phase_end()

        sim.schedule(1.0, handler)
        sim.run()
        phases = sim.profiler.summary()["phases"]
        outer = next(p for p in phases if p.endswith(";outer"))
        assert "handler" in outer
        assert f"{outer};inner" in phases
        assert phases[outer]["count"] == 1
        assert phases[f"{outer};inner"]["count"] == 1

    def test_child_wall_bounded_by_parent(self):
        sim = self._profiled_sim()
        prof = sim.profiler

        def handler():
            prof.phase_first("work")
            acc = 0
            for i in range(5000):
                acc += i
            prof.phase_end()

        for t in range(1, 51):
            sim.schedule(float(t), handler)
        sim.run()
        summary = sim.profiler.summary()
        handler_key = next(k for k in summary["by_type"] if "handler" in k)
        child_wall = summary["phases"][f"{handler_key};work"]["wall_s"]
        # Nesting invariant: the scope cannot outlast its handler (up to
        # clock quantization noise).
        assert child_wall <= summary["by_type"][handler_key]["wall_s"] * 1.01

    def test_phase_first_backdates_to_event_start(self):
        """phase_first charges the handler's entry bookkeeping to the first
        scope: coverage of a fully-scoped handler lands near 1.0, which a
        plain phase_begin cannot achieve."""
        sim = self._profiled_sim()
        prof = sim.profiler

        def handler():
            prof.phase_first("all")
            acc = 0
            for i in range(2000):
                acc += i
            prof.phase_end()

        for t in range(1, 201):
            sim.schedule(float(t), handler)
        sim.run()
        summary = sim.profiler.summary()
        assert sim.profiler.phase_firsts == 200
        handler_key = next(k for k in summary["by_type"] if "handler" in k)
        coverage = summary["phase_coverage"][handler_key]
        assert 0.95 <= coverage <= 1.01

    def test_phase_first_nested_falls_back_to_begin(self):
        sim = self._profiled_sim()
        prof = sim.profiler

        def handler():
            prof.phase_begin("outer")
            prof.phase_first("nested")  # stack non-empty: plain begin
            prof.phase_end()
            prof.phase_end()

        sim.schedule(1.0, handler)
        sim.run()
        assert sim.profiler.phase_firsts == 0
        phases = sim.profiler.summary()["phases"]
        assert any(p.endswith(";outer;nested") for p in phases)

    def test_phase_next_closes_and_opens_sibling(self):
        sim = self._profiled_sim()
        prof = sim.profiler

        def handler():
            prof.phase_first("a")
            prof.phase_next("b")
            prof.phase_next("c")
            prof.phase_end()

        sim.schedule(1.0, handler)
        sim.run()
        assert sim.profiler.phase_nexts == 2
        phases = sim.profiler.summary()["phases"]
        names = {p.rpartition(";")[2] for p in phases}
        assert {"a", "b", "c"} <= names

    def test_unbalanced_scope_dropped_between_events(self):
        sim = self._profiled_sim()
        prof = sim.profiler

        def leaky():
            prof.phase_begin("never_closed")

        def clean():
            prof.phase_begin("ok")
            prof.phase_end()

        sim.schedule(1.0, leaky)
        sim.schedule(2.0, clean)
        sim.run()
        phases = sim.profiler.summary()["phases"]
        # The leaked scope was never recorded, and the next event's scope
        # roots at its own handler, not under the leaked path.
        ok = next(p for p in phases if p.endswith(";ok"))
        assert "never_closed" not in ok
        assert not any("never_closed" in p for p in phases)

    def test_overhead_estimate_accounting(self):
        sim = self._profiled_sim()
        prof = sim.profiler

        def handler():
            prof.phase_first("a")
            prof.phase_next("b")
            prof.phase_end()

        for t in range(1, 11):
            sim.schedule(float(t), handler)
        sim.run()
        overhead = sim.profiler.overhead_estimate()
        assert overhead["phase_pairs"] == 20  # two scopes per event
        # 2*pairs - firsts - nexts = 40 - 10 - 10
        assert overhead["clock_reads"] == 20
        assert overhead["total_s"] >= 0.0
        assert 0.0 <= overhead["fraction_of_wall"]
        assert overhead["per_read_s"] >= 0.0

    def test_overhead_estimate_ignores_a_slow_calibration(self, monkeypatch):
        """A calibration repeat slowed by the machine (the first, here) must
        not move the estimate: prices are the minimum over repeats."""
        from repro.simnet.engine import EngineProfiler

        readings = iter([(1e-6, 1e-5, 1e-4)] + [(1e-8, 1e-7, 1e-6)] * 20)
        monkeypatch.setattr(
            EngineProfiler, "_calibrate", staticmethod(lambda: next(readings))
        )
        sim = self._profiled_sim()
        prof = sim.profiler

        def handler():
            prof.phase_first("a")
            prof.phase_next("b")
            prof.phase_end()

        for t in range(1, 11):
            sim.schedule(float(t), handler)
        sim.run()
        overhead = prof.overhead_estimate()
        assert (overhead["per_read_s"], overhead["per_record_s"], overhead["per_event_s"]) == (
            1e-8, 1e-7, 1e-6,
        )
        assert overhead["total_s"] == pytest.approx(20 * 1e-8 + 20 * 1e-7 + 10 * 1e-6)

    def test_phase_coverage_helper(self):
        from repro.simnet.engine import phase_coverage

        summary = {
            "by_type": {"H.handle": {"count": 10, "wall_s": 1.0}},
            "phases": {
                "H.handle;a": {"count": 10, "wall_s": 0.5},
                "H.handle;b": {"count": 10, "wall_s": 0.4},
                "H.handle;a;deep": {"count": 10, "wall_s": 0.3},
            },
        }
        coverage = phase_coverage(summary)
        # Only direct children count; the nested phase does not double-count.
        assert coverage == {"H.handle": pytest.approx(0.9)}

    def test_periodic_timer_callback_attributed(self):
        from repro.simnet.engine import PeriodicTimer

        sim = self._profiled_sim()
        fired = []

        class Probe:
            def tick(self):
                fired.append(sim.now)

        timer = PeriodicTimer(sim, period=1.0, fn=Probe().tick)
        timer.start()
        sim.run(until=3.5)
        assert len(fired) == 3
        phases = sim.profiler.summary()["phases"]
        assert any("Probe.tick" in p for p in phases)

    def test_render_profile_includes_phase_sections(self):
        from repro.simnet.engine import render_profile

        sim = self._profiled_sim()
        prof = sim.profiler

        def handler():
            prof.phase_first("stage")
            prof.phase_end()

        sim.schedule(1.0, handler)
        sim.run()
        text = render_profile(sim.profiler.summary())
        assert "hot-path phases" in text
        assert ";stage" in text
        assert "phase coverage" in text
        assert "profiler overhead" in text
