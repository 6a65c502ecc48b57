"""Harness chaos: killed, hung, and raising workers under supervision.

Chaos is injected deterministically through the ``REPRO_CHAOS`` environment
variable (inherited by spawn-started workers, see
``repro.runner.supervisor._inject_chaos``): rules match a substring of the
run's canonical spec JSON and make the worker SIGKILL itself, hang forever,
or raise, on chosen attempt numbers.
"""

import json

import pytest

from repro.runner import (
    CalibrationSpec,
    ResultCache,
    RunInterrupted,
    Runner,
    RunsFailedError,
    default_run_timeout,
)
from repro.runner.supervisor import (
    DEFAULT_TIMEOUT_FLOOR_S,
    backoff_delay,
)

pytestmark = pytest.mark.slow


def _spec(utilization=0.25):
    # Cheapest legal calibration run; utilization doubles as the chaos
    # match key because it appears verbatim in the canonical spec JSON.
    return CalibrationSpec(utilization=utilization, duration=6.0)


def _chaos(monkeypatch, *rules):
    monkeypatch.setenv("REPRO_CHAOS", json.dumps(list(rules)))


class TestUnits:
    def test_backoff_doubles_and_caps(self):
        assert backoff_delay(1) == 0.5
        assert backoff_delay(2) == 1.0
        assert backoff_delay(10) == 30.0

    def test_default_timeout_has_floor(self):
        assert default_run_timeout(_spec()) == DEFAULT_TIMEOUT_FLOOR_S

    def test_default_timeout_scales_with_duration(self):
        spec = CalibrationSpec(utilization=0.5, duration=100.0)
        assert default_run_timeout(spec) == 2000.0

    def test_interrupted_message_names_resume(self):
        exc = RunInterrupted(
            completed=3, failed=1, total=12, journal_path="sweep.journal"
        )
        assert "3/12" in str(exc)
        assert "resume with: repro resume sweep.journal" in str(exc)


class TestSupervisedChaos:
    def test_killed_worker_is_a_structured_crash(self, monkeypatch):
        _chaos(monkeypatch, {"match": '"utilization":0.25', "action": "kill"})
        runner = Runner(jobs=2, retries=0, on_failure="keep")
        result = runner.run([_spec(0.25)])[0]
        assert not result.ok
        assert result.payload == {}
        failure = result.failure
        assert failure["kind"] == "crash"
        assert failure["error_type"] == "WorkerCrash"
        assert failure["signal"] == "SIGKILL"
        assert failure["attempts"] == 1
        assert runner.stats.failed == 1 and runner.stats.executed == 0
        with pytest.raises(Exception, match="no payload"):
            result.calibration_point()

    def test_hung_worker_times_out_without_losing_others(self, monkeypatch):
        _chaos(monkeypatch, {"match": '"utilization":0.25', "action": "hang"})
        runner = Runner(jobs=2, retries=0, run_timeout=3.0, on_failure="keep")
        hung, fine = runner.run([_spec(0.25), _spec(0.75)])
        assert not hung.ok
        assert hung.failure["kind"] == "timeout"
        assert hung.failure["run_timeout_s"] == 3.0
        assert hung.failure["signal"] == "SIGKILL"
        assert fine.ok
        assert fine.calibration_point().utilization == 0.75

    def test_raising_worker_carries_exception_envelope(self, monkeypatch):
        _chaos(monkeypatch, {"match": "", "action": "raise"})
        # jobs=1 + positive run_timeout also routes through the supervisor.
        runner = Runner(jobs=1, retries=0, run_timeout=60.0, on_failure="keep")
        result = runner.run([_spec()])[0]
        failure = result.failure
        assert failure["kind"] == "exception"
        assert failure["error_type"] == "RuntimeError"
        assert "chaos" in failure["message"]
        assert "RuntimeError" in failure["traceback"]

    def test_retry_on_fresh_worker_recovers(self, monkeypatch):
        _chaos(
            monkeypatch,
            {"match": "", "action": "kill", "attempts": [1]},
        )
        runner = Runner(jobs=2, retries=1, backoff_base=0.05)
        result = runner.run([_spec()])[0]
        assert result.ok
        assert result.provenance["attempts"] == 2
        assert result.provenance["executor"] == "supervised"
        assert runner.stats.retried == 1
        assert runner.stats.executed == 1 and runner.stats.failed == 0

    def test_failure_raises_after_full_grid_and_never_caches(
        self, monkeypatch, tmp_path
    ):
        _chaos(monkeypatch, {"match": '"utilization":0.25', "action": "kill"})
        cache = ResultCache(str(tmp_path / "cache"))
        runner = Runner(jobs=2, retries=0, cache=cache)
        bad, good = _spec(0.25), _spec(0.75)
        with pytest.raises(RunsFailedError, match="1 of 2") as excinfo:
            runner.run([bad, good])
        assert len(excinfo.value.failures) == 1
        assert len(excinfo.value.results) == 2
        # The surviving cell was attempted and persisted before the raise;
        # the failed cell must never be cached.
        assert cache.entries() == [good.content_hash()]


class TestSerialResilience:
    def test_exception_retry_in_process(self, monkeypatch):
        from repro.runner.runner import _execute_envelope_json as real

        calls = {"n": 0}

        def flaky(spec_json):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("transient")
            return real(spec_json)

        monkeypatch.setattr("repro.runner.runner._execute_envelope_json", flaky)
        runner = Runner(jobs=1, retries=1, backoff_base=0.0)
        result = runner.run([_spec()])[0]
        assert result.ok
        assert result.provenance["executor"] == "serial"
        assert result.provenance["attempts"] == 2
        assert runner.stats.retried == 1
        # The retry lands in the Runner's event log, which --obs-out appends.
        [event] = runner.events.snapshot()
        assert event["event"] == "runner_run_retry"
        assert event["attempt"] == 1 and event["error_type"] == "ValueError"

    def test_exhausted_retries_keep_failure_envelope(self, monkeypatch):
        def always_broken(spec_json):
            raise ValueError("permanent")

        monkeypatch.setattr(
            "repro.runner.runner._execute_envelope_json", always_broken
        )
        runner = Runner(jobs=1, retries=1, backoff_base=0.0, on_failure="keep")
        result = runner.run([_spec()])[0]
        assert result.failure["kind"] == "exception"
        assert result.failure["error_type"] == "ValueError"
        assert result.failure["attempts"] == 2
        assert runner.stats.retried == 1 and runner.stats.failed == 1

    def test_interrupt_persists_completed_work(self, monkeypatch, tmp_path):
        from repro.runner.journal import RunJournal
        from repro.runner.runner import _execute_envelope_json as real

        first, second = _spec(0.25), _spec(0.75)

        def interrupt_second(spec_json):
            if '"utilization":0.75' in spec_json:
                raise KeyboardInterrupt
            return real(spec_json)

        monkeypatch.setattr(
            "repro.runner.runner._execute_envelope_json", interrupt_second
        )
        cache = ResultCache(str(tmp_path / "cache"))
        journal = RunJournal(str(tmp_path / "sweep.journal"))
        runner = Runner(jobs=1, cache=cache, journal=journal)
        with pytest.raises(RunInterrupted) as excinfo:
            runner.run([first, second])
        exc = excinfo.value
        assert exc.completed == 1 and exc.total == 2
        assert exc.journal_path == journal.path
        # Completed cell is in the cache, the journal holds the whole grid:
        # what's left is the grid minus the cache.
        assert cache.entries() == [first.content_hash()]
        assert journal.load() == [first, second]
