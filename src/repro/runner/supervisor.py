"""Supervised process-per-run execution: timeouts, crash retry, backoff.

The bare executor the Runner used through PR 5 trusted its workers: a hung
run stalled the sweep forever, an OOM-killed worker took the whole pool
down with a cryptic ``BrokenProcessPool``, and neither left a usable record
of *which* cell died or why.  This module is the supervision layer:

* every pending run executes in its **own spawn-started process** with a
  **wall-clock deadline** (``run_timeout``; when unset, a generous default
  scaled from the spec's expected sim duration via
  :func:`default_run_timeout`) — a run past its deadline is SIGKILLed and
  recorded as a structured ``timeout`` failure instead of hanging the grid;
* a crashed (signal / nonzero exit) or raising worker is **retried** on a
  fresh process with bounded exponential backoff (``retries`` additional
  attempts), and the final failure carries a full **failure envelope**:
  failure kind, exception type, traceback, attempt count, and the worker's
  exit signal;
* results stream back through a callback as they complete, so the caller
  (the Runner) can persist each one to cache/journal immediately —
  a later crash or Ctrl-C cannot lose already-finished work;
* ``Ctrl-C`` kills every in-flight worker before propagating, so an
  interrupted sweep leaves no orphan processes behind.

Results are read from a pipe *before* waiting on process exit — a worker
with a multi-megabyte envelope blocks in ``send`` until the parent reads,
so waiting on the process sentinel alone would deadlock.

Deterministic chaos for the harness's own test-suite rides on the
``REPRO_CHAOS`` environment variable (see :func:`_inject_chaos`): a JSON
list of rules that make matching workers SIGKILL themselves, hang forever,
or raise, on chosen attempt numbers.  Spawned workers inherit the
environment, so the chaos plan reaches them without any pickling support.
"""

from __future__ import annotations

import json
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ExperimentError

__all__ = [
    "CHAOS_ENV",
    "DEFAULT_RETRIES",
    "RunInterrupted",
    "RunsFailedError",
    "Supervisor",
    "backoff_delay",
    "default_run_timeout",
    "failure_from_exception",
]

# Retries the CLI applies by default (the Runner library default stays 0 so
# embedding code opts in explicitly).
DEFAULT_RETRIES = 1

# Default per-run timeout: max(floor, scale * expected sim duration).  This
# is a hang ceiling, not a performance bound — generous on purpose, because
# wall-per-sim-second varies by orders of magnitude across scales and hosts.
DEFAULT_TIMEOUT_FLOOR_S = 300.0
DEFAULT_TIMEOUT_SCALE = 20.0

# Exponential backoff between attempts: base * factor**(attempt-1), capped.
DEFAULT_BACKOFF_BASE_S = 0.5
DEFAULT_BACKOFF_FACTOR = 2.0
DEFAULT_BACKOFF_MAX_S = 30.0

CHAOS_ENV = "REPRO_CHAOS"


# ---------------------------------------------------------------------------
# Exceptions
# ---------------------------------------------------------------------------

class RunInterrupted(ExperimentError):
    """A sweep was interrupted (Ctrl-C / SIGINT) after persisting completed
    work.  Carries enough state for the CLI to print a resume summary."""

    def __init__(
        self,
        *,
        completed: int,
        failed: int,
        total: int,
        journal_path: Optional[str] = None,
    ) -> None:
        self.completed = completed
        self.failed = failed
        self.total = total
        self.journal_path = journal_path
        pending = max(0, total - completed - failed)
        message = (
            f"interrupted: {completed}/{total} run(s) completed"
            + (f", {failed} failed" if failed else "")
            + f", {pending} pending"
        )
        if journal_path:
            message += f"; resume with: repro resume {journal_path}"
        super().__init__(message)


class RunsFailedError(ExperimentError):
    """One or more runs of a sweep failed after exhausting retries.

    Raised *after* the whole grid was attempted and every completed result
    was persisted, so nothing but the failed cells is lost.  ``results``
    holds every :class:`~repro.runner.runner.RunResult` (failed ones carry
    their failure envelope); ``failures`` is the failed subset."""

    def __init__(
        self,
        message: str,
        *,
        results: Optional[List[Any]] = None,
        failures: Optional[List[Any]] = None,
    ) -> None:
        super().__init__(message)
        self.results = list(results or [])
        self.failures = list(failures or [])


# ---------------------------------------------------------------------------
# Failure envelopes
# ---------------------------------------------------------------------------

def failure_from_exception(exc: BaseException, *, attempts: int) -> Dict[str, Any]:
    """Failure envelope for an exception raised while executing a spec."""
    return {
        "kind": "exception",
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
        "attempts": attempts,
        "exit_code": None,
        "signal": None,
        "run_timeout_s": None,
    }


def _signal_name(signum: int) -> str:
    try:
        return signal.Signals(signum).name
    except ValueError:
        return f"signal {signum}"


def backoff_delay(attempt: int, *, base: float = DEFAULT_BACKOFF_BASE_S) -> float:
    """Delay before retrying after the ``attempt``-th (1-based) failure."""
    return min(DEFAULT_BACKOFF_MAX_S, base * DEFAULT_BACKOFF_FACTOR ** (attempt - 1))


def default_run_timeout(spec: Any) -> float:
    """Per-spec default wall-clock timeout, scaled from the spec's expected
    sim duration (see ``RunSpec.expected_sim_duration``)."""
    try:
        estimate = float(spec.expected_sim_duration())
    except (AttributeError, TypeError, ValueError):
        estimate = 0.0
    return max(DEFAULT_TIMEOUT_FLOOR_S, DEFAULT_TIMEOUT_SCALE * estimate)


# ---------------------------------------------------------------------------
# Chaos injection (harness test-suite only)
# ---------------------------------------------------------------------------

def _inject_chaos(spec_json: str, attempt: int) -> None:
    """Apply the ``REPRO_CHAOS`` plan, if any, inside a worker process.

    The plan is a JSON list of rules, e.g.::

        [{"match": "\\"policy\\":\\"random\\"", "action": "kill", "attempts": [1]}]

    ``match`` is a substring of the run's canonical spec JSON (empty matches
    every run), ``attempts`` lists the 1-based attempt numbers the rule
    fires on (default: first attempt only), and ``action`` is ``kill``
    (SIGKILL self — a crash), ``hang`` (sleep forever — a timeout), or
    ``raise`` (raise RuntimeError — an exception failure).  Used by the
    chaos test-suite and the CI chaos-smoke job; inert otherwise."""
    plan = os.environ.get(CHAOS_ENV)
    if not plan:
        return
    try:
        rules = json.loads(plan)
    except ValueError:
        return
    if isinstance(rules, dict):
        rules = [rules]
    if not isinstance(rules, list):
        return
    for rule in rules:
        if not isinstance(rule, dict):
            continue
        match = str(rule.get("match", ""))
        if match and match not in spec_json:
            continue
        if attempt not in rule.get("attempts", [1]):
            continue
        action = rule.get("action")
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif action == "hang":
            while True:  # parent's deadline converts this into a timeout
                time.sleep(3600)
        elif action == "raise":
            raise RuntimeError(f"chaos: injected failure (attempt {attempt})")


def _supervised_worker(conn: Any, spec_json: str, attempt: int) -> None:
    """Worker entry point: execute one spec, send the outcome on the pipe.

    Protocol: ``("ok", envelope_json)`` on success, ``("error", type, message,
    traceback)`` on any exception.  A worker that dies without sending
    (SIGKILL, OOM, interpreter abort) is classified as a crash by the parent
    from its exit code."""
    try:
        _inject_chaos(spec_json, attempt)
        from repro.runner.runner import _execute_envelope_json

        envelope_json = _execute_envelope_json(spec_json)
    except BaseException as exc:  # noqa: BLE001 - the pipe is the error channel
        try:
            conn.send(("error", type(exc).__name__, str(exc),
                       traceback.format_exc()))
        finally:
            conn.close()
        return
    try:
        conn.send(("ok", envelope_json))
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------

@dataclass
class RunOutcome:
    """Terminal outcome of one supervised spec (after any retries)."""

    spec_hash: str
    ok: bool
    envelope_json: Optional[str] = None
    failure: Optional[Dict[str, Any]] = None
    attempts: int = 1


@dataclass
class _Job:
    spec_hash: str
    spec_json: str
    timeout_s: Optional[float]
    attempt: int = 1


@dataclass
class _Active:
    job: _Job
    process: Any
    conn: Any
    deadline: Optional[float]
    timed_out: bool = False
    message: Optional[Tuple[Any, ...]] = field(default=None)


class Supervisor:
    """Run (spec_hash, spec_json, timeout) triples on supervised processes.

    ``jobs`` bounds concurrency; each attempt gets a fresh spawn-started
    process (full interpreter isolation, same guarantee the old
    ``max_tasks_per_child=1`` pool gave).  ``on_done(outcome)`` fires once
    per spec with its terminal :class:`RunOutcome`, in completion order;
    ``on_retry(spec_hash, attempt, failure, backoff_s)`` fires before each
    backoff wait."""

    def __init__(
        self,
        *,
        jobs: int = 1,
        retries: int = 0,
        backoff_base: float = DEFAULT_BACKOFF_BASE_S,
        on_retry: Optional[Callable[[str, int, Dict[str, Any], float], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ExperimentError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.retries = retries
        self.backoff_base = backoff_base
        self.on_retry = on_retry

    # -- public API --------------------------------------------------------

    def run(
        self,
        work: List[Tuple[str, str, Optional[float]]],
        on_done: Callable[[RunOutcome], None],
    ) -> None:
        """Execute every (spec_hash, spec_json, timeout_s) triple.

        On ``KeyboardInterrupt`` every in-flight worker is SIGKILLed before
        the interrupt propagates — completed outcomes were already delivered
        through ``on_done``, so the caller loses only unfinished work."""
        import multiprocessing
        from multiprocessing import connection as mp_connection

        ctx = multiprocessing.get_context("spawn")
        ready: List[_Job] = [
            _Job(spec_hash, spec_json, timeout_s)
            for spec_hash, spec_json, timeout_s in work
        ]
        delayed: List[Tuple[float, _Job]] = []  # (ready_at, job)
        running: List[_Active] = []

        def launch(job: _Job) -> None:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_supervised_worker,
                args=(child_conn, job.spec_json, job.attempt),
                daemon=True,
            )
            process.start()
            child_conn.close()  # parent keeps only the read end
            deadline = (
                time.monotonic() + job.timeout_s
                if job.timeout_s is not None and job.timeout_s > 0
                else None
            )
            running.append(_Active(job, process, parent_conn, deadline))

        def harvest(active: _Active) -> None:
            """Turn one finished/killed worker into a retry or an outcome."""
            running.remove(active)
            job = active.job
            process, conn = active.process, active.conn
            message = active.message
            if message is None and conn.poll():
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None
            process.join(timeout=30.0)
            if process.is_alive():  # refused to exit after sending: force it
                process.kill()
                process.join()
            conn.close()
            exit_code = process.exitcode
            process.close()

            failure: Optional[Dict[str, Any]]
            if active.timed_out:
                failure = {
                    "kind": "timeout",
                    "error_type": "RunTimeout",
                    "message": (
                        f"run exceeded its {job.timeout_s:.1f}s wall-clock "
                        f"timeout and was killed"
                    ),
                    "traceback": None,
                    "attempts": job.attempt,
                    "exit_code": exit_code,
                    "signal": _signal_name(signal.SIGKILL),
                    "run_timeout_s": job.timeout_s,
                }
            elif message is not None and message[0] == "ok":
                on_done(RunOutcome(
                    spec_hash=job.spec_hash, ok=True,
                    envelope_json=message[1], attempts=job.attempt,
                ))
                return
            elif message is not None and message[0] == "error":
                failure = {
                    "kind": "exception",
                    "error_type": message[1],
                    "message": message[2],
                    "traceback": message[3],
                    "attempts": job.attempt,
                    "exit_code": exit_code,
                    "signal": None,
                    "run_timeout_s": job.timeout_s,
                }
            else:  # died without a message: crash (signal or hard exit)
                signum = -exit_code if exit_code is not None and exit_code < 0 else None
                failure = {
                    "kind": "crash",
                    "error_type": "WorkerCrash",
                    "message": (
                        f"worker died with {_signal_name(signum)}"
                        if signum is not None
                        else f"worker exited with code {exit_code} "
                             f"without returning a result"
                    ),
                    "traceback": None,
                    "attempts": job.attempt,
                    "exit_code": exit_code,
                    "signal": _signal_name(signum) if signum is not None else None,
                    "run_timeout_s": job.timeout_s,
                }

            if job.attempt <= self.retries:
                backoff = backoff_delay(job.attempt, base=self.backoff_base)
                if self.on_retry is not None:
                    self.on_retry(job.spec_hash, job.attempt, failure, backoff)
                job.attempt += 1
                delayed.append((time.monotonic() + backoff, job))
            else:
                on_done(RunOutcome(
                    spec_hash=job.spec_hash, ok=False,
                    failure=failure, attempts=job.attempt,
                ))

        try:
            while ready or delayed or running:
                now = time.monotonic()
                if delayed:
                    due = [j for t, j in delayed if t <= now]
                    delayed[:] = [(t, j) for t, j in delayed if t > now]
                    ready.extend(due)
                while ready and len(running) < self.jobs:
                    launch(ready.pop(0))
                if not running:
                    if delayed:  # everything is backing off: sleep it out
                        time.sleep(max(0.0, min(t for t, _ in delayed) - now))
                    continue

                # Wait on result pipes AND process sentinels: the pipe fires
                # for a worker blocked sending a large envelope, the sentinel
                # for one that died without sending anything.
                wait_for: List[Any] = []
                by_handle: Dict[Any, _Active] = {}
                for active in running:
                    by_handle[active.conn] = active
                    by_handle[active.process.sentinel] = active
                    wait_for.extend((active.conn, active.process.sentinel))
                deadlines = [a.deadline for a in running if a.deadline is not None]
                timeout: Optional[float] = None
                horizons = deadlines + [t for t, _ in delayed]
                if horizons:
                    timeout = max(0.0, min(horizons) - now)
                fired = mp_connection.wait(wait_for, timeout=timeout)

                finished: List[_Active] = []
                for handle in fired:
                    active = by_handle[handle]
                    if active in finished:
                        continue
                    if handle is active.conn:
                        # Drain the result now — before process exit — so a
                        # worker blocked in send() can finish and exit.
                        try:
                            active.message = active.conn.recv()
                        except (EOFError, OSError):
                            active.message = None
                    finished.append(active)
                now = time.monotonic()
                for active in list(running):
                    if (
                        active not in finished
                        and active.deadline is not None
                        and now >= active.deadline
                    ):
                        active.timed_out = True
                        active.process.kill()
                        finished.append(active)
                for active in finished:
                    if active.message is None and active.process.is_alive():
                        # Sentinel may race the final pipe write; give the
                        # exiting worker a moment, then harvest regardless.
                        active.process.join(timeout=5.0)
                    harvest(active)
        except BaseException:
            for active in running:
                try:
                    active.process.kill()
                    active.process.join()
                    active.conn.close()
                except (OSError, ValueError):
                    pass
            running.clear()
            raise
