"""repro.runner — declarative run specs, pooled execution, result caching.

The evaluation is a grid of independent simulation runs; this package turns
"run the grid" into data:

* :mod:`repro.runner.spec` — :class:`RunSpec` / :class:`CalibrationSpec`,
  frozen, JSON-canonical, content-hashed;
* :mod:`repro.runner.cache` — ``.runcache/<hash>.json`` content-addressed
  result store, and the one record of which cells are done;
* :mod:`repro.runner.runner` — :class:`Runner` (serial or supervised
  execution, deterministic either way) and :func:`expand_grid`;
* :mod:`repro.runner.supervisor` — process-per-run supervision: per-run
  wall-clock timeouts, crash/timeout retry with backoff, failure
  envelopes, deterministic chaos injection for the harness's own tests;
* :mod:`repro.runner.journal` — the ``--journal`` file: the grid a sweep
  was asked to run, rewritten atomically, so ``repro resume`` (or the same
  command again) can finish an interrupted sweep from the cache.

Every experiment driver in :mod:`repro.experiments` is a thin grid
definition over this package.
"""

from repro.runner.spec import (
    CalibrationSpec,
    RunSpec,
    SPEC_KINDS,
    canonical_json,
    content_hash,
    spec_from_dict,
)
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.journal import RunJournal
from repro.runner.runner import (
    Runner,
    RunnerStats,
    RunResult,
    execute_spec,
    expand_grid,
)
from repro.runner.supervisor import (
    RunInterrupted,
    RunsFailedError,
    Supervisor,
    default_run_timeout,
)

__all__ = [
    "RunSpec",
    "CalibrationSpec",
    "SPEC_KINDS",
    "spec_from_dict",
    "canonical_json",
    "content_hash",
    "ResultCache",
    "DEFAULT_CACHE_DIR",
    "Runner",
    "RunnerStats",
    "RunResult",
    "execute_spec",
    "expand_grid",
    "RunJournal",
    "Supervisor",
    "RunInterrupted",
    "RunsFailedError",
    "default_run_timeout",
]
