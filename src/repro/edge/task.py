"""Tasks, jobs, and the paper's Table I size classes.

=================  ===============  ====================
type               data size (KB)   execution time (ms)
=================  ===============  ====================
Very small (VS)    0 – 1000         0 – 2000
Small (S)          1500 – 2500      2500 – 4500
Medium (M)         3000 – 4000      5000 – 7000
Large (L)          4500 – 5500      7500 – 9500
=================  ===============  ====================

Sizes are drawn uniformly from the class range.  An optional ``scale``
shrinks both dimensions proportionally so tests and benchmarks can run the
same code paths in a fraction of the simulated (and wall-clock) time.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.units import kb, ms

__all__ = ["SizeClass", "TABLE_I", "sample_task", "Task", "Job"]


class SizeClass(enum.Enum):
    """The four workload size classes of Table I."""

    VS = "very_small"
    S = "small"
    M = "medium"
    L = "large"

    @property
    def label(self) -> str:
        return {"very_small": "VS", "small": "S", "medium": "M", "large": "L"}[self.value]


# (data size range in bytes, execution time range in seconds), per Table I.
TABLE_I: Dict[SizeClass, Tuple[Tuple[int, int], Tuple[float, float]]] = {
    SizeClass.VS: ((kb(0), kb(1000)), (ms(0), ms(2000))),
    SizeClass.S: ((kb(1500), kb(2500)), (ms(2500), ms(4500))),
    SizeClass.M: ((kb(3000), kb(4000)), (ms(5000), ms(7000))),
    SizeClass.L: ((kb(4500), kb(5500)), (ms(7500), ms(9500))),
}

_task_ids = itertools.count(1)
_job_ids = itertools.count(1)


def reset_ids() -> None:
    """Restart task/job id allocation at 1.

    Experiment runs call this so the ids a run hands out depend only on the
    run itself, never on how many runs preceded it in the process — the
    property the runner's content-addressed result cache relies on."""
    global _task_ids, _job_ids
    _task_ids = itertools.count(1)
    _job_ids = itertools.count(1)


def sample_task(
    rng: np.random.Generator, size_class: SizeClass, *, scale: float = 1.0
) -> Tuple[int, float]:
    """Draw ``(data_bytes, exec_time_seconds)`` for one task of the class."""
    if scale <= 0:
        raise WorkloadError(f"scale must be positive, got {scale}")
    (data_lo, data_hi), (exec_lo, exec_hi) = TABLE_I[size_class]
    data = int(rng.uniform(data_lo, data_hi) * scale)
    exec_time = float(rng.uniform(exec_lo, exec_hi)) * scale
    return data, exec_time


@dataclass
class Task:
    """One unit of offloadable work: upload ``data_bytes``, run for
    ``exec_time`` on the chosen server, return a result."""

    job_id: int
    size_class: SizeClass
    data_bytes: int
    exec_time: float
    task_id: int = field(default_factory=lambda: next(_task_ids))

    def __post_init__(self) -> None:
        if self.data_bytes < 0:
            raise WorkloadError(f"task data size must be >= 0, got {self.data_bytes}")
        if self.exec_time < 0:
            raise WorkloadError(f"task execution time must be >= 0, got {self.exec_time}")


@dataclass
class Job:
    """A set of tasks submitted together by one edge device.

    Serverless jobs carry one task; distributed-computing jobs carry three
    (Section IV), each dispatched to a distinct edge server."""

    device_name: str
    workload: str
    tasks: List[Task]
    job_id: int = field(default_factory=lambda: next(_job_ids))

    def __post_init__(self) -> None:
        if not self.tasks:
            raise WorkloadError("a job needs at least one task")

    @property
    def size_class(self) -> SizeClass:
        return self.tasks[0].size_class
