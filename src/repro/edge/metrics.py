"""Per-task measurement records and their aggregation.

The experiments report, per Table I size class:

* **transfer time** — start of the data upload until the sender holds the
  final ACK (what Fig. 7/9 call "data transfer time");
* **task completion time** — scheduler query sent until the result message
  arrives back at the device (Figs. 5/6/8's "task completion time"),
  covering query round-trip + transfer + execution + result return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.errors import ExperimentError
from repro.edge.task import SizeClass

__all__ = ["TaskRecord", "MetricsCollector"]


@dataclass
class TaskRecord:
    """Timeline of one task through the system (absolute sim times)."""

    task_id: int
    job_id: int
    device: str
    workload: str
    size_class: SizeClass
    data_bytes: int
    exec_time: float
    submitted_at: float
    server_addr: Optional[int] = None
    ranking_received_at: Optional[float] = None
    transfer_started: Optional[float] = None
    transfer_completed: Optional[float] = None
    result_received_at: Optional[float] = None
    retransmissions: int = 0
    failed: bool = False

    @property
    def complete(self) -> bool:
        return self.result_received_at is not None and not self.failed

    @property
    def transfer_time(self) -> float:
        if self.transfer_started is None or self.transfer_completed is None:
            raise ExperimentError(f"task {self.task_id}: transfer not complete")
        return self.transfer_completed - self.transfer_started

    @property
    def completion_time(self) -> float:
        if self.result_received_at is None:
            raise ExperimentError(f"task {self.task_id}: no result received")
        return self.result_received_at - self.submitted_at


class MetricsCollector:
    """Accumulates task records for one experiment run."""

    def __init__(self) -> None:
        self._records: Dict[int, TaskRecord] = {}

    def add(self, record: TaskRecord) -> None:
        if record.task_id in self._records:
            raise ExperimentError(f"duplicate record for task {record.task_id}")
        self._records[record.task_id] = record

    def get(self, task_id: int) -> TaskRecord:
        try:
            return self._records[task_id]
        except KeyError:
            raise ExperimentError(f"no record for task {task_id}") from None

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[TaskRecord]:
        return list(self._records.values())

    def completed(self) -> List[TaskRecord]:
        return [r for r in self._records.values() if r.complete]

    def failed(self) -> List[TaskRecord]:
        return [r for r in self._records.values() if r.failed]

    def all_done(self) -> bool:
        """True when every registered task finished (or failed terminally).

        A task is finished only when the device holds the result *and* the
        sender-side transfer closed: the result can overtake the transport's
        final ACK when that ACK is lost and recovered by retransmission."""
        return all(
            (r.result_received_at is not None and r.transfer_completed is not None)
            or r.failed
            for r in self._records.values()
        )

    # -- aggregation ------------------------------------------------------

    @staticmethod
    def _mean(values: Iterable[float]) -> float:
        arr = list(values)
        if not arr:
            raise ExperimentError("no values to aggregate")
        return float(np.mean(arr))

    def mean_completion_time(self, size_class: Optional[SizeClass] = None) -> float:
        records = [
            r for r in self.completed()
            if size_class is None or r.size_class == size_class
        ]
        return self._mean(r.completion_time for r in records)

    def mean_transfer_time(self, size_class: Optional[SizeClass] = None) -> float:
        records = [
            r for r in self.completed()
            if size_class is None or r.size_class == size_class
        ]
        return self._mean(r.transfer_time for r in records)

