"""Task records and aggregation."""

import pytest

from repro.edge.metrics import MetricsCollector, TaskRecord
from repro.edge.task import SizeClass
from repro.errors import ExperimentError


def _record(task_id=1, size_class=SizeClass.S, submitted=0.0, transfer=(1.0, 3.0), result=10.0):
    r = TaskRecord(
        task_id=task_id,
        job_id=1,
        device="node1",
        workload="serverless",
        size_class=size_class,
        data_bytes=1000,
        exec_time=5.0,
        submitted_at=submitted,
    )
    if transfer:
        r.transfer_started, r.transfer_completed = transfer
    if result is not None:
        r.result_received_at = result
    return r


class TestTaskRecord:
    def test_transfer_time(self):
        assert _record().transfer_time == pytest.approx(2.0)

    def test_completion_time(self):
        assert _record().completion_time == pytest.approx(10.0)

    def test_incomplete_transfer_raises(self):
        r = _record(transfer=None)
        with pytest.raises(ExperimentError):
            _ = r.transfer_time

    def test_no_result_raises(self):
        r = _record(result=None)
        with pytest.raises(ExperimentError):
            _ = r.completion_time

    def test_complete_flag(self):
        assert _record().complete
        assert not _record(result=None).complete
        failed = _record()
        failed.failed = True
        assert not failed.complete


class TestCollector:
    def test_duplicate_rejected(self):
        mc = MetricsCollector()
        mc.add(_record(task_id=1))
        with pytest.raises(ExperimentError):
            mc.add(_record(task_id=1))

    def test_get_unknown_rejected(self):
        with pytest.raises(ExperimentError):
            MetricsCollector().get(9)

    def test_all_done_semantics(self):
        mc = MetricsCollector()
        mc.add(_record(task_id=1))
        pending = _record(task_id=2, result=None)
        mc.add(pending)
        assert not mc.all_done()
        pending.failed = True  # terminal failure counts as done
        assert mc.all_done()

    def test_mean_completion_by_class(self):
        mc = MetricsCollector()
        mc.add(_record(task_id=1, size_class=SizeClass.S, result=10.0))
        mc.add(_record(task_id=2, size_class=SizeClass.S, result=20.0))
        mc.add(_record(task_id=3, size_class=SizeClass.L, result=100.0))
        assert mc.mean_completion_time(SizeClass.S) == pytest.approx(15.0)
        assert mc.mean_completion_time() == pytest.approx(130.0 / 3)

    def test_mean_transfer(self):
        mc = MetricsCollector()
        mc.add(_record(task_id=1, transfer=(0.0, 2.0)))
        mc.add(_record(task_id=2, transfer=(0.0, 4.0)))
        assert mc.mean_transfer_time() == pytest.approx(3.0)

    def test_empty_aggregation_raises(self):
        with pytest.raises(ExperimentError):
            MetricsCollector().mean_completion_time()

    def test_failed_list(self):
        mc = MetricsCollector()
        bad = _record(task_id=1, result=None)
        bad.failed = True
        mc.add(bad)
        assert len(mc.failed()) == 1
        assert mc.completed() == []

