"""Table I size classes and task/job construction."""

import pytest

from repro.edge.task import TABLE_I, Job, SizeClass, Task, sample_task
from repro.errors import WorkloadError
from repro.simnet.random import RandomStreams
from repro.units import kb, ms


RNG = RandomStreams(0).get("t")


class TestTableI:
    def test_all_four_classes_defined(self):
        assert set(TABLE_I) == {SizeClass.VS, SizeClass.S, SizeClass.M, SizeClass.L}

    def test_paper_ranges(self):
        (d_lo, d_hi), (e_lo, e_hi) = TABLE_I[SizeClass.L]
        assert (d_lo, d_hi) == (kb(4500), kb(5500))
        assert (e_lo, e_hi) == (pytest.approx(ms(7500)), pytest.approx(ms(9500)))

    def test_classes_do_not_overlap_and_increase(self):
        ordered = [SizeClass.VS, SizeClass.S, SizeClass.M, SizeClass.L]
        for a, b in zip(ordered, ordered[1:]):
            assert TABLE_I[a][0][1] < TABLE_I[b][0][0]
            assert TABLE_I[a][1][1] < TABLE_I[b][1][0]

    def test_labels(self):
        assert [c.label for c in (SizeClass.VS, SizeClass.S, SizeClass.M, SizeClass.L)] == [
            "VS", "S", "M", "L",
        ]


class TestSampling:
    @pytest.mark.parametrize("size_class", list(SizeClass))
    def test_samples_within_class_range(self, size_class):
        (d_lo, d_hi), (e_lo, e_hi) = TABLE_I[size_class]
        for _ in range(50):
            data, exec_time = sample_task(RNG, size_class)
            assert d_lo <= data <= d_hi
            assert e_lo <= exec_time <= e_hi

    def test_scale_shrinks_both_dimensions(self):
        data, exec_time = sample_task(RNG, SizeClass.L, scale=0.1)
        (d_lo, d_hi), (e_lo, e_hi) = TABLE_I[SizeClass.L]
        assert data <= d_hi * 0.1 + 1
        assert exec_time <= e_hi * 0.1 + 1e-9

    def test_invalid_scale_rejected(self):
        with pytest.raises(WorkloadError):
            sample_task(RNG, SizeClass.S, scale=0.0)

    def test_sampling_deterministic_per_seed(self):
        a = sample_task(RandomStreams(4).get("w"), SizeClass.M)
        b = sample_task(RandomStreams(4).get("w"), SizeClass.M)
        assert a == b


class TestTaskJob:
    def test_task_ids_unique(self):
        t1 = Task(job_id=1, size_class=SizeClass.S, data_bytes=1, exec_time=1.0)
        t2 = Task(job_id=1, size_class=SizeClass.S, data_bytes=1, exec_time=1.0)
        assert t1.task_id != t2.task_id

    def test_negative_task_fields_rejected(self):
        with pytest.raises(WorkloadError):
            Task(job_id=1, size_class=SizeClass.S, data_bytes=-1, exec_time=1.0)
        with pytest.raises(WorkloadError):
            Task(job_id=1, size_class=SizeClass.S, data_bytes=1, exec_time=-1.0)

    def test_empty_job_rejected(self):
        with pytest.raises(WorkloadError):
            Job(device_name="node1", workload="serverless", tasks=[])

    def test_job_size_class(self):
        t = Task(job_id=0, size_class=SizeClass.M, data_bytes=1, exec_time=1.0)
        job = Job(device_name="node1", workload="serverless", tasks=[t])
        assert job.size_class == SizeClass.M
