"""Table I — workload size classes.

Validates the generator against the paper's table and benchmarks workload
plan materialization (the only Table I 'result' is the specification
itself)."""

import pytest

from repro.edge.task import TABLE_I, SizeClass, sample_task
from repro.edge.workload import WORKLOAD_DISTRIBUTED, WorkloadSpec, build_plan
from repro.simnet.random import RandomStreams
from repro.units import kb, ms


def test_table1_ranges_match_paper():
    expected = {
        SizeClass.VS: ((kb(0), kb(1000)), (ms(0), ms(2000))),
        SizeClass.S: ((kb(1500), kb(2500)), (ms(2500), ms(4500))),
        SizeClass.M: ((kb(3000), kb(4000)), (ms(5000), ms(7000))),
        SizeClass.L: ((kb(4500), kb(5500)), (ms(7500), ms(9500))),
    }
    for size_class, (data_range, exec_range) in expected.items():
        got_data, got_exec = TABLE_I[size_class]
        assert got_data == data_range
        assert got_exec == pytest.approx(exec_range)


def test_table1_sampler_benchmark(benchmark):
    rng = RandomStreams(0).get("bench")

    def draw_all_classes():
        return [sample_task(rng, sc) for sc in SizeClass for _ in range(50)]

    samples = benchmark(draw_all_classes)
    assert len(samples) == 200


def test_workload_plan_benchmark(benchmark):
    spec = WorkloadSpec(
        workload=WORKLOAD_DISTRIBUTED, size_class=SizeClass.M, total_tasks=200
    )
    devices = [f"node{i}" for i in range(1, 8)]

    def build():
        return build_plan(spec, devices, RandomStreams(3).get("w"))

    plan = benchmark(build)
    assert sum(len(j.task_shapes) for j in plan.jobs) == 200
