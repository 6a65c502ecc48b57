"""Fig. 8 — ECDF of per-task completion-time gain over nearest.

Paper: a minority of tasks (19-38 % depending on workload/metric) see zero
or negative gain — measurement jitter de-prioritizes nearest nodes even
when congestion is negligible — while a solid majority gains, some tasks by
more than 60 %."""

import pytest

from conftest import cached_run
from repro.experiments.ecdf import fraction_above, gain_ecdf, paired_gains
from repro.experiments.report import render_ecdf_points


def _gains(workload, metric):
    aware = cached_run("aware", workload, metric, "S")
    nearest = cached_run("nearest", workload, metric, "S")
    return paired_gains(aware, nearest)


def test_fig8_ecdf_valid_distribution(benchmark):
    gains = benchmark.pedantic(
        lambda: _gains("distributed", "bandwidth"), rounds=1, iterations=1
    )
    x, f = gain_ecdf(gains)
    assert len(x) == len(gains)
    assert f[-1] == pytest.approx(1.0)
    print()
    print(render_ecdf_points(gains))


def test_fig8_majority_of_tasks_gain():
    gains = _gains("distributed", "bandwidth")
    assert fraction_above(gains, 0.0) > 0.5


def test_fig8_negative_tail_exists_but_bounded():
    """The paper's jitter-driven tail: some tasks lose, but not most."""
    gains = _gains("distributed", "bandwidth")
    negative = 1.0 - fraction_above(gains, 0.0)
    assert negative < 0.5


def test_fig8_some_tasks_gain_strongly():
    gains = _gains("distributed", "bandwidth")
    assert fraction_above(gains, 0.2) > 0.1


def test_fig8_serverless_delay_variant():
    gains = _gains("serverless", "delay")
    assert fraction_above(gains, 0.0) > 0.4
