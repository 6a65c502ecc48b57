"""Sampling: the time series exist and render identically across executors.

The registry-wide checks (executor and cache byte-identity, hash stamping,
record placement, unperturbed outcomes, no observer output from a plain
run) live in
``test_observer_determinism.py``; these are the sampling ones.
"""

import pytest

from repro.obs.dashboard import render_dashboard
from repro.runner import Runner

from .conftest import smoke_grid

pytestmark = pytest.mark.slow

SAMPLED = {"sample_interval": 0.5}


class TestSamplingDeterminism:
    def test_sampled_payload_contains_timeseries_records(self, cell_runner):
        records = cell_runner(SAMPLED).run(smoke_grid()[:1])[0].obs_records()
        kinds = {r["kind"] for r in records}
        assert "timeseries" in kinds
        names = {r["name"] for r in records if r["kind"] == "timeseries"}
        assert {"link_utilization", "queue_depth", "server_running"} <= names

    def test_dashboard_renders_identically_across_executors(self, cell_runner):
        parallel = Runner(jobs=4, observe=SAMPLED).run(smoke_grid())
        serial_records = [
            r for res in cell_runner(SAMPLED).run(smoke_grid()) for r in res.obs_records()
        ]
        parallel_records = [r for res in parallel for r in res.obs_records()]
        assert render_dashboard(serial_records) == render_dashboard(parallel_records)
