"""Sampling: the time series exist and render identically across executors.

The registry-wide checks (executor and cache byte-identity, hash stamping,
record placement, unperturbed outcomes) live in
``test_observer_determinism.py``; these are the sampling ones.
"""

import json

import pytest

from repro.obs.dashboard import render_dashboard
from repro.runner import Runner

from .conftest import smoke_grid

pytestmark = pytest.mark.slow

SAMPLED = {"sample_interval": 0.5}


class TestSamplingDeterminism:
    def test_plain_run_has_no_obs_records(self, observed_grid):
        result = observed_grid()[0]
        assert "obs_records" not in json.loads(result.payload_json())

    def test_sampled_payload_contains_timeseries_records(self, observed_grid):
        records = observed_grid(SAMPLED)[0].obs_records()
        kinds = {r["kind"] for r in records}
        assert "timeseries" in kinds
        names = {r["name"] for r in records if r["kind"] == "timeseries"}
        assert {"link_utilization", "queue_depth", "server_running"} <= names

    def test_dashboard_renders_identically_across_executors(self, observed_grid):
        parallel = Runner(jobs=4, observe=SAMPLED).run(smoke_grid())
        serial_records = [r for res in observed_grid(SAMPLED) for r in res.obs_records()]
        parallel_records = [r for res in parallel for r in res.obs_records()]
        assert render_dashboard(serial_records) == render_dashboard(parallel_records)
