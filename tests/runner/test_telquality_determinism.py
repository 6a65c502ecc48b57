"""Telquality: collection schedules no events, and mesh coverage is total.

The registry-wide checks (executor and cache byte-identity, hash stamping,
record placement, unperturbed outcomes) live in
``test_observer_determinism.py``; these are the telemetry-quality ones.
"""

import pytest

from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig
from repro.runner import RunSpec

from .conftest import smoke_grid

pytestmark = pytest.mark.slow


class TestTelqualityDeterminism:
    def test_profile_handler_counts_unchanged(self, cell_runner):
        """Per-event-type handler counts are identical with and without
        collection: the observatory schedules no event of its own.

        Both sides carry obs labels, so the delta isolates the
        observatory's hooks from the hub's own."""
        spec = RunSpec.from_config(
            ExperimentConfig(scale=SMOKE_SCALE, seed=3),
            obs_run={"policy": "aware"},
        )
        [plain] = cell_runner({"profile": True}).run([spec])
        [observed] = cell_runner({"profile": True, "telquality": True}).run([spec])
        plain_types = {
            name: stats["count"]
            for name, stats in plain.profile()["by_type"].items()
        }
        observed_types = {
            name: stats["count"]
            for name, stats in observed.profile()["by_type"].items()
        }
        assert plain_types == observed_types

    def test_mesh_full_coverage_and_bins_sum_to_audit(self, cell_runner):
        """Acceptance: 100% directed-port coverage under mesh on the default
        12-switch topology, and the error-vs-age bin counts sum to the
        decision-audit's accepted delay samples."""
        from repro.obs.audit import delay_error_stats

        [aware] = cell_runner({"telquality": True}).run(smoke_grid()[:1])
        assert aware.spec.policy == "aware"
        records = aware.obs_records()
        (tq,) = [r for r in records if r["kind"] == "telquality"]
        assert tq["layout"] == "mesh"
        coverage = tq["coverage"]
        assert coverage["observed_ports"] == coverage["total_ports"] == 32
        assert coverage["blind"] == []
        assert coverage["matches_prediction"] is True
        audit_total = sum(
            delay_error_stats(r.get("candidates", []))["samples"]
            for r in records
            if r["kind"] == "decision-audit" and r.get("metric") == "delay"
        )
        bin_total = sum(b["count"] for b in tq["attribution"]["bins"])
        assert bin_total == audit_total == tq["attribution"]["samples"]
