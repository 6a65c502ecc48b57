"""Telquality determinism: collection is read-only and byte-stable.

Acceptance tests for the telemetry-quality observatory: a grid run with
``telquality=True`` must export byte-identical payloads serially, under
``jobs=4``, and through a cache round trip; enabling collection must not
change any task outcome or schedule any new simulator event (the engine
profile's per-handler counts stay exactly equal).
"""

import json

import pytest

from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig
from repro.runner import ResultCache, Runner, RunSpec, expand_grid

pytestmark = pytest.mark.slow


def _grid():
    base = RunSpec.from_config(ExperimentConfig(scale=SMOKE_SCALE, seed=3))
    return expand_grid(
        base, {"policy": ["aware", "nearest"], "size_class": ["VS", "S"]}
    )


@pytest.fixture(scope="module")
def serial_results():
    return Runner(jobs=1, telquality=True).run(_grid())


class TestTelqualityDeterminism:
    def test_jobs4_payloads_byte_identical_to_serial(self, serial_results):
        parallel = Runner(jobs=4, telquality=True).run(_grid())
        assert len(parallel) == len(serial_results) == 4
        for s, p in zip(serial_results, parallel):
            assert s.payload_json() == p.payload_json(), s.spec.label()

    def test_cache_round_trip_preserves_telquality(self, tmp_path, serial_results):
        cache = ResultCache(str(tmp_path))
        spec = _grid()[0]
        first = Runner(jobs=1, cache=cache, telquality=True).run([spec])[0]
        hit = Runner(jobs=1, cache=cache, telquality=True).run([spec])[0]
        assert hit.from_cache
        assert hit.payload_json() == first.payload_json()
        assert hit.payload_json() == serial_results[0].payload_json()

    def test_telquality_spec_hash_differs_from_plain(self):
        spec = _grid()[0]
        observed = spec.instrumented(telquality=True)
        assert observed.content_hash() != spec.content_hash()
        # Stamping is idempotent.
        assert observed.instrumented(telquality=True) is observed

    def test_payload_carries_one_telquality_record_per_run(self, serial_results):
        for result in serial_results:
            records = result.obs_records()
            telquality = [r for r in records if r["kind"] == "telquality"]
            assert len(telquality) == 1
            # The record appends at the very end of the export.
            assert records[-1]["kind"] == "telquality"
            assert telquality[0]["layout"] == "mesh"

    def test_collection_does_not_perturb_outcomes(self, serial_results):
        """The payload minus obs_records equals the plain payload exactly —
        including events_executed: the observatory hooks piggyback existing
        calls and never schedule simulator events of their own."""
        plain = Runner(jobs=1).run(_grid())
        for s, p in zip(serial_results, plain):
            observed_payload = json.loads(s.payload_json())
            observed_payload.pop("obs_records", None)
            plain_payload = json.loads(p.payload_json())
            plain_payload.pop("obs_records", None)
            assert observed_payload == plain_payload, s.spec.label()

    def test_profile_handler_counts_unchanged(self):
        """Per-event-type handler counts are identical with and without
        collection — the BENCH_runner.json profile gate cannot move.

        Both sides carry obs labels, so the delta isolates the
        observatory's hooks from the hub's own."""
        spec = RunSpec.from_config(
            ExperimentConfig(scale=SMOKE_SCALE, seed=3),
            obs_run={"policy": "aware"},
        )
        plain = Runner(jobs=1, profile=True).run([spec])[0]
        observed = Runner(jobs=1, profile=True, telquality=True).run([spec])[0]
        plain_types = {
            name: stats["count"]
            for name, stats in plain.profile()["by_type"].items()
        }
        observed_types = {
            name: stats["count"]
            for name, stats in observed.profile()["by_type"].items()
        }
        assert plain_types == observed_types

    def test_mesh_full_coverage_and_bins_sum_to_audit(self, serial_results):
        """Acceptance: 100% directed-port coverage under mesh on the default
        12-switch topology, and the error-vs-age bin counts sum to the
        decision-audit's accepted delay samples."""
        from repro.obs.audit import delay_error_stats

        aware = serial_results[0]
        assert aware.spec.policy == "aware"
        records = aware.obs_records()
        (tq,) = [r for r in records if r["kind"] == "telquality"]
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
