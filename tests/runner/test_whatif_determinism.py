"""What-if: replay is offline-reproducible and reconciles with telquality.

The registry-wide checks (executor and cache byte-identity, hash stamping,
record placement, unperturbed outcomes, the filtered export equal to the
plain one) live in ``test_observer_determinism.py``; these are the
counterfactual ones: re-replaying the exported decision audits offline must
reproduce the exported ``whatif`` record's policy totals bit-exactly, with
the oracle at exactly zero regret.
"""

import pytest

from .conftest import smoke_grid

pytestmark = pytest.mark.slow


class TestWhatifDeterminism:
    def test_offline_replay_matches_exported_record(self, cell_runner):
        """Acceptance: re-walking the exported decision audits with the
        same engine reproduces the exported policy totals bit-exactly, the
        oracle sits at exactly zero regret, and the staleness bins sum to
        the replayed decision count and the actual regret total."""
        from repro.runner.spec import canonical_json
        from repro.obs.whatif import replay_decisions

        for result in cell_runner({"whatif": True}).run(smoke_grid()):
            records = result.obs_records()
            (wi,) = [r for r in records if r["kind"] == "whatif"]
            assert wi["decisions"] == wi["replayed"] + wi["skipped"]
            decisions = [
                r for r in records
                if r["kind"] == "decision-audit" and r.get("metric") == "delay"
            ]
            events = [r for r in records if r["kind"] == "event"]
            offline = replay_decisions(
                decisions, probing_interval=wi["interval"], events=events
            )
            assert offline["replayed"] == wi["replayed"]
            assert offline["skipped"] == wi["skipped"]
            assert canonical_json(offline["policies"]) == canonical_json(
                wi["policies"]
            ), result.spec.label()
            oracle = next(
                p for p in wi["policies"] if p["policy"] == "oracle"
            )
            assert oracle["regret_total"] == 0.0
            bins = wi["staleness"]["bins"]
            assert sum(b["count"] for b in bins) == wi["replayed"]
            assert sum(b["regret_total"] for b in bins) == pytest.approx(
                wi["actual"]["regret_total"]
            )
            # Replaying twice is bit-exact.
            again = replay_decisions(
                decisions, probing_interval=wi["interval"], events=events
            )
            assert canonical_json(offline) == canonical_json(again)

    def test_staleness_bins_reconcile_with_telquality(self, cell_runner):
        """Both observatories on one run gate the same decisions: the
        whatif record's delay-decision count equals the telquality
        attribution's."""
        [result] = cell_runner({"telquality": True, "whatif": True}).run(smoke_grid()[:1])
        records = result.obs_records()
        (wi,) = [r for r in records if r["kind"] == "whatif"]
        (tq,) = [r for r in records if r["kind"] == "telquality"]
        assert wi["decisions"] == tq["attribution"]["decisions"]
        # And the whatif record still appends after telquality.
        kinds = [r["kind"] for r in records]
        assert kinds.index("whatif") > kinds.index("telquality")
