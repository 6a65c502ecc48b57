"""Unit tests for the counterfactual decision observatory."""

import pytest

from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig, run_experiment
from repro.obs import Observability
from repro.obs.whatif import (
    BandwidthFirstPolicy,
    EstimateGreedyPolicy,
    OraclePolicy,
    RandomPolicy,
    RoundRobinPolicy,
    default_policies,
    render_whatif_report,
    replay_decisions,
)
from tests.obs.decisions import delay_decision, points, sampled_hub


def _decision(
    time=1.0, requester=100, chosen=1,
    candidates=((1, 0.30, 0.32), (2, 0.20, 0.25), (3, 0.40, 0.50)),
):
    """One decision-audit dict: (addr, estimated, truth) triples."""
    return {
        "kind": "decision-audit",
        "time": time,
        "requester_addr": requester,
        "metric": "delay",
        "chosen_addr": chosen,
        "candidates": [
            {"server_addr": a, "value": e, "estimated_delay": e, "truth_delay": t}
            for a, e, t in candidates
        ],
    }


class TestPolicies:
    CTX = {"index": 0, "requester_addr": 100, "time": 1.0}

    def test_estimate_greedy_follows_estimates(self):
        cands = _decision()["candidates"]
        assert EstimateGreedyPolicy().choose(cands, self.CTX) == 2

    def test_estimate_greedy_falls_back_to_value(self):
        # Baseline audits carry no estimated_delay; the rank value stands in.
        cands = [
            {"server_addr": 1, "value": 3, "truth_delay": 0.3},
            {"server_addr": 2, "value": 1, "truth_delay": 0.5},
        ]
        assert EstimateGreedyPolicy().choose(cands, self.CTX) == 2

    def test_oracle_picks_true_best(self):
        cands = _decision()["candidates"]
        assert OraclePolicy().choose(cands, self.CTX) == 2

    def test_random_is_deterministic_per_index(self):
        cands = _decision()["candidates"]
        first = RandomPolicy().choose(cands, {"index": 7})
        again = RandomPolicy().choose(cands, {"index": 7})
        assert first == again
        picks = {RandomPolicy().choose(cands, {"index": i}) for i in range(40)}
        assert len(picks) > 1  # actually varies across decisions

    def test_round_robin_cycles_per_requester(self):
        policy = RoundRobinPolicy()
        cands = _decision()["candidates"]
        seq = [policy.choose(cands, {"requester_addr": 100}) for _ in range(4)]
        assert seq == [1, 2, 3, 1]
        # A different requester has its own cursor.
        assert policy.choose(cands, {"requester_addr": 200}) == 1

    def test_bandwidth_first_minimizes_bottleneck_qdepth(self):
        cands = [
            {"server_addr": 1, "truth_delay": 0.1,
             "hops": [{"qdepth": 4}, {"qdepth": 9}]},
            {"server_addr": 2, "truth_delay": 0.2,
             "hops": [{"qdepth": 5}, {"qdepth": 5}]},
        ]
        assert BandwidthFirstPolicy().choose(cands, self.CTX) == 2

    def test_default_policies_fresh_instances(self):
        a, b = default_policies(), default_policies()
        names = [p.name for p in a]
        assert names == [
            "estimate-greedy", "random", "round-robin", "bandwidth-first",
            "oracle",
        ]
        assert all(x is not y for x, y in zip(a, b))


class TestReplay:
    def test_regret_and_policy_scores(self):
        # chosen=1 (truth .32) vs best=2 (truth .25): regret .07 per decision
        body = replay_decisions([_decision(), _decision(time=2.0)])
        assert body["decisions"] == 2
        assert body["replayed"] == 2
        assert body["skipped"] == 0
        assert body["actual"]["regret_total"] == pytest.approx(0.14)
        by_name = {p["policy"]: p for p in body["policies"]}
        # estimate-greedy picks 2 (est .20): wins both, zero regret.
        assert by_name["estimate-greedy"]["regret_total"] == 0.0
        assert by_name["estimate-greedy"]["wins"] == 2
        assert by_name["estimate-greedy"]["differs"] == 2
        # oracle is zero regret by construction.
        assert by_name["oracle"]["regret_total"] == 0.0

    def test_oracle_zero_regret_always(self):
        decisions = [
            _decision(time=t, chosen=c, candidates=cands)
            for t, c, cands in (
                (1.0, 3, ((1, 0.1, 0.9), (3, 0.5, 0.2))),
                (2.0, 1, ((1, 0.1, 0.15), (2, 0.2, 0.15))),
            )
        ]
        body = replay_decisions(decisions)
        oracle = next(p for p in body["policies"] if p["policy"] == "oracle")
        assert oracle["regret_total"] == 0.0

    def test_skip_rules(self):
        no_chosen = _decision()
        no_chosen["chosen_addr"] = None
        no_truth = _decision()
        for cand in no_truth["candidates"]:
            cand["truth_delay"] = None
        raw = _decision()
        raw["metric"] = "raw"
        body = replay_decisions([_decision(), no_chosen, no_truth, raw])
        assert body["decisions"] == 3  # raw not a delay decision
        assert body["replayed"] == 1
        assert body["skipped"] == 2

    def test_staleness_bins_reconcile(self):
        decisions = [_decision(time=float(i)) for i in range(5)]
        ages = [0.04, 0.04, 0.25, 3.0, None]  # interval 0.1
        body = replay_decisions(decisions, probing_interval=0.1, ages=ages)
        bins = {b["label"]: b for b in body["staleness"]["bins"]}
        assert bins["[0x, 0.5x)"]["count"] == 2
        assert bins["[2x, 5x)"]["count"] == 1
        assert bins[">= 20x"]["count"] == 1
        assert bins["unknown"]["count"] == 1
        assert sum(b["count"] for b in body["staleness"]["bins"]) == 5
        total = sum(b["regret_total"] for b in body["staleness"]["bins"])
        assert total == pytest.approx(body["actual"]["regret_total"])

    def test_window_attribution_from_exported_events(self):
        events = [
            {"kind": "event", "event": "probe_lost", "time": 1.05,
             "src": 1, "dst": 2, "seq": 9, "lost": 1},
            {"kind": "event", "event": "fault_injected", "time": 2.5,
             "fault": "link_down", "target": "l1"},
        ]
        decisions = [_decision(time=t) for t in (1.0, 2.0, 3.0)]
        body = replay_decisions(decisions, probing_interval=0.1, events=events)
        # Loss window [0.85, 1.05] covers t=1.0 only.
        assert body["loss_windows"]["in"]["count"] == 1
        assert body["loss_windows"]["out"]["count"] == 2
        # Unrecovered fault stays open: covers t=3.0 only.
        assert body["fault_windows"]["in"]["count"] == 1
        assert body["fault_windows"]["out"]["count"] == 2

    def test_replay_is_bit_exact_across_invocations(self):
        from repro.runner.spec import canonical_json

        decisions = [
            _decision(time=float(i), requester=100 + i % 3) for i in range(30)
        ]
        first = replay_decisions(decisions, probing_interval=0.1)
        again = replay_decisions(decisions, probing_interval=0.1)
        assert canonical_json(first) == canonical_json(again)

    def test_duplicate_policy_names_rejected(self):
        with pytest.raises(ValueError):
            replay_decisions([_decision()], policies=[OraclePolicy(), OraclePolicy()])


class TestLiveCollection:
    def test_hub_disabled_by_default(self):
        obs = Observability()
        assert obs.whatif is None
        assert all(r["kind"] != "whatif" for r in obs.snapshot_records())

    def test_snapshot_appends_single_record_last(self):
        obs = Observability(whatif=True)
        obs.audit.record(delay_decision(_decision()["candidates"]))
        records = obs.snapshot_records()
        assert records[-1]["kind"] == "whatif"
        assert sum(1 for r in records if r["kind"] == "whatif") == 1
        assert records[-1]["replayed"] == 1
        assert records[-1]["actual"]["regret_total"] == pytest.approx(0.07)

    def test_take_max_regret_cursor(self, sim):
        obs = sampled_hub(sim, whatif=True)
        obs.sample_tick(sim)
        assert points(obs, "decision_regret_max") == []
        obs.audit.record(delay_decision(_decision()["candidates"], chosen=1))  # .07
        obs.audit.record(delay_decision(_decision()["candidates"], chosen=2))  # 0
        obs.sample_tick(sim)
        assert points(obs, "decision_regret_max") == [pytest.approx(0.07)]
        obs.sample_tick(sim)
        assert len(points(obs, "decision_regret_max")) == 1  # window drained

    def test_summary_section(self):
        obs = Observability(whatif=True)
        obs.whatif.configure(probing_interval=0.1)
        obs.audit.record(delay_decision(_decision()["candidates"]))
        assert obs.summary()["whatif"] == {
            "interval": 0.1, "decisions": 1, "priced": 1,
        }


class TestAuditOverflowWarning:
    def test_one_shot_warning_with_final_drop_count(self):
        obs = Observability(max_decisions=2)
        for _ in range(5):
            obs.audit.record(delay_decision([], chosen=None))
        records = obs.snapshot_records()
        warnings = [
            r for r in records
            if r["kind"] == "event" and r.get("event") == "warning"
            and r.get("reason") == "decision_audit_overflow"
        ]
        assert len(warnings) == 1
        assert warnings[0]["dropped"] == 3
        assert warnings[0]["max_decisions"] == 2
        # One-shot: a second snapshot does not emit another warning.
        again = [
            r for r in obs.snapshot_records()
            if r["kind"] == "event"
            and r.get("reason") == "decision_audit_overflow"
        ]
        assert len(again) == 1

    def test_no_warning_when_nothing_dropped(self):
        obs = Observability()
        obs.audit.record(delay_decision([], chosen=None))
        assert not [
            r for r in obs.snapshot_records()
            if r.get("reason") == "decision_audit_overflow"
        ]

    def test_surfaced_in_obs_report(self):
        from repro.obs.export import render_obs_report

        obs = Observability(run={"policy": "aware"}, max_decisions=1)
        for _ in range(3):
            obs.audit.record(delay_decision([], chosen=None))
        text = render_obs_report(obs.snapshot_records())
        assert "decision audit overflow" in text
        assert "2 decisions dropped" in text

    def test_bounded_audit_with_live_observers(self):
        """The observers derive everything from the decisions the audit
        kept, so a full audit bounds them too."""
        obs = Observability(
            run={"policy": "aware"}, max_decisions=3, telquality=True, whatif=True
        )
        run_experiment(ExperimentConfig(scale=SMOKE_SCALE, seed=1), obs=obs)
        assert obs.audit.dropped_decisions > 0   # the cell made more than 3
        records = obs.snapshot_records()
        (whatif,) = [r for r in records if r["kind"] == "whatif"]
        stored = sum(1 for d in obs.audit.decisions if d.metric == "delay")
        assert whatif["decisions"] == stored == 3
        assert obs.summary()["whatif"]["decisions"] == stored
        (telquality,) = [r for r in records if r["kind"] == "telquality"]
        bins = telquality["attribution"]["bins"]
        samples = obs.audit.error_report()["samples"]
        assert sum(b["count"] for b in bins) == telquality["attribution"]["samples"]
        assert telquality["attribution"]["samples"] == samples > 0
        (warning,) = [
            r for r in records if r.get("reason") == "decision_audit_overflow"
        ]
        assert warning["dropped"] == obs.audit.dropped_decisions
        assert warning["max_decisions"] == 3


class TestReport:
    def _records(self):
        obs = Observability(run={"policy": "aware"}, whatif=True)
        obs.whatif.configure(probing_interval=0.1)
        for i in range(4):
            obs.audit.record(delay_decision(_decision()["candidates"], time=float(i)))
        return obs.snapshot_records()

    def test_cross_checks_all_ok(self):
        text = render_whatif_report(self._records())
        assert "oracle hindsight check" in text
        assert "decision-audit delay decisions: OK" in text
        assert "vs actual total" in text
        assert "MISMATCH" not in text

    def test_mismatch_flagged_on_tampered_record(self):
        records = self._records()
        (wi,) = [r for r in records if r["kind"] == "whatif"]
        wi["policies"][0]["regret_total"] += 1.0
        assert "MISMATCH" in render_whatif_report(records)

    def test_telquality_reconciliation_when_present(self):
        records = self._records()
        run = records[0].get("run")
        records.append({
            "kind": "telquality", "run": run,
            "attribution": {"decisions": 4},
        })
        text = render_whatif_report(records)
        assert "telquality attribution decisions: OK" in text
        assert "MISMATCH" not in text

    def test_telquality_reconciliation_skipped_for_baselines(self):
        """A baseline scheduler consults no telemetry store, so telquality
        attributes zero decisions while whatif replays all of them — the
        report must call that structural, not MISMATCH."""
        records = self._records()
        run = records[0].get("run")
        records.append({
            "kind": "telquality", "run": run,
            "attribution": {"decisions": 0},
        })
        text = render_whatif_report(records)
        assert "telquality reconciliation: skipped" in text
        assert "MISMATCH" not in text

    def test_telquality_zero_with_consulted_hops_is_mismatch(self):
        """...but zero attributed decisions on a run whose staleness bins
        show consulted telemetry is a genuine disagreement."""
        records = self._records()
        run = records[0].get("run")
        (wi,) = [r for r in records if r["kind"] == "whatif"]
        wi["staleness"]["bins"][0]["count"] += 1
        records.append({
            "kind": "telquality", "run": run,
            "attribution": {"decisions": 0},
        })
        text = render_whatif_report(records)
        assert "telquality attribution decisions: MISMATCH" in text

    def test_offline_fallback_without_whatif_record(self):
        records = [r for r in self._records() if r["kind"] != "whatif"]
        text = render_whatif_report(records)
        assert "replaying decision audits offline" in text
        assert "estimate-greedy" in text

    def test_placeholder_without_usable_records(self):
        text = render_whatif_report([{"kind": "metric"}])
        assert "--whatif" in text

    def test_report_round_trips_through_json(self):
        import json

        records = json.loads(json.dumps(self._records()))
        assert render_whatif_report(records) == render_whatif_report(
            self._records()
        )
