"""Exporters: JSONL round-trip and the report's observability renderer."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import DecisionRecord
from repro.obs import Observability
from repro.obs.export import (
    JsonlError,
    read_jsonl,
    render_obs_report,
    write_jsonl,
)


def _populated_hub(run=None):
    obs = Observability(run=run)
    obs.metrics.counter("probes_sent_total", src=1).inc(5)
    obs.metrics.gauge("run_sim_time_seconds").set(30.0)
    obs.events.packet_dropped(queue="s1[0]", flow_id=2, seq=7, size_bytes=1500,
                              is_probe=False)
    obs.audit.record(_delay_decision([
        {"server_addr": 2, "value": 0.03, "estimated_delay": 0.03,
         "truth_delay": 0.01},
        {"server_addr": 3, "value": 0.05, "estimated_delay": 0.05,
         "truth_delay": 0.06},
    ]))
    return obs


def _delay_decision(candidates):
    """A delay decision by requester 1 that chose server 2."""
    return DecisionRecord(0.0, 1, "delay", 2, candidates, None)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        obs = _populated_hub(run={"policy": "aware"})
        path = str(tmp_path / "run.jsonl")
        n = write_jsonl(obs.snapshot_records(), path)
        records = read_jsonl(path)
        assert len(records) == n == 4
        kinds = {r["kind"] for r in records}
        assert kinds == {"metric", "event", "decision-audit"}
        assert all(r["run"] == {"policy": "aware"} for r in records)

    def test_append_mode(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_jsonl([{"kind": "metric", "name": "a"}], path)
        write_jsonl([{"kind": "metric", "name": "b"}], path, append=True)
        assert [r["name"] for r in read_jsonl(path)] == ["a", "b"]

    def test_lines_are_single_json_objects(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_jsonl(_populated_hub().snapshot_records(), path)
        with open(path) as fh:
            for line in fh:
                assert isinstance(json.loads(line), dict)


_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.text(max_size=12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((1e-320, 5e-324, 1.7976931348623157e308, 1e22, 1e-7, -0.0, 0.1 + 0.2)),
)
_value = st.recursive(
    _scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)
_record = st.dictionaries(st.text(max_size=8), _value, max_size=6)


class TestJsonlContract:
    """The module's one encoder and one decoder must give what a
    ``json.dumps`` and a ``json.loads`` per record give: same bytes out,
    same objects back."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_record, max_size=8), st.lists(st.integers(0, 8), max_size=4))
    def test_bytes_and_objects_match_per_record_codec(self, tmp_path_factory, records, blanks):
        path = str(tmp_path_factory.getbasetemp() / "contract.jsonl")   # one file, rewritten
        assert write_jsonl(records, path) == len(records)
        with open(path, "rb") as fh:
            data = fh.read()
        lines = [json.dumps(r, sort_keys=True) + "\n" for r in records]
        assert data == "".join(lines).encode()
        # Blank and whitespace-only lines anywhere are skipped on the way in.
        for at in sorted(blanks, reverse=True):
            lines.insert(min(at, len(lines)), "  \n" if at % 2 else "\n")
        with open(path, "w") as fh:
            fh.writelines(lines)
        back = read_jsonl(path)
        expected = [json.loads(line) for line in lines if line.strip()]
        assert back == expected
        # == calls 1 and 1.0, 0.0 and -0.0 equal; the text form does not.
        assert repr(back) == repr(expected)


class TestDamagedJsonl:
    GOOD = ['{"kind": "metric", "name": "a"}', '{"kind": "metric", "name": "b"}']

    def _error(self, tmp_path, text):
        path = tmp_path / "run.jsonl"
        path.write_text(text)
        with pytest.raises(JsonlError, match=f"^{re.escape(str(path))}:") as caught:
            read_jsonl(str(path))
        return caught.value

    def test_truncated_last_line_is_named_and_the_rest_kept(self, tmp_path):
        err = self._error(tmp_path, "\n".join(self.GOOD) + '\n\n{"kind": "met')
        assert (err.lineno, err.truncated) == (4, True)
        assert [r["name"] for r in err.records] == ["a", "b"]
        assert ":4: not JSON: " in str(err)

    def test_bad_line_elsewhere_is_not_a_truncation(self, tmp_path):
        err = self._error(tmp_path, self.GOOD[0] + '\n{"kind": \n' + self.GOOD[1] + "\n")
        assert (err.lineno, err.truncated) == (2, False)
        assert [r["name"] for r in err.records] == ["a"]

    def test_bad_last_line_that_was_written_whole_is_not_a_truncation(self, tmp_path):
        err = self._error(tmp_path, self.GOOD[0] + "\nnot json\n")
        assert (err.lineno, err.truncated) == (2, False)

    @pytest.mark.parametrize("lines", [
        ['{"a": 1}, {"b": 2}'],             # two values on one line
        ['[1', '2]'],                       # one value over two lines
        ['{"a": [1', '2]}', '{}, {}'],      # both: three values on three lines
    ])
    def test_a_line_is_judged_alone(self, tmp_path, lines):
        """Each set is a well-formed list once the lines are joined with
        commas; none of its first lines is a JSON value."""
        err = self._error(tmp_path, "\n".join(lines) + "\n")
        assert err.lineno == 1


class TestReport:
    def test_summary_counts_and_error(self, tmp_path):
        obs = _populated_hub(run={"policy": "aware", "size_class": "S"})
        report = render_obs_report(obs.snapshot_records())
        assert "metric 2, event 1, decision-audit 1" in report
        assert "packet_dropped" in report
        assert "policy=aware" in report
        assert "delay error" in report
        # mean abs error of (0.03-0.01, 0.05-0.06) = 15 ms
        assert "abs 15.00 ms" in report

    def test_no_truth_prints_na(self):
        obs = Observability(run={"policy": "nearest"})
        obs.audit.record(_delay_decision([{"server_addr": 2, "value": 1}]))
        report = render_obs_report(obs.snapshot_records())
        assert "n/a" in report

    def test_probe_loss_summary_per_run(self):
        obs = Observability(run={"policy": "aware"})
        obs.events.probe_lost(src=1, dst=5, seq=10, lost=3)
        obs.events.probe_lost(src=1, dst=5, seq=20, lost=1)
        obs.events.probe_lost(src=2, dst=5, seq=7, lost=2)
        other = Observability(run={"policy": "nearest"})
        other.events.probe_lost(src=1, dst=5, seq=4, lost=1)
        records = obs.snapshot_records() + other.snapshot_records()
        report = render_obs_report(records)
        assert "probe loss (collector seq gaps):" in report
        assert "policy=aware: 6 probes lost across 3 gap events (2 src/dst pairs)" in report
        assert "policy=nearest: 1 probes lost across 1 gap events (1 src/dst pairs)" in report

    def test_probe_loss_per_pair_table(self):
        obs = Observability(run={"policy": "aware"})
        obs.events.probe_lost(src=1, dst=5, seq=10, lost=3)
        obs.events.probe_lost(src=1, dst=5, seq=20, lost=1)
        obs.events.probe_lost(src=2, dst=5, seq=7, lost=2)
        report = render_obs_report(obs.snapshot_records())
        # One sorted row per (src, dst) pair under the run's summary line.
        assert "1 -> 5: 4 lost in 2 gap(s)" in report
        assert "2 -> 5: 2 lost in 1 gap(s)" in report
        assert report.index("1 -> 5") < report.index("2 -> 5")

    def test_no_probe_loss_section_when_clean(self):
        report = render_obs_report(_populated_hub().snapshot_records())
        assert "probe loss" not in report

    def test_telquality_counted_in_header(self):
        records = _populated_hub().snapshot_records()
        assert "telquality 0" in render_obs_report(records)
        records.append({"kind": "telquality"})
        assert "telquality 1" in render_obs_report(records)

    def test_whatif_counted_in_header(self):
        records = _populated_hub().snapshot_records()
        assert "whatif 0" in render_obs_report(records)
        records.append({"kind": "whatif"})
        assert "whatif 1" in render_obs_report(records)

    def test_delay_error_line_reports_skipped_candidates(self):
        obs = Observability(run={"policy": "aware"})
        obs.audit.record(_delay_decision([
            {"server_addr": 2, "estimated_delay": 0.03, "truth_delay": 0.01},
            {"server_addr": 3, "estimated_delay": 0.05, "truth_delay": None},
        ]))
        report = render_obs_report(obs.snapshot_records())
        assert "1 skipped" in report

    def test_resilience_section_surfaces_failures(self):
        obs = Observability()
        obs.events.emit(
            "runner_run_failed", label="calibration u=0.5",
            spec_hash="abc123def456", failure_kind="crash",
            error_type="WorkerCrash", message="worker died with SIGKILL",
            attempts=2, exit_signal="SIGKILL",
        )
        obs.events.emit(
            "runner_run_retry", spec_hash="abc123def456", attempt=1,
            failure_kind="crash", error_type="WorkerCrash", backoff_s=0.5,
        )
        obs.events.emit(
            "cache_corrupt", spec_hash="beefbeefbeef",
            reason="checksum mismatch",
        )
        report = render_obs_report(obs.snapshot_records())
        assert "runner resilience:" in report
        assert "failed runs: 1" in report
        assert "calibration u=0.5: crash/WorkerCrash after 2 attempt(s), signal SIGKILL" in report
        assert "retries: 1 (crash 1)" in report
        assert "corrupt cache entries evicted: 1 (beefbeefbeef)" in report

    def test_no_resilience_section_when_clean(self):
        report = render_obs_report(_populated_hub().snapshot_records())
        assert "runner resilience" not in report


class TestSummary:
    def test_run_summary_digest(self):
        obs = _populated_hub(run={"policy": "aware"})
        summary = obs.summary()
        assert summary["instruments"] == 2
        assert summary["events"] == 1
        assert summary["decisions"] == 1
        assert summary["delay_error"]["samples"] == 2
        assert summary["events_by_kind"] == {"packet_dropped": 1}


class TestObsReportProfileSection:
    def test_profile_record_renders_table(self):
        from repro.obs.export import render_obs_report

        record = {
            "kind": "profile",
            "profile": {
                "events_total": 42,
                "queue_high_water": 3,
                "wall_s": 0.5,
                "by_type": {"Host.on_ingress": {"count": 42, "wall_s": 0.4}},
                "phases": {"Host.on_ingress;demux": {"count": 42, "wall_s": 0.3}},
                "overhead": {"phase_pairs": 42, "clock_reads": 50,
                             "total_s": 0.001, "fraction_of_wall": 0.002},
                "memory": None,
                "phase_coverage": {"Host.on_ingress": 0.75},
            },
        }
        text = render_obs_report([record])
        assert "profile 1" in text
        assert "engine profile:" in text
        assert "Host.on_ingress" in text
        assert ";demux" in text

    def test_counts_line_includes_profile_kind(self):
        from repro.obs.export import render_obs_report

        assert "profile 0" in render_obs_report([])
