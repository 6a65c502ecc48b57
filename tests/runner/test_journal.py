"""Sweep journal: the grid round-trips, and replay tolerates old and torn lines."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig
from repro.runner.journal import RunJournal
from repro.runner.spec import CalibrationSpec, RunSpec, canonical_json


def _specs(n=3):
    base = RunSpec.from_config(ExperimentConfig(scale=SMOKE_SCALE, seed=7))
    return [base.with_(seed=base.seed + i) for i in range(n)]


def _grid(specs):
    return {s.content_hash(): s for s in specs}


class TestRoundTrip:
    def test_grid_round_trips_in_order(self, tmp_path):
        journal = RunJournal(str(tmp_path / "sweep.journal"))
        specs = _specs(3)
        journal.write(_grid(specs))
        assert journal.load() == specs
        lines = [json.loads(line) for line in open(journal.path)]
        assert [r["record"] for r in lines] == ["scheduled"] * 3
        assert [r["spec_hash"] for r in lines] == [s.content_hash() for s in specs]

    def test_schedule_done_failed_replay(self, tmp_path):
        # Journals written by earlier versions appended done / failed /
        # interrupted records: replay ignores them and keeps the grid.
        journal = RunJournal(str(tmp_path / "j"))
        specs = _specs(2)
        hashes = [s.content_hash() for s in specs]
        lines = [
            {"record": "scheduled", "spec_hash": h, "spec": s.to_dict()}
            for h, s in zip(hashes, specs)
        ] + [
            {"record": "done", "spec_hash": hashes[0], "cached": True},
            {"record": "failed", "spec_hash": hashes[1], "failure": {"kind": "crash"}},
            {"record": "interrupted", "completed": 1, "failed": 1, "total": 2},
        ]
        with open(journal.path, "w") as fh:
            fh.writelines(canonical_json(r) + "\n" for r in lines)
        warnings = []
        assert journal.load(on_warning=warnings.append) == specs
        assert warnings == []

    def test_calibration_specs_round_trip(self, tmp_path):
        journal = RunJournal(str(tmp_path / "j"))
        spec = CalibrationSpec(utilization=0.5, duration=6.0)
        journal.write(_grid([spec]))
        assert journal.load() == [spec]

    def test_write_replaces_the_grid(self, tmp_path):
        journal = RunJournal(str(tmp_path / "j"))
        specs = _specs(3)
        journal.write(_grid(specs))
        first = open(journal.path, "rb").read()
        journal.write(_grid(specs))
        assert open(journal.path, "rb").read() == first
        journal.write(_grid(specs[:1]))
        assert journal.load() == specs[:1]

    def test_write_creates_parent_dirs(self, tmp_path):
        journal = RunJournal(str(tmp_path / "deep" / "nested" / "j"))
        journal.write(_grid(_specs(1)))
        assert journal.exists()
        assert [n for n in (tmp_path / "deep" / "nested").iterdir()
                if n.name.endswith(".tmp")] == []


class TestLastRecordWins:
    def test_rescheduling_keeps_first_order(self, tmp_path):
        # Earlier versions re-appended the grid on every resume: a spec
        # scheduled twice loads once, at its first position.
        journal = RunJournal(str(tmp_path / "j"))
        specs = _specs(2)
        journal.write(_grid(specs))
        with open(journal.path, "a") as fh:
            for s in reversed(specs):
                fh.write(canonical_json({
                    "record": "scheduled", "spec_hash": s.content_hash(),
                    "spec": s.to_dict(),
                }) + "\n")
        assert journal.load() == specs


class TestTolerantReplay:
    def test_torn_final_line_skipped_with_warning(self, tmp_path):
        journal = RunJournal(str(tmp_path / "j"))
        spec = _specs(1)[0]
        journal.write(_grid([spec]))
        with open(journal.path, "a") as fh:
            fh.write('{"record": "scheduled", "spec_ha')  # killed mid-append
        warnings = []
        assert journal.load(on_warning=warnings.append) == [spec]
        assert len(warnings) == 1 and "torn" in warnings[0]

    def test_unknown_and_non_object_records_skipped(self, tmp_path):
        # Unknown record kinds are ignored silently, as the completion
        # records of older journals are; lines that are no record warn.
        journal = RunJournal(str(tmp_path / "j"))
        spec = _specs(1)[0]
        journal.write(_grid([spec]))
        with open(journal.path, "a") as fh:
            fh.write(json.dumps({"record": "from-the-future"}) + "\n")
            fh.write("[1, 2]\n")
            fh.write(json.dumps({"record": "scheduled", "spec_hash": 7}) + "\n")
        warnings = []
        assert journal.load(on_warning=warnings.append) == [spec]
        assert len(warnings) == 2
        assert any("non-object" in w for w in warnings)
        assert any("bad scheduled record" in w for w in warnings)

    def test_unloadable_spec_skipped(self, tmp_path):
        journal = RunJournal(str(tmp_path / "j"))
        with open(journal.path, "w") as fh:
            fh.write(json.dumps({
                "record": "scheduled",
                "spec_hash": "a" * 64,
                "spec": {"kind": "no-such-kind"},
            }) + "\n")
        warnings = []
        assert journal.load(on_warning=warnings.append) == []
        assert len(warnings) == 1 and "unloadable" in warnings[0]

    def test_missing_file_raises(self, tmp_path):
        journal = RunJournal(str(tmp_path / "nope.journal"))
        assert not journal.exists()
        with pytest.raises(ExperimentError, match="not found"):
            journal.load()
