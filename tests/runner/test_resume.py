"""Checkpointed resume: interrupted sweeps finish byte-identically.

The acceptance contract: a grid that crashes mid-sweep and is resumed must
export exactly the bytes an uninterrupted run would have — completed cells
come off the cache, missing/failed cells re-run, nothing drifts.
"""

import json

import pytest

from repro.cli import main
from repro.runner import (
    CalibrationSpec,
    ResultCache,
    RunJournal,
    Runner,
)

pytestmark = pytest.mark.slow


def _grid():
    return [
        CalibrationSpec(utilization=u, duration=6.0)
        for u in (0.2, 0.4, 0.6, 0.8)
    ]


class TestResumeByteIdentity:
    def test_crash_then_resume_matches_clean_run(self, monkeypatch, tmp_path):
        specs = _grid()
        reference = [
            r.payload_json() for r in Runner(jobs=1).run(specs)
        ]

        # First pass: one cell's worker is SIGKILLed (no retries), the rest
        # complete and persist.
        monkeypatch.setenv("REPRO_CHAOS", json.dumps(
            [{"match": '"utilization":0.4', "action": "kill"}]
        ))
        cache = ResultCache(str(tmp_path / "cache"))
        journal = RunJournal(str(tmp_path / "sweep.journal"))
        first = Runner(
            jobs=2, retries=0, cache=cache, journal=journal, on_failure="keep"
        )
        results = first.run(specs)
        assert sum(1 for r in results if not r.ok) == 1
        assert len(cache.entries()) == 3

        # Resume: rebuild the grid from the journal alone, chaos gone.
        monkeypatch.delenv("REPRO_CHAOS")
        state = journal.load()
        assert [s.content_hash() for s in specs] == state.order
        assert len(state.pending) == 1
        resumed = Runner(
            jobs=1, cache=cache, journal=journal, on_failure="keep"
        )
        final = resumed.run([state.specs[h] for h in state.order])
        assert all(r.ok for r in final)
        assert resumed.stats.cache_hits == 3 and resumed.stats.executed == 1
        assert [r.payload_json() for r in final] == reference
        # The journal now records the whole grid as done.
        assert journal.load().pending == []


class TestResumeCli:
    def test_interrupted_cli_sweep_resumes_clean(
        self, monkeypatch, tmp_path, capsys
    ):
        journal = str(tmp_path / "calib.journal")
        cache_dir = str(tmp_path / "cache")
        argv = [
            "calibrate", "--levels", "0.2", "0.5", "--duration", "6",
            "--jobs", "2", "--retries", "0",
            "--journal", journal, "--cache-dir", cache_dir,
        ]
        monkeypatch.setenv("REPRO_CHAOS", json.dumps(
            [{"match": '"utilization":0.5', "action": "kill"}]
        ))
        assert main(argv) == 1  # RunsFailedError after the full grid
        assert "failed" in capsys.readouterr().err

        monkeypatch.delenv("REPRO_CHAOS")
        payloads = tmp_path / "payloads.jsonl"
        rc = main([
            "resume", journal, "--cache-dir", cache_dir,
            "--payloads-out", str(payloads),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 from cache, 1 executed, 0 failed" in out
        records = [
            json.loads(line) for line in payloads.read_text().splitlines()
        ]
        assert len(records) == 2
        assert records[0]["spec_hash"] != records[1]["spec_hash"]
        assert all("calibration" in r["payload"] for r in records)

    def test_existing_journal_requires_resume_flag(self, tmp_path, capsys):
        journal = str(tmp_path / "calib.journal")
        cache_dir = str(tmp_path / "cache")
        argv = [
            "calibrate", "--levels", "0.2", "--duration", "6",
            "--journal", journal, "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Same command again: refuse to silently clobber the sweep...
        assert main(argv) == 2
        assert "--resume" in capsys.readouterr().err
        # ...but --resume picks it straight up (everything cached).
        assert main(argv + ["--resume"]) == 0

    def test_resume_flag_requires_journal(self, capsys):
        assert main([
            "calibrate", "--levels", "0.2", "--duration", "6", "--resume",
        ]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_resume_command_rejects_empty_journal(self, tmp_path, capsys):
        path = tmp_path / "empty.journal"
        path.write_text("")
        assert main(["resume", str(path)]) == 2
        assert "nothing to resume" in capsys.readouterr().err


class TestObserveMigration:
    """Spec hashes moved once, when six per-observer spec fields became one
    ``observe`` field.  A journal written before that resumes by re-running:
    its records hit the journal's unloadable-spec warning (no traceback),
    and the old cache entries are plain misses."""

    def test_old_six_field_journal_resumes_by_rerunning(self, tmp_path, capsys):
        from repro.runner import canonical_json, content_hash
        from repro.runner.spec import RunSpec

        journal, cache_dir = tmp_path / "sweep.journal", tmp_path / "cache"
        argv = ["compare", "--figure", "fig5", "--scale", "smoke", "--classes", "VS",
                "--journal", str(journal), "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        # Rewrite the finished sweep as the old code would have left it.
        cache = ResultCache(str(cache_dir))
        cache.clear()
        lines = []
        for record in map(json.loads, journal.read_text().splitlines()):
            if record["record"] != "scheduled":
                continue
            old = RunSpec.from_dict(record["spec"]).to_dict()
            del old["observe"]
            old.update(trace=False, profile=False, mem_profile=False,
                       sample_interval=None, telquality=False, whatif=False)
            h = content_hash(old)
            lines += [canonical_json({"record": "scheduled", "spec_hash": h, "spec": old}),
                      canonical_json({"record": "done", "spec_hash": h})]
            cache.put(h, canonical_json({"spec": old, "spec_hash": h}).encode())
        journal.write_text("\n".join(lines) + "\n")
        capsys.readouterr()

        warnings = []
        state = RunJournal(str(journal)).load(on_warning=warnings.append)
        assert state.order == [] and len(warnings) == 3
        assert all("unloadable spec" in w for w in warnings)
        assert main(argv + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert err.count("] run ") == 3 and "Traceback" not in err
        assert main(["resume", str(journal), "--cache-dir", str(cache_dir)]) == 0
        captured = capsys.readouterr()
        assert "3 from cache, 0 executed, 0 failed" in captured.out
        assert captured.err.count("unloadable spec") == 3
