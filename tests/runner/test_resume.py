"""Checkpointed resume: interrupted sweeps finish byte-identically.

The acceptance contract: a grid that crashes mid-sweep and is resumed must
export exactly the bytes an uninterrupted run would have — completed cells
come off the cache, missing/failed cells re-run, nothing drifts.  The
journal holds only the grid; the cache alone says which cells are done.
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
        grid = journal.load()
        hashes = [s.content_hash() for s in specs]
        assert [s.content_hash() for s in grid] == hashes
        assert [h for h in hashes if h not in cache.entries()] == [hashes[1]]
        resumed = Runner(
            jobs=1, cache=cache, journal=journal, on_failure="keep"
        )
        final = resumed.run(grid)
        assert all(r.ok for r in final)
        assert resumed.stats.cache_hits == 3 and resumed.stats.executed == 1
        assert [r.payload_json() for r in final] == reference
        # The cache now holds the whole grid; the journal still holds it.
        assert cache.entries() == sorted(hashes)
        assert journal.load() == grid


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

    def test_journal_without_cache_resumes_from_cache(
        self, monkeypatch, tmp_path, capsys
    ):
        # --journal implies --cache: every cell the sweep finished is served
        # from the default cache on resume, none runs again.
        monkeypatch.chdir(tmp_path)
        assert main([
            "calibrate", "--levels", "0.1", "0.2", "--duration", "6",
            "--journal", "j.journal",
        ]) == 0
        capsys.readouterr()
        assert main(["resume", "j.journal"]) == 0
        assert "2 from cache, 0 executed, 0 failed" in capsys.readouterr().out

    def test_second_resume_leaves_journal_byte_identical(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["calibrate", "--levels", "0.2", "--duration", "6",
                "--journal", "j.journal"]
        assert main(argv) == 0
        first = (tmp_path / "j.journal").read_bytes()
        # The same command again is the resume: nothing runs.
        assert main(argv) == 0
        assert "] cache " in capsys.readouterr().err
        assert main(["resume", "j.journal"]) == 0
        assert main(["resume", "j.journal"]) == 0
        assert "1 from cache, 0 executed" in capsys.readouterr().out
        assert (tmp_path / "j.journal").read_bytes() == first

    def test_resume_command_rejects_empty_journal(self, tmp_path, capsys):
        path = tmp_path / "empty.journal"
        path.write_text("")
        assert main(["resume", str(path)]) == 2
        assert "nothing to resume" in capsys.readouterr().err


class TestObserveMigration:
    """Spec hashes moved once, when six per-observer spec fields became one
    ``observe`` field.  A journal written before that resumes by re-running:
    its records hit the journal's unloadable-spec warning (no traceback),
    and the old cache entries are plain misses.  The re-run rewrites the
    journal with today's specs, so only the first load warns."""

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
        assert RunJournal(str(journal)).load(on_warning=warnings.append) == []
        assert len(warnings) == 3
        assert all("unloadable spec" in w for w in warnings)
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err.count("] run ") == 3 and "Traceback" not in err
        assert main(["resume", str(journal), "--cache-dir", str(cache_dir)]) == 0
        captured = capsys.readouterr()
        assert "3 from cache, 0 executed, 0 failed" in captured.out
        assert "unloadable spec" not in captured.err
