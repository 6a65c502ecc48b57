"""Content-addressed result cache: exact bytes, atomicity, invalidation.

The cache checks checksums and parses nothing; whether an intact entry is
the envelope of the spec asked for is the Runner's check, tested here
through a Runner whose executor is stubbed out."""

import json
import os

from repro.runner import CalibrationSpec, Runner
from repro.runner.cache import ResultCache
from repro.runner.spec import canonical_json, content_hash, spec_from_dict


def _envelope_bytes(spec_hash, payload=None):
    return canonical_json(
        {"spec_hash": spec_hash, "payload": payload or {"x": 1}}
    ).encode("utf-8")


SPEC = CalibrationSpec(utilization=0.25, duration=6.0)


def _stub_runner(monkeypatch, cache):
    """A serial Runner over ``cache`` whose runs return a fixed payload and
    are counted in the returned list."""
    executed = []

    def execute(spec_json):
        spec = spec_from_dict(json.loads(spec_json))
        executed.append(spec.content_hash())
        return canonical_json({
            "spec": spec.to_dict(), "spec_hash": spec.content_hash(),
            "payload": {"x": 1}, "provenance": {},
        })

    monkeypatch.setattr("repro.runner.runner._execute_envelope_json", execute)
    return Runner(jobs=1, cache=cache), executed


def _recomputed_and_overwritten(monkeypatch, cache):
    """Run SPEC twice over ``cache``: the first run must recompute and
    overwrite the entry without evicting it, the second must be served
    from it."""
    runner, executed = _stub_runner(monkeypatch, cache)
    [first] = runner.run([SPEC])
    assert not first.from_cache and executed == [SPEC.content_hash()]
    with open(cache.path(SPEC.content_hash()), "rb") as fh:
        assert json.loads(fh.read())["spec_hash"] == SPEC.content_hash()
    [second] = runner.run([SPEC])
    assert second.from_cache and len(executed) == 1
    assert cache.evictions == 0
    return runner


class TestCacheBasics:
    def test_miss_on_empty(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        assert cache.get("a" * 64) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_put_get_exact_bytes(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        h = content_hash({"spec": 1})
        data = _envelope_bytes(h)
        cache.put(h, data)
        assert cache.get(h) == data
        assert cache.hits == 1

    def test_put_overwrites(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        h = "b" * 64
        cache.put(h, _envelope_bytes(h, {"v": 1}))
        newer = _envelope_bytes(h, {"v": 2})
        cache.put(h, newer)
        assert cache.get(h) == newer

    def test_entries_len_size_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        hashes = sorted("%064x" % i for i in range(3))
        for h in hashes:
            cache.put(h, _envelope_bytes(h))
        assert cache.entries() == hashes
        assert len(cache) == 3
        assert cache.size_bytes() == sum(
            len(_envelope_bytes(h)) for h in hashes
        )
        assert cache.clear() == 3
        assert len(cache) == 0


class TestCacheIntegrity:
    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        h = "c" * 64
        cache.put(h, _envelope_bytes(h))
        with open(cache.path(h), "w") as fh:
            fh.write("{truncated")
        assert cache.get(h) is None

    def test_misfiled_entry_is_a_miss(self, monkeypatch, tmp_path):
        # An envelope stored under a hash it doesn't claim is not served.
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC.content_hash(), _envelope_bytes("e" * 64))
        _recomputed_and_overwritten(monkeypatch, cache)

    def test_non_dict_entry_is_a_miss(self, monkeypatch, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC.content_hash(), b"[1,2,3]")
        _recomputed_and_overwritten(monkeypatch, cache)

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        h = "a" * 64
        cache.put(h, _envelope_bytes(h))
        assert [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")] == []

    def test_stored_file_is_valid_json(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        h = "9" * 64
        cache.put(h, _envelope_bytes(h))
        with open(cache.path(h)) as fh:
            assert json.load(fh)["spec_hash"] == h


class TestCrashSafety:
    """Checksum sidecars: byte flips and truncation are caught, evicted with
    a warning, and reported as misses so the run recomputes."""

    def test_put_writes_checksum_sidecar(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        h = "a" * 64
        cache.put(h, _envelope_bytes(h))
        with open(cache.sidecar_path(h)) as fh:
            digest = fh.read().strip()
        import hashlib

        assert digest == hashlib.sha256(_envelope_bytes(h)).hexdigest()

    def test_byte_flip_evicted_with_warning(self, tmp_path):
        # The flipped entry is still valid JSON naming the right hash — only
        # the checksum can catch it.
        corrupt = []
        cache = ResultCache(
            str(tmp_path), on_corrupt=lambda h, r: corrupt.append((h, r))
        )
        h = "b" * 64
        cache.put(h, _envelope_bytes(h, {"x": 1}))
        flipped = _envelope_bytes(h, {"x": 2})
        with open(cache.path(h), "wb") as fh:
            fh.write(flipped)
        assert cache.get(h) is None
        assert cache.evictions == 1
        assert len(corrupt) == 1 and corrupt[0][0] == h
        assert "checksum" in corrupt[0][1]
        # Evicted: entry and sidecar both gone, next put works cleanly.
        assert not os.path.exists(cache.path(h))
        assert not os.path.exists(cache.sidecar_path(h))
        cache.put(h, _envelope_bytes(h, {"x": 3}))
        assert cache.get(h) == _envelope_bytes(h, {"x": 3})

    def test_truncated_entry_evicted(self, tmp_path):
        corrupt = []
        cache = ResultCache(
            str(tmp_path), on_corrupt=lambda h, r: corrupt.append((h, r))
        )
        h = "c" * 64
        cache.put(h, _envelope_bytes(h))
        data = _envelope_bytes(h)
        with open(cache.path(h), "wb") as fh:
            fh.write(data[: len(data) // 2])
        assert cache.get(h) is None
        assert cache.evictions == 1 and len(corrupt) == 1

    def test_entry_without_sidecar_is_a_miss_not_evicted(self, tmp_path):
        # A put between its entry and sidecar writes looks like this: the
        # entry stays for that put to finish.
        corrupt = []
        cache = ResultCache(
            str(tmp_path), on_corrupt=lambda h, r: corrupt.append((h, r))
        )
        h = "d" * 64
        cache.put(h, _envelope_bytes(h))
        os.unlink(cache.sidecar_path(h))
        assert cache.get(h) is None
        assert cache.misses == 1 and cache.evictions == 0 and corrupt == []
        assert os.path.exists(cache.path(h))

    def test_misfiled_entry_not_evicted(self, monkeypatch, tmp_path):
        # Intact bytes under the wrong name: the cache serves them (it
        # parses nothing), the Runner treats them as a miss, not corruption,
        # and overwrites them.
        cache = ResultCache(str(tmp_path))
        misfiled = _envelope_bytes("f" * 64)
        cache.put(SPEC.content_hash(), misfiled)
        assert cache.get(SPEC.content_hash()) == misfiled
        runner = _recomputed_and_overwritten(monkeypatch, cache)
        assert runner.events.snapshot() == []

    def test_verify_scans_and_evicts(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        good, bad, legacy = "1" * 64, "2" * 64, "3" * 64
        for h in (good, bad, legacy):
            cache.put(h, _envelope_bytes(h))
        with open(cache.path(bad), "wb") as fh:
            fh.write(_envelope_bytes(bad, {"x": 99}))  # flip past the sidecar
        os.unlink(cache.sidecar_path(legacy))
        report = cache.verify()
        assert report["checked"] == 3
        assert [h for h, _ in report["evicted"]] == [bad]
        assert report["unverified"] == [legacy]
        assert cache.get(good) is not None

    def test_clear_removes_sidecars(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        h = "4" * 64
        cache.put(h, _envelope_bytes(h))
        assert cache.clear() == 1
        assert os.listdir(str(tmp_path)) == []
