"""Runner determinism: serial == parallel == cached, byte for byte.

These are the acceptance tests for the runner subsystem: a grid executed
with ``jobs=4`` must produce payloads byte-identical to the serial
execution, and a cache hit must return exactly the bytes the original run
wrote to disk.
"""

import json

import pytest

from repro.runner import (
    CalibrationSpec,
    ResultCache,
    Runner,
    RunResult,
    RunSpec,
    expand_grid,
)
from repro.simnet.random import derive_seed

from .conftest import smoke_grid as _grid

pytestmark = pytest.mark.slow


@pytest.fixture
def serial_results(cell_runner):
    return cell_runner().run(_grid())


class TestSerialVsParallel:
    def test_jobs4_payloads_byte_identical_to_serial(self, serial_results):
        parallel = Runner(jobs=4).run(_grid())
        assert len(parallel) == len(serial_results) == 4
        for s, p in zip(serial_results, parallel):
            assert not p.from_cache
            assert s.payload_json() == p.payload_json(), s.spec.label()

    def test_serial_rerun_is_byte_identical(self, serial_results):
        again = Runner(jobs=1).run(_grid()[:1])
        assert again[0].payload_json() == serial_results[0].payload_json()


class TestCacheSemantics:
    def test_hit_returns_exactly_the_cached_bytes(self, tmp_path, serial_results):
        cache = ResultCache(str(tmp_path))
        spec = _grid()[0]
        first = Runner(jobs=1, cache=cache).run([spec])[0]
        assert not first.from_cache
        with open(cache.path(spec.content_hash()), "rb") as fh:
            disk = fh.read()
        second = Runner(jobs=1, cache=cache).run([spec])[0]
        assert second.from_cache
        assert second.to_json().encode("utf-8") == disk
        assert second.payload_json() == first.payload_json()
        assert second.payload_json() == serial_results[0].payload_json()

    def test_cached_result_reconstructs_full_experiment(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _grid()[0]
        Runner(jobs=1, cache=cache).run([spec])
        hit = Runner(jobs=1, cache=cache).run([spec])[0]
        result = hit.experiment_result()
        assert result.tasks_completed + result.tasks_failed == spec.total_tasks
        assert result.config.policy == spec.policy
        assert len(result.records_in_order) == spec.total_tasks

    def test_runner_stats_count_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        specs = _grid()[:2]
        warm = Runner(jobs=1, cache=cache)
        warm.run(specs)
        assert warm.stats.executed == 2 and warm.stats.cache_hits == 0
        hot = Runner(jobs=1, cache=cache)
        hot.run(specs)
        assert hot.stats.executed == 0 and hot.stats.cache_hits == 2


class TestRunnerMechanics:
    def test_duplicate_specs_share_one_result(self):
        spec = _grid()[0]
        a, b = Runner(jobs=1).run([spec, spec])
        assert a is b

    def test_results_come_back_in_spec_order(self, serial_results):
        labels = [r.spec.label() for r in serial_results]
        assert labels == [s.label() for s in _grid()]

    def test_invalid_jobs_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            Runner(jobs=0)

    def test_envelope_round_trip(self, serial_results):
        result = serial_results[0]
        again = RunResult.from_envelope(json.loads(result.to_json()))
        assert again.spec == result.spec
        assert again.payload_json() == result.payload_json()

    def test_progress_reports_every_run(self):
        lines = []
        Runner(jobs=1, progress=lines.append).run(_grid()[:2])
        assert len(lines) == 2
        assert "[2/2]" in lines[1] and "eta" in lines[1]


class TestCalibrationSpecs:
    def test_calibration_point_reconstructs(self):
        spec = CalibrationSpec(utilization=0.5, duration=6.0)
        run = Runner(jobs=1).run([spec])[0]
        point = run.calibration_point()
        assert point.utilization == 0.5
        assert point.qdepth_samples > 0

    def test_wrong_view_raises(self):
        spec = CalibrationSpec(utilization=0.0, duration=6.0)
        run = Runner(jobs=1).run([spec])[0]
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run.experiment_result()


class TestGridExpansion:
    def test_axis_order_fixes_expansion_order(self):
        base = RunSpec()
        grid = expand_grid(base, {"policy": ["aware", "nearest"], "seed": [1, 2]})
        assert [(s.policy, s.seed) for s in grid] == [
            ("aware", 1), ("aware", 2), ("nearest", 1), ("nearest", 2)
        ]


def test_repeat_seeds_are_policy_independent():
    """Satellite: per-repeat seeds derive from (master seed, repeat index)
    only — never from the policy axis or its ordering."""
    base = RunSpec()
    forward = expand_grid(
        base, {"policy": ["aware", "nearest"]}, repeats=3, master_seed=7
    )
    backward = expand_grid(
        base, {"policy": ["nearest", "aware"]}, repeats=3, master_seed=7
    )
    by_policy_fwd = {
        p: [s.seed for s in forward if s.policy == p]
        for p in ("aware", "nearest")
    }
    by_policy_bwd = {
        p: [s.seed for s in backward if s.policy == p]
        for p in ("aware", "nearest")
    }
    # Every policy sees the same repeat-seed sequence, in either grid order.
    assert by_policy_fwd["aware"] == by_policy_fwd["nearest"]
    assert by_policy_fwd == by_policy_bwd
    assert by_policy_fwd["aware"] == [derive_seed(7, f"repeat:{i}") for i in range(3)]
    # And the derivation itself is stable and collision-averse.
    assert len({derive_seed(7, f"repeat:{i}") for i in range(50)}) == 50


def test_paired_cells_share_repeat_pairing():
    """Paired policies share pairing keys per repeat, so the paired-gain
    machinery stays valid across a repeated grid."""
    base = RunSpec()
    grid = expand_grid(
        base, {"policy": ["aware", "nearest"]}, repeats=2, master_seed=1
    )
    aware = [s for s in grid if s.policy == "aware"]
    nearest = [s for s in grid if s.policy == "nearest"]
    for a, n in zip(aware, nearest):
        assert a.pairing_key() == n.pairing_key()
        assert a.content_hash() != n.content_hash()
