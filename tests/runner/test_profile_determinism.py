"""Profiling determinism: observing the engine must never perturb it.

The profile rides in result provenance.  The registry-wide checks (profiled
payloads equal plain ones across serial, ``jobs=4`` and cached runs) live in
``test_observer_determinism.py``; the phase taxonomy's digests and counts
live in ``tests/goldens.json`` under ``profile-taxonomy/<figure>``.
"""

import json

import pytest

from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig
from repro.runner import Runner, RunSpec
from tests import goldens

from .conftest import smoke_grid as _grid

pytestmark = pytest.mark.slow

PROFILE = {"profile": True}
MEM_PROFILE = {"mem_profile": True}


class TestProfilingDeterminism:
    def test_profile_lives_in_provenance_not_payload(self, cell_runner):
        for result in cell_runner(PROFILE).run(_grid()):
            assert "_profile" not in json.loads(result.payload_json())
            profile = result.profile()
            assert profile is not None
            assert profile["events_total"] > 0
            assert profile["phases"]

    def test_profiled_spec_hash_differs_from_plain(self):
        spec = _grid()[0]
        profiled = spec.instrumented(PROFILE)
        assert profiled.content_hash() != spec.content_hash()
        mem = spec.instrumented(MEM_PROFILE)
        assert mem.content_hash() != profiled.content_hash()
        # Stamping is idempotent.
        assert profiled.instrumented(PROFILE) is profiled

    def test_mem_profile_implies_profile(self):
        spec = _grid()[0].instrumented(MEM_PROFILE)
        assert spec.observers() == {"profile": True, "mem_profile": True}

    def test_merged_summary_meets_attribution_floors(self, cell_runner):
        """Attribution floors asserted on a real smoke grid: the three
        hottest handlers are ≥90% phase-covered and the profiler's
        self-measured overhead stays bounded relative to profiled wall.
        The overhead bound is a *fraction* — the fast-path refactor shrank
        handler bodies ~5-10x while the per-event accounting cost is fixed,
        so the fraction is structurally higher than it was against the old
        slow handlers."""
        runner = cell_runner(PROFILE)
        runner.run(_grid())
        summary = runner.profile_summary()
        assert summary is not None
        coverage = summary["phase_coverage"]
        by_wall = sorted(
            summary["by_type"].items(),
            key=lambda kv: kv[1]["wall_s"],
            reverse=True,
        )
        for name, _stats in by_wall[:3]:
            assert coverage.get(name, 0.0) >= 0.90, (name, coverage)
            assert coverage[name] <= 1.05  # nesting invariant, clock noise
        assert summary["overhead"]["fraction_of_wall"] < 0.40

    def test_mem_profile_memory_in_summary(self, cell_runner):
        runner = cell_runner(MEM_PROFILE)
        runner.run(_grid()[:1])
        summary = runner.profile_summary()
        memory = summary["memory"]
        assert memory is not None
        assert "gc_collections" in memory
        tm = memory["tracemalloc"]
        assert tm is not None and tm["top"]
        assert all({"site", "size_kb", "count"} <= set(s) for s in tm["top"])


class TestCompiledProbePhases:
    """Probes run through the compiled closures by default; a profiled run
    must still account them under the oracle's probe-only phases, and the
    attribution floors must hold where probes are most of the traffic."""

    @staticmethod
    def _profiled(monkeypatch, slowpath):
        from repro.edge.task import SizeClass

        if slowpath:
            monkeypatch.setenv("REPRO_SLOWPATH", "1")
        else:
            monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
        spec = RunSpec.from_config(ExperimentConfig(
            scale=SMOKE_SCALE, seed=5, size_class=SizeClass.VS, probing_interval=0.02,
        ))
        runner = Runner(jobs=1, observe={"profile": True})
        [result] = runner.run([spec])
        return result, runner.profile_summary()

    @staticmethod
    def _phase_count(summary, suffix):
        return sum(
            stats["count"] for path, stats in summary["phases"].items()
            if path.endswith(suffix)
        )

    def test_probe_phase_counts_equal_the_oracles(self, monkeypatch):
        fast, fast_summary = self._profiled(monkeypatch, slowpath=False)
        slow, slow_summary = self._profiled(monkeypatch, slowpath=True)
        assert (fast.payload_json() == slow.payload_json()) is True
        stamp = "Switch.on_ingress;p4_pipeline;int_stamp"
        assert fast_summary["phases"][stamp]["count"] > 10_000
        assert fast_summary["phases"][stamp]["count"] == slow_summary["phases"][stamp]["count"]
        # A probe's egress stage nests under whichever handler started its
        # frame (elision moves some from a completion to the sender's
        # enqueue); the total is fixed.
        egress = self._phase_count(fast_summary, ";egress_stage")
        assert egress > 10_000
        assert egress == self._phase_count(slow_summary, ";egress_stage")

        coverage = fast_summary["phase_coverage"]
        by_wall = sorted(
            fast_summary["by_type"].items(), key=lambda kv: kv[1]["wall_s"], reverse=True
        )
        for name, _stats in by_wall[:3]:
            assert 0.90 <= coverage.get(name, 0.0) <= 1.05, (name, coverage)
        assert fast_summary["overhead"]["fraction_of_wall"] < 0.40


class TestPhaseTaxonomyGolden:
    """The profiler's phase taxonomy is a contract: which paths exist, how
    often each closes, and how every scope was opened (the overhead model's
    clock-read count).  Handlers may change *how* they account phases, never
    *what* is accounted.  Re-recorded when a datagram reaching a counting
    sink stopped being an event: only the ``Host.on_ingress`` count and its
    ``demux`` / ``flow`` phases moved, by one per booked arrival."""

    @pytest.mark.parametrize("figure", ["fig5", "fig7"])
    def test_phase_taxonomy_matches_golden(self, figure, cell_runner):
        cell = f"profile-taxonomy/{figure}"
        got, phases = goldens.CELLS[cell](cell_runner)
        assert got == goldens.recorded(cell), phases
