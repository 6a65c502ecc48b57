"""Unit tests for the performance observatory rendering layer."""

import sys

import pytest

from repro.core.topology_inference import InferredTopology
from repro.obs.perf import (
    MemoryCapture,
    collapsed_stacks,
    count_ops,
    flamegraph_svg,
)
from repro.telemetry.records import host_node, switch_node


def _summary():
    """Synthetic profile: one handler, two phases, one nested phase."""
    return {
        "events_total": 100,
        "queue_high_water": 5,
        "wall_s": 1.0,
        "by_type": {
            "Switch.on_ingress": {"count": 80, "wall_s": 0.8},
            "Host.on_ingress": {"count": 20, "wall_s": 0.2},
        },
        "phases": {
            "Switch.on_ingress;p4_pipeline": {"count": 80, "wall_s": 0.5},
            "Switch.on_ingress;p4_pipeline;routing": {"count": 80, "wall_s": 0.3},
            "Switch.on_ingress;enqueue": {"count": 80, "wall_s": 0.25},
        },
        "overhead": {"phase_pairs": 240, "clock_reads": 300,
                     "total_s": 0.01, "fraction_of_wall": 0.01},
        "memory": None,
        "phase_coverage": {"Switch.on_ingress": 0.9375},
    }


class TestCollapsedStacks:
    def test_lines_are_path_space_self_us(self):
        lines = collapsed_stacks(_summary()).splitlines()
        table = dict(line.rsplit(" ", 1) for line in lines)
        # Self time: handler minus direct children, phase minus nested.
        assert int(table["Switch.on_ingress"]) == 50_000  # 0.8 - 0.75
        assert int(table["Switch.on_ingress;p4_pipeline"]) == 200_000
        assert int(table["Switch.on_ingress;p4_pipeline;routing"]) == 300_000
        assert int(table["Switch.on_ingress;enqueue"]) == 250_000
        assert int(table["Host.on_ingress"]) == 200_000

    def test_zero_self_time_nodes_dropped(self):
        summary = _summary()
        # Children exactly cover the parent: parent's self time is zero.
        summary["by_type"]["Switch.on_ingress"]["wall_s"] = 0.75
        text = collapsed_stacks(summary)
        assert "\nSwitch.on_ingress " not in "\n" + text.replace(";", "_")

    def test_trailing_newline_and_sorted(self):
        text = collapsed_stacks(_summary())
        assert text.endswith("\n")
        paths = [line.rsplit(" ", 1)[0] for line in text.splitlines()]
        assert paths == sorted(paths)

    def test_empty_summary(self):
        assert collapsed_stacks({"by_type": {}, "phases": {}}) == ""


class TestFlamegraphSvg:
    def test_self_contained(self):
        svg = flamegraph_svg(_summary())
        assert svg.startswith("<svg")
        assert "<script" not in svg
        assert "src=" not in svg and "href" not in svg
        assert "url(" not in svg and "@import" not in svg

    def test_frames_and_tooltips(self):
        svg = flamegraph_svg(_summary())
        assert "<title>" in svg
        assert "p4_pipeline" in svg and "routing" in svg
        assert "Host.on_ingress" in svg

    def test_deterministic(self):
        assert flamegraph_svg(_summary()) == flamegraph_svg(_summary())

    def test_children_clamped_into_parent(self):
        """Clock noise making children sum past the parent must not
        overflow the parent's box."""
        summary = _summary()
        summary["phases"]["Switch.on_ingress;p4_pipeline"]["wall_s"] = 0.7
        summary["phases"]["Switch.on_ingress;enqueue"]["wall_s"] = 0.4
        svg = flamegraph_svg(summary)  # must not raise; widths stay finite
        assert svg.count("<rect") >= 4

    def test_empty_profile_placeholder(self):
        svg = flamegraph_svg({"by_type": {}, "phases": {}})
        assert "no profile samples" in svg

    def test_escapes_markup_in_names(self):
        summary = {
            "by_type": {"<evil>&name": {"count": 1, "wall_s": 1.0}},
            "phases": {},
        }
        svg = flamegraph_svg(summary)
        assert "<evil>" not in svg
        assert "&lt;evil&gt;" in svg


class TestMemoryCapture:
    def test_gc_counters_always_captured(self):
        capture = MemoryCapture()
        capture.start()
        junk = [[i] for i in range(1000)]
        del junk
        out = capture.stop()
        assert set(out) == {
            "gc_collections", "gc_collected", "gc_uncollectable",
            "allocated_blocks_delta", "tracemalloc",
        }
        assert out["tracemalloc"] is None

    def test_tracemalloc_top_sites(self):
        capture = MemoryCapture(tracemalloc_top=5)
        capture.start()
        keep = [bytearray(4096) for _ in range(50)]
        out = capture.stop()
        del keep
        tm = out["tracemalloc"]
        assert tm is not None
        assert 0 < len(tm["top"]) <= 5
        assert tm["total_kb"] > 0 and tm["sites"] > 0
        site = tm["top"][0]["site"]
        assert ":" in site and site.count("/") <= 2  # 3-component tail

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            MemoryCapture().stop()


class TestCountOps:
    def _learn(self):
        topology = InferredTopology()
        topology.observe_path([host_node(1), switch_node(2), host_node(3)])
        return topology.path(host_node(1), host_node(3))

    def test_counts_package_functions_only(self):
        counts = count_ops(self._learn)
        assert set(counts) == {
            "repro.core.topology_inference:InferredTopology.__init__",
            "repro.core.topology_inference:InferredTopology.observe_path",
            "repro.core.topology_inference:InferredTopology.path",
            "repro.core.topology_inference:InferredTopology._paths_from",
            "repro.telemetry.records:host_node",
            "repro.telemetry.records:switch_node",
        }
        assert all(count > 0 for count in counts.values())

    def test_calls_count_frames_entered_beside_unchanged_bytecodes(self):
        calls = {}
        counts = count_ops(self._learn, calls=calls)
        assert counts == count_ops(self._learn)
        assert calls == {
            "repro.core.topology_inference:InferredTopology.__init__": 1,
            "repro.core.topology_inference:InferredTopology.observe_path": 1,
            "repro.core.topology_inference:InferredTopology.path": 1,
            "repro.core.topology_inference:InferredTopology._paths_from": 1,
            "repro.telemetry.records:host_node": 4,
            "repro.telemetry.records:switch_node": 1,
        }

    def test_equal_work_equal_counts_and_accumulation(self):
        once = count_ops(self._learn)
        assert count_ops(self._learn) == once
        twice = count_ops(self._learn, dict(once))
        assert twice == {name: 2 * count for name, count in once.items()}

    def test_previous_trace_function_restored(self):
        def tracer(frame, event, arg):
            return None

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            count_ops(self._learn)
            assert sys.gettrace() is tracer
        finally:
            sys.settrace(previous)
