"""Dashboard renderer: self-containment, determinism, section content."""

import hashlib
import re

import pytest

from repro.obs.dashboard import render_dashboard, write_dashboard


def _sample_records():
    run = {"policy": "aware", "seed": 0}
    return [
        {
            "kind": "timeseries", "name": "link_utilization",
            "labels": {"link": "l1", "direction": "a"},
            "stride": 1, "offered": 3, "interval": 0.5,
            "points": [[0.5, 0.1], [1.0, 0.6], [1.5, 0.3]],
            "run": run,
        },
        {
            "kind": "timeseries", "name": "queue_depth",
            "labels": {"queue": "s1[0]"},
            "stride": 1, "offered": 3, "interval": 0.5,
            "points": [[0.5, 0.0], [1.0, 12.0], [1.5, 4.0]],
            "run": run,
        },
        {
            "kind": "timeseries", "name": "server_running",
            "labels": {"server": "h2"},
            "stride": 1, "offered": 2, "interval": 0.5,
            "points": [[0.5, 1.0], [1.0, 2.0]],
            "run": run,
        },
        {
            "kind": "timeseries", "name": "decision_abs_error",
            "labels": {},
            "stride": 1, "offered": 2, "interval": 0.5,
            "points": [[0.5, 0.01], [1.0, 0.02]],
            "run": run,
        },
        {
            "kind": "event", "event": "alert", "time": 1.0,
            "rule": "queue_saturation", "series": "queue_depth_frac",
            "target": "queue=s1[0]", "value": 0.95, "threshold": 0.9,
            "state": "fire", "run": run,
        },
        {
            "kind": "event", "event": "alert", "time": 1.5,
            "rule": "queue_saturation", "series": "queue_depth_frac",
            "target": "queue=s1[0]", "value": 0.1, "threshold": 0.9,
            "state": "clear", "run": run,
        },
        {
            "kind": "metric", "type": "histogram",
            "name": "task_completion_seconds",
            "labels": {"size_class": "VS"},
            "count": 3, "sum": 1.5, "min": 0.4, "max": 0.6, "mean": 0.5,
            "p50": 0.5, "p95": 0.6, "p99": 0.6,
            "buckets": {}, "updated_at": 2.0, "run": run,
        },
    ]


class TestRender:
    def test_single_self_contained_html(self):
        html = render_dashboard(_sample_records())
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")
        # No external resources whatsoever.
        assert "http://" not in html
        assert "https://" not in html
        assert "<script" not in html
        assert not re.search(r"<link\b", html)
        assert not re.search(r"\bsrc\s*=", html)

    def test_sections_rendered(self):
        html = render_dashboard(_sample_records())
        assert "<svg" in html
        assert "Link utilization" in html
        assert "Queue depth" in html
        assert "Server load" in html
        assert "Alerts" in html
        assert "Decision error" in html
        assert "Completion-time quantiles" in html
        assert "queue_saturation" in html
        assert "direction=a,link=l1" in html

    def test_deterministic_rerender(self):
        records = _sample_records()
        assert render_dashboard(records) == render_dashboard(records)
        # Record order must not matter for section content: reversed input
        # renders identically because every section sorts.
        assert render_dashboard(records) == render_dashboard(records[::-1])

    def test_empty_records_still_valid_page(self):
        html = render_dashboard([])
        assert html.startswith("<!DOCTYPE html>")
        assert "no link-utilization samples" in html
        assert "no alerts" in html
        assert "no completion-time histograms" in html

    def test_unclosed_alert_extends_to_window_end(self):
        records = [r for r in _sample_records() if r.get("state") != "clear"]
        html = render_dashboard(records)
        assert 'class="fire"' in html

    def test_labels_escaped(self):
        records = [{
            "kind": "timeseries", "name": "link_utilization",
            "labels": {"link": "<bad&>"},
            "stride": 1, "offered": 1, "interval": 0.5,
            "points": [[0.5, 0.1]],
        }]
        html = render_dashboard(records)
        assert "<bad&>" not in html
        assert "&lt;bad&amp;&gt;" in html

    def test_write_dashboard(self, tmp_path):
        path = tmp_path / "dash.html"
        write_dashboard(_sample_records(), str(path), title="t<&>")
        text = path.read_text()
        assert text == render_dashboard(_sample_records(), title="t<&>")
        assert "t&lt;&amp;&gt;" in text


def _profile_record():
    return {
        "kind": "profile",
        "profile": {
            "events_total": 100,
            "queue_high_water": 5,
            "wall_s": 1.0,
            "by_type": {"Switch.on_ingress": {"count": 80, "wall_s": 0.8}},
            "phases": {
                "Switch.on_ingress;p4_pipeline": {"count": 80, "wall_s": 0.5},
            },
            "overhead": {"phase_pairs": 80, "clock_reads": 100,
                         "total_s": 0.01, "fraction_of_wall": 0.01},
            "memory": None,
            "phase_coverage": {"Switch.on_ingress": 0.625},
        },
    }


class TestProfileSection:
    def test_profile_section_rendered_with_flamegraph(self):
        html = render_dashboard(_sample_records() + [_profile_record()])
        assert "Engine profile" in html
        section = html.split("Engine profile", 1)[1]
        assert "Switch.on_ingress" in section
        assert "p4_pipeline" in section
        assert "profiler overhead" in section
        assert "<svg" in section

    def test_page_with_profile_stays_self_contained(self):
        html = render_dashboard(_sample_records() + [_profile_record()])
        assert "http://" not in html
        assert "https://" not in html
        assert "<script" not in html
        assert not re.search(r"\bsrc\s*=", html)

    def test_placeholder_when_no_profile(self):
        html = render_dashboard(_sample_records())
        assert "no engine profile" in html

    def test_profile_only_export_still_valid_page(self):
        html = render_dashboard([_profile_record()])
        assert html.startswith("<!DOCTYPE html>")
        assert "no link-utilization samples" in html
        assert "Engine profile" in html

    def test_deterministic_with_profile(self):
        records = _sample_records() + [_profile_record()]
        assert render_dashboard(records) == render_dashboard(records)


def _telquality_record():
    return {
        "kind": "telquality",
        "layout": "star",
        "probing_interval": 0.1,
        "pairs": [["h1", "h2"]],
        "run": {"policy": "aware", "seed": 0},
        "coverage": {
            "total_ports": 3, "observed_ports": 1, "expected_ports": 1,
            "blind": [["s1", "h1"], ["s1", "h3"]],
            "expected_blind": [["s1", "h1"], ["s1", "h3"]],
            "matches_prediction": True,
            "ports": [{
                "u": "s1", "v": "h2", "observations": 4,
                "first": 1.0, "last": 1.3, "effective_interval": 0.1,
                "pairs": [["h1", "h2"]],
            }],
        },
        "freshness": {
            "registers": [{
                "node": "s1", "register": "qdepth", "refreshes": 4,
                "age": {"lo": 1e-4, "hi": 1e4, "bins": 256, "count": 3,
                        "underflow": 0, "overflow": 0, "min": 0.1,
                        "max": 0.1, "counts": {"120": 3}},
            }],
            "decision_age": None,
        },
        "attribution": {
            "interval": 0.1, "decisions": 2, "samples": 2, "skipped": 0,
            "bins": [
                {"label": "[0x, 0.5x)", "lo_multiple": 0.0,
                 "hi_multiple": 0.5, "count": 2, "mean_error": 0.01,
                 "mean_abs_error": 0.01},
                {"label": "unknown", "lo_multiple": None,
                 "hi_multiple": None, "count": 0, "mean_error": None,
                 "mean_abs_error": None},
            ],
            "loss_windows": {
                "windows": 1,
                "in": {"count": 1, "mean_error": 0.01, "mean_abs_error": 0.01},
                "out": {"count": 1, "mean_error": 0.01, "mean_abs_error": 0.01},
            },
            "fault_windows": {
                "windows": 0,
                "in": {"count": 0, "mean_error": None, "mean_abs_error": None},
                "out": {"count": 2, "mean_error": 0.01, "mean_abs_error": 0.01},
            },
        },
    }


class TestTelqualitySections:
    def test_panels_rendered(self):
        html = render_dashboard(_sample_records() + [_telquality_record()])
        assert "Telemetry coverage" in html
        assert "Telemetry freshness" in html
        assert "Error vs telemetry age" in html
        coverage = html.split("Telemetry coverage", 1)[1]
        assert "1/3 directed ports observed (33%)" in coverage
        assert "matches the layout&#x27;s predicted blind set" in coverage
        assert "s1&rarr;h2" in coverage
        freshness = html.split("Telemetry freshness", 1)[1]
        assert "qdepth" in freshness
        age = html.split("Error vs telemetry age", 1)[1]
        assert "[0x, 0.5x)" in age
        assert "probe-loss windows: 1" in age

    def test_page_with_telquality_stays_self_contained(self):
        html = render_dashboard(_sample_records() + [_telquality_record()])
        assert "http://" not in html
        assert "https://" not in html
        assert "<script" not in html
        assert not re.search(r"\bsrc\s*=", html)

    def test_old_format_export_renders_placeholders_from_file(self, tmp_path):
        """A pre-observatory export (no telquality records anywhere) loaded
        back off disk still renders every panel as a placeholder."""
        from repro.obs.export import read_jsonl, write_jsonl

        path = tmp_path / "old.jsonl"
        write_jsonl(_sample_records() + [_profile_record()], str(path))
        html = render_dashboard(read_jsonl(str(path)))
        assert html.startswith("<!DOCTYPE html>")
        assert html.count("no telemetry-quality records") == 3
        assert "Link utilization" in html

    def test_deterministic_with_telquality(self):
        records = _sample_records() + [_telquality_record()]
        assert render_dashboard(records) == render_dashboard(records)
        assert render_dashboard(records) == render_dashboard(records[::-1])


def _whatif_record():
    return {
        "kind": "whatif",
        "run": {"policy": "aware", "seed": 0},
        "interval": 0.1,
        "decisions": 3,
        "replayed": 2,
        "skipped": 1,
        "actual": {
            "regret_total": 0.07,
            "regret_mean": 0.035,
            "regret_digest": {
                "lo": 1e-4, "hi": 1e4, "bins": 256, "count": 2,
                "underflow": 1, "overflow": 0, "min": 0.0, "max": 0.07,
                "counts": {"90": 1},
            },
        },
        "policies": [
            {"policy": "estimate-greedy", "regret_total": 0.0,
             "regret_mean": 0.0, "wins": 1, "ties": 1, "losses": 0,
             "differs": 1},
            {"policy": "oracle", "regret_total": 0.0, "regret_mean": 0.0,
             "wins": 1, "ties": 1, "losses": 0, "differs": 1},
        ],
        "staleness": {"bins": []},
        "loss_windows": {
            "windows": 0,
            "in": {"count": 0, "regret_total": 0.0, "regret_mean": None},
            "out": {"count": 2, "regret_total": 0.07, "regret_mean": 0.035},
        },
        "fault_windows": {
            "windows": 0,
            "in": {"count": 0, "regret_total": 0.0, "regret_mean": None},
            "out": {"count": 2, "regret_total": 0.07, "regret_mean": 0.035},
        },
    }


class TestWhatifSections:
    def test_panels_rendered(self):
        html = render_dashboard(_sample_records() + [_whatif_record()])
        assert "Regret CDF" in html
        assert "Policy comparison" in html
        cdf = html.split("Regret CDF", 1)[1]
        assert "regret CDF" in cdf
        assert "per-decision regret" in cdf
        policies = html.split("Policy comparison", 1)[1]
        assert "(actual)" in policies
        assert "estimate-greedy" in policies
        assert "oracle" in policies
        assert "3 delay decisions" in policies
        assert "2 replayed" in policies

    def test_page_with_whatif_stays_self_contained(self):
        html = render_dashboard(_sample_records() + [_whatif_record()])
        assert "http://" not in html
        assert "https://" not in html
        assert "<script" not in html
        assert not re.search(r"\bsrc\s*=", html)

    def test_old_format_export_renders_placeholders(self):
        html = render_dashboard(_sample_records() + [_telquality_record()])
        assert html.count("no what-if records") == 2

    def test_empty_digest_degrades_gracefully(self):
        record = _whatif_record()
        record["actual"]["regret_digest"] = None
        html = render_dashboard(_sample_records() + [record])
        assert "no replayed decisions" in html

    def test_deterministic_with_whatif(self):
        records = _sample_records() + [_whatif_record()]
        assert render_dashboard(records) == render_dashboard(records)
        assert render_dashboard(records) == render_dashboard(records[::-1])


# sha256 of the two-run export below and of the page rendered from it,
# recorded on the commit before run keys were computed once per label set.
# Pinned to the toolchain like tests/obs/test_observed_export_golden.py: if
# float formatting or the RNG streams move, re-record from a checkout of
# that commit.
TWO_RUN_EXPORT_SHA256 = "ebf63aa3a906499a0386fdb0f676368d7b2c8227851184f7972708f7540c2863"
TWO_RUN_PAGE_SHA256 = "7ad606d0b5736321791c68014803ed5ec9e899399dd53cdac230fdb5775e3d79"


@pytest.mark.slow
def test_two_run_page_matches_recorded_digest(tmp_path):
    """Two fully observed runs in one file, read back and rendered: the run
    list, every per-run chart title and every sort by run key go through
    the run-key code, and the page must come out byte for byte."""
    from repro.edge.task import SizeClass
    from repro.experiments.harness import ExperimentConfig, ExperimentScale, run_experiment
    from repro.obs import Observability
    from repro.obs.export import read_jsonl, write_jsonl

    scale = ExperimentScale(
        size_scale=0.05, total_tasks=6, mean_interarrival=0.4, time_scale=0.08
    )
    path = str(tmp_path / "two.jsonl")
    for policy, seed in (("aware", 3), ("nearest", 4)):
        obs = Observability(
            run={"policy": policy, "seed": seed}, trace=True, sample_interval=0.1,
            telquality=True, whatif=True,
        )
        run_experiment(
            ExperimentConfig(scale=scale, seed=seed, size_class=SizeClass.S, policy=policy),
            obs=obs,
        )
        write_jsonl(obs.snapshot_records(), path, append=policy != "aware")
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == TWO_RUN_EXPORT_SHA256
    page = render_dashboard(read_jsonl(path))
    assert page.count("<code>{&quot;policy&quot;:") >= 2    # both runs listed
    assert hashlib.sha256(page.encode()).hexdigest() == TWO_RUN_PAGE_SHA256
