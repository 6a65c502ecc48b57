"""CLI: argument parsing and command dispatch (tiny workloads)."""

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.slow


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compare", "--figure", "fig99"])


def test_calibrate_command(capsys, tmp_path):
    out = tmp_path / "calib.txt"
    rc = main([
        "calibrate", "--levels", "0.0", "0.9",
        "--duration", "8", "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert "utilization" in text and "90%" in text
    assert "Fig. 3" in capsys.readouterr().out


def test_sweep_command(capsys):
    rc = main([
        "sweep", "--scenarios", "traffic2", "--intervals", "0.1", "10.0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "traffic2" in out and "probing interval" in out


def test_sensitivity_command(capsys, tmp_path):
    out = tmp_path / "sens.txt"
    rc = main([
        "sensitivity", "--parameter", "k", "--values", "0.02",
        "--scale", "smoke", "--size-class", "VS", "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert "sensitivity" in text and "best value" in text


def test_compare_command(capsys, tmp_path):
    out = tmp_path / "cmp.txt"
    rc = main([
        "compare", "--figure", "fig5", "--scale", "smoke",
        "--classes", "VS", "--out", str(out),
    ])
    assert rc == 0
    assert "gain vs nearest" in out.read_text()


def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"


def test_compare_obs_out_writes_all_record_kinds(capsys, tmp_path):
    from repro.obs.export import read_jsonl

    obs_out = tmp_path / "run.jsonl"
    rc = main([
        "compare", "--figure", "fig5", "--scale", "smoke",
        "--classes", "VS", "--obs-out", str(obs_out),
    ])
    assert rc == 0
    records = read_jsonl(str(obs_out))
    kinds = {r["kind"] for r in records}
    assert kinds == {"metric", "event", "decision-audit"}
    # Every record carries run labels identifying its comparison cell.
    policies = {r["run"]["policy"] for r in records}
    assert "aware" in policies and len(policies) >= 2


def test_obs_report_command(capsys, tmp_path):
    obs_out = tmp_path / "run.jsonl"
    main([
        "compare", "--figure", "fig5", "--scale", "smoke",
        "--classes", "VS", "--obs-out", str(obs_out),
    ])
    capsys.readouterr()
    report_out = tmp_path / "report.txt"
    rc = main(["obs-report", str(obs_out), "--out", str(report_out)])
    assert rc == 0
    text = report_out.read_text()
    assert "policy=aware" in text
    assert "delay error" in text

def test_telemetry_report_command(capsys, tmp_path):
    obs_out = tmp_path / "tq.jsonl"
    main([
        "compare", "--figure", "fig5", "--scale", "smoke",
        "--classes", "VS", "--telquality", "--obs-out", str(obs_out),
    ])
    capsys.readouterr()
    report_out = tmp_path / "report.txt"
    rc = main(["telemetry-report", str(obs_out), "--out", str(report_out)])
    assert rc == 0
    text = report_out.read_text()
    # Mesh probing on the default 12-switch topology covers every port.
    assert "coverage: 32/32 directed ports observed (100%)" in text
    assert "matches the layout's predicted blind set" in text
    assert "error vs telemetry age" in text
    assert "decision-audit samples: OK" in text
    assert "MISMATCH" not in text


def test_telemetry_report_placeholder_on_old_export(capsys, tmp_path):
    """A pre-observatory export (no telquality records) degrades to a
    pointer at the flag, exit 0."""
    from repro.obs.export import write_jsonl

    path = tmp_path / "old.jsonl"
    write_jsonl([{"kind": "metric", "name": "x", "type": "gauge"}], str(path))
    rc = main(["telemetry-report", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no telemetry-quality records" in out
    assert "--telquality" in out


def test_telemetry_report_missing_file(capsys):
    rc = main(["telemetry-report", "/nonexistent/obs.jsonl"])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def test_whatif_report_command(capsys, tmp_path):
    obs_out = tmp_path / "wi.jsonl"
    main([
        "compare", "--figure", "fig5", "--scale", "smoke",
        "--classes", "VS", "--whatif", "--obs-out", str(obs_out),
    ])
    capsys.readouterr()
    report_out = tmp_path / "report.txt"
    rc = main(["whatif-report", str(obs_out), "--out", str(report_out)])
    assert rc == 0
    text = report_out.read_text()
    assert "policy=aware" in text
    assert "oracle hindsight check" in text
    assert "decision-audit delay decisions: OK" in text
    assert "regret vs stalest consulted telemetry age" in text
    assert "MISMATCH" not in text


def test_whatif_report_offline_fallback_on_plain_export(capsys, tmp_path):
    """An export without whatif records but with ground-truth audits still
    replays offline (regret tables, no staleness attribution)."""
    obs_out = tmp_path / "plain.jsonl"
    main([
        "compare", "--figure", "fig5", "--scale", "smoke",
        "--classes", "VS", "--obs-out", str(obs_out),
    ])
    capsys.readouterr()
    rc = main(["whatif-report", str(obs_out)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "replaying decision audits offline" in out
    assert "oracle" in out


def test_whatif_report_placeholder_on_unusable_export(capsys, tmp_path):
    from repro.obs.export import write_jsonl

    path = tmp_path / "old.jsonl"
    write_jsonl([{"kind": "metric", "name": "x", "type": "gauge"}], str(path))
    rc = main(["whatif-report", str(path)])
    assert rc == 0
    assert "--whatif" in capsys.readouterr().out


def test_whatif_report_missing_file(capsys):
    rc = main(["whatif-report", "/nonexistent/obs.jsonl"])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def test_faults_lists_builtin_scenarios(capsys):
    rc = main(["faults"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("link-flap", "server-crash", "probe-blackout"):
        assert name in out


def test_faults_show_round_trips(capsys, tmp_path):
    from repro.faults import FaultPlan, builtin_plan

    plan_file = tmp_path / "plan.json"
    rc = main(["faults", "--show", "server-crash", "--out", str(plan_file)])
    assert rc == 0
    assert FaultPlan.load(str(plan_file)) == builtin_plan("server-crash")


def test_faults_run_emits_comparison(capsys):
    rc = main(["faults", "--run", "server-crash", "--scale", "smoke"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scenario: server-crash" in out
    assert "degr." in out and "failovers" in out


def test_faults_unknown_spec_clean_error(capsys):
    rc = main(["faults", "--run", "no-such-scenario"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "link-flap" in err  # the message lists what IS available


def test_compare_with_faults_flag(capsys, tmp_path):
    out = tmp_path / "cmp.txt"
    rc = main([
        "compare", "--figure", "fig5", "--scale", "smoke", "--classes", "VS",
        "--faults", "link-flap", "--no-degradation", "--out", str(out),
    ])
    assert rc == 0
    assert "gain vs nearest" in out.read_text()


def test_parser_accepts_runner_flags():
    args = build_parser().parse_args([
        "compare", "--scale", "smoke", "--jobs", "4", "--cache",
        "--cache-dir", "/tmp/rc",
    ])
    assert args.jobs == 4 and args.cache and args.cache_dir == "/tmp/rc"
    args = build_parser().parse_args(["compare", "--no-cache"])
    assert not args.cache


def test_compare_with_cache_reuses_results(capsys, tmp_path):
    cache_dir = tmp_path / "rc"
    argv = [
        "compare", "--figure", "fig5", "--scale", "smoke",
        "--classes", "VS", "--cache", "--cache-dir", str(cache_dir),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert len(list(cache_dir.glob("*.json"))) == 3  # one per policy
    assert main(argv) == 0
    captured = capsys.readouterr()
    warm = captured.out
    assert warm == cold  # cached rerun reproduces the report exactly
    assert "cache" in captured.err  # progress lines mention the hits


def test_cache_command_lists_and_clears(capsys, tmp_path):
    from repro.runner import ResultCache
    from repro.runner.spec import canonical_json

    cache_dir = tmp_path / "rc"
    cache = ResultCache(str(cache_dir))
    h = "a" * 64
    cache.put(h, canonical_json({"spec_hash": h, "payload": {}}).encode())

    assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "1 entries" in out and h in out

    assert main(["cache", "--clear", "--cache-dir", str(cache_dir)]) == 0
    assert "cleared 1" in capsys.readouterr().out
    assert list(cache_dir.glob("*.json")) == []


def test_faults_run_accepts_jobs_flag(capsys):
    rc = main(["faults", "--run", "probe-blackout", "--scale", "smoke"])
    assert rc == 0
    assert "scenario: probe-blackout" in capsys.readouterr().out


def test_compare_trace_out_and_profile(capsys, tmp_path):
    from repro.obs.export import read_jsonl

    trace_out = tmp_path / "trace.jsonl"
    rc = main([
        "compare", "--figure", "fig5", "--scale", "smoke",
        "--classes", "VS", "--trace-out", str(trace_out), "--profile",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "span records written" in out
    assert "engine profile:" in out
    records = read_jsonl(str(trace_out))
    assert records and all(r["kind"] == "span" for r in records)
    names = {r["name"] for r in records}
    assert {"task", "scheduling", "transfer", "execute", "probe", "hop"} <= names
    policies = {r["run"]["policy"] for r in records}
    assert "aware" in policies and len(policies) >= 2


def test_trace_report_command(capsys, tmp_path):
    import json

    trace_out = tmp_path / "trace.jsonl"
    main([
        "compare", "--figure", "fig5", "--scale", "smoke",
        "--classes", "VS", "--trace-out", str(trace_out),
    ])
    capsys.readouterr()
    chrome_out = tmp_path / "chrome.json"
    report_out = tmp_path / "report.txt"
    rc = main([
        "trace-report", str(trace_out),
        "--chrome", str(chrome_out), "--out", str(report_out),
    ])
    assert rc == 0
    text = report_out.read_text()
    assert "critical path" in text
    assert "Algorithm-1 estimate" in text
    doc = json.loads(chrome_out.read_text())
    assert doc["traceEvents"]
    assert {e["ph"] for e in doc["traceEvents"]} <= {"M", "X"}


def test_trace_report_missing_file(capsys):
    rc = main(["trace-report", "/nonexistent/trace.jsonl"])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def test_bench_runner_reports_profile(capsys, tmp_path):
    import json

    bench_out = tmp_path / "BENCH_runner.json"
    history = tmp_path / "history.jsonl"
    flamegraph = tmp_path / "flame.svg"
    collapsed = tmp_path / "flame.txt"
    rc = main([
        "bench-runner", "--scale", "smoke", "--jobs", "2",
        "--bench-out", str(bench_out), "--history", str(history),
        "--flamegraph-out", str(flamegraph), "--collapsed-out", str(collapsed),
    ])
    assert rc == 0
    report = json.loads(bench_out.read_text())
    assert report["byte_identical"] is True
    assert isinstance(report["parallel_valid"], bool)
    profile = report["profile"]
    assert profile["events_total"] > 0
    assert profile["queue_high_water"] > 0
    assert profile["by_type"]
    # Phase attribution made it into the report, with its overhead estimate.
    assert profile["phases"]
    assert any(";" in path for path in profile["phases"])
    assert profile["overhead"]["phase_pairs"] > 0
    assert profile["phase_coverage"]
    # The run landed in the ledger with a provenance stamp.
    from repro.runner.bench import read_history

    records = read_history(str(history))
    assert len(records) == 1
    assert records[0]["serial_s"] == report["serial_s"]
    assert "recorded_at" in records[0]["provenance"]
    # Flamegraph is a self-contained SVG; collapsed stacks parse as
    # "path count" lines.
    svg = flamegraph.read_text()
    assert svg.startswith("<svg") and "<script" not in svg
    assert "src=" not in svg and "href" not in svg
    lines = collapsed.read_text().splitlines()
    assert lines and all(l.rsplit(" ", 1)[1].isdigit() for l in lines)


def _fake_history_record(serial_s, *, parallel_valid=True, phases=None):
    record = {
        "grid": {"figure": "fig5", "scale": "smoke", "seed": 0, "runs": 12},
        "serial_s": serial_s,
        "parallel_s": serial_s / 2.0,
        "parallel_jobs": 2,
        "parallel_valid": parallel_valid,
        "parallel_speedup": 2.0,
        "cached_s": serial_s / 10.0,
        "cached_speedup": 10.0,
        "byte_identical": True,
        "diverging_cells": [],
        "host": {"cpus": 4, "python": "3.11.7", "platform": "linux"},
        "provenance": {"recorded_at": "2026-01-01T00:00:00Z", "git_commit": "abc1234"},
        "profile": {
            "events_total": 1000,
            "queue_high_water": 10,
            "wall_s": serial_s,
            "by_type": {"Switch.on_ingress": {"count": 500, "wall_s": serial_s * 0.6}},
            "phases": phases or {
                "Switch.on_ingress;p4_pipeline": {"count": 500, "wall_s": serial_s * 0.4},
                "Switch.on_ingress;enqueue": {"count": 500, "wall_s": serial_s * 0.15},
            },
            "overhead": {"phase_pairs": 1000, "clock_reads": 1000,
                         "total_s": 0.01, "fraction_of_wall": 0.01},
            "memory": None,
            "phase_coverage": {"Switch.on_ingress": 0.92},
        },
    }
    return record


def _write_history(path, records):
    import json

    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def test_perf_report_command(capsys, tmp_path):
    history = tmp_path / "history.jsonl"
    _write_history(history, [
        _fake_history_record(10.0),
        _fake_history_record(8.0),
    ])
    out = tmp_path / "report.txt"
    rc = main(["perf-report", str(history), "--out", str(out),
               "--flamegraph-out", str(tmp_path / "f.svg"),
               "--collapsed-out", str(tmp_path / "f.txt")])
    assert rc == 0
    text = out.read_text()
    assert "2 history record(s)" in text
    assert "serial_s" in text and "trend" in text
    assert "top phase movers" in text
    assert "Switch.on_ingress" in text
    assert (tmp_path / "f.svg").read_text().startswith("<svg")
    assert (tmp_path / "f.txt").read_text().strip()


def test_perf_report_missing_file(capsys):
    rc = main(["perf-report", "/nonexistent/history.jsonl"])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def test_bench_compare_against_history_baseline(capsys, tmp_path):
    import json

    history = tmp_path / "history.jsonl"
    _write_history(history, [_fake_history_record(s) for s in (10.0, 11.0, 9.0)])
    candidate = tmp_path / "cand.json"
    candidate.write_text(json.dumps(_fake_history_record(10.5)))
    rc = main(["bench-compare", str(candidate), "--history", str(history)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rolling median of last 3" in out
    assert "verdict: OK" in out
    # A big regression against the median trips the gate ...
    candidate.write_text(json.dumps(_fake_history_record(100.0)))
    rc = main(["bench-compare", str(candidate), "--history", str(history)])
    assert rc == 1
    capsys.readouterr()
    # ... unless --warn-only downgrades it to advisory.
    rc = main([
        "bench-compare", str(candidate), "--history", str(history),
        "--warn-only",
    ])
    assert rc == 0
    assert "REGRESSION" in capsys.readouterr().out


def test_bench_compare_wrong_report_count(capsys, tmp_path):
    import json

    report = tmp_path / "r.json"
    report.write_text(json.dumps(_fake_history_record(10.0)))
    rc = main(["bench-compare", str(report)])
    assert rc == 2
    assert "pass two reports" in capsys.readouterr().err
    rc = main(["bench-compare", str(report), str(report),
               "--history", "/nonexistent/h.jsonl"])
    assert rc == 2
    assert "exactly one candidate" in capsys.readouterr().err


def test_bench_compare_skips_invalid_parallel_timing(capsys, tmp_path):
    import json

    base = _fake_history_record(10.0, parallel_valid=False)
    base["parallel_s"] = 500.0  # nonsense number from a 1-CPU runner
    cand = _fake_history_record(10.0)
    cand["parallel_s"] = 5.0
    base_path, cand_path = tmp_path / "b.json", tmp_path / "c.json"
    base_path.write_text(json.dumps(base))
    cand_path.write_text(json.dumps(cand))
    rc = main(["bench-compare", str(base_path), str(cand_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "parallel timing invalid" in out
    assert "verdict: OK" in out


def test_compare_sample_interval_emits_timeseries(capsys, tmp_path):
    from repro.obs.export import read_jsonl

    obs_out = tmp_path / "sampled.jsonl"
    rc = main([
        "compare", "--figure", "fig5", "--scale", "smoke",
        "--classes", "VS", "--sample-interval", "0.5",
        "--obs-out", str(obs_out),
    ])
    assert rc == 0
    records = read_jsonl(str(obs_out))
    ts = [r for r in records if r["kind"] == "timeseries"]
    assert ts
    names = {r["name"] for r in ts}
    assert {"link_utilization", "queue_depth", "server_running"} <= names
    assert all(r["interval"] == 0.5 for r in ts)


def test_dashboard_command_writes_self_contained_html(capsys, tmp_path):
    obs_out = tmp_path / "sampled.jsonl"
    main([
        "compare", "--figure", "fig5", "--scale", "smoke",
        "--classes", "VS", "--sample-interval", "0.5",
        "--obs-out", str(obs_out),
    ])
    capsys.readouterr()
    html_out = tmp_path / "dash.html"
    rc = main(["dashboard", str(obs_out), "--html-out", str(html_out)])
    assert rc == 0
    html = html_out.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "<svg" in html
    assert "http://" not in html and "https://" not in html
    assert "<script" not in html


def test_dashboard_missing_file(capsys):
    rc = main(["dashboard", "/nonexistent/obs.jsonl"])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def test_bench_compare_identical_reports_ok(capsys, tmp_path):
    import json
    import shutil

    baseline = tmp_path / "base.json"
    shutil.copy("BENCH_runner.json", baseline)
    rc = main(["bench-compare", str(baseline), str(baseline)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "OK" in out
    # Doctored candidate: 10x serial regression trips the gate.
    report = json.loads(baseline.read_text())
    report["serial_s"] *= 10
    candidate = tmp_path / "cand.json"
    candidate.write_text(json.dumps(report))
    rc = main(["bench-compare", str(baseline), str(candidate)])
    assert rc == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_bench_compare_threshold_override(capsys, tmp_path):
    import json
    import shutil

    baseline = tmp_path / "base.json"
    shutil.copy("BENCH_runner.json", baseline)
    report = json.loads(baseline.read_text())
    report["serial_s"] *= 10
    candidate = tmp_path / "cand.json"
    candidate.write_text(json.dumps(report))
    rc = main([
        "bench-compare", str(baseline), str(candidate),
        "--threshold", "serial_s=20",
    ])
    assert rc == 0


def test_bench_compare_missing_file(capsys):
    rc = main(["bench-compare", "/nonexistent/a.json", "/nonexistent/b.json"])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


REPORT_COMMANDS = ("obs-report", "telemetry-report", "whatif-report", "trace-report", "dashboard")
_GOOD_LINES = [
    '{"kind": "metric", "name": "a", "type": "gauge", "value": 1}',
    '{"kind": "event", "event": "warning", "time": 0.5, "reason": "r"}',
    '{"kind": "metric", "name": "b", "type": "gauge", "value": 2}',
]


def _report(command, path, tmp_path):
    out = str(tmp_path / "out")
    flag = "--html-out" if command == "dashboard" else "--out"
    return main([command, str(path), flag, out]), out


@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_report_drops_a_truncated_last_line(command, capsys, tmp_path):
    """A run killed mid-write leaves a partial last line: the report renders
    from the complete ones and says what it dropped."""
    path = tmp_path / "killed.jsonl"
    path.write_text("\n".join(_GOOD_LINES) + '\n{"kind": "metric", "na')
    rc, out = _report(command, path, tmp_path)
    captured = capsys.readouterr()
    assert rc == 0
    (warning,) = captured.err.splitlines()
    assert warning.startswith(f"warning: {path}:4: not JSON")
    assert "truncated last line dropped" in warning
    (tmp_path / "whole").mkdir()
    whole = tmp_path / "whole" / "run.jsonl"
    whole.write_text("\n".join(_GOOD_LINES) + "\n")
    rc, expected = _report(command, whole, tmp_path / "whole")
    assert rc == 0
    shown = open(out).read().replace(str(path), "PATH")
    assert shown == open(expected).read().replace(str(whole), "PATH")


@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_report_names_a_malformed_line(command, capsys, tmp_path):
    path = tmp_path / "damaged.jsonl"
    lines = list(_GOOD_LINES)
    lines[1] = lines[1][:25]
    path.write_text("\n".join(lines) + "\n")
    rc, _out = _report(command, path, tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: not JSON: ")
    assert "line 1" not in err
