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


_CALIBRATE = ["calibrate", "--levels", "0.5", "--duration", "6"]


@pytest.mark.parametrize("argv,flag", [
    pytest.param(argv, flag, id=f"{argv[0]}{flag}")
    for argv, flag in (
        (_CALIBRATE + ["--trace-out", "{tmp}/spans.jsonl"], "--trace-out"),
        (_CALIBRATE + ["--telquality"], "--telquality"),
        (_CALIBRATE + ["--whatif"], "--whatif"),
        (_CALIBRATE + ["--sample-interval", "0.1"], "--sample-interval"),
        (["sweep", "--intervals", "0.1", "--telquality"], "--telquality"),
        (["sweep", "--intervals", "0.1", "--sample-interval", "0.1"], "--sample-interval"),
        (["sensitivity", "--values", "0.02", "--whatif"], "--whatif"),
    )
])
def test_undeliverable_observer_flag_is_an_argument_error(argv, flag, capsys, tmp_path):
    """An observer flag a command cannot deliver (nothing of its spec kind
    to observe, or an export the command never writes) exits 2 before any
    run, naming the flag and the command."""
    rc = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert flag in captured.err and f"'{argv[0]}'" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "spans.jsonl").exists()


def test_calibrate_still_takes_the_engine_observers(capsys):
    assert main(_CALIBRATE + ["--mem-profile"]) == 0
    assert "engine profile:" in capsys.readouterr().out


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


def test_obs_report_writes_profile_exports(capsys, tmp_path):
    from repro.obs.export import read_jsonl
    from repro.obs.perf import flamegraph_svg

    obs_out = tmp_path / "run.jsonl"
    assert main([
        "compare", "--figure", "fig5", "--scale", "smoke",
        "--classes", "VS", "--profile", "--obs-out", str(obs_out),
    ]) == 0
    (profile,) = [r["profile"] for r in read_jsonl(str(obs_out)) if r["kind"] == "profile"]
    flamegraph, collapsed = tmp_path / "flame.svg", tmp_path / "flame.txt"
    rc = main(["obs-report", str(obs_out), "--out", str(tmp_path / "report.txt"),
               "--flamegraph-out", str(flamegraph), "--collapsed-out", str(collapsed)])
    assert rc == 0
    # The flamegraph is the export's profile, as a self-contained SVG;
    # collapsed stacks parse as "path count" lines.
    svg = flamegraph.read_text()
    assert svg == flamegraph_svg(profile)
    assert svg.startswith("<svg") and "<script" not in svg
    assert "src=" not in svg and "href" not in svg
    lines = collapsed.read_text().splitlines()
    assert lines and all(l.rsplit(" ", 1)[1].isdigit() for l in lines)
    # An export without a profile record says so and writes nothing.
    capsys.readouterr()
    plain = tmp_path / "plain.jsonl"
    plain.write_text("\n".join(_GOOD_LINES) + "\n")
    rc = main(["obs-report", str(plain), "--out", str(tmp_path / "plain.txt"),
               "--flamegraph-out", str(tmp_path / "none.svg"),
               "--collapsed-out", str(tmp_path / "none.txt")])
    assert rc == 0
    assert "note: no profile in the report" in capsys.readouterr().err
    assert not (tmp_path / "none.svg").exists() and not (tmp_path / "none.txt").exists()


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


# How an export can be damaged -> (its second line, or None for a directory
# at the path; what stderr says after "error: <path>").  "not-json" keeps
# the bare command as its test id.
_DAMAGE = {
    "not-json": (_GOOD_LINES[1][:25].encode(), ":2: not JSON: "),
    "not-object": (b"[1, 2]", ":2: not a JSON object: list"),
    "not-utf8": (b'{"kind": "event", "event": "\xff"}', ":2: not UTF-8: "),
    "directory": (None, ": "),
}


@pytest.mark.parametrize("command, damage", [
    pytest.param(command, damage, id=command if damage == "not-json" else f"{command}-{damage}")
    for damage in _DAMAGE for command in REPORT_COMMANDS
])
def test_report_names_a_malformed_line(command, damage, capsys, tmp_path):
    path = tmp_path / "damaged.jsonl"
    line, said = _DAMAGE[damage]
    if line is None:
        path.mkdir()
    else:
        lines = [good.encode() for good in _GOOD_LINES]
        lines[1] = line
        path.write_bytes(b"\n".join(lines) + b"\n")
    rc, _out = _report(command, path, tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{said}")
    assert len(err.splitlines()) == 1
    assert "line 1" not in err
