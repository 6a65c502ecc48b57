"""Tests of the benchmark itself.  Run explicitly with ``pytest bench/``
(tier-1 ``testpaths`` does not collect this directory).

Every workload runs once untraced and once traced in ``--tiny`` mode, each
in its own process exactly as the driver starts it."""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_py(script, *args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """(workload, trace) -> (process, parsed last line, --out path)."""
    out_dir = tmp_path_factory.mktemp("bench-out")
    runs = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            out = str(out_dir / f"{name}-{trace}.json")
            proc = run_py(
                "run.py", "--workload", name, "--tiny", "--seed", "1",
                "--trace", str(trace), "--out", out,
            )
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            runs[name, trace] = (proc, json.loads(last), out)
    return runs


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(os.path.isdir(os.path.join(REPO_ROOT, p)) for p in BENCH["paths"])
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_emits_declared_metrics(tiny_runs, name, trace):
    proc, last, _out = tiny_runs[name, trace]
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
        for metric in declared:  # printed by name for a human as well
            assert re.search(rf"\b{re.escape(metric)}\b", proc.stdout)


def layer_share(metrics, *keys):
    return sum(metrics[k]["value"] for k in keys) / metrics["trace.run_wall_s"]["value"]


def test_traced_runs_separate_the_layers(tiny_runs):
    fast_path = ("switch.on_ingress.self_s", "nic.tx_complete.self_s", "engine.self_s")
    telemetry = ("probe.tick.self_s", "p4.pipeline.self_s", "host.on_ingress.self_s")
    fig5 = tiny_runs["fig5_grid", 1][1]["metrics"]
    storm = tiny_runs["probe_storm", 1][1]["metrics"]
    burst = tiny_runs["scheduler_burst", 1][1]["metrics"]
    assert all(burst[k]["value"] == 0 for k in fast_path + ("engine.events",))
    assert burst["rank.decisions_per_s"]["value"] > 0
    assert layer_share(fig5, *fast_path) > 0.4
    assert layer_share(storm, *telemetry) > layer_share(fig5, *telemetry)
    observed = tiny_runs["observed_pipeline", 1][1]["metrics"]
    assert observed["report.replay_crosscheck_ok"]["value"] == 1
    assert observed["obs.tax.full_ratio"]["value"] > 0
    for name in WORKLOADS:  # every traced run reports its own overhead
        assert tiny_runs[name, 1][1]["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_trace_file_has_spans_with_parents(tiny_runs):
    assert tiny_runs["observed_pipeline", 1][0].returncode == 0
    with open(os.path.join(BENCH_DIR, "out", "trace-observed_pipeline.json")) as fh:
        trace = json.load(fh)
    names = {span["name"] for span in trace["spans"]}
    assert {"import", "build", "run_experiment", "export.write", "report.dashboard"} <= names
    assert len({span["run_id"] for span in trace["spans"]}) == 1
    assert all(span["end"] >= span["start"] for span in trace["spans"])


def steady(doc):
    """A copy of a run file whose metrics claim no per-unit spread, so one
    run a side resolves every row."""
    doc = copy.deepcopy(doc)
    for workload in doc["workloads"].values():
        for section in ("end_to_end", "gated"):
            for metric in workload[section].values():
                metric["spread"] = 0.0
    return doc


def scaled(doc, metric, factor):
    doc = copy.deepcopy(doc)
    doc["workloads"]["fig5_grid"]["end_to_end"][metric]["value"] *= factor
    return doc


def test_compare_flags_regression_and_nondeterminism(tiny_runs, tmp_path):
    with open(tiny_runs["fig5_grid", 0][2]) as fh:
        base = steady(json.load(fh))

    def compare(*docs):
        paths = []
        for index, doc in enumerate(docs):
            paths.append(str(tmp_path / f"run{index}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(doc, fh)
        return run_py("compare.py", *paths)

    same = compare(base, base)
    assert same.returncode == 0, same.stdout
    assert "cached_cell_ms" in same.stdout  # the issue's single-workload metrics are gated too

    slow = scaled(base, "unit_wall_ms", 2)
    slow["workloads"]["fig5_grid"]["exact"]["events_executed"] += 1
    worse = compare(base, slow)
    assert worse.returncode == 1
    assert "regressed" in worse.stdout and "nondeterminism" in worse.stdout
    assert "+100.0% of" in worse.stdout  # every ratio is printed with its base

    # Three runs a side whose own spread is wider than the bound settle nothing ...
    noisy = [scaled(base, "unit_wall_ms", f) for f in (0.6, 1.0, 1.4)]
    unsure = compare(*noisy, *noisy)
    assert unsure.returncode == 1 and "unresolved" in unsure.stdout
    # ... unless every run of B reads better than every run of A.
    fast = [scaled(doc, "unit_wall_ms", 0.3) for doc in noisy]
    assert compare(*noisy, *fast).returncode == 0

    stalled = copy.deepcopy(base)
    stalled["workloads"]["fig5_grid"]["clock"]["stolen_share"] = 0.5
    assert "unresolved" in compare(base, stalled).stdout

    rehashed = scaled(base, "unit_wall_ms", 2)
    rehashed["hash_seed"] = "1"
    other = compare(base, rehashed)  # host times are not comparable, the rest is
    assert other.returncode == 0 and "skipped (hash seeds differ)" in other.stdout


def test_clock_keeps_collections_and_reports_both_readings():
    import gc
    import time

    import clock

    run_clock = clock.RunClock()
    heap = [[i] for i in range(400_000)]  # a full collection of this takes > SLACK ms
    run_clock.start()
    try:
        started, raw_started = run_clock.now(), time.perf_counter()
        gc.collect()
        elapsed, raw = run_clock.now() - started, time.perf_counter() - raw_started
    finally:
        run_clock.stop()
    del heap
    assert raw > clock.SLACK * clock.INTERVAL, "heap too small to exercise the clock"
    assert elapsed > 0.8 * raw  # the pass stayed on the clock


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is no
    program to measure: no result line, non-zero exit."""
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = run_py("run.py", "--workload", "fig5_grid", "--tiny", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
