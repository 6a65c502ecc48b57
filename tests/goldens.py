"""Every byte contract of the suite: one registry, one manifest, one recorder.

:data:`CELLS` maps each golden cell id (its family and its test's
parametrize id) to ``fn(cell_runner) -> (values, run)``: ``values`` are the
contract (sha256 digests, ``events_executed``, taxonomy counts), ``run`` is
what its test's non-vacuity asserts read.  ``tests/goldens.json`` holds
every cell's recorded values, sorted, one line per cell; each golden test
compares the values ``CELLS[cell]`` computes with :func:`recorded`, and its
file says what the cells pin and what their digests were recorded before.

    PYTHONPATH=src python -m tests.goldens

recomputes every cell, rewrites the manifest in place and prints
``changed`` or ``unchanged`` per cell; a migration calls out every
``changed`` cell in CHANGES.md.  The digests pin this repo's toolchain
(CPython float formatting, numpy's PCG64 streams).
"""

import dataclasses
import functools
import hashlib
import json
import pathlib
import tempfile

from repro.edge.task import SizeClass
from repro.experiments.comparison import FIG5_CONFIG, FIG7_CONFIG
from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig, run_experiment
from repro.faults import FaultEvent, FaultPlan
from repro.faults.plan import LINK_FLAP
from repro.faults.scenarios import builtin_plan
from repro.obs import Observability
from repro.obs.perf import count_ops
from repro.p4.headers import append_hop_record, encode_probe_header
from repro.runner import ResultCache, Runner, RunSpec, canonical_json

MANIFEST = pathlib.Path(__file__).with_name("goldens.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _smoke(base, seed, size_class, policy, **fields):
    return dataclasses.replace(base, scale=SMOKE_SCALE, seed=seed,
                               size_class=SizeClass[size_class], policy=policy, **fields)


PLAIN_CELLS = {
    "fig5-S-aware": _smoke(FIG5_CONFIG, 31, "S", "aware"),
    "fig5-S-nearest": _smoke(FIG5_CONFIG, 31, "S", "nearest"),
    "fig5-S-random": _smoke(FIG5_CONFIG, 31, "S", "random"),
    "fig7-M-aware": _smoke(FIG7_CONFIG, 32, "M", "aware"),
    "probe-dense-VS": _smoke(FIG5_CONFIG, 33, "VS", "aware",
                             probing_interval=0.02, probe_layout="mesh"),
}


def plain_cell(cell, cell_runner):
    [result] = cell_runner().run([RunSpec.from_config(PLAIN_CELLS[cell])])
    return {
        "events_executed": result.payload["events_executed"],
        "payload_sha256": _sha256(result.payload_json()),
    }, result


EVERY_FLAG = {"trace": True, "sample_interval": 0.1, "telquality": True, "whatif": True}


def _observed(config, cell, flags):
    """Run ``config`` under a hub labelled ``cell`` with ``flags`` on."""
    obs = Observability(run={"cell": cell}, **flags)
    result = run_experiment(config, obs=obs)
    export = canonical_json(obs.snapshot_records() + obs.trace_records())
    return {"events_executed": result.events_executed, "export_sha256": _sha256(export)}, result


# (seed, faulted) of the full-flag cells.
FULL_FLAG_CELLS = ((11, False), (12, False), (13, False), (14, True))


def full_flag_cell(seed, faulted, cell_runner):
    config = _smoke(ExperimentConfig(), seed, "S", "aware", probe_layout="mesh",
                    fault_plan=builtin_plan("link-flap") if faulted else None)
    return _observed(config, f"golden-{seed}", EVERY_FLAG)


HUB_FLAGS = {
    "hub": {},
    "sampler": {"sample_interval": 0.05},
    "telq+whatif": {"telquality": True, "whatif": True},
}
# (seed, size class, flags) of the hub cells.
HUB_CELLS = tuple(
    (seed, size_class, flags) for seed, size_class in ((11, "S"), (12, "VS"))
    for flags in sorted(HUB_FLAGS)
)


def hub_cell(seed, size_class, flags, cell_runner):
    config = _smoke(ExperimentConfig(), seed, size_class, "aware", probe_layout="mesh")
    # The run label is in the export; the digests were recorded with the
    # flags spelled out.
    cell = f"golden-{seed}-{flags.replace('telq', 'telquality')}"
    return _observed(config, cell, HUB_FLAGS[flags])


DECISION_CELLS = {
    "fig7-M-aware": _smoke(FIG7_CONFIG, 21, "M", "aware"),
    "raw-min-completion": _smoke(ExperimentConfig(), 22, "S", "aware",
                                 metric="raw", selection="min_completion"),
    "nearest": _smoke(ExperimentConfig(), 23, "S", "nearest"),
}


def decision_cell(cell, cell_runner):
    return _observed(DECISION_CELLS[cell], f"golden-{cell}", EVERY_FLAG)


def link_flap_cell(cell_runner):
    plan = FaultPlan(
        name="access-flap",
        events=(
            FaultEvent(time=1.0, kind=LINK_FLAP, target="node3<->s07",
                       period=3.0, count=2),
        ),
    )
    config = _smoke(ExperimentConfig(), 21, "S", "aware", probe_layout="mesh",
                    fault_plan=plan, quarantine_ttl=0.5)
    spec = RunSpec.from_config(config, obs_run={"cell": "golden-flap"}).instrumented(
        trace=True, telquality=True, whatif=True
    )
    [result] = cell_runner().run([spec])
    export = canonical_json(result.obs_records() + result.payload["trace_records"])
    return {
        "events_executed": result.payload["events_executed"],
        "export_sha256": _sha256(export),
        "payload_sha256": _sha256(result.payload_json()),
    }, result


RUNNER_CELL = _smoke(FIG5_CONFIG, 41, "VS", "aware")

# case -> (the ``repro compare`` flags its Runner is built from, payload
# has obs_records, payload has trace_records).
RUNNER_CASES = {
    "plain": ([], False, False),
    "trace": (["--trace-out", "{tmp}/t.jsonl"], False, True),
    "profile": (["--profile"], False, False),
    "mem_profile": (["--mem-profile"], False, False),
    "sample_interval": (["--sample-interval", "0.1"], True, False),
    "telquality": (["--telquality"], True, False),
    "whatif": (["--whatif"], True, False),
    "all": (["--trace-out", "{tmp}/t.jsonl", "--profile", "--mem-profile",
             "--sample-interval", "0.1", "--telquality", "--whatif"], True, True),
}


def runner_flags_cell(case, cell_runner):
    """Built and run as the command does: ``jobs=1``, in-process, no cache."""
    from repro.cli import _runner_from_args, build_parser

    with tempfile.TemporaryDirectory() as tmp:
        args = build_parser().parse_args(
            ["compare", *(flag.format(tmp=tmp) for flag in RUNNER_CASES[case][0])]
        )
        runner = _runner_from_args(args)
        assert runner.jobs == 1
        [result] = runner.run([RunSpec.from_config(RUNNER_CELL)])
    return {"payload_sha256": _sha256(result.payload_json())}, result


METRICS = ("delay", "bandwidth", "raw")
# Idle gaps of the degraded stream: past the TTL (0.04 s), past the
# queue-depth window (0.1 s), past the staleness horizon (2 s).
IDLE_GAPS = (0.05, 0.15, 2.5)


def _ingests():
    """Every recorded report as the keyword arguments ``ingest_probe`` takes."""
    from tests.properties.test_property_inference import _fig4_mesh_reports

    out = []
    for report in _fig4_mesh_reports():
        payload = encode_probe_header(0)
        for record in report.records:
            payload = append_hop_record(payload, record)
        out.append(dict(
            probe_src=report.probe_src, probe_dst=report.probe_dst, seq=report.seq,
            sent_at=report.sent_at, received_at=report.received_at,
            payload=payload, final_link_latency=report.final_link_latency,
        ))
    return out


def _counted(call, counts, calls):
    """``call()``, its ops counted into ``counts`` and ``calls`` if given."""
    if counts is None:
        return call()
    kept = []
    count_ops(lambda: kept.append(call()), counts, calls)
    return kept[0]


def _stream(quarantine_ttl, ranks, step, gaps=(), counts=None, ingest_counts=None,
            calls=None, ingest_calls=None):
    """``ranks`` rank() results cycling requesters (outer) and metrics
    (inner), one ingest every fourth rank with the clock ``step`` further
    on; every 100th rank the clock also jumps by the next of ``gaps``.
    With ``counts``, the bytecodes each rank() call executes add into it
    (:func:`repro.obs.perf.count_ops`), and its Python calls into
    ``calls``; with ``ingest_counts`` (and ``ingest_calls``) those of each
    ingest_probe() call; nothing else is counted."""
    from tests.properties.test_property_inference import _fed_scheduler

    sim, scheduler = _fed_scheduler(quarantine_ttl)
    collector = scheduler.collector
    ingests = _ingests()
    requesters = scheduler.server_addrs
    results = []
    quarantined = 0
    clock = 0.0
    for i in range(ranks):
        if i % 4 == 0:
            clock += step
            sim.run(until=clock)
            kwargs = ingests[(i // 4) % len(ingests)]
            report = _counted(lambda: collector.ingest_probe(**kwargs),
                              ingest_counts, ingest_calls)
            assert report is not None
        if gaps and i % 100 == 99:
            clock += gaps[(i // 100) % len(gaps)]
            sim.run(until=clock)
        requester = requesters[(i // len(METRICS)) % len(requesters)]
        metric = METRICS[i % len(METRICS)]
        results.append(_counted(lambda: scheduler.rank(requester, metric), counts, calls))
        quarantined += bool(scheduler.quarantined_nodes)
    return results, collector.reports_ingested, quarantined


def ranks_digest(results) -> str:
    """sha256 of ``repr()`` of every ranking in a stream."""
    return _sha256(repr(results))


def fresh_stream(counts=None, ingest_counts=None, calls=None, ingest_calls=None):
    """The ``fresh`` stream: 3 000 ranks, no quarantine, 5 ms per ingest."""
    return _stream(None, 3000, 0.005, counts=counts, ingest_counts=ingest_counts,
                   calls=calls, ingest_calls=ingest_calls)


def rank_cell(stream, cell_runner):
    run = stream()
    return {"ranks_sha256": ranks_digest(run[0])}, run


def two_run_page_cell(cell_runner):
    """Two fully observed runs in one file, read back and rendered: the run
    list, every per-run chart title and every sort by run key go through
    the run-key code."""
    from repro.experiments.harness import ExperimentScale
    from repro.obs.dashboard import render_dashboard
    from repro.obs.export import read_jsonl, write_jsonl

    scale = ExperimentScale(size_scale=0.05, total_tasks=6, mean_interarrival=0.4, time_scale=0.08)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "two.jsonl")
        for policy, seed in (("aware", 3), ("nearest", 4)):
            obs = Observability(run={"policy": policy, "seed": seed}, **EVERY_FLAG)
            config = ExperimentConfig(scale=scale, seed=seed, size_class=SizeClass.S, policy=policy)
            run_experiment(config, obs=obs)
            write_jsonl(obs.snapshot_records(), path, append=policy != "aware")
        with open(path, "rb") as fh:
            export_sha256 = hashlib.sha256(fh.read()).hexdigest()
        page = render_dashboard(read_jsonl(path))
    return {"export_sha256": export_sha256, "page_sha256": _sha256(page)}, page


def _digest(mapping):
    return _sha256(json.dumps(sorted(mapping.items())))


def phase_taxonomy_cell(figure, cell_runner):
    """Which phase paths exist, how often each closes, and how every scope
    was opened (the overhead model's clock-read count).  ``run`` is the
    sorted phase paths."""
    from repro.simnet.engine import EngineProfiler

    base, size_class = {
        "fig5": (FIG5_CONFIG, SizeClass.VS), "fig7": (FIG7_CONFIG, SizeClass.M),
    }[figure]
    config = dataclasses.replace(base, scale=SMOKE_SCALE, seed=3, size_class=size_class)
    prof = EngineProfiler()
    run_experiment(config, profiler=prof)
    summary = prof.summary()
    got = {
        "phases": _digest({p: s["count"] for p, s in summary["phases"].items()}),
        "handlers": _digest({h: s["count"] for h, s in summary["by_type"].items()}),
        "phase_firsts": prof.phase_firsts,
        "phase_nexts": prof.phase_nexts,
        "phase_pairs": summary["overhead"]["phase_pairs"],
        "clock_reads": summary["overhead"]["clock_reads"],
    }
    return got, sorted(summary["phases"])


CELLS = {
    **{f"plain/{cell}": functools.partial(plain_cell, cell) for cell in PLAIN_CELLS},
    **{f"observed/full-{seed}-{faulted}": functools.partial(full_flag_cell, seed, faulted)
       for seed, faulted in FULL_FLAG_CELLS},
    **{f"observed/hub-{seed}-{size}-{flags}": functools.partial(hub_cell, seed, size, flags)
       for seed, size, flags in HUB_CELLS},
    **{f"observed/decision-{cell}": functools.partial(decision_cell, cell)
       for cell in DECISION_CELLS},
    "control-plane/link-flap": link_flap_cell,
    **{f"observer-runner/{case}": functools.partial(runner_flags_cell, case)
       for case in RUNNER_CASES},
    "rank/fresh": functools.partial(rank_cell, fresh_stream),
    "rank/degraded": functools.partial(rank_cell, lambda: _stream(0.04, 3000, 0.002, IDLE_GAPS)),
    "dashboard/two-run": two_run_page_cell,
    **{f"profile-taxonomy/{figure}": functools.partial(phase_taxonomy_cell, figure)
       for figure in ("fig5", "fig7")},
}


def recorded(cell):
    """The values the manifest holds for ``cell``."""
    return json.loads(MANIFEST.read_text(encoding="utf-8"))[cell]


def manifest_text(values):
    """The manifest's bytes: cells sorted, one line each, keys sorted."""
    lines = [
        f"  {json.dumps(cell)}: {json.dumps(values[cell], sort_keys=True)}"
        for cell in sorted(values)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def cell_runner_over(cache):
    """``cell_runner(observe=None)``: a serial Runner over ``cache``."""
    return lambda observe=None: Runner(jobs=1, cache=cache, observe=observe)


def main():
    old = json.loads(MANIFEST.read_text(encoding="utf-8"))
    new = {}
    with tempfile.TemporaryDirectory() as cache_dir:
        cell_runner = cell_runner_over(ResultCache(cache_dir))
        for cell in sorted(CELLS):
            new[cell], _run = CELLS[cell](cell_runner)
            status = "unchanged" if old.get(cell) == new[cell] else "changed"
            print(f"{status:>9}  {cell}", flush=True)
    MANIFEST.write_text(manifest_text(new), encoding="utf-8")


if __name__ == "__main__":
    main()
