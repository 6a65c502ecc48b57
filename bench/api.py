"""The public surface of ``repro`` that the benchmark drives, loaded in one
place.

Everything is imported by :func:`load_api` (never at module import) so
``run.py`` can purge ``repro.*`` from ``sys.modules`` and time a fresh import
as part of ``setup_s``.  The benchmark measures from outside: it only calls
the functions and classes named here.
"""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def add_src_to_path() -> None:
    """Make ``src/`` importable without PYTHONPATH (the driver's command
    line may not name anything outside ``bench/``)."""
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def purge_repro_modules() -> None:
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]


# module -> the public names the benchmark calls.
PUBLIC_API = {
    "repro.core.scheduler": ("NetworkAwareScheduler",),
    "repro.edge.task": ("SizeClass",),
    "repro.edge.workload": ("WorkloadSpec", "build_plan"),
    "repro.experiments.comparison": ("FIG5_CONFIG", "FIG7_CONFIG"),
    "repro.experiments.export": ("result_to_dict",),
    "repro.experiments.fig4_topology": ("build_fig4_network",),
    "repro.experiments.harness": ("ExperimentScale", "run_experiment"),
    "repro.obs": ("Observability",),
    "repro.obs.dashboard": ("render_dashboard",),
    "repro.obs.export": ("read_jsonl", "render_obs_report", "write_jsonl"),
    "repro.obs.telquality": ("render_telemetry_report",),
    "repro.obs.whatif": ("render_whatif_report", "replay_decisions"),
    "repro.p4.headers": (
        "IntHopRecord", "append_hop_record", "decode_probe_payload", "encode_probe_header",
    ),
    "repro.runner": ("ResultCache", "Runner", "RunSpec", "canonical_json"),
    "repro.simnet.engine": ("EngineProfiler", "PeriodicTimer", "Simulator"),
    "repro.simnet.flows": ("ReliableTransfer", "TransferSinkApp", "UdpCbrFlow", "UdpSink"),
    "repro.simnet.random": ("RandomStreams", "run_streams"),
    "repro.simnet.topology": ("Network",),
    "repro.simnet.trace": ("PacketTracer",),
    "repro.telemetry.collector": ("IntCollector",),
    "repro.telemetry.probe": ("ProbeResponder", "ProbeSender"),
    "repro.units": ("mbps", "ms"),
}


def load_api() -> SimpleNamespace:
    """Import the whole stack the workloads touch and return its public
    names as one namespace."""
    api = SimpleNamespace()
    for module_name, names in PUBLIC_API.items():
        module = importlib.import_module(module_name)
        for name in names:
            setattr(api, name, getattr(module, name))
    return api


CAPTURE_SECONDS = 2.0


def capture_control_plane(api: SimpleNamespace, seed: int) -> SimpleNamespace:
    """Fig. 4 network + network-aware scheduler under mesh probing, simulated
    for ``CAPTURE_SECONDS``; every report the collector published is
    re-encoded into the keyword arguments ``IntCollector.ingest_probe``
    takes, so the control plane can be driven directly with real inputs
    while the simulator stays idle."""
    sim = api.Simulator()
    topo = api.build_fig4_network(sim, api.run_streams(seed))
    net = topo.network
    workers = [net.address_of(n) for n in topo.worker_names]
    scheduler = api.NetworkAwareScheduler(
        net.host(topo.scheduler_name),
        workers,
        link_capacity_bps=topo.fabric_rate_bps,
        default_link_delay=topo.link_delay,
    )
    reports: List[Any] = []
    scheduler.collector.subscribe(reports.append)
    addrs = [net.address_of(n) for n in topo.node_names]
    for name in topo.node_names:
        host = net.host(name)
        if name == topo.scheduler_name:
            api.ProbeResponder(host, collector=scheduler.collector)
        else:
            api.ProbeResponder(host, collector_addr=topo.scheduler_addr)
        api.ProbeSender(
            host, [a for a in addrs if a != host.addr], interval=0.1, probe_size=256
        ).start()
    sim.run(until=CAPTURE_SECONDS)

    ingests: List[Dict[str, Any]] = []
    for report in reports:
        payload = api.encode_probe_header(0)
        for record in report.records:
            payload = api.append_hop_record(payload, record)
        ingests.append(
            dict(
                probe_src=report.probe_src,
                probe_dst=report.probe_dst,
                seq=report.seq,
                sent_at=report.sent_at,
                received_at=report.received_at,
                payload=payload,
                final_link_latency=report.final_link_latency,
            )
        )
    return SimpleNamespace(
        sim=sim, topo=topo, scheduler=scheduler, workers=workers,
        reports=reports, ingests=ingests,
    )
