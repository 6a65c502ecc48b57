"""Layer probes: small drivers that loop one public call of one layer.

They generalise ``benchmarks/test_micro_substrate.py`` into numbers the
traced run reports beside the workload's own counters.  A probe's inputs do
not depend on the workload, so its value reads the same under every
workload; what differs per workload is which end-to-end number the layer is
expected to move (see README.md).  Each timing is the best of ``REPEATS``
passes -- a per-layer cost floor, not a user-visible latency.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import tempfile
from types import SimpleNamespace
from typing import Callable, Dict

from api import OUT_DIR, capture_control_plane
from clock import now

REPEATS = 3


def _best(fn: Callable[[], float]) -> float:
    return min(fn() for _ in range(REPEATS))


def _timed(fn: Callable[[], object]) -> float:
    start = now()
    fn()
    return now() - start


def probe_engine(api: SimpleNamespace, scale: float) -> Dict[str, float]:
    events = max(1000, int(200_000 * scale))

    def dispatch() -> float:
        sim = api.Simulator()

        def noop() -> None:
            pass

        def body() -> None:
            for i in range(events):
                sim.schedule(i * 1e-6, noop)
            sim.run()

        wall = _timed(body)
        if sim.events_executed != events:
            raise RuntimeError("engine probe lost events")
        return wall

    fires = max(1000, int(100_000 * scale))

    def timer() -> float:
        sim = api.Simulator()
        ticker = api.PeriodicTimer(sim, 1e-3, lambda: None)
        ticker.start()
        wall = _timed(lambda: sim.run(until=fires * 1e-3))
        if ticker.fire_count < fires - 1:
            raise RuntimeError("timer probe lost firings")
        return wall

    return {
        "engine.dispatch_us": _best(dispatch) / events * 1e6,
        "engine.timer_us": _best(timer) / fires * 1e6,
    }


def _one_switch(api: SimpleNamespace, delay_ms: float):
    sim = api.Simulator()
    net = api.Network(sim, api.RandomStreams(0), switch_service_jitter=0.0)
    net.add_host("h1")
    net.add_host("h2")
    net.add_switch("s01")
    for name in ("h1", "h2"):
        net.attach_host(name, "s01", fabric_rate_bps=api.mbps(20), delay=api.ms(delay_ms))
    net.finalize()
    return sim, net


def probe_switch(api: SimpleNamespace, scale: float) -> Dict[str, float]:
    duration = max(0.5, 5.0 * scale)

    def forward(traced: bool) -> float:
        sim, net = _one_switch(api, 1)
        api.UdpSink(net.host("h2"))
        if traced:
            # Any attached tracer makes the switch fall back from its
            # compiled closures to the staged pipeline.
            api.PacketTracer(list(net.hosts.values()) + list(net.switches.values()))
        flow = api.UdpCbrFlow(
            net.host("h1"), net.address_of("h2"), api.mbps(18), burstiness="cbr"
        )
        flow.run_for(duration)
        wall = _timed(lambda: sim.run(until=duration + 1.0))
        return wall / flow.packets_emitted

    return {
        "switch.forward_us_per_hop": _best(lambda: forward(False)) * 1e6,
        "switch.forward_traced_us_per_hop": _best(lambda: forward(True)) * 1e6,
    }


def probe_flows(api: SimpleNamespace, scale: float) -> Dict[str, float]:
    size = max(50_000, int(1_000_000 * scale))

    def transfer() -> float:
        sim, net = _one_switch(api, 5)
        api.TransferSinkApp(net.host("h2"), 6000)
        xfer = api.ReliableTransfer(net.host("h1"), net.address_of("h2"), 6000, size)
        xfer.start()
        wall = _timed(lambda: sim.run(until=120.0))
        if not xfer.done:
            raise RuntimeError("transfer probe did not complete")
        return wall

    return {"flows.transfer_mb_per_wall_s": size / 1e6 / _best(transfer)}


def probe_p4(api: SimpleNamespace, scale: float) -> Dict[str, float]:
    loops = max(200, int(5000 * scale))
    record = api.IntHopRecord(
        switch_id=7, egress_port=2, max_qdepth=12, link_latency=0.0106, egress_ts=123.456
    )

    def roundtrip() -> float:
        def body() -> None:
            for _ in range(loops):
                payload = api.encode_probe_header(0)
                for _hop in range(5):
                    payload = api.append_hop_record(payload, record)
                if len(api.decode_probe_payload(payload)) != 5:
                    raise RuntimeError("INT stack lost a hop")

        return _timed(body)

    return {"p4.header_roundtrip_us": _best(roundtrip) / loops * 1e6}


def probe_probe(api: SimpleNamespace, scale: float) -> Dict[str, float]:
    """One probe over a 5-switch line: send -> stamp x5 -> respond -> ingest."""
    sim_seconds = max(1.0, 10.0 * scale)

    def line() -> float:
        sim = api.Simulator()
        net = api.Network(sim, api.RandomStreams(0), switch_service_jitter=0.0)
        net.add_host("h1")
        net.add_host("h2")
        names = [f"s{i:02d}" for i in range(1, 6)]
        for name in names:
            net.add_switch(name)
        for left, right in zip(names, names[1:]):
            net.connect(left, right, rate_bps=api.mbps(20), delay=api.ms(1))
        net.attach_host("h1", names[0], fabric_rate_bps=api.mbps(20), delay=api.ms(1))
        net.attach_host("h2", names[-1], fabric_rate_bps=api.mbps(20), delay=api.ms(1))
        net.finalize()
        collector = api.IntCollector(net.host("h2"))
        api.ProbeResponder(net.host("h2"), collector=collector)
        sender = api.ProbeSender(
            net.host("h1"), [net.address_of("h2")], interval=0.01, probe_size=256
        )
        sender.start()
        wall = _timed(lambda: sim.run(until=sim_seconds))
        if collector.reports_ingested < sender.probes_sent - 2:
            raise RuntimeError("probe line lost probes")
        return wall / collector.reports_ingested

    return {"probe.round_us": _best(line) * 1e6}


def probe_control_plane(api: SimpleNamespace, scale: float) -> Dict[str, float]:
    plane = capture_control_plane(api, seed=0)
    scheduler, collector, store = plane.scheduler, plane.scheduler.collector, plane.scheduler.store
    loops = max(200, int(4000 * scale))
    ingests, reports = plane.ingests, plane.reports

    def ingest() -> float:
        def body() -> None:
            for i in range(loops):
                collector.ingest_probe(**ingests[i % len(ingests)])

        return _timed(body)

    def update() -> float:
        def body() -> None:
            for i in range(loops):
                store.update(reports[i % len(reports)])

        return _timed(body)

    out = {
        "collector.ingest_us": _best(ingest) / loops * 1e6,
        "store.update_us": _best(update) / loops * 1e6,
        "collector.malformed": float(collector.reports_malformed),
        "store.known_links": float(store.known_link_count()),
    }
    calls = max(100, int(1500 * scale))
    for metric in ("delay", "bandwidth", "raw"):
        samples = []
        for i in range(calls):
            requester = plane.workers[i % len(plane.workers)]
            start = now()
            scheduler.rank(requester, metric)
            samples.append(now() - start)
        out[f"rank.{metric}_us"] = statistics.median(samples) * 1e6
    return out


def probe_runner(api: SimpleNamespace, scale: float) -> Dict[str, float]:
    """Spec hashing and cache put/get on the real envelope of one small cell."""
    config = dataclasses.replace(
        api.FIG5_CONFIG, size_class=api.SizeClass.S, seed=0,
        scale=api.ExperimentScale(
            size_scale=0.05, total_tasks=3 if scale < 1 else 6,
            mean_interarrival=0.4, time_scale=0.08,
        ),
    )
    spec = api.RunSpec.from_config(config)
    loops = max(100, int(2000 * scale))
    hash_s = _best(lambda: _timed(lambda: [spec.content_hash() for _ in range(loops)]))
    os.makedirs(OUT_DIR, exist_ok=True)
    root = tempfile.mkdtemp(prefix="probe-cache-", dir=OUT_DIR)
    try:
        cache = api.ResultCache(root)
        [result] = api.Runner(jobs=1, cache=cache).run([spec])
        envelope = result.to_json().encode("utf-8")
        rounds = max(5, int(50 * scale))
        put_s = _best(
            lambda: _timed(lambda: [cache.put(result.spec_hash, envelope) for _ in range(rounds)])
        )

        def get() -> None:
            for _ in range(rounds):
                if cache.get(result.spec_hash) != envelope:
                    raise RuntimeError("cache returned different bytes")

        get_s = _best(lambda: _timed(get))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "runner.spec_hash_us": hash_s / loops * 1e6,
        "runner.cache_put_ms": put_s / rounds * 1e3,
        "runner.cache_get_ms": get_s / rounds * 1e3,
        "runner.envelope_bytes": float(len(envelope)),
    }


def run_all(api: SimpleNamespace, tracer, *, scale: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    probes = (
        ("engine", lambda: probe_engine(api, scale)),
        ("switch", lambda: probe_switch(api, scale)),
        ("flows", lambda: probe_flows(api, scale)),
        ("p4", lambda: probe_p4(api, scale)),
        ("probe", lambda: probe_probe(api, scale)),
        ("control_plane", lambda: probe_control_plane(api, scale)),
        ("runner", lambda: probe_runner(api, scale)),
    )
    for name, fn in probes:
        with tracer.span(f"layer_probe.{name}"):
            out.update(fn())
    return out
