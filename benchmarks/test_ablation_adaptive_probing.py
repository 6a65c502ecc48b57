"""Ablation: adaptive probe-rate control vs fixed probing rates.

The paper fixes the probing period at 100 ms and shows (Fig. 9) that slower
fixed rates hurt; auto-tuning is future work.  The adaptive controller
(`repro.telemetry.adaptive`) probes fast only while congestion is visible.
This ablation measures the two quantities that trade off:

* probing overhead (probes actually emitted);
* detection latency (how quickly new congestion appears in the store).
"""

from repro.experiments.fig4_topology import build_fig4_network
from repro.simnet.engine import Simulator
from repro.simnet.flows import UdpCbrFlow, UdpSink
from repro.simnet.random import RandomStreams
from repro.telemetry.adaptive import AdaptiveProbingController, ProbeRateListener
from repro.telemetry.collector import IntCollector
from repro.telemetry.probe import ProbeResponder, ProbeSender
from repro.core.telemetry_store import TelemetryStore
from repro.units import mbps


def _build(adaptive: bool, fixed_interval: float = 0.1):
    """Fig. 4 network with mesh probing; idle 0-10 s, congested 10-15 s."""
    sim = Simulator()
    topo = build_fig4_network(sim, RandomStreams(2))
    net = topo.network
    collector = IntCollector(net.host(topo.scheduler_name))
    store = TelemetryStore(sim)
    collector.subscribe(store.update)
    all_addrs = [net.address_of(n) for n in topo.node_names]
    senders = []
    for name in topo.node_names:
        host = net.host(name)
        if name == topo.scheduler_name:
            ProbeResponder(host, collector=collector)
        else:
            ProbeResponder(host, collector_addr=topo.scheduler_addr)
        sender = ProbeSender(
            host, [a for a in all_addrs if a != host.addr],
            interval=fixed_interval, probe_size=256,
        )
        sender.start()
        senders.append(sender)
        if adaptive:
            ProbeRateListener(host, sender)
    if adaptive:
        AdaptiveProbingController(
            net.host(topo.scheduler_name), collector,
            [net.address_of(n) for n in topo.node_names],
            fast_interval=0.1, slow_interval=1.0, cooldown=1.0,
        )
    for name in topo.node_names:
        UdpSink(net.host(name))
    for i, src in enumerate(("node3", "node5")):
        UdpCbrFlow(
            net.host(src), net.address_of("node8"), mbps(12),
            rng=RandomStreams(50 + i).get("f"),
        ).run_for(5.0, delay=10.0)
    return sim, topo, store, senders


def _detection_time(sim, store, net, deadline=16.0):
    """Sim time at which the store first shows the pod-4 congestion."""
    probe_point = (("sw", 4), ("sw", 12))  # s04 -> s12, the convergence port
    hit = {}

    def check():
        if "t" not in hit and store.max_qdepth(*probe_point) >= 3:
            hit["t"] = sim.now

    from repro.simnet.engine import PeriodicTimer

    timer = PeriodicTimer(sim, 0.05, check)
    timer.start()
    sim.run(until=deadline)
    return hit.get("t")


def test_adaptive_probing_cuts_idle_overhead(benchmark):
    def run():
        sim_a, topo_a, store_a, senders_a = _build(adaptive=True)
        det_a = _detection_time(sim_a, store_a, topo_a.network)
        probes_a = sum(s.probes_sent for s in senders_a)

        sim_f, topo_f, store_f, senders_f = _build(adaptive=False, fixed_interval=0.1)
        det_f = _detection_time(sim_f, store_f, topo_f.network)
        probes_f = sum(s.probes_sent for s in senders_f)
        return det_a, probes_a, det_f, probes_f

    det_a, probes_a, det_f, probes_f = benchmark.pedantic(run, rounds=1, iterations=1)
    # Both detect the congestion that starts at t=10.
    assert det_f is not None and det_a is not None
    assert det_f >= 10.0 and det_a >= 10.0
    # Adaptive detection lags by at most ~one slow interval + decision period.
    assert det_a - det_f < 2.0
    # And it costs far fewer probes over the (mostly idle) run.
    assert probes_a < 0.45 * probes_f


def test_fixed_slow_probing_detects_late_or_never(benchmark):
    def run():
        sim, topo, store, senders = _build(adaptive=False, fixed_interval=5.0)
        det = _detection_time(sim, store, topo.network)
        return det

    det = benchmark.pedantic(run, rounds=1, iterations=1)
    # 5 s fixed probing: detection no earlier than the first post-onset probe.
    assert det is None or det >= 10.0
