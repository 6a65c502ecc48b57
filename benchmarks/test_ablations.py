"""Ablations of the design choices DESIGN.md calls out.

* **Probe coverage** (star vs mesh): the paper probes node->scheduler only
  and *assumes* full coverage; mesh probing guarantees it.  The ablation
  quantifies what the assumption is worth.
* **Queue->latency conversion factor k**: k = 0 reduces Algorithm 1 to
  pure link-latency ranking (no congestion term) — the INT signal is
  switched off while everything else stays identical."""

from conftest import cached_run


class TestProbeCoverage:
    def test_mesh_and_star_probing_comparable(self, benchmark):
        """Mesh probing guarantees the coverage the paper assumes; star is
        the paper's literal layout.  Full coverage adds visibility but also
        more noise surface (every port contributes transient readings), so
        neither dominates — the ablation pins them to the same league and
        both far ahead of the nearest baseline."""

        def run():
            mesh = cached_run("aware", "serverless", "delay", "S", probe_layout="mesh")
            star = cached_run("aware", "serverless", "delay", "S", probe_layout="star")
            nearest = cached_run("nearest", "serverless", "delay", "S")
            return (
                mesh.mean_completion_time(),
                star.mean_completion_time(),
                nearest.mean_completion_time(),
            )

        mesh_t, star_t, nearest_t = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\nmesh={mesh_t:.2f}s star={star_t:.2f}s nearest={nearest_t:.2f}s")
        ratio = mesh_t / star_t
        assert 1 / 1.5 < ratio < 1.5
        assert mesh_t < nearest_t and star_t < nearest_t

    def test_star_probing_still_functional(self):
        res = cached_run("aware", "serverless", "delay", "S", probe_layout="star")
        assert res.tasks_failed == 0
        assert res.probe_reports > 0


class TestConversionFactor:
    def test_k_zero_disables_congestion_avoidance(self, benchmark):
        """With k = 0 the scheduler ignores queue telemetry entirely; the
        full k = 20 ms scheduler must not be worse."""

        def run():
            with_k = cached_run("aware", "serverless", "delay", "S", k=0.020)
            without_k = cached_run("aware", "serverless", "delay", "S", k=0.0)
            return with_k.mean_completion_time(), without_k.mean_completion_time()

        with_k_t, without_k_t = benchmark.pedantic(run, rounds=1, iterations=1)
        assert with_k_t <= without_k_t * 1.05

    def test_k_zero_close_to_nearest(self):
        """Sanity: k = 0 ranking is latency-only and should behave like a
        (dynamic-latency) nearest policy, not like the INT-driven one."""
        k0 = cached_run("aware", "serverless", "delay", "S", k=0.0)
        nearest = cached_run("nearest", "serverless", "delay", "S")
        ratio = k0.mean_completion_time() / nearest.mean_completion_time()
        assert 0.5 < ratio < 1.5


class TestServiceJitterFidelity:
    def test_jitter_regenerates_downstream_queues(self):
        """Without forwarding jitter, a smooth 95 %-utilization flow queues
        only at its first bottleneck and INT sees nothing downstream — the
        substrate fidelity detail the reproduction depends on."""
        from repro.simnet.engine import Simulator
        from repro.simnet.flows import UdpCbrFlow, UdpSink
        from repro.simnet.random import RandomStreams
        from repro.simnet.topology import Network
        from repro.units import mbps, ms

        def downstream_queue(jitter):
            sim = Simulator()
            net = Network(sim, RandomStreams(1), switch_service_jitter=jitter)
            for h in ("h1", "h2"):
                net.add_host(h)
            for s in ("s01", "s02", "s03"):
                net.add_switch(s)
            net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(5))
            net.connect("s01", "s02", rate_bps=mbps(20), delay=ms(5))
            net.connect("s02", "s03", rate_bps=mbps(20), delay=ms(5))
            net.attach_host("h2", "s03", fabric_rate_bps=mbps(20), delay=ms(5))
            net.finalize()
            UdpSink(net.host("h2"))
            flow = UdpCbrFlow(
                net.host("h1"), net.address_of("h2"), mbps(19),
                rng=RandomStreams(2).get("f"),
            )
            flow.run_for(10.0)
            sim.run(until=11.0)
            # Queue at the *last* switch's egress toward h2.
            port = net.port_toward("s03", "h2")
            return net.switch("s03").ports[port].queue.stats.max_depth_seen

        assert downstream_queue(0.15) > downstream_queue(0.0)
