"""Section III-A overhead claim — probing costs 120 Kb/s per sender
(10 pkt/s x 1.5 KB), about 1.1 % of a 10 Mb/s link, versus the rapidly
growing cost of embedding INT in every data packet."""

import pytest

from repro.p4.headers import HOP_RECORD_SIZE
from repro.simnet.engine import Simulator
from repro.simnet.random import RandomStreams
from repro.telemetry.collector import IntCollector
from repro.telemetry.probe import ProbeResponder, ProbeSender
from repro.units import kbps, mbps
from repro.experiments.fig4_topology import build_fig4_network


def test_paper_overhead_arithmetic(benchmark):
    """10 packets/s x 1.5 KB = 120 Kb/s = 1.2 % of 10 Mb/s."""
    sim = Simulator()
    topo = build_fig4_network(sim, RandomStreams(0))
    sender = ProbeSender(
        topo.network.host("node1"), [topo.scheduler_addr], interval=0.1, probe_size=1500
    )
    assert sender.overhead_bps == pytest.approx(kbps(120))
    assert sender.overhead_bps / mbps(10) == pytest.approx(0.012, abs=0.002)


def test_measured_probe_traffic_matches_offered(benchmark):
    """Run probing for 10 s of sim time and measure actual bytes on the
    sender's uplink."""
    def run():
        sim = Simulator()
        topo = build_fig4_network(sim, RandomStreams(0))
        collector = IntCollector(topo.network.host("node6"))
        ProbeResponder(topo.network.host("node6"), collector=collector)
        sender = ProbeSender(
            topo.network.host("node1"), [topo.scheduler_addr],
            interval=0.1, probe_size=1500,
        )
        sender.start()
        sim.run(until=10.0)
        link = topo.network.host("node1").ports[0].link
        carried = link.bytes_carried["a"]  # node1 -> leaf direction
        return carried * 8.0 / 10.0, collector.reports_ingested

    rate, reports = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rate == pytest.approx(kbps(120), rel=0.05)
    assert reports >= 95  # ~100 probes in 10 s, minus boundary effects


def test_per_packet_int_would_cost_more(benchmark):
    """The design alternative the paper rejects: INT metadata appended to
    every data frame.  With 17 B/hop and 5 hops that is 5.7 % of every
    1500 B frame — already ~48x the register+probe design's relative cost
    at 10 Mb/s, and it grows with hop count."""
    per_packet_fraction = 5 * HOP_RECORD_SIZE / 1500
    probe_fraction = kbps(120) / mbps(10) / 10  # amortized over 10 Mb/s x 10 nodes
    assert per_packet_fraction > 0.05
    assert per_packet_fraction > probe_fraction
