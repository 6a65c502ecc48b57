"""Fig. 7 — distributed workload, bandwidth-based ranking, transfer times.

Paper: 28-40 % transfer-time reduction vs nearest, 22-35 % completion-time
reduction; bandwidth-based selection is willing to pick *distant* servers
when the available bandwidth there is higher."""

from conftest import cached_run


def _transfer_means(size_label):
    return {
        policy: cached_run(policy, "distributed", "bandwidth", size_label).mean_transfer_time()
        for policy in ("aware", "nearest", "random")
    }


def test_fig7_transfer_gain(benchmark):
    means = benchmark.pedantic(lambda: _transfer_means("S"), rounds=1, iterations=1)
    gain = 100 * (means["nearest"] - means["aware"]) / means["nearest"]
    assert gain > 3.0, f"bandwidth ranking should cut transfer time, got {gain:+.1f}%"


def test_fig7_completion_also_improves():
    aware = cached_run("aware", "distributed", "bandwidth", "S").mean_completion_time()
    nearest = cached_run("nearest", "distributed", "bandwidth", "S").mean_completion_time()
    assert aware < nearest


def test_fig7_random_worst_transfer():
    means = _transfer_means("S")
    assert means["aware"] < means["random"]


def test_fig7_bandwidth_ranking_uses_remote_servers():
    """Unlike nearest, the bandwidth policy sometimes offloads outside the
    device's pod — the behaviour the paper's Section IV-B highlights."""
    from repro.experiments.fig4_topology import build_fig4_network
    from repro.simnet.engine import Simulator
    from repro.simnet.random import RandomStreams

    topo = build_fig4_network(Simulator(), RandomStreams(0))
    pod_of_addr = {
        topo.network.address_of(n): pod for n, pod in topo.pod_of.items()
    }
    res = cached_run("aware", "distributed", "bandwidth", "S")
    device_pod = {n: topo.pod_of[n] for n in topo.pod_of}
    cross_pod = sum(
        1
        for r in res.records_in_order
        if r.server_addr is not None
        and pod_of_addr[r.server_addr] != device_pod[r.device]
    )
    assert cross_pod > 0
