"""Shared fixtures: simulators, small networks and the session's cell cache."""

from __future__ import annotations

import pytest

from repro.runner import ResultCache
from repro.simnet.engine import Simulator
from repro.simnet.random import RandomStreams
from repro.simnet.topology import Network
from repro.units import mbps, ms
from tests import goldens


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(12345)


@pytest.fixture
def dumbbell(sim, streams):
    """h1 -- s01 -- h2: the Fig. 3 calibration topology."""
    net = Network(sim, streams)
    net.add_host("h1")
    net.add_host("h2")
    net.add_switch("s01")
    net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
    net.attach_host("h2", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
    net.finalize()
    return net


@pytest.fixture
def line3(sim, streams):
    """h1 -- s01 -- s02 -- {h2, h3}: two switches, a shared middle link."""
    net = Network(sim, streams)
    for h in ("h1", "h2", "h3"):
        net.add_host(h)
    for s in ("s01", "s02"):
        net.add_switch(s)
    net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
    net.connect("s01", "s02", rate_bps=mbps(20), delay=ms(10))
    net.attach_host("h2", "s02", fabric_rate_bps=mbps(20), delay=ms(10))
    net.attach_host("h3", "s02", fabric_rate_bps=mbps(20), delay=ms(10))
    net.finalize()
    return net


@pytest.fixture
def quiet_network_factory(sim):
    """Factory for networks with deterministic clocks and service times —
    tests asserting exact timings use this."""

    def make(streams=None) -> Network:
        return Network(
            sim,
            streams if streams is not None else RandomStreams(0),
            clock_offset_std=0.0,
            clock_jitter_std=0.0,
            switch_service_jitter=0.0,
        )

    return make


@pytest.fixture(scope="session")
def cell_runner(tmp_path_factory):
    """``cell_runner(observe=None)``: a serial Runner over one result cache
    per session, so each distinct spec is simulated at most once.  Tests of
    executor or cache semantics build their own Runner."""
    return goldens.cell_runner_over(ResultCache(str(tmp_path_factory.mktemp("cells"))))
