"""Seeded random streams: determinism and independence."""

import numpy as np

from repro.simnet.random import RandomStreams


def test_same_seed_same_stream():
    a = RandomStreams(42).get("workload").random(5)
    b = RandomStreams(42).get("workload").random(5)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RandomStreams(1).get("workload").random(5)
    b = RandomStreams(2).get("workload").random(5)
    assert not np.array_equal(a, b)


def test_named_streams_are_independent():
    streams = RandomStreams(7)
    a = streams.get("a").random(5)
    b = streams.get("b").random(5)
    assert not np.array_equal(a, b)


def test_stream_independent_of_creation_order():
    s1 = RandomStreams(9)
    s1.get("x")  # create an extra stream first
    v1 = s1.get("target").random(3)

    s2 = RandomStreams(9)
    v2 = s2.get("target").random(3)  # no extra stream
    assert np.array_equal(v1, v2)


def test_get_returns_same_generator_instance():
    streams = RandomStreams(3)
    assert streams.get("w") is streams.get("w")


