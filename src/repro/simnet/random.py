"""Deterministic, per-component random streams.

Experiments must be reproducible and — critically for the paper's
methodology — *paired*: Section IV requires that when comparing scheduling
algorithms, the same sequence of workload arrivals and background-traffic
placements is used for every policy.  We achieve this by deriving independent
named sub-streams from one root seed, so e.g. ``streams.get("workload")``
yields identical draws across policy runs while the policies themselves may
consume randomness (the Random baseline) from their own stream without
perturbing the workload.
"""

from __future__ import annotations

import hashlib
import zlib
from itertools import chain
from typing import Callable, Dict, Iterator

import numpy as np

__all__ = ["RandomStreams", "derive_seed", "prefetch", "run_streams"]

# The named per-run sub-streams every experiment derives from its root seed.
# Pairing depends on the *names* staying stable: "workload" and "background"
# must draw identically across policy runs of the same seed, while policy-
# private streams ("random_policy") may burn randomness freely.
STREAM_WORKLOAD = "workload"
STREAM_BACKGROUND = "background"
STREAM_FAULTS = "faults"
STREAM_RANDOM_POLICY = "random_policy"
STREAM_IPERF = "iperf"


def derive_seed(master_seed: int, key: str) -> int:
    """Deterministic 31-bit seed from a master seed and a stable string key.

    This is the one place run seeds are derived from grid-level master
    seeds: ``derive_seed(master, f"repeat:{i}")`` gives every repeat of a
    sweep its own root, independent of the order cells are expanded or
    executed in (policy order cannot perturb it, because the key never
    includes the policy)."""
    digest = hashlib.sha256(f"{master_seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def run_streams(seed: int) -> "RandomStreams":
    """The canonical per-run stream family.

    Every experiment driver — harness runs, calibration, fault scenarios —
    builds its streams through this helper so workload/background/faults/
    jitter draws are derived identically everywhere: one root seed, named
    sub-streams, no driver-local reimplementation."""
    return RandomStreams(int(seed))


class RandomStreams:
    """A family of independent :class:`numpy.random.Generator` streams.

    Each named stream is seeded by ``SeedSequence([root_seed, crc32(name)])``,
    making the draw sequence of one stream independent of how many *other*
    streams exist or in what order they were created.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence([self.root_seed, key])
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def fork(self, salt: int) -> "RandomStreams":
        """Derive a new independent family, e.g. one per experiment repeat."""
        return RandomStreams(root_seed=(self.root_seed * 1_000_003 + salt) & 0x7FFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomStreams root_seed={self.root_seed} streams={sorted(self._streams)}>"


def prefetch(draw_block: Callable[[], np.ndarray]) -> Iterator[float]:
    """The values of ``draw_block()``, ``draw_block()``, ... one at a time,
    as Python floats: a block is drawn when the previous one runs out.

    A scalar numpy draw costs ~10x its share of a block draw, and ``next()``
    on this iterator runs in C.  Every stream drawn this way is dedicated
    (``service/{name}``, ``clock/{name}``, one generator per flow), so a block
    hands out exactly the scalar draws' values; only the generator runs
    ahead, where nothing reads it."""
    return chain.from_iterable(iter(lambda: draw_block().tolist(), None))
