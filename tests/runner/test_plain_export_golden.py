"""Golden digests of plain runs: the unobserved hop path is a byte contract.

Five smoke cells with no observer, profiler or fault plan — the runs that
take the compiled switch hop, the transmit-completion elision and the
block-prefetched random streams on every frame:

* Fig. 5 (serverless, delay ranking), class S, one cell per policy;
* Fig. 7 (distributed, bandwidth ranking), class M;
* class VS under mesh probing every 20 ms, where probes are most frames.

The sha256 of ``payload_json()`` and ``events_executed`` were recorded on
the eight-frame hop (``Switch.on_ingress`` -> compiled ingress ->
``Port.send`` -> ``Port._start`` -> ``Switch.on_egress`` -> compiled egress
-> ``Simulator.post_at``), before it was fused.  The slow-path suite
compares two paths through the same tree; this file pins both against
recorded bytes.  Same toolchain caveat as
``tests/obs/test_observed_export_golden.py``.
"""

import dataclasses
import hashlib

import pytest

from repro.edge.task import SizeClass
from repro.experiments.comparison import FIG5_CONFIG, FIG7_CONFIG
from repro.experiments.harness import SMOKE_SCALE
from repro.runner import Runner, RunSpec

pytestmark = pytest.mark.slow

_CELLS = {
    "fig5-S-aware": dataclasses.replace(
        FIG5_CONFIG, scale=SMOKE_SCALE, seed=31, size_class=SizeClass.S, policy="aware",
    ),
    "fig5-S-nearest": dataclasses.replace(
        FIG5_CONFIG, scale=SMOKE_SCALE, seed=31, size_class=SizeClass.S, policy="nearest",
    ),
    "fig5-S-random": dataclasses.replace(
        FIG5_CONFIG, scale=SMOKE_SCALE, seed=31, size_class=SizeClass.S, policy="random",
    ),
    "fig7-M-aware": dataclasses.replace(
        FIG7_CONFIG, scale=SMOKE_SCALE, seed=32, size_class=SizeClass.M, policy="aware",
    ),
    "probe-dense-VS": dataclasses.replace(
        FIG5_CONFIG, scale=SMOKE_SCALE, seed=33, size_class=SizeClass.VS, policy="aware",
        probing_interval=0.02, probe_layout="mesh",
    ),
}

# cell -> (sha256 of payload_json(), events_executed).
GOLDEN = {
    "fig5-S-aware": (
        "3b4d8a0d5f5906a2d2457a6be9ce63da1cdb28feb6ea03330e6b9f06df83e195", 325798,
    ),
    "fig5-S-nearest": (
        "37fba0a5e6ae4c2e7f2bfe119a662868cc5f40ee96b0dcaa1ea4dabe79c89d40", 325798,
    ),
    "fig5-S-random": (
        "d12738aa483ed04ceaf272c54bcce90c56863cb545af0a07cb8c7e61f1751cff", 398848,
    ),
    "fig7-M-aware": (
        "492540618a4642986456ac85fae98fd8833f4639faeaf2233619c2ad04f7de71", 301285,
    ),
    "probe-dense-VS": (
        "5d7cb42ac2141bd80c3050de3e6ef4d17df80ac5bb411b514ccbc200e9b9655b", 1270986,
    ),
}


@pytest.fixture(scope="module")
def results():
    specs = [RunSpec.from_config(config) for config in _CELLS.values()]
    return dict(zip(_CELLS, Runner(jobs=1).run(specs)))


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_plain_cell_matches_golden_digest(results, cell):
    result = results[cell]
    digest = hashlib.sha256(result.payload_json().encode("utf-8")).hexdigest()
    assert (digest, result.payload["events_executed"]) == GOLDEN[cell]
