"""Golden digests of fully observed runs: the export is a byte contract.

Four smoke cells (aware / class S / mesh probing, one under the built-in
link-flap fault plan) run with every collection flag on; the sha256 of
``canonical_json(snapshot_records() + trace_records())`` and
``events_executed`` were recorded before the observers were moved off the
wrap-every-handler design, so any change to how observation is wired must
reproduce the same bytes and the same event count.  The digests pin this
repo's pinned toolchain (CPython float formatting, numpy's PCG64 streams);
if one of those moves, re-record all four from an unmodified checkout.

Six more cells run under a hub with *no* packet tracer — hub only, hub +
sampler at 50 ms, hub + telquality + whatif, classes S and VS — recorded on
the commit before transmit-completion elision (PR 18's tree, one completion
event per frame on every observed port): threshold events, link byte
counters with their ``updated_at`` stamps and the sampler's utilisation
series must come out of lazily booked completions byte for byte.
"""

import hashlib

import pytest

from repro.edge.task import SizeClass
from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig, run_experiment
from repro.faults.scenarios import builtin_plan
from repro.obs import Observability
from repro.runner import canonical_json

pytestmark = pytest.mark.slow

# (seed, faulted) -> (sha256 of the canonical export, events_executed).
GOLDEN = {
    (11, False): (
        "45e8938606b7113f8893b8c6645f9d8fe0c1bd9764c97d37b70f69720cef7dc0", 214260,
    ),
    (12, False): (
        "68e707be13d59e24ed91bd6d5a9b567ea8b959b23ac41c872907ee45209eefde", 254454,
    ),
    (13, False): (
        "8324f81157cdc72d2ed8a60981c8f3092b328349e176169a65e12baadcf87a82", 208569,
    ),
    (14, True): (
        "daadb34a070e4451c82da59d697c1240cdb3d9bbd48597efcdad2c35dd29900f", 276866,
    ),
}


@pytest.mark.parametrize("seed,faulted", sorted(GOLDEN))
def test_full_flag_export_matches_golden_digest(seed, faulted):
    config = ExperimentConfig(
        scale=SMOKE_SCALE, seed=seed, size_class=SizeClass.S, policy="aware",
        probe_layout="mesh",
        fault_plan=builtin_plan("link-flap") if faulted else None,
    )
    obs = Observability(
        run={"cell": f"golden-{seed}"}, trace=True, sample_interval=0.1,
        telquality=True, whatif=True,
    )
    result = run_experiment(config, obs=obs)
    export = canonical_json(obs.snapshot_records() + obs.trace_records())
    digest = hashlib.sha256(export.encode("utf-8")).hexdigest()
    assert (digest, result.events_executed) == GOLDEN[(seed, faulted)]


HUB_FLAGS = {
    "hub": {},
    "sampler": {"sample_interval": 0.05},
    "telq+whatif": {"telquality": True, "whatif": True},
}

# (seed, size class, flags) -> (sha256 of the canonical export, events_executed).
HUB_GOLDEN = {
    (11, "S", "hub"): (
        "53582c23b2b9744efdbfea001b58e8ae47d0b3b4f2268fcfe70c6122bf34a672", 214190,
    ),
    (11, "S", "sampler"): (
        "65284a82113fe0ee8a67ac90b9e535429fedd4836e9b583eda10daf6ce6f46eb", 214330,
    ),
    (11, "S", "telq+whatif"): (
        "dc1f697750113c1dcd02f1554d68f1ec370d93d11cabe9d9a41ce2cb39592b52", 214190,
    ),
    (12, "VS", "hub"): (
        "b5a1e4d67e8717c4c44f9db743bba43cd0cda05a729d5945e58905db26fb48bc", 224841,
    ),
    (12, "VS", "sampler"): (
        "3ac0e4fa0669a38dc9623f022301f9e084a149b7d7015059ed4953f0dfd3a29f", 224976,
    ),
    (12, "VS", "telq+whatif"): (
        "20a4c4ca42f0a0793f5f731d6d71de210f4d2f22940f96d2653ce1e39e6fac17", 224841,
    ),
}


@pytest.mark.parametrize("seed,size_class,flags", sorted(HUB_GOLDEN))
def test_hub_export_matches_golden_digest(seed, size_class, flags):
    config = ExperimentConfig(
        scale=SMOKE_SCALE, seed=seed, size_class=SizeClass[size_class], policy="aware",
        probe_layout="mesh",
    )
    # The run label is in the export; the digests were recorded with the
    # flags spelled out.
    cell = f"golden-{seed}-{flags.replace('telq', 'telquality')}"
    obs = Observability(run={"cell": cell}, **HUB_FLAGS[flags])
    result = run_experiment(config, obs=obs)
    export = canonical_json(obs.snapshot_records() + obs.trace_records())
    digest = hashlib.sha256(export.encode("utf-8")).hexdigest()
    assert (digest, result.events_executed) == HUB_GOLDEN[(seed, size_class, flags)]
