"""Golden digests of fully observed runs: the export is a byte contract.

Four smoke cells (aware / class S / mesh probing, one under the built-in
link-flap fault plan) run with every collection flag on; the sha256 of
``canonical_json(snapshot_records() + trace_records())`` and
``events_executed`` were recorded before the observers were moved off the
wrap-every-handler design, so any change to how observation is wired must
reproduce the same bytes and the same event count.  The digests pin this
repo's pinned toolchain (CPython float formatting, numpy's PCG64 streams);
if one of those moves, re-record all four from an unmodified checkout.
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
