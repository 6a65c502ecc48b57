"""Golden digest of a degraded-mode cell: the control plane is a byte contract.

One smoke cell (aware / class S / mesh probing) whose fault plan flaps
node3's access link, with ``quarantine_ttl`` short enough that the scheduler
quarantines and releases the node while tasks are being placed.  Every
decision goes through ``rank()``, the per-hop audit breakdown, the traced
hop ages, telquality and whatif — all of which read
``InferredTopology.path`` — so the sha256 of ``payload_json()`` and of the
obs export pin rankings, tie-breaks and explanation bytes at once.  Recorded
on the per-pair heap search, before ``path()`` was served from one cached
shortest-path tree per requester; same toolchain caveat as
``tests/obs/test_observed_export_golden.py``.
"""

import hashlib

import pytest

from repro.edge.task import SizeClass
from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig
from repro.faults import FaultEvent, FaultPlan
from repro.faults.plan import LINK_FLAP
from repro.runner import Runner, RunSpec, canonical_json

pytestmark = pytest.mark.slow

GOLDEN_PAYLOAD = "b98740b8e3345ffe5b05392a502d9e330a5979735dd2c93aa1cc0eb7ee3f32f5"
GOLDEN_EXPORT = "a5a04d111ae893bbd3f22236e3aa8301a19a908ee67b9872e2c0185cfd8838ff"
GOLDEN_EVENTS = 216120


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_quarantined_link_flap_cell_matches_golden_digest():
    plan = FaultPlan(
        name="access-flap",
        events=(
            FaultEvent(time=1.0, kind=LINK_FLAP, target="node3<->s07",
                       period=3.0, count=2),
        ),
    )
    config = ExperimentConfig(
        scale=SMOKE_SCALE, seed=21, size_class=SizeClass.S, policy="aware",
        probe_layout="mesh", fault_plan=plan, quarantine_ttl=0.5,
    )
    spec = RunSpec.from_config(config, obs_run={"cell": "golden-flap"}).instrumented(
        trace=True, telquality=True, whatif=True
    )
    [result] = Runner(jobs=1).run([spec])
    events = [r["event"] for r in result.obs_records() if r.get("kind") == "event"]
    # Not vacuous: the degraded ranking path ran and recovered.
    assert events.count("node_quarantined") == 2
    assert events.count("node_unquarantined") == 1
    export = canonical_json(result.obs_records() + result.payload["trace_records"])
    assert (
        _sha256(result.payload_json()), _sha256(export),
        result.payload["events_executed"],
    ) == (GOLDEN_PAYLOAD, GOLDEN_EXPORT, GOLDEN_EVENTS)
