"""Golden digest of a degraded-mode cell: the control plane is a byte contract.

One smoke cell (aware / class S / mesh probing) whose fault plan flaps
node3's access link, with ``quarantine_ttl`` short enough that the scheduler
quarantines and releases the node while tasks are being placed.  Every
decision goes through ``rank()``, the per-hop audit breakdown, the traced
hop ages, telquality and whatif — all of which read
``InferredTopology.path`` — so the sha256 of ``payload_json()`` and of the
obs export pin rankings, tie-breaks and explanation bytes at once.
Recorded on the per-pair heap search, before ``path()`` was served from one
cached shortest-path tree per requester; the digests and
``events_executed`` live in ``tests/goldens.json`` under
``control-plane/link-flap`` (cell in ``tests/goldens.py``).
"""

import pytest

from tests import goldens

pytestmark = pytest.mark.slow


def test_quarantined_link_flap_cell_matches_golden_digest(cell_runner):
    values, result = goldens.CELLS["control-plane/link-flap"](cell_runner)
    events = [r["event"] for r in result.obs_records() if r.get("kind") == "event"]
    # Not vacuous: the degraded ranking path ran and recovered.
    assert events.count("node_quarantined") == 2
    assert events.count("node_unquarantined") == 1
    assert values == goldens.recorded("control-plane/link-flap")
