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
-> ``Simulator.post_at``), before it was fused; they live in
``tests/goldens.json`` under ``plain/<cell>`` (cells in ``tests/goldens.py``).
The slow-path suite compares two paths through the same tree; this file
pins both against recorded bytes.
"""

import pytest

from tests import goldens

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("cell", sorted(goldens.PLAIN_CELLS))
def test_plain_cell_matches_golden_digest(cell_runner, cell):
    values, _result = goldens.CELLS[f"plain/{cell}"](cell_runner)
    assert values == goldens.recorded(f"plain/{cell}")
