"""Golden digests of fully observed runs: the export is a byte contract.

Four smoke cells (aware / class S / mesh probing, one under the built-in
link-flap fault plan) run with every collection flag on; the sha256 of
``canonical_json(snapshot_records() + trace_records())`` and
``events_executed`` were recorded before the observers were moved off the
wrap-every-handler design, so any change to how observation is wired must
reproduce the same bytes and the same event count.

Six more cells run under a hub with *no* packet tracer — hub only, hub +
sampler at 50 ms, hub + telquality + whatif, classes S and VS — recorded on
the commit before transmit-completion elision (one completion event per
frame on every observed port): threshold events, link byte counters with
their ``updated_at`` stamps and the sampler's utilisation series must come
out of the ports' books, written at frame start, byte for byte.

Three more cells reach the decision paths the cells above do not, each with
every collection flag on (trace, telquality, whatif, a 0.1 s sampler): a
Fig. 7 class-M ``aware`` cell (bandwidth ranking, so a traced decision's
delay estimate comes from its own explanation), a ``metric="raw"`` /
``selection="min_completion"`` cell (no chosen server), and a ``nearest``
cell (baseline trace attributes, what-if fed unknown ages).

The cells are defined in ``tests/goldens.py``; their digests and event
counts live in ``tests/goldens.json`` under ``observed/full-*``,
``observed/hub-*`` and ``observed/decision-*``.
"""

import pytest

from tests import goldens

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("seed,faulted", sorted(goldens.FULL_FLAG_CELLS))
def test_full_flag_export_matches_golden_digest(seed, faulted, cell_runner):
    cell = f"observed/full-{seed}-{faulted}"
    values, _result = goldens.CELLS[cell](cell_runner)
    assert values == goldens.recorded(cell)


@pytest.mark.parametrize("seed,size_class,flags", sorted(goldens.HUB_CELLS))
def test_hub_export_matches_golden_digest(seed, size_class, flags, cell_runner):
    cell = f"observed/hub-{seed}-{size_class}-{flags}"
    values, _result = goldens.CELLS[cell](cell_runner)
    assert values == goldens.recorded(cell)


@pytest.mark.parametrize("cell", sorted(goldens.DECISION_CELLS))
def test_decision_path_export_matches_golden_digest(cell, cell_runner):
    values, _result = goldens.CELLS[f"observed/decision-{cell}"](cell_runner)
    assert values == goldens.recorded(f"observed/decision-{cell}")
