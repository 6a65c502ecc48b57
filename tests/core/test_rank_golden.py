"""Golden digests of ``rank()``: the ranked values are a byte contract.

Two streams drive a network-aware scheduler on an idle Fig. 4 network with
the test suite's recorded mesh reports, re-encoded to wire payloads and fed
through ``IntCollector.ingest_probe``, one ingest per four ranks.  The
sha256 of ``repr()`` of every ranking pins values, tie-breaks and candidate
order for the delay, bandwidth and raw metrics at once.

* ``fresh``: 3 000 ranks, the clock moving 5 ms per ingest — the window
  evicts, and links no later report refreshes cross the staleness horizon.
* ``degraded``: ``quarantine_ttl=0.04`` and idle gaps cycling past the TTL,
  the queue-depth window and the staleness horizon, so the quarantine
  partition, both stale rankers and every stale branch of the per-link
  rules run.

Recorded before rankings were served from cached per-path link plans and
before reports kept their INT stack in wire form; both digests also
predate the prefix-tree walk that prices all of a requester's candidates in
one pass.  The streams are defined in ``tests/goldens.py``; their digests
live in ``tests/goldens.json`` under ``rank/fresh`` and ``rank/degraded``.
"""

from tests import goldens


def test_fresh_stream_matches_golden_digest(cell_runner):
    values, (_results, ingested, quarantined) = goldens.CELLS["rank/fresh"](cell_runner)
    assert (ingested, quarantined) == (750, 0)
    assert values == goldens.recorded("rank/fresh")


def test_degraded_stream_matches_golden_digest(cell_runner):
    values, (_results, ingested, quarantined) = goldens.CELLS["rank/degraded"](cell_runner)
    # Not vacuous: some rankings ran with candidates quarantined.
    assert ingested == 750 and quarantined > 0
    assert values == goldens.recorded("rank/degraded")


def test_rank_op_counts_repeat_on_fresh_stream():
    """The op ruler reads the same bytecode and call counts twice on the
    same stream, for the rank() and the ingest_probe() calls, and counting
    leaves the rankings as they were."""
    first, second = ({}, {}, {}, {}), ({}, {}, {}, {})
    results, _ingested, _quarantined = goldens.fresh_stream(*first)
    goldens.fresh_stream(*second)
    assert first == second
    assert all(sum(counts.values()) > 0 for counts in first)
    assert goldens.ranks_digest(results) == goldens.recorded("rank/fresh")["ranks_sha256"]
