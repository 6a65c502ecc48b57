"""Match-action tables."""

import pytest

from repro.errors import DataPlaneError
from repro.p4.tables import ExactMatchTable


def test_miss_runs_default_action():
    t = ExactMatchTable("fwd", default_action="drop")
    assert t.lookup(42) == ("drop", {})
    assert t.misses == 1


def test_hit_returns_action_and_params():
    t = ExactMatchTable("fwd")
    t.add_entry(7, "forward", port=3)
    assert t.lookup(7) == ("forward", {"port": 3})
    assert t.misses == 0


def test_duplicate_add_rejected():
    t = ExactMatchTable("fwd")
    t.add_entry(1, "forward", port=0)
    with pytest.raises(DataPlaneError):
        t.add_entry(1, "forward", port=1)


def test_set_entry_upserts():
    t = ExactMatchTable("fwd")
    t.set_entry(1, "forward", port=0)
    t.set_entry(1, "forward", port=2)
    assert t.lookup(1)[1]["port"] == 2
    assert len(t) == 1


def test_entries_copy():
    t = ExactMatchTable("fwd")
    t.add_entry(1, "forward", port=0)
    entries = t.entries()
    entries[2] = ("forward", {})
    assert 2 not in t
