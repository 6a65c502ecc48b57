"""Match-action tables."""

import pytest

from repro.errors import DataPlaneError
from repro.p4.tables import ExactMatchTable, LpmTable


def test_miss_runs_default_action():
    t = ExactMatchTable("fwd", default_action="drop")
    assert t.lookup(42) == ("drop", {})
    assert t.misses == 1


def test_hit_returns_action_and_params():
    t = ExactMatchTable("fwd")
    t.add_entry(7, "forward", port=3)
    assert t.lookup(7) == ("forward", {"port": 3})
    assert t.hits == 1


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


class TestLpm:
    def test_longest_prefix_wins(self):
        t = LpmTable("routes", width=8)
        t.add_entry(0b1010_0000, 4, "forward", port=1)  # 1010/4
        t.add_entry(0b1010_1000, 6, "forward", port=2)  # 101010/6
        assert t.lookup(0b1010_1011)[1]["port"] == 2
        assert t.lookup(0b1010_0011)[1]["port"] == 1

    def test_miss_runs_default(self):
        t = LpmTable("routes", width=8, default_action="drop")
        t.add_entry(0b1100_0000, 2, "forward", port=0)
        assert t.lookup(0b0000_0001) == ("drop", {})
        assert t.misses == 1

    def test_catch_all_prefix(self):
        t = LpmTable("routes", width=8)
        t.add_entry(0, 0, "forward", port=9)
        assert t.lookup(0xFF)[1]["port"] == 9

    def test_exact_prefix(self):
        t = LpmTable("routes", width=8)
        t.add_entry(42, 8, "forward", port=3)
        assert t.lookup(42)[1]["port"] == 3
        assert t.lookup(43) == ("drop", {})

    def test_duplicate_prefix_rejected(self):
        t = LpmTable("routes", width=8)
        t.add_entry(0b1010_0000, 4, "forward", port=1)
        with pytest.raises(DataPlaneError):
            t.add_entry(0b1010_1111, 4, "forward", port=2)  # same /4 prefix

    def test_validation(self):
        with pytest.raises(DataPlaneError):
            LpmTable("bad", width=0)
        t = LpmTable("routes", width=8)
        with pytest.raises(DataPlaneError):
            t.add_entry(1, 9, "forward", port=0)
        with pytest.raises(DataPlaneError):
            t.add_entry(256, 8, "forward", port=0)

    def test_len_counts_all_entries(self):
        t = LpmTable("routes", width=8)
        t.add_entry(0, 0, "forward", port=0)
        t.add_entry(0b1000_0000, 1, "forward", port=1)
        assert len(t) == 2

    def test_hit_counter(self):
        t = LpmTable("routes", width=8)
        t.add_entry(0, 0, "forward", port=0)
        t.lookup(5)
        t.lookup(6)
        assert t.hits == 2
