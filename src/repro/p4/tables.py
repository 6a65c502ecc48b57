"""Match-action tables.

The reproduced programs only need exact matching (forwarding matches on the
destination address exactly, since our addresses are flat node identifiers
rather than prefixes), but both of P4's common match kinds are provided:

* :class:`ExactMatchTable` — key -> (action, params), default on miss;
* :class:`LpmTable` — longest-prefix match over integer keys, for programs
  that organize addresses hierarchically (e.g. one prefix per pod).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Tuple

from repro.errors import DataPlaneError

__all__ = ["ExactMatchTable", "LpmTable", "TableEntry"]

TableEntry = Tuple[str, Dict[str, Any]]


class ExactMatchTable:
    """Exact-match table: key -> (action name, action parameters)."""

    def __init__(self, name: str, default_action: str = "drop") -> None:
        self.name = name
        self.default_action: TableEntry = (default_action, {})
        self._entries: Dict[Hashable, TableEntry] = {}
        self.hits = 0
        self.misses = 0

    def add_entry(self, key: Hashable, action: str, **params: Any) -> None:
        if key in self._entries:
            raise DataPlaneError(f"table {self.name!r}: duplicate entry for key {key!r}")
        self._entries[key] = (action, params)

    def set_entry(self, key: Hashable, action: str, **params: Any) -> None:
        """Insert-or-update (control planes re-programming routes use this)."""
        self._entries[key] = (action, params)

    def lookup(self, key: Hashable) -> TableEntry:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return self.default_action
        self.hits += 1
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def entries(self) -> Dict[Hashable, TableEntry]:
        """Copy of the table contents (control-plane inspection)."""
        return dict(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ExactMatchTable {self.name} entries={len(self._entries)}>"


class LpmTable:
    """Longest-prefix match over ``width``-bit integer keys.

    Entries are ``(value, prefix_len)``; lookup returns the entry whose
    prefix matches the key with the greatest ``prefix_len``, or the default
    action.  A ``prefix_len`` of 0 is a catch-all; ``width`` an exact match.
    """

    def __init__(self, name: str, *, width: int = 32, default_action: str = "drop") -> None:
        if not 1 <= width <= 64:
            raise DataPlaneError(f"table {name!r}: width must be in [1, 64], got {width}")
        self.name = name
        self.width = width
        self.default_action: TableEntry = (default_action, {})
        # prefix_len -> {masked_value: entry}; scanned longest-first.
        self._by_len: Dict[int, Dict[int, TableEntry]] = {}
        self.hits = 0
        self.misses = 0

    def _mask(self, value: int, prefix_len: int) -> int:
        if prefix_len == 0:
            return 0
        shift = self.width - prefix_len
        return (value >> shift) << shift

    def add_entry(self, value: int, prefix_len: int, action: str, **params: Any) -> None:
        if not 0 <= prefix_len <= self.width:
            raise DataPlaneError(
                f"table {self.name!r}: prefix length {prefix_len} out of [0, {self.width}]"
            )
        if not 0 <= value < (1 << self.width):
            raise DataPlaneError(f"table {self.name!r}: value {value} exceeds width")
        masked = self._mask(value, prefix_len)
        bucket = self._by_len.setdefault(prefix_len, {})
        if masked in bucket:
            raise DataPlaneError(
                f"table {self.name!r}: duplicate {prefix_len}-bit prefix for {value}"
            )
        bucket[masked] = (action, params)

    def lookup(self, key: int) -> TableEntry:
        for prefix_len in sorted(self._by_len, reverse=True):
            masked = self._mask(key, prefix_len)
            entry = self._by_len[prefix_len].get(masked)
            if entry is not None:
                self.hits += 1
                return entry
        self.misses += 1
        return self.default_action

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_len.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LpmTable {self.name} width={self.width} entries={len(self)}>"
