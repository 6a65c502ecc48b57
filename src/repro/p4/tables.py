"""Match-action tables.

The reproduced programs only need exact matching: forwarding matches on the
destination address exactly, since our addresses are flat node identifiers
rather than prefixes.  :class:`ExactMatchTable` maps key -> (action, params),
with a default action on a miss.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Tuple

from repro.errors import DataPlaneError

__all__ = ["ExactMatchTable", "TableEntry"]

TableEntry = Tuple[str, Dict[str, Any]]


class ExactMatchTable:
    """Exact-match table: key -> (action name, action parameters)."""

    def __init__(self, name: str, default_action: str = "drop") -> None:
        self.name = name
        self.default_action: TableEntry = (default_action, {})
        self._entries: Dict[Hashable, TableEntry] = {}
        # Misses only: a hit count is a switch's forward count, which the
        # switch's ports already keep.
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
