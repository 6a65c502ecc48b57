"""Sweep journal: the grid a sweep was asked to run, as JSONL.

A :class:`RunJournal` records what a sweep was asked to run so an
interrupted sweep (SIGKILL, power loss, Ctrl-C) can be finished by running
the same command again, or by ``repro resume PATH``.  It records nothing
about completion: a cell is done when its result is in the cache, so the
resumed grid serves every finished cell from there and runs the rest.
One line per unique spec, in scheduling order::

    {"record": "scheduled", "spec_hash": h, "spec": {...}}

:meth:`RunJournal.write` replaces the whole file at once (temp file +
``os.replace``), so a crash leaves either the old grid or the new one.
:meth:`RunJournal.load` still skips malformed lines with a warning, and it
ignores the completion records (``done`` / ``failed`` / ``interrupted``)
that journals written by earlier versions hold.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ExperimentError
from repro.runner.cache import atomic_write
from repro.runner.spec import canonical_json, spec_from_dict

__all__ = ["RunJournal"]

# spec_from_dict raises ExperimentError for unknown kinds and TypeError /
# KeyError / ValueError for field drift between code versions; all mean
# "can't rebuild this spec here", which load() treats as a skippable record.
_SPEC_LOAD_ERRORS = (ExperimentError, TypeError, KeyError, ValueError)


class RunJournal:
    """The JSONL grid of one sweep."""

    def __init__(self, path: str) -> None:
        self.path = path

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def write(self, specs: Dict[str, Any]) -> None:
        """Replace the journal with ``specs`` (spec hash -> spec, in
        scheduling order)."""
        data = "".join(
            canonical_json({
                "record": "scheduled", "spec_hash": spec_hash, "spec": spec.to_dict(),
            }) + "\n"
            for spec_hash, spec in specs.items()
        ).encode("utf-8")
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        atomic_write(self.path, data)

    def load(self, *, on_warning: Optional[Callable[[str], None]] = None) -> List[Any]:
        """The journal's specs, in scheduling order, each once.

        Malformed lines (stray bytes, a torn line from an older appending
        writer) and specs this code cannot rebuild are skipped with a
        warning through ``on_warning``."""
        if not self.exists():
            raise ExperimentError(f"journal not found: {self.path}")
        specs: Dict[str, Any] = {}
        warn = on_warning or (lambda _msg: None)
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    warn(
                        f"{self.path}:{lineno}: skipping malformed journal "
                        f"line (torn append?)"
                    )
                    continue
                if not isinstance(record, dict):
                    warn(f"{self.path}:{lineno}: skipping non-object journal line")
                    continue
                if record.get("record") != "scheduled":
                    continue
                spec_hash = record.get("spec_hash")
                spec_dict = record.get("spec")
                if not isinstance(spec_hash, str) or not isinstance(spec_dict, dict):
                    warn(f"{self.path}:{lineno}: skipping bad scheduled record")
                    continue
                try:
                    spec = spec_from_dict(spec_dict)
                except _SPEC_LOAD_ERRORS as exc:
                    warn(
                        f"{self.path}:{lineno}: skipping scheduled record "
                        f"with unloadable spec ({exc})"
                    )
                    continue
                specs.setdefault(spec_hash, spec)
        return list(specs.values())
