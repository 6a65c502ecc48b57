"""Bench-side spans: one record per call the benchmark makes into a layer.

Spans live in memory and are written once, when the traced run ends.  A
disabled tracer hands out a shared no-op context, so the untraced run pays
one attribute test per call site and no clock reads.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional

from clock import now


class Tracer:
    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent: Optional[int] = self._stack[-1] if self._stack else None
        record = {
            "id": index, "run_id": self.run_id, "name": name,
            "parent": parent, "start": now(), "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = now()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            out[span["name"]] = out.get(span["name"], 0.0) + (
                span["end"] - span["start"] - covered
            )
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"run_id": self.run_id, "self_s": self.self_times(),
                 "spans": self.spans, **extra},
                fh, sort_keys=True,
            )
            fh.write("\n")
