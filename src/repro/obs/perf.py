"""Performance observatory: flamegraphs and memory attribution.

The rendering layer over the engine's phase-level profile (see
:class:`repro.simnet.engine.EngineProfiler`):

* :func:`collapsed_stacks` — the profile's phase tree as Brendan Gregg
  collapsed-stack lines (``path self_time_us``), the interchange format
  every flamegraph tool consumes;
* :func:`flamegraph_svg` — a zero-JS inline-SVG icicle flamegraph (no
  scripts, no external references), drawn in the HTML dashboard's
  engine-profile section; ``repro report --collapsed-out`` writes the
  collapsed stacks for external flamegraph tools;
* :class:`MemoryCapture` — per-run allocation/GC counters (``gc`` stats
  always; ``tracemalloc`` top-N sites behind ``--mem-profile``) merged
  into the profile summary;
* :func:`count_ops` — bytecodes executed per function of the package, a
  work measure that, unlike wall time, does not move with machine load.

Everything here renders deterministically from its inputs: colors hash
frame names with ``sum(ord(..))`` (not the randomized builtin ``hash``),
iteration is sorted, and nothing reads the wall clock.
"""

from __future__ import annotations

import gc
import html
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "collapsed_stacks",
    "count_ops",
    "flamegraph_svg",
    "MemoryCapture",
]


# ---------------------------------------------------------------------------
# Profile tree (shared by collapsed stacks and the flamegraph)
# ---------------------------------------------------------------------------


def _profile_tree(
    summary: Dict[str, Any]
) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """Build ``path -> {incl, count, children}`` from a profile summary.

    Roots are the handler qualnames from ``by_type``; phase paths hang off
    them by their semicolon-separated prefixes.  A phase whose parent was
    never recorded (possible only for scopes opened outside any handler)
    becomes a synthetic root so no sample is dropped."""
    nodes: Dict[str, Dict[str, Any]] = {}
    roots: List[str] = []
    for name in sorted(summary.get("by_type") or {}):
        stats = summary["by_type"][name]
        nodes[name] = {
            "incl": float(stats.get("wall_s", 0.0)),
            "count": int(stats.get("count", 0)),
            "children": [],
        }
        roots.append(name)
    for path in sorted(summary.get("phases") or {}):
        stats = summary["phases"][path]
        node = nodes.setdefault(
            path, {"incl": 0.0, "count": 0, "children": []}
        )
        node["incl"] = float(stats.get("wall_s", 0.0))
        node["count"] = int(stats.get("count", 0))
        # Materialize missing ancestors up to a root.
        child = path
        while ";" in child:
            parent = child.rpartition(";")[0]
            parent_node = nodes.get(parent)
            if parent_node is None:
                parent_node = {"incl": 0.0, "count": 0, "children": []}
                nodes[parent] = parent_node
                if ";" not in parent and parent not in roots:
                    roots.append(parent)
            if child not in parent_node["children"]:
                parent_node["children"].append(child)
            child = parent
        if ";" not in path and path not in roots:
            roots.append(path)
    for node in nodes.values():
        node["children"].sort()
    return nodes, sorted(roots)


def _self_time(nodes: Dict[str, Dict[str, Any]], path: str) -> float:
    node = nodes[path]
    covered = sum(nodes[c]["incl"] for c in node["children"])
    return max(node["incl"] - covered, 0.0)


def collapsed_stacks(summary: Dict[str, Any]) -> str:
    """Render a profile summary as collapsed-stack lines: one
    ``frame;frame;... value`` line per node with nonzero *self* time, the
    value in integer microseconds.  Feedable to any flamegraph tool."""
    nodes, _roots = _profile_tree(summary)
    lines = []
    for path in sorted(nodes):
        self_us = int(round(_self_time(nodes, path) * 1e6))
        if self_us > 0:
            lines.append(f"{path} {self_us}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Flamegraph SVG
# ---------------------------------------------------------------------------

_FG_WIDTH = 1000
_FG_ROW_H = 17
_FG_MIN_W = 1.0  # px below which a frame is dropped (unreadable anyway)


def _frame_color(name: str) -> str:
    """Deterministic warm color per frame name.  ``sum(ord(..))`` instead
    of the builtin ``hash`` so the SVG is stable across interpreter runs
    (PYTHONHASHSEED randomizes ``hash`` for strings)."""
    h = sum(ord(ch) for ch in name)
    r = 205 + (h % 50)
    g = 60 + (h * 7) % 110
    b = 30 + (h * 11) % 55
    return f"rgb({r},{g},{b})"


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def flamegraph_svg(
    summary: Dict[str, Any], *, title: str = "engine phases"
) -> str:
    """Inline-SVG icicle flamegraph of a profile summary, for embedding in
    an HTML page (no ``xmlns``: a standalone ``.svg`` file would need one).

    Root row is the whole profiled wall; row 2 the event handlers; deeper
    rows the nested phase scopes.  Frame width is proportional to inclusive
    wall time (children clamped into their parent, so clock noise can never
    overflow a row).  Zero JavaScript and zero external references — hover
    detail rides on SVG ``<title>`` elements."""
    nodes, roots = _profile_tree(summary)
    total = sum(nodes[r]["incl"] for r in roots)
    if total <= 0.0:
        return (
            f'<svg width="{_FG_WIDTH}" '
            f'height="{_FG_ROW_H}"><text x="4" y="13" font-size="11" '
            f'fill="#777">no profile samples</text></svg>'
        )

    parts: List[str] = []
    max_depth = [1]

    def emit(path: str, label: str, x: float, width: float, depth: int,
             incl: float, count: Optional[int]) -> None:
        max_depth[0] = max(max_depth[0], depth + 1)
        y = depth * _FG_ROW_H
        pct = 100.0 * incl / total
        detail = f"{label} — {incl * 1e3:.2f} ms ({pct:.1f}%)"
        if count is not None:
            detail += f", {count}x"
        parts.append(
            f'<g><rect x="{x:.2f}" y="{y}" width="{width:.2f}" '
            f'height="{_FG_ROW_H - 1}" fill="{_frame_color(label)}" '
            f'rx="1"><title>{_esc(detail)}</title></rect>'
        )
        if width >= 40.0:
            # ~6.2 px per character at font-size 10.
            max_chars = max(int(width / 6.2), 1)
            text = label if len(label) <= max_chars else label[: max_chars - 1] + "…"
            parts.append(
                f'<text x="{x + 3:.2f}" y="{y + 12}" font-size="10" '
                f'fill="#1a1a1a">{_esc(text)}</text>'
            )
        parts.append("</g>")
        # Children, clamped into the parent's box.
        node = nodes.get(path)
        if node is None or not node["children"] or incl <= 0.0:
            return
        child_sum = sum(nodes[c]["incl"] for c in node["children"])
        scale = width / incl
        if child_sum > incl:
            scale *= incl / child_sum
        cx = x
        for child in node["children"]:
            c_incl = nodes[child]["incl"]
            c_w = c_incl * scale
            if c_w < _FG_MIN_W:
                continue
            emit(child, child.rpartition(";")[2], cx, c_w, depth + 1,
                 c_incl, nodes[child]["count"])
            cx += c_w

    # Root frame spanning everything, then the handlers.
    root_label = f"{title}: {total * 1e3:.1f} ms"
    parts.append(
        f'<g><rect x="0" y="0" width="{_FG_WIDTH}" height="{_FG_ROW_H - 1}" '
        f'fill="#d8d8d8" rx="1"><title>{_esc(root_label)}</title></rect>'
        f'<text x="3" y="12" font-size="10" fill="#1a1a1a">'
        f"{_esc(root_label)}</text></g>"
    )
    x = 0.0
    for root in roots:
        incl = nodes[root]["incl"]
        width = _FG_WIDTH * incl / total
        if width < _FG_MIN_W:
            continue
        emit(root, root, x, width, 1, incl, nodes[root]["count"])
        x += width

    height = max_depth[0] * _FG_ROW_H + 2
    return (
        f'<svg width="{_FG_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_FG_WIDTH} {height}" '
        f'font-family="ui-monospace, Menlo, Consolas, monospace">'
        + "".join(parts)
        + "</svg>"
    )


# ---------------------------------------------------------------------------
# Memory attribution
# ---------------------------------------------------------------------------


class MemoryCapture:
    """Bracket a run with allocation/GC accounting.

    ``gc`` generation counters and the interpreter's live-block count are
    always captured (cheap reads); ``tracemalloc_top > 0`` additionally
    turns on ``tracemalloc`` for the run and reports the top-N allocation
    sites by size — opt-in because tracing every allocation costs real
    time.  The result dict attaches to ``EngineProfiler.memory`` and rides
    into the profile summary (provenance only — wall-clock adjacent data
    never touches the deterministic payload)."""

    def __init__(self, tracemalloc_top: int = 0) -> None:
        self.tracemalloc_top = int(tracemalloc_top)
        self._gc_before: Optional[List[Dict[str, int]]] = None
        self._blocks_before = 0
        self._tracing = False

    def start(self) -> None:
        if self.tracemalloc_top > 0:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tracing = True
        self._gc_before = [dict(s) for s in gc.get_stats()]
        self._blocks_before = sys.getallocatedblocks()

    def stop(self) -> Dict[str, Any]:
        if self._gc_before is None:
            raise RuntimeError("MemoryCapture.stop() before start()")
        blocks_delta = sys.getallocatedblocks() - self._blocks_before
        gc_after = gc.get_stats()
        deltas = {"collections": 0, "collected": 0, "uncollectable": 0}
        for before, after in zip(self._gc_before, gc_after):
            for key in deltas:
                deltas[key] += int(after.get(key, 0)) - int(before.get(key, 0))
        out: Dict[str, Any] = {
            "gc_collections": deltas["collections"],
            "gc_collected": deltas["collected"],
            "gc_uncollectable": deltas["uncollectable"],
            "allocated_blocks_delta": blocks_delta,
            "tracemalloc": None,
        }
        if self.tracemalloc_top > 0:
            import tracemalloc

            snapshot = tracemalloc.take_snapshot()
            if self._tracing:
                tracemalloc.stop()
                self._tracing = False
            stats = snapshot.statistics("lineno")
            top = []
            for stat in stats[: self.tracemalloc_top]:
                frame = stat.traceback[0]
                site = f"{_short_file(frame.filename)}:{frame.lineno}"
                top.append(
                    {
                        "site": site,
                        "size_kb": round(stat.size / 1024.0, 1),
                        "count": stat.count,
                    }
                )
            out["tracemalloc"] = {
                "top": top,
                "total_kb": round(sum(s.size for s in stats) / 1024.0, 1),
                "sites": len(stats),
            }
        self._gc_before = None
        return out


def _short_file(path: str) -> str:
    """Keep the tail of a source path (``repro/simnet/engine.py``)."""
    parts = path.replace("\\", "/").split("/")
    return "/".join(parts[-3:]) if len(parts) > 3 else "/".join(parts)


# ---------------------------------------------------------------------------
# Bytecode counts
# ---------------------------------------------------------------------------

_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep


def count_ops(
    fn: Callable[[], Any],
    counts: Optional[Dict[str, int]] = None,
    calls: Optional[Dict[str, int]] = None,
) -> Dict[str, int]:
    """Call ``fn()`` and count the bytecodes it executes in each function
    of the ``repro`` package, keyed ``module:qualname``; code outside the
    package is not counted.  Counts add into ``counts`` when given.  With
    ``calls``, each function's Python calls (frames entered; a generator's
    resumptions count too) add into it under the same keys: a layer whose
    saving is calls, not bytecodes, shows there.

    Uses ``sys.settrace`` with per-opcode events, so the call runs many
    times slower; the previous trace function is restored afterwards.  The
    counts depend on the CPython version (its compiler decides the
    bytecode) but not on machine load: an equal count is the same work."""
    if counts is None:
        counts = {}
    names: Dict[Any, Optional[str]] = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        name = names.get(code, "")
        if name == "":
            name = names[code] = _function_name(code)
        if name is None:
            return None
        if calls is not None:
            calls[name] = calls.get(name, 0) + 1
        frame.f_trace_opcodes = True

        def on_event(frame, event, arg):
            if event == "opcode":
                counts[name] = counts.get(name, 0) + 1
            return on_event

        return on_event

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return counts


def _function_name(code) -> Optional[str]:
    """``repro.module:qualname`` for a code object of the package, else
    ``None``."""
    path = code.co_filename
    if not path.startswith(_PACKAGE_DIR):
        return None
    parts = ["repro", *os.path.splitext(path[len(_PACKAGE_DIR):])[0].split(os.sep)]
    if parts[-1] == "__init__":
        parts.pop()
    return f"{'.'.join(parts)}:{getattr(code, 'co_qualname', code.co_name)}"
