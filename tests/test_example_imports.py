"""Every ``repro`` name that ``examples/`` and ``benchmarks/`` import exists.

Neither directory runs in the tier-1 suite, so a library deletion that
leaves an example or a benchmark naming a removed module or symbol would
otherwise pass every check.  Each file is parsed with :mod:`ast` (nothing in
it runs); every ``import repro...`` and ``from repro... import name`` it
holds, at module level or inside a function, is resolved with
:func:`importlib.import_module` and :func:`getattr`.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path.relative_to(ROOT).as_posix()
    for directory in ("examples", "benchmarks")
    for path in (ROOT / directory).glob("*.py")
)


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def repro_imports(source: str):
    """``(lineno, module, name)`` per imported repro name; ``name`` is None
    for a plain ``import repro...``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module and _is_repro(node.module):
                for alias in node.names:
                    yield node.lineno, node.module, alias.name


def unresolved(source: str):
    """The imports of ``source`` that do not resolve, as messages."""
    missing = []
    for lineno, module, name in repro_imports(source):
        try:
            mod = importlib.import_module(module)
        except ImportError as exc:
            missing.append(f"line {lineno}: import {module}: {exc}")
            continue
        if name is None or name == "*" or hasattr(mod, name):
            continue
        try:  # ``from package import submodule``
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(f"line {lineno}: {module} has no {name!r}")
    return missing


def test_sources_found():
    assert any(s.startswith("examples/") for s in SOURCES)
    assert any(s.startswith("benchmarks/") for s in SOURCES)


@pytest.mark.parametrize("relpath", SOURCES)
def test_repro_imports_resolve(relpath):
    source = (ROOT / relpath).read_text()
    assert unresolved(source) == []


def test_a_removed_name_is_reported():
    source = (
        "from repro.core import NetworkAwareScheduler\n"
        "def main():\n"
        "    from repro.core.scheduler import NoSuchScheduler\n"
        "    import repro.no_such_module\n"
    )
    assert [m.split(":")[0] for m in unresolved(source)] == ["line 3", "line 4"]
