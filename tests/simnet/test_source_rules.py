"""Source rules for the data path, enforced by scanning the source.

**No instance-dict reads.**  On CPython 3.11/3.12 an object's attributes live
in inline slots until something asks for its ``__dict__`` (``obj.__dict__``,
``vars(obj)``); from then on that instance takes the slower dict-backed
attribute path for good.  A NIC fast-path gate used to test
``"on_egress" in node.__dict__`` to spot tracer-wrapped handlers, which
materialised the dict of every host and leaf switch and slowed their hottest
handlers for the rest of the run.  Measured: touching every node's
``__dict__`` once after build slows a plain Fig. 5 cell 309 -> 327 ms CPU
(+5.7 %, min of 7); replacing just those two reads with the declared
``Node.observer`` attribute read +4.5 / +5.4 / +9.6 % ``ops_per_s`` on three
``fig5_grid`` benchmark pairs when ISSUE 17 was filed.

**No handler assigned onto an instance.**  Observers occupy the declared
``Node.observer`` slot; assigning ``node.on_ingress = wrapper`` shadows a
method in the instance dict and is what the ``__dict__`` reads existed to
detect.

**networkx stays off the run path.**  Importing it costs ~16 MB of resident
memory and ~0.1 s — a quarter of a simulating run's footprint — for what
was a 40-edge graph, one connectivity check and one adjacency view.  Routing,
inference and the baselines work on plain dicts, and the networkx view the
routing tests search lives beside them (``tests/simnet/graph_reference.py``).
No module under ``repro`` may import it at all, so the package depends on
numpy alone, and no policy or observer may pull it in at run time.

**Phase accounting goes through the profiler's methods.**  Handlers open
and close phases with ``phase_first`` / ``phase_next`` / ``phase_end`` (or
``phase_begin``); only ``simnet/engine.py`` reads or writes the profiler's
scope state (``_path``, ``_t0``, ``_stack``), its ``phases`` records or the
``phase_firsts`` / ``phase_nexts`` counters.  Hand-inlined copies of that
accounting in the hottest handlers once made ``--profile`` ~10 % cheaper
while saving no clock read, at the price of a third body per handler.

**Byte contracts live in one manifest.**  No test file holds a sha256 (64
hex digits): every digest is a line of ``tests/goldens.json``, which holds
exactly the cells of the ``tests/goldens.py`` registry, in its own layout.
"""

import json
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import repro
from tests import goldens

SRC = pathlib.Path(repro.__file__).parent
SCANNED = sorted(
    [*(SRC / "simnet").glob("*.py"), *(SRC / "p4").glob("*.py"),
     SRC / "experiments" / "harness.py"]
)
FORBIDDEN = {
    "instance-dict read": re.compile(r"\.__dict__|\bvars\("),
    "handler assigned onto an instance": re.compile(
        r"\.on_(ingress|egress|packet_dropped)\s*=[^=]"
    ),
}


def test_scan_covers_the_data_path():
    names = {path.name for path in SCANNED}
    assert {"nic.py", "node.py", "switch.py", "trace.py", "int_program.py",
            "harness.py"} <= names


@pytest.mark.parametrize("rule", sorted(FORBIDDEN))
def test_data_path_source_obeys(rule):
    pattern = FORBIDDEN[rule]
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in SCANNED
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, f"{rule}:\n" + "\n".join(offenders)


PROFILER_PRIVATE = re.compile(
    r"\._(path|t0|stack)\b(?!\s*\()|\.phases\b|\bphase_(firsts|nexts)\b"
)


def test_profiler_state_stays_inside_the_engine():
    engine = SRC / "simnet" / "engine.py"
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if path != engine
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if PROFILER_PRIVATE.search(line)
    ]
    assert not offenders, "EngineProfiler state touched outside engine.py:\n" + "\n".join(
        offenders
    )


def test_no_module_scope_networkx_import():
    """Nor a function-local one: networkx appears nowhere in ``src/``."""
    pattern = re.compile(r"\bnetworkx\b")
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {line}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, "\n".join(offenders)


_RUN_EVERY_POLICY = textwrap.dedent(
    """
    import sys

    from repro.experiments.harness import ExperimentConfig, ExperimentScale
    from repro.runner import Runner, RunSpec

    scale = ExperimentScale(
        size_scale=0.05, total_tasks=6, mean_interarrival=0.4, time_scale=0.08
    )
    specs = [
        RunSpec.from_config(ExperimentConfig(scale=scale, seed=3, policy=policy))
        for policy in ("aware", "nearest", "random", "snmp")
    ]
    specs.append(
        RunSpec.from_config(
            ExperimentConfig(scale=scale, seed=3, policy="aware"),
            obs_run={"cell": "observed"},
        ).instrumented(
            trace=True, profile=True, sample_interval=0.1, telquality=True,
            whatif=True,
        )
    )
    results = Runner(jobs=1).run(specs)
    assert all(r.ok and r.payload["tasks_completed"] == 6 for r in results)
    assert results[-1].obs_records() and results[-1].payload["trace_records"]
    assert "networkx" not in sys.modules, "networkx was imported on the run path"
    """
)


@pytest.mark.slow
def test_no_policy_or_observer_imports_networkx():
    """A fresh interpreter (this one has networkx loaded by other tests)."""
    done = subprocess.run(
        [sys.executable, "-c", _RUN_EVERY_POLICY],
        env={"PYTHONPATH": str(SRC.parent), "PATH": ""},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_no_test_file_holds_a_sha256_literal():
    tests = pathlib.Path(goldens.__file__).parent
    offenders = [
        f"{path.relative_to(tests)}:{lineno}"
        for path in sorted(tests.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"[0-9a-fA-F]{64}", line)
    ]
    assert not offenders, offenders


def test_manifest_records_exactly_the_registered_cells():
    text = goldens.MANIFEST.read_text(encoding="utf-8")
    assert set(json.loads(text)) == set(goldens.CELLS)
    assert text == goldens.manifest_text(json.loads(text))
