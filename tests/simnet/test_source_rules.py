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
inference and the baselines work on plain dicts; ``Network.graph()`` (the
analysis view, and the reference the routing tests search) is the one
function that imports it, locally.  No module under ``repro`` may import it
at module scope, and no policy or observer may pull it in at run time.

**Lazily booked counters are read through their owners.**  A port whose
transmit completion was elided owes ``packets_sent``, the link's
``bytes_carried`` and one ``events_executed`` credit (``Port._owed``) until
something settles it, so a bare ``bytes_carried[...]`` read is exact only
between ``run()`` calls.  Code inside the simulation reads
``Link.carried(direction)``; only ``simnet/link.py`` and ``simnet/nic.py``
touch ``bytes_carried[``, ``packets_sent`` or ``_owed``.

**Phase accounting goes through the profiler's methods.**  Handlers open
and close phases with ``phase_first`` / ``phase_next`` / ``phase_end`` (or
``phase_begin``); only ``simnet/engine.py`` reads or writes the profiler's
scope state (``_path``, ``_t0``, ``_stack``), its ``phases`` records or the
``phase_firsts`` / ``phase_nexts`` counters.  Hand-inlined copies of that
accounting in the hottest handlers once made ``--profile`` ~10 % cheaper
while saving no clock read, at the price of a third body per handler.
"""

import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import repro

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


LAZY_BOOKS = re.compile(r"bytes_carried\[|\bpackets_sent\b|\b_owed\b")


def test_lazily_booked_counters_stay_with_link_and_port():
    owners = {SRC / "simnet" / "link.py", SRC / "simnet" / "nic.py"}
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if path not in owners
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if LAZY_BOOKS.search(line)
    ]
    assert not offenders, "owed counters read outside link.py / nic.py:\n" + "\n".join(
        offenders
    )


def test_no_module_scope_networkx_import():
    pattern = re.compile(r"^(import|from) networkx\b")
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {line}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.match(line)
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
