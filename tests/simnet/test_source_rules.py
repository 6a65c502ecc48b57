"""Source rules for the data path, enforced by scanning the source.

**No instance-dict reads.**  On CPython 3.11/3.12 an object's attributes live
in inline slots until something asks for its ``__dict__`` (``obj.__dict__``,
``vars(obj)``); from then on that instance takes the slower dict-backed
attribute path for good.  The NIC's coalescing gate used to test
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
"""

import pathlib
import re

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
