"""Bytecodes per ``rank()`` call on the fresh rank-golden stream, per function.

    PYTHONPATH=src python -m tests.core.rank_ops [--out rank_ops.txt]

Only the 3 000 ``rank()`` calls are counted (:func:`repro.obs.perf.count_ops`);
the stream's ingests and clock moves run untraced.  The counts depend on the
CPython version, so the table is a record to compare between trees on one
interpreter, not a gate.
"""

import argparse
import platform
import sys

from tests.core.test_rank_golden import fresh_stream


def table(counts, calls):
    """One line per function, most bytecodes first: total and per call."""
    lines = [
        f"python {platform.python_version()}; {calls} rank() calls",
        f"{'bytecodes':>12}  {'per call':>9}  function",
    ]
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"{count:>12}  {count / calls:>9.1f}  {name}")
    total = sum(counts.values())
    lines.append(f"{total:>12}  {total / calls:>9.1f}  total")
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args(argv)
    counts = {}
    results, _ingested, _quarantined = fresh_stream(counts)
    text = table(counts, len(results))
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
