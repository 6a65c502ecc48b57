"""Bytecodes and Python calls per ``rank()`` and per ``ingest_probe()`` call
on the fresh rank-golden stream, per function.

    PYTHONPATH=src python -m tests.core.rank_ops [--out rank_ops.txt]

The stream's 3 000 ``rank()`` calls and its 750 ``ingest_probe()`` calls are
counted apart (:func:`repro.obs.perf.count_ops`), one table each; its clock
moves run untraced.  The counts depend on the CPython version, so the tables
are a record to compare between trees on one interpreter, not a gate.
"""

import argparse
import platform
import sys

from tests.goldens import fresh_stream


def table(counts, frames, calls, call="rank()"):
    """One line per function, most bytecodes first: its bytecodes and its
    Python calls (``frames``), each in total and per ``call``."""
    lines = [
        f"python {platform.python_version()}; {calls} {call} calls",
        f"{'bytecodes':>12}  {'per call':>9}  {'calls':>9}  {'per call':>9}  function",
    ]

    def row(count, entered, name):
        return (f"{count:>12}  {count / calls:>9.1f}  "
                f"{entered:>9}  {entered / calls:>9.2f}  {name}")

    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        lines.append(row(count, frames.get(name, 0), name))
    lines.append(row(sum(counts.values()), sum(frames.values()), "total"))
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args(argv)
    counts, ingest_counts, frames, ingest_frames = {}, {}, {}, {}
    results, ingested, _quarantined = fresh_stream(counts, ingest_counts, frames, ingest_frames)
    text = (
        table(counts, frames, len(results)) + "\n"
        + table(ingest_counts, ingest_frames, ingested, "ingest_probe()")
    )
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
