#!/usr/bin/env bash
# The benchmark's own gate: two sets of three untraced runs of every workload
# on the current commit, taken in turn, must agree within BENCHMARK.json's
# bounds on every host-time metric and exactly on the simulated statistics;
# a seventh, short run under another str-hash seed must reproduce those
# statistics too.  Everything lands under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
out=bench/out
for i in 1 2 3; do
    python3 bench/run.py --all --seed 0 --out "$out/check-a$i.json"
    python3 bench/run.py --all --seed 0 --out "$out/check-b$i.json"
done
python3 bench/compare.py "$out"/check-a[123].json "$out"/check-b[123].json
PYTHONHASHSEED=1 python3 bench/run.py --all --seed 0 --seconds 1 --out "$out/check-hash.json"
python3 bench/compare.py "$out/check-a1.json" "$out/check-hash.json"
if command -v ruff >/dev/null 2>&1; then
    ruff check bench/
else
    echo "ruff not installed; lint skipped"
fi
