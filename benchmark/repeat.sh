#!/usr/bin/env bash
# Runs the full timed benchmark twice on one commit and one seed (A, then B)
# and once on a second seed, plus the traced run twice, and prints per
# workload x end-to-end metric A, B, |A-B|/A and the bound. Two sets of runs
# of the same code must agree within the benchmark's own bounds.
#
#   benchmark/repeat.sh [SEED] [SECOND_SEED]
set -uo pipefail
cd "$(dirname "$0")/.."
seed="${1:-42}"
second="${2:-43}"
out=benchmark/out
mkdir -p "$out"
benchmark/run.sh "$seed" > "$out/repeat-A.txt"
benchmark/run.sh "$seed" > "$out/repeat-B.txt"
benchmark/run.sh "$second" > "$out/repeat-C.txt"
benchmark/run.sh --trace "$seed" > "$out/repeat-trace-A.txt"
benchmark/run.sh --trace "$seed" > "$out/repeat-trace-B.txt"
python3 benchmark/tables.py repeat BENCHMARK.json \
    "$out/repeat-A.txt" "$out/repeat-B.txt" "$out/repeat-C.txt" \
    "$out/repeat-trace-A.txt" "$out/repeat-trace-B.txt"
