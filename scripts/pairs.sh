#!/usr/bin/env bash
# Compares two commits on one fleetbench workload in alternating pairs.
#
#   scripts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS
#
# PARENT_DIR and CHANGE_DIR are checkout roots, each with fleetbench already
# built in it (this script builds nothing):
#
#   cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
#
# Each pair runs both binaries at `--seed 42 --seconds 15 --trace 0`, each
# from its own checkout root; odd pairs run the parent first, even pairs the
# change. Then, for every end-to-end metric of CHANGE_DIR/BENCHMARK.json, it
# prints the runs, median, IQR, the change/parent ratio of the medians and
# the pairs the change won (in the direction of the metric's `better` key).
# Exits non-zero if any run is not `correct`. Never compile while it runs.
set -euo pipefail
if [ "$#" -ne 4 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
for dir in "$parent" "$change"; do
    if [ ! -x "$dir/benchmark/target/release/fleetbench" ]; then
        echo "no fleetbench binary under $dir/benchmark/target/release; build it first" >&2
        exit 2
    fi
done

logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT
run() { # SIDE DIR PAIR
    (cd "$2" && benchmark/target/release/fleetbench --workload "$workload" \
        --seed 42 --seconds 15 --trace 0) > "$logs/$1.$3" || true
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
done

python3 - "$change/BENCHMARK.json" "$logs" "$workload" "$pairs" <<'EOF'
import json
import statistics
import sys

spec, logs, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sides = ("parent", "change")


def result(side, pair):
    """The run's closing JSON line and its `note digest`, or (None, None)."""
    last, digest = None, None
    for line in open(f"{logs}/{side}.{pair}"):
        words = line.split()
        if words[:3] == ["note", "digest", "="]:
            digest = words[3]
        if line.startswith("{"):
            last = json.loads(line)
    return last, digest


runs = {side: [result(side, i) for i in range(1, pairs + 1)] for side in sides}
correct = {s: sum(1 for r, _ in runs[s] if r and r["correct"]) for s in sides}
failed = {s: sum(r["failed"] for r, _ in runs[s] if r) for s in sides}
digests = {s: " ".join(sorted({d or "none" for _, d in runs[s]})) for s in sides}
print(
    f"    - `{workload}`: {pairs} pairs; "
    f"correct parent {correct['parent']}/{pairs} change {correct['change']}/{pairs}; "
    f"failed parent {failed['parent']} change {failed['change']}; "
    f"digest parent {digests['parent']} change {digests['change']}"
)


def g(value):
    return format(value, ".4g")


def summary(values):
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return f"[{' '.join(g(v) for v in values)}] med {g(median)} (IQR {g(q3 - q1)})", median


if all(r for s in sides for r, _ in runs[s]):
    for metric in json.load(open(spec))["end_to_end"]:
        name = metric["name"]
        values = {s: [r["metrics"][name]["value"] for r, _ in runs[s]] for s in sides}
        (parent_text, parent_med), (change_text, change_med) = (summary(values[s]) for s in sides)
        lower = metric["better"] == "lower"
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
        )
        ratio = change_med / parent_med if parent_med else float("nan")
        print(
            f"        {name}: parent {parent_text} → change {change_text}; "
            f"×{ratio:.3f}; change wins {wins}/{pairs}"
        )
sys.exit(0 if min(correct.values()) == pairs else 1)
EOF
