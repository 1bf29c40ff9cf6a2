#!/usr/bin/env bash
# fleetbench: build offline, run, check, print every metric by name and unit.
#
#   benchmark/run.sh [SEED]          all four workloads, end-to-end metrics
#   benchmark/run.sh --trace [SEED]  all four workloads, per-layer metrics
#   benchmark/run.sh --check         reduced-count smoke run of both, plus the
#                                    printed names against BENCHMARK.json and
#                                    the digests at FLEET_NUM_THREADS=1
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                    one workload in this process (what the
#                                    command in BENCHMARK.json appends)
#
# Each workload runs in a fresh process. The exit code is non-zero when a
# workload's output check fails; its metric lines are printed all the same.
set -uo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2 || exit 1
bin="$CARGO_TARGET_DIR/release/fleetbench"
mkdir -p benchmark/out

if [ "${1:-}" = "--workload" ]; then
    exec "$bin" "$@"
fi

export FLEETBENCH_COMMIT="${FLEETBENCH_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json)
seconds=$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' BENCHMARK.json)

if [ "${1:-}" = "--check" ]; then
    status=0
    log=benchmark/out/check.log
    : > "$log"
    for workload in $workloads; do
        for trace in 0 1; do
            "$bin" --workload "$workload" --seed 42 --seconds 1 --trace "$trace" --smoke \
                | tee -a "$log" || status=1
        done
        FLEET_NUM_THREADS=1 "$bin" --workload "$workload" --seed 42 --seconds 1 --trace 0 --smoke \
            | sed 's/^workload /workload threads=1 /' | tee -a "$log" || status=1
    done
    python3 benchmark/tables.py check BENCHMARK.json "$log" || status=1
    exit "$status"
fi

trace=0
if [ "${1:-}" = "--trace" ]; then
    trace=1
    shift
fi
seed="${1:-42}"
status=0
for workload in $workloads; do
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
done
exit "$status"
