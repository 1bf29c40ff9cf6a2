#!/usr/bin/env bash
# CI gate for the FLeet reproduction workspace.
#
#   scripts/ci.sh           full gate: fmt, clippy (which carries the
#                           invariant gates below), build, tier-1 tests, the
#                           frozen benchmark's build (and its --check smoke;
#                           neither may leave a diff under benchmark/),
#                           determinism digest sweep (FLEET_NUM_THREADS=1/4/7;
#                           shard + CNN-training + per-shard digests, checked
#                           against the pinned values in
#                           scripts/expected_digests.txt), the
#                           multi-process socket smoke (a TransportServer +
#                           3 worker processes over UDS must reproduce the
#                           pinned in-process digest bit-for-bit) and the
#                           socket chaos smoke (torn frame, dead peer,
#                           overload; run twice, digests must agree), the
#                           kill-restart chaos smoke (a durable server
#                           process SIGKILLed mid-run, a replacement
#                           recovers checkpoint + journal from disk; run
#                           twice, the digest is pinned as chaos_kill and
#                           must equal the uninterrupted trajectory), the
#                           loadgen smoke (the open-loop workload-schedule
#                           digest must be bit-identical at two
#                           FLEET_NUM_THREADS settings and match the pinned
#                           loadgen value, then a small fleet_load sweep
#                           writes FLEET_load.json which must validate as
#                           fleet-bench-v2), bench smoke writing
#                           BENCH_kernels.json, BENCH_shards.json,
#                           BENCH_conv.json, BENCH_transport.json and
#                           BENCH_durability.json
#   scripts/ci.sh --quick   skip the digest sweep, the benchmark --check and
#                           the bench smoke (clippy and the benchmark build
#                           still run)
#
# Invariant gates. The pinned digests hold bit-for-bit only while a handful
# of conventions do; each is a stock lint or a compile error, so the clippy
# and build steps below *are* the gate (levels: `[workspace.lints.clippy]` in
# Cargo.toml; banned paths and the reason for each: clippy.toml):
#   unsafe        `#![forbid(unsafe_code)]` everywhere but fleet-parallel,
#                 where clippy::undocumented_unsafe_blocks + missing_safety_doc
#                 demand a `// SAFETY:` / `# Safety` at every site
#   collections   clippy::disallowed_types bans std HashMap/HashSet: no
#                 hash-seed-dependent order can reach exported state
#   clocks        clippy::disallowed_methods bans Instant::now/SystemTime::now
#                 outside the waived measurement and socket-deadline sites
#   threads       clippy::disallowed_methods bans thread::spawn/scope/Builder
#                 outside fleet-parallel's pool and the waived I/O threads
#   waivers       per-item `#[expect(clippy::…, reason = "…")]` only:
#                 clippy::allow_attributes_without_reason rejects a bare one,
#                 and a stale one (or a deleted clippy.toml) is an unfulfilled
#                 expectation, which `-D warnings` makes an error
#   codecs        every encoder binds its message with an exhaustive struct
#                 pattern under `deny(unused_variables)` and every decoder
#                 builds a struct literal, so a field missed on either side
#                 fails `cargo build`
#
# Env knobs:
#   FLEET_BENCH_COMPARE=1       diff each fresh BENCH_*.json against the
#                               committed baseline via
#                               scripts/bench_compare.py and fail above the
#                               relative-slowdown threshold
#   FLEET_BENCH_MAX_SLOWDOWN=R  threshold for the comparison (default 1.5)
#   FLEET_BENCH_TIME_MS=N       per-benchmark measurement window
#   FLEET_PIN_DIGESTS=1         re-pin scripts/expected_digests.txt from this
#                               host's sweep instead of failing on drift (the
#                               cross-combination identity check still
#                               applies). The digests flow through f32
#                               exp/ln, whose bit patterns depend on the
#                               host's libm — use this, deliberately, when
#                               moving the reference host, and commit the
#                               rewritten file with an explanation.
#
# The bench smoke keeps machine-readable perf records (BENCH_kernels.json,
# BENCH_shards.json and BENCH_conv.json at the repo root) so successive PRs
# can track the kernel, aggregation-throughput and convolution trajectories;
# timings are per-machine (the JSON meta block records threads + ISA features
# and whether the fan-out ran inline), so compare runs from the same host
# only.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, deny warnings; the invariant gates)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

# benchmark/ is a package of its own, outside the workspace, and frozen
# between benchmark PRs: it must keep compiling against the crates' public
# API as is. Build it here — in quick mode too — so a crate-API change that
# breaks it fails CI instead of failing the benchmark run. `--locked`: a
# change to the crates' dependency graph that would make the benchmark run
# rewrite benchmark/Cargo.lock fails here instead.
echo "==> frozen benchmark builds against the current crate APIs"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

# The benchmark driver rejects a PR that changes anything under benchmark/ or
# BENCHMARK.json; a step above that rewrote a file there (benchmark/Cargo.lock
# is the usual victim) fails here first.
frozen_tree_untouched() {
    git diff --exit-code -- benchmark BENCHMARK.json || {
        echo "FAIL: $1 modified the frozen benchmark tree"
        exit 1
    }
}
frozen_tree_untouched "the benchmark build"

# Reads one pinned digest (by name) from scripts/expected_digests.txt.
expected_digest() {
    awk -v key="$1" '$1 == key { print $2 }' scripts/expected_digests.txt
}

# Runs one benchmark and writes its JSON artifact; with FLEET_BENCH_COMPARE=1
# the previous artifact (the committed baseline) is diffed against the fresh
# numbers and a relative slowdown beyond the threshold fails the gate.
run_bench() {
    local bench="$1" json="$PWD/$2" time_ms="$3" baseline=""
    if [[ "${FLEET_BENCH_COMPARE:-0}" == "1" && -f "$json" ]]; then
        baseline="$json.baseline"
        cp "$json" "$baseline"
    fi
    echo "==> bench smoke ($bench -> $2)"
    FLEET_BENCH_TIME_MS="${FLEET_BENCH_TIME_MS:-$time_ms}" \
    FLEET_BENCH_JSON="$json" \
        cargo bench --bench "$bench"
    echo "==> wrote $2"
    if [[ -n "$baseline" ]]; then
        echo "==> bench compare ($2 vs committed baseline)"
        python3 scripts/bench_compare.py "$baseline" "$json"
        rm -f "$baseline"
    fi
}

if [[ "${1:-}" != "--quick" ]]; then
    # The frozen benchmark's own smoke: reduced-count runs of every workload,
    # traced and untraced, with its output checks and metric names.
    echo "==> benchmark/run.sh --check"
    bash benchmark/run.sh --check
    frozen_tree_untouched "benchmark/run.sh --check"

    # The kernels promise bit-for-bit identical results on any thread count.
    # Sweep three and require one digest per contract — the lockstep
    # sharded-simulation digest, the CNN training digest (which drives the
    # im2col convolution engine, pooling and the batch fan-out) and the
    # per-shard asynchronous-apply digest (vector-clock staleness over the
    # scripted flush schedule). Each must also match the value pinned in
    # scripts/expected_digests.txt: a cross-combination mismatch means a
    # fan-out partition reassociated a reduction; a drift from the pinned
    # value means the numeric trajectory changed silently.
    echo "==> determinism digest sweep (FLEET_NUM_THREADS=1/4/7)"
    if [[ "${FLEET_PIN_DIGESTS:-0}" == "1" ]]; then
        # Re-pin mode: the first combination becomes the reference (the
        # cross-combination identity check below still applies) and the file
        # is rewritten at the end of the sweep.
        shard_ref=""
        cnn_ref=""
        pershard_ref=""
        chaos_l1_ref=""
        chaos_p1_ref=""
        chaos_l2_ref=""
        chaos_p2_ref=""
        socket_ref=""
        chaos_kill_ref=""
        loadgen_ref=""
    else
        shard_ref=$(expected_digest shard)
        cnn_ref=$(expected_digest cnn)
        pershard_ref=$(expected_digest pershard)
        chaos_l1_ref=$(expected_digest chaos_l1)
        chaos_p1_ref=$(expected_digest chaos_p1)
        chaos_l2_ref=$(expected_digest chaos_l2)
        chaos_p2_ref=$(expected_digest chaos_p2)
        socket_ref=$(expected_digest socket)
        chaos_kill_ref=$(expected_digest chaos_kill)
        loadgen_ref=$(expected_digest loadgen)
        if [[ -z "$shard_ref" || -z "$cnn_ref" || -z "$pershard_ref" ||
              -z "$chaos_l1_ref" || -z "$chaos_p1_ref" ||
              -z "$chaos_l2_ref" || -z "$chaos_p2_ref" || -z "$socket_ref" ||
              -z "$chaos_kill_ref" || -z "$loadgen_ref" ]]; then
            echo "FAIL: scripts/expected_digests.txt is missing a pinned digest"
            exit 1
        fi
    fi
    for threads in 1 4 7; do
        out=$(FLEET_NUM_THREADS=$threads \
            cargo test --release -q -p fleet-tests --test parallel_determinism \
            -- --nocapture 2>&1) || {
            echo "FAIL: determinism tests at threads=$threads"
            exit 1
        }
        shard=$(grep -o 'shard-sweep digest: 0x[0-9a-f]*' <<<"$out" | head -1)
        cnn=$(grep -o 'cnn-train digest: 0x[0-9a-f]*' <<<"$out" | head -1)
        pershard=$(grep -o 'pershard digest: 0x[0-9a-f]*' <<<"$out" | head -1)
        chaos_l1=$(grep -o 'chaos-l1 digest: 0x[0-9a-f]*' <<<"$out" | head -1)
        chaos_p1=$(grep -o 'chaos-p1 digest: 0x[0-9a-f]*' <<<"$out" | head -1)
        chaos_l2=$(grep -o 'chaos-l2 digest: 0x[0-9a-f]*' <<<"$out" | head -1)
        chaos_p2=$(grep -o 'chaos-p2 digest: 0x[0-9a-f]*' <<<"$out" | head -1)
        if [[ -z "$shard" || -z "$cnn" || -z "$pershard" ||
              -z "$chaos_l1" || -z "$chaos_p1" ||
              -z "$chaos_l2" || -z "$chaos_p2" ]]; then
            echo "FAIL: missing digest line at threads=$threads"
            exit 1
        fi
        shard=${shard##* }
        cnn=${cnn##* }
        pershard=${pershard##* }
        chaos_l1=${chaos_l1##* }
        chaos_p1=${chaos_p1##* }
        chaos_l2=${chaos_l2##* }
        chaos_p2=${chaos_p2##* }
        echo "    threads=$threads -> shard $shard cnn $cnn pershard $pershard"
        echo "        chaos l1 $chaos_l1 p1 $chaos_p1 l2 $chaos_l2 p2 $chaos_p2"
        if [[ -z "$shard_ref" ]]; then
            shard_ref="$shard"
            cnn_ref="$cnn"
            pershard_ref="$pershard"
            chaos_l1_ref="$chaos_l1"
            chaos_p1_ref="$chaos_p1"
            chaos_l2_ref="$chaos_l2"
            chaos_p2_ref="$chaos_p2"
            continue
        fi
        for pair in "shard:$shard:$shard_ref" "cnn:$cnn:$cnn_ref" \
                    "pershard:$pershard:$pershard_ref" \
                    "chaos_l1:$chaos_l1:$chaos_l1_ref" \
                    "chaos_p1:$chaos_p1:$chaos_p1_ref" \
                    "chaos_l2:$chaos_l2:$chaos_l2_ref" \
                    "chaos_p2:$chaos_p2:$chaos_p2_ref"; do
            IFS=: read -r name got want <<<"$pair"
            if [[ "$got" != "$want" ]]; then
                echo "FAIL: $name digest drifted from $want at threads=$threads"
                exit 1
            fi
        done
    done
    # Cross-process determinism: a real TransportServer plus three worker
    # *processes* over a Unix socket must land on the pinned digest — the
    # same trajectory the in-process protocol produces (the demo itself
    # asserts socket == in-process; the pin catches silent drift of both).
    echo "==> multi-process socket smoke (3 worker processes over uds)"
    out=$(cargo run --release -q -p fleet-examples --example socket_demo -- demo) || {
        echo "FAIL: multi-process socket demo"
        exit 1
    }
    socket=$(grep -o 'socket digest: 0x[0-9a-f]*' <<<"$out" | head -1)
    if [[ -z "$socket" ]]; then
        echo "FAIL: socket demo printed no digest"
        exit 1
    fi
    socket=${socket##* }
    echo "    socket -> $socket"
    if [[ -z "$socket_ref" ]]; then
        socket_ref="$socket"
    elif [[ "$socket" != "$socket_ref" ]]; then
        echo "FAIL: socket digest drifted from $socket_ref"
        exit 1
    fi

    # Fault tolerance under fire: the chaos choreography (worker killed
    # mid-upload with a torn frame, dead peer's lease reclaimed, straggler
    # upload expired, overload shed on the wire, duplicate deduplicated,
    # garbage connection) must complete with the server alive — twice, with
    # identical digests. The digest is checked for *stability*, not pinned:
    # it asserts the faulty trajectory is deterministic on this host.
    echo "==> socket chaos smoke (torn frame, dead peer, overload) x2"
    chaos_digest() {
        local out
        out=$(cargo run --release -q -p fleet-examples --example socket_demo -- chaos) || {
            echo "FAIL: socket chaos run"
            exit 1
        }
        grep -o 'chaos digest: 0x[0-9a-f]*' <<<"$out" | head -1
    }
    chaos_a=$(chaos_digest)
    chaos_b=$(chaos_digest)
    if [[ -z "$chaos_a" || "$chaos_a" != "$chaos_b" ]]; then
        echo "FAIL: chaos digest unstable across reruns ('$chaos_a' vs '$chaos_b')"
        exit 1
    fi
    echo "    chaos -> ${chaos_a##* } (stable across reruns)"

    # Durable crash recovery: a server process with checkpoints + a
    # write-ahead journal is SIGKILLed mid-run and a replacement process
    # recovers its state from disk; the finished model must be bit-for-bit
    # the uninterrupted trajectory. The digest is pinned (it must equal the
    # socket/in-process value — same schedule, one crash inside it) and the
    # scenario runs twice: the kill lands at a slightly different point each
    # time, and recovery must erase the difference.
    echo "==> kill-restart chaos smoke (SIGKILL mid-run, recover from disk) x2"
    kill_digest() {
        local out
        out=$(cargo run --release -q -p fleet-examples --example socket_demo -- kill) || {
            echo "FAIL: kill-restart chaos run"
            exit 1
        }
        grep -o 'chaos-kill digest: 0x[0-9a-f]*' <<<"$out" | head -1
    }
    kill_a=$(kill_digest)
    kill_b=$(kill_digest)
    if [[ -z "$kill_a" || "$kill_a" != "$kill_b" ]]; then
        echo "FAIL: chaos-kill digest unstable across reruns ('$kill_a' vs '$kill_b')"
        exit 1
    fi
    kill_a=${kill_a##* }
    echo "    chaos_kill -> $kill_a (stable across reruns)"
    if [[ -z "$chaos_kill_ref" ]]; then
        chaos_kill_ref="$kill_a"
    elif [[ "$kill_a" != "$chaos_kill_ref" ]]; then
        echo "FAIL: chaos_kill digest drifted from $chaos_kill_ref"
        exit 1
    fi

    # Open-loop load harness: the workload schedule is a pure function of
    # the spec — generated through the same deterministic fan-out as the
    # kernels, so its digest must be bit-identical across thread counts and
    # match the pinned value (workers=64 ops=2 seed=42). Then a small sweep
    # drives a real TransportServer over UDS and the resulting
    # FLEET_load.json must validate against the frozen fleet-bench-v2 shape
    # (and, with FLEET_BENCH_COMPARE=1, diff cleanly against the committed
    # artifact — latency percentiles included).
    echo "==> loadgen schedule digest (FLEET_NUM_THREADS=1 vs 7)"
    loadgen_digest() {
        local out
        out=$(FLEET_NUM_THREADS=$1 cargo run --release -q -p fleet-examples \
            --example fleet_load -- --digest-only --workers 64 --ops 2) || {
            echo "FAIL: fleet_load --digest-only at FLEET_NUM_THREADS=$1"
            exit 1
        }
        grep -o 'digest: 0x[0-9a-f]*' <<<"$out" | head -1
    }
    load_a=$(loadgen_digest 1)
    load_b=$(loadgen_digest 7)
    if [[ -z "$load_a" || "$load_a" != "$load_b" ]]; then
        echo "FAIL: loadgen digest differs across thread counts ('$load_a' vs '$load_b')"
        exit 1
    fi
    load_a=${load_a##* }
    echo "    loadgen -> $load_a (identical at 1 and 7 threads)"
    if [[ -z "$loadgen_ref" ]]; then
        loadgen_ref="$load_a"
    elif [[ "$load_a" != "$loadgen_ref" ]]; then
        echo "FAIL: loadgen digest drifted from $loadgen_ref"
        exit 1
    fi

    echo "==> loadgen smoke (fleet_load sweep over uds -> FLEET_load.json)"
    load_baseline=""
    if [[ "${FLEET_BENCH_COMPARE:-0}" == "1" && -f FLEET_load.json ]]; then
        load_baseline="FLEET_load.json.baseline"
        cp FLEET_load.json "$load_baseline"
    fi
    cargo run --release -q -p fleet-examples --example fleet_load -- \
        --workers 64,256 --ops 2 --connections 4 --json FLEET_load.json || {
        echo "FAIL: fleet_load sweep"
        exit 1
    }
    echo "==> wrote FLEET_load.json"
    python3 scripts/bench_compare.py --validate FLEET_load.json
    if [[ -n "$load_baseline" ]]; then
        echo "==> bench compare (FLEET_load.json vs committed baseline)"
        python3 scripts/bench_compare.py "$load_baseline" FLEET_load.json
        rm -f "$load_baseline"
    fi

    if [[ "${FLEET_PIN_DIGESTS:-0}" == "1" ]]; then
        # Keep the header comments, replace the pinned values.
        tmp=$(mktemp)
        grep '^#' scripts/expected_digests.txt > "$tmp" || true
        {
            echo "shard $shard_ref"
            echo "cnn $cnn_ref"
            echo "pershard $pershard_ref"
            echo "chaos_l1 $chaos_l1_ref"
            echo "chaos_p1 $chaos_p1_ref"
            echo "chaos_l2 $chaos_l2_ref"
            echo "chaos_p2 $chaos_p2_ref"
            echo "socket $socket_ref"
            echo "chaos_kill $chaos_kill_ref"
            echo "loadgen $loadgen_ref"
        } >> "$tmp"
        mv "$tmp" scripts/expected_digests.txt
        echo "==> re-pinned scripts/expected_digests.txt (commit it deliberately)"
    fi

    # The kernel reference suites and the direct-vs-im2col parity suite again
    # under the optimiser: tier-1 above ran them in a debug build, and the
    # vectorised release lowering is what ships.
    echo "==> kernel + conv parity tests (release build)"
    cargo test --release -q -p fleet-ml kernels
    cargo test --release -q -p fleet-ml conv

    run_bench ml_kernels BENCH_kernels.json 200
    run_bench shards BENCH_shards.json 200
    run_bench conv BENCH_conv.json 400
    run_bench transport BENCH_transport.json 200
    run_bench durability BENCH_durability.json 200
fi

echo "==> CI gate passed"
