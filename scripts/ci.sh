#!/usr/bin/env bash
# CI gate for the FLeet reproduction workspace.
#
#   scripts/ci.sh           full gate: fmt, clippy (which carries the
#                           invariant gates below), warning-free docs,
#                           build, tier-1 tests, every experiment at Quick
#                           scale (`all_experiments --quick`; CSVs go to the
#                           gitignored results/), the
#                           frozen benchmark's build (and its --check smoke;
#                           neither may leave a diff under benchmark/),
#                           determinism digest sweep (FLEET_NUM_THREADS=1/4/7;
#                           shard + CNN-training + per-shard + fault-injected
#                           digests, every one checked against its pinned
#                           value in scripts/expected_digests.txt),
#                           fleet-parallel's tests at FLEET_NUM_THREADS=1
#                           and 7, the multi-process socket smoke (a
#                           TransportServer + 3 worker processes over UDS
#                           must reproduce the pinned in-process digest
#                           bit-for-bit) and the
#                           socket chaos smoke (torn frame, dead peer,
#                           overload; run twice, digests must agree), the
#                           kill-restart chaos smoke (a durable server
#                           process SIGKILLed mid-run, a replacement
#                           recovers checkpoint + journal from disk; run
#                           twice, the digest is pinned as chaos_kill and
#                           must equal the uninterrupted trajectory), the
#                           loadgen schedule digest (bit-identical at two
#                           FLEET_NUM_THREADS settings and equal to the
#                           pinned loadgen value), the kernel, conv, pool,
#                           activation and wire/checkpoint codec suites,
#                           fleet-durability's
#                           tests and the transport's unit tests (replay
#                           equals live at every crash point) and
#                           durability_restart tests again in a release
#                           build (the
#                           checkpoint writer thread races the appends
#                           differently under the optimiser), the
#                           transport's copy_budget tests in a release
#                           build (the allocation count that ships is the
#                           optimised one), fleet-ml's
#                           scratch pool budget (no spawn allowance) and
#                           stale-buffer tests at FLEET_NUM_THREADS=1 and 7,
#                           bench smoke
#                           (the kernel,
#                           shard and conv criterion benches run once and
#                           write an untracked BENCH_<name>.json; nothing
#                           reads them back)
#   scripts/ci.sh --quick   skip the digest and fleet-parallel sweeps, the
#                           release-build suites, the benchmark --check and
#                           the bench smoke (clippy,
#                           the docs, the Quick-scale experiments and the
#                           benchmark build still run)
#
# Invariant gates. The pinned digests hold bit-for-bit only while a handful
# of conventions do; each is a stock lint or a compile error, so the clippy
# and build steps below *are* the gate (levels: `[workspace.lints]` in
# Cargo.toml; banned paths and the reason for each: clippy.toml):
#   api surface   every product crate root is its API list: modules are
#                 private unless a caller outside the crate names them, and
#                 rustc's unreachable_pub (deny) rejects a `pub` item no path
#                 exports, so an item nothing outside needs is `pub(crate)`
#                 and rustc's dead_code (an error under -D warnings) names it
#                 the moment its last caller goes; rustdoc -D warnings
#                 rejects a doc link to a private or deleted item
#   unsafe        `#![forbid(unsafe_code)]` in every crate root under
#                 crates/
#   collections   clippy::disallowed_types bans std HashMap/HashSet: no
#                 hash-seed-dependent order can reach exported state
#   clocks        clippy::disallowed_methods bans Instant::now/SystemTime::now
#                 outside the waived measurement and socket-deadline sites
#   threads       clippy::disallowed_methods bans thread::spawn/scope/Builder
#                 outside fleet-parallel's one `thread::scope` fan-out and the
#                 waived I/O threads
#   waivers       per-item `#[expect(clippy::…, reason = "…")]` only:
#                 clippy::allow_attributes_without_reason rejects a bare one,
#                 and a stale one (or a deleted clippy.toml) is an unfulfilled
#                 expectation, which `-D warnings` makes an error
#   codecs        every encoder binds its message with an exhaustive struct
#                 pattern under `deny(unused_variables)` and every decoder
#                 builds a struct literal, so a field missed on either side
#                 fails `cargo build`; no codec keeps a hand-written length
#                 (fleet-server's encoders measure themselves, its decoders
#                 read through checked getters), so those two are the only
#                 copies of a message and the golden vectors pin their order
#
# Env knobs:
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
# The bench smoke proves the criterion benches still build and run. The
# BENCH_*.json it leaves at the repo root are gitignored micro-records for
# whoever ran it (the meta block records threads + ISA features and whether
# the simulation's fan-out ran inline); they are never a claim — a number
# that may be cited comes from benchmark/ (fleetbench) and nowhere else.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, deny warnings; the invariant gates)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: no link to a private or missing item)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

# Every table and figure at Quick scale. Most experiments run in no test
# (only the cheap ones are in experiment_harness_smoke.rs), so a driver that
# panics or stops building its rows would otherwise go unnoticed. A few
# seconds in release, against minutes as a debug tier-1 test; the CSVs land
# in the gitignored results/.
echo "==> every experiment at Quick scale (all_experiments --quick)"
cargo run --release -q -p fleet-bench --bin all_experiments -- --quick >/dev/null

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

# The pinned digests, name -> value in file order. In re-pin mode the values
# start empty and the first observation of each name becomes its reference,
# so the cross-combination identity checks below still apply.
declare -A pinned=() checked=()
pin_names=()
while read -r name value; do
    pin_names+=("$name")
    if [[ "${FLEET_PIN_DIGESTS:-0}" == "1" ]]; then
        value=""
    elif [[ -z "$value" ]]; then
        echo "FAIL: scripts/expected_digests.txt pins no value for $name"
        exit 1
    fi
    pinned[$name]="$value"
done < <(grep '^[a-z]' scripts/expected_digests.txt)

# check_digests WHERE OUTPUT NAME...: each named digest must be printed in
# OUTPUT as "<label> digest: 0x…" and equal its pin (WHERE is for messages).
check_digests() {
    local where="$1" out="$2" name label got
    shift 2
    for name in "$@"; do
        if [[ -z "${pinned[$name]+set}" ]]; then
            echo "FAIL: scripts/expected_digests.txt has no pin named $name"
            exit 1
        fi
        case "$name" in
            shard) label=shard-sweep ;;
            cnn) label=cnn-train ;;
            *) label=${name//_/-} ;;
        esac
        got=$(grep -o "\b$label digest: 0x[0-9a-f]*" <<<"$out" | head -1 || true)
        got=${got##* }
        if [[ -z "$got" ]]; then
            echo "FAIL: no '$label digest' line from $where"
            exit 1
        fi
        echo "    $where: $name $got"
        if [[ -z "${pinned[$name]}" ]]; then
            pinned[$name]="$got"
        elif [[ "$got" != "${pinned[$name]}" ]]; then
            echo "FAIL: $name digest drifted from ${pinned[$name]} ($where)"
            exit 1
        fi
        checked[$name]=1
    done
}

# Runs one criterion bench and leaves its JSON record, untracked, beside the
# sources.
run_bench() {
    local bench="$1" json="$PWD/$2" time_ms="$3"
    echo "==> bench smoke ($bench -> $2)"
    FLEET_BENCH_TIME_MS="${FLEET_BENCH_TIME_MS:-$time_ms}" \
    FLEET_BENCH_JSON="$json" \
        cargo bench --bench "$bench"
    echo "==> wrote $2"
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
    # im2col convolution engine, pooling and the kernels' column tails) and
    # the per-shard asynchronous-apply digest (vector-clock staleness over the
    # scripted flush schedule). Each must also match the value pinned in
    # scripts/expected_digests.txt: a cross-combination mismatch means a
    # fan-out partition reassociated a reduction; a drift from the pinned
    # value means the numeric trajectory changed silently.
    echo "==> determinism digest sweep (FLEET_NUM_THREADS=1/4/7)"
    for threads in 1 4 7; do
        out=$(FLEET_NUM_THREADS=$threads \
            cargo test --release -q -p fleet-tests --test parallel_determinism \
            -- --nocapture 2>&1) || {
            echo "FAIL: determinism tests at threads=$threads"
            exit 1
        }
        check_digests "threads=$threads" "$out" \
            shard cnn pershard chaos_l1 chaos_p1 chaos_l2 chaos_p2
    done
    # fleet-parallel's own tests, at the inline width and a wide fan-out:
    # tier-1 runs them only at this host's thread count.
    echo "==> fleet-parallel tests (FLEET_NUM_THREADS=1/7)"
    for threads in 1 7; do
        FLEET_NUM_THREADS=$threads cargo test --release -q -p fleet-parallel || {
            echo "FAIL: fleet-parallel tests at threads=$threads"
            exit 1
        }
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
    check_digests "socket demo" "$out" socket

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
    for run in 1 2; do
        out=$(cargo run --release -q -p fleet-examples --example socket_demo -- kill) || {
            echo "FAIL: kill-restart chaos run"
            exit 1
        }
        check_digests "kill-restart run $run" "$out" chaos_kill
    done

    # The workload schedule is a pure function of its spec — generated
    # through the same deterministic fan-out as the simulation's worker
    # gradients, so its digest must be bit-identical across thread counts and
    # match the pinned value (workers=64 ops=2 seed=42, printed by
    # schedule_stability.rs).
    echo "==> loadgen schedule digest (FLEET_NUM_THREADS=1 vs 7)"
    for threads in 1 7; do
        out=$(FLEET_NUM_THREADS=$threads \
            cargo test --release -q -p fleet-loadgen --test schedule_stability \
            -- --nocapture 2>&1) || {
            echo "FAIL: schedule stability tests at threads=$threads"
            exit 1
        }
        check_digests "loadgen threads=$threads" "$out" loadgen
    done

    # A pin no stage above reproduced is a stale line, not a guarantee.
    for name in "${pin_names[@]}"; do
        if [[ -z "${checked[$name]:-}" ]]; then
            echo "FAIL: no stage checks the pinned digest $name"
            exit 1
        fi
    done

    if [[ "${FLEET_PIN_DIGESTS:-0}" == "1" ]]; then
        # Keep the header comments, replace the pinned values.
        tmp=$(mktemp)
        grep '^#' scripts/expected_digests.txt > "$tmp" || true
        for name in "${pin_names[@]}"; do
            echo "$name ${pinned[$name]}"
        done >> "$tmp"
        mv "$tmp" scripts/expected_digests.txt
        echo "==> re-pinned scripts/expected_digests.txt (commit it deliberately)"
    fi

    # The kernel reference suites (narrow column tails and short-dot lanes
    # against a scalar fused chain and `dot`), the conv suites (per-image
    # lowering against the whole-batch workspace bit for bit, direct-vs-
    # im2col parity), the pooling suite (lanes against the scalar scan and
    # the per-row sweep oracle), the activation suite (the ReLU bit mask
    # against the float mask) and the wire/checkpoint codec suites
    # (bit-exact bulk vector proptests, golden vectors) again under the
    # optimiser: tier-1 above ran them in a debug build, and the vectorised
    # release lowering is what ships.
    echo "==> kernel, conv and codec parity tests (release build)"
    cargo test --release -q -p fleet-ml kernels
    cargo test --release -q -p fleet-ml conv
    cargo test --release -q -p fleet-ml pool
    cargo test --release -q -p fleet-ml activation
    cargo test --release -q -p fleet-server -- wire checkpoint lease

    # The durable store writes its checkpoints on a thread of their own while
    # the caller keeps appending; its suites (slicing CRC against the
    # bytewise oracle, failed writes and rotations, a crash between snapshot
    # and rename), the transport's unit tests (replay equals live at every
    # crash point, each copied while the writer may be mid-write) and its
    # restart tests again at release speed, where that interleaving differs.
    echo "==> durable store and restart tests (release build)"
    cargo test --release -q -p fleet-durability
    cargo test --release -q -p fleet-transport --lib
    cargo test --release -q -p fleet-transport --test durability_restart

    # The data path's allocation budget (bodies allocated per wire byte, and
    # no body allocated to send an already published model) counts what the
    # allocator hands out, and the optimised build is the one that ships.
    echo "==> transport copy budget (release build)"
    cargo test --release -q -p fleet-transport --test copy_budget

    # Every transient layer buffer is lent by a thread-local scratch pool.
    # The allocation budget (a warm pool lends a new replica its whole pass,
    # with no allowance for spawning; a warm 256-cubed kernel call allocates
    # nothing) and the stale-buffer suite (a warm pool's gradients equal a
    # fresh thread's bit for bit) again at the inline width and a wide one:
    # neither the MNIST pass nor a kernel call spawns at either, so a layer
    # or kernel fan-out that came back fails the budget at 7 threads.
    echo "==> scratch pool budget and reuse tests (FLEET_NUM_THREADS=1/7)"
    for threads in 1 7; do
        FLEET_NUM_THREADS=$threads cargo test --release -q -p fleet-ml \
            --test scratch_budget --test scratch_reuse || {
            echo "FAIL: scratch pool tests at threads=$threads"
            exit 1
        }
    done

    run_bench ml_kernels BENCH_kernels.json 200
    run_bench shards BENCH_shards.json 200
    run_bench conv BENCH_conv.json 400
fi

echo "==> CI gate passed"
