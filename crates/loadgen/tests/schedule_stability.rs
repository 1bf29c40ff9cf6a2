//! Schedule determinism: the parallel generation path must be bit-stable
//! across thread counts and sensitive to the seed.
//!
//! The thread count is pinned high for the whole test process (it is
//! cached process-wide), and every parallel schedule is compared against
//! the serial oracle — if any fan-out partition reassociated per-worker
//! state, the comparison would catch it. CI additionally pins the digest
//! across *processes*: `scripts/ci.sh` runs this binary at
//! `FLEET_NUM_THREADS=1` and `7` and compares the line
//! `pinned_schedule_digest_is_printed` prints with the `loadgen` value in
//! `scripts/expected_digests.txt`.

use fleet_loadgen::{Schedule, WorkloadSpec};

/// Forces the parallel path before the thread count is cached, unless the
/// caller swept it via `FLEET_NUM_THREADS` (same rule as
/// `tests/tests/parallel_determinism.rs`). First caller wins; every test
/// here pins the same value.
fn pin_threads() {
    let swept = std::env::var("FLEET_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .is_some_and(|n| n > 0);
    if !swept {
        fleet_parallel::set_max_threads(8);
    }
}

#[test]
fn parallel_generation_matches_the_serial_oracle() {
    pin_threads();
    for (workers, ops, seed) in [(1usize, 1usize, 0u64), (13, 3, 42), (96, 4, 7)] {
        let spec = WorkloadSpec {
            workers,
            ops_per_worker: ops,
            seed,
            ..WorkloadSpec::default()
        };
        let parallel = Schedule::generate(&spec).expect("spec is valid");
        let serial = Schedule::generate_serial(&spec).expect("spec is valid");
        assert_eq!(
            parallel, serial,
            "parallel generation diverged from the serial oracle \
             (workers={workers} ops={ops} seed={seed})"
        );
        assert_eq!(parallel.digest(), serial.digest());
    }
}

#[test]
fn digest_is_repeatable_and_seed_sensitive() {
    pin_threads();
    let spec = WorkloadSpec {
        workers: 48,
        ops_per_worker: 3,
        ..WorkloadSpec::default()
    };
    let a = Schedule::generate(&spec).expect("spec is valid");
    let b = Schedule::generate(&spec).expect("spec is valid");
    assert_eq!(a.digest(), b.digest(), "same spec, same digest");

    let reseeded = WorkloadSpec {
        seed: spec.seed + 1,
        ..spec
    };
    let c = Schedule::generate(&reseeded).expect("spec is valid");
    assert_ne!(a.digest(), c.digest(), "seed must move the digest");
}

#[test]
fn pinned_schedule_digest_is_printed() {
    pin_threads();
    // The spec behind the `loadgen` pin; changing it changes the pin.
    let spec = WorkloadSpec {
        workers: 64,
        ops_per_worker: 2,
        seed: 42,
        ..WorkloadSpec::default()
    };
    let schedule = Schedule::generate(&spec).expect("spec is valid");
    // One line for the cross-process thread sweep (run with --nocapture).
    println!(
        "loadgen digest: {:#018x} (threads={})",
        schedule.digest(),
        fleet_parallel::max_threads()
    );
    assert_eq!(
        schedule.digest(),
        Schedule::generate_serial(&spec)
            .expect("spec is valid")
            .digest()
    );
}
