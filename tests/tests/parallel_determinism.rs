//! Reproducibility of the parallel simulation engine.
//!
//! `AsyncSimulation::run` fans each aggregation round's K worker gradients
//! out across threads, and the sharded `ParameterServer` applies them over
//! range-partitioned shards; these tests pin the thread
//! count above one (so the parallel path runs even on single-core CI) and
//! assert that repeated runs with one seed are bit-for-bit identical —
//! histories, scaling factors and final model parameters — and that the
//! digest is independent of the shard count ({1, 2, 8} swept in-process).
//! Cross-thread-count equality holds by construction (contiguous-range
//! splitting with fixed-order accumulation; see the `fleet_parallel` module
//! docs); the kernels themselves have a single code path of fused
//! multiply-adds (see `fleet_ml::kernels` — native, FMA-capable builds are
//! the supported configuration). To sweep thread counts explicitly, run this
//! binary under `FLEET_NUM_THREADS=1/4/7` — the env var then wins over the
//! default pin — and compare the digest that
//! `shard_sweep_digests_are_identical` prints; `scripts/ci.sh` automates the
//! sweep and fails on any divergence.

use fleet_bench::{AsyncSimulation, FaultPlan, SimulationConfig, StalenessDistribution};
use fleet_core::{AdaSgd, FedAvg};
use fleet_tests::{small_model, small_world};

/// Forces the parallel path (even on single-core CI) before the thread count
/// is cached, unless the caller swept it via `FLEET_NUM_THREADS`. First
/// caller wins; every test in this binary pins the same value, so ordering
/// cannot change the configuration. Programmatic override rather than
/// `std::env::set_var`, which is unsound with tests running on concurrent
/// threads.
fn pin_threads() {
    // Mirror max_threads' own validation: only a positive integer counts as
    // a sweep; a malformed value must not silently drop the forced-parallel
    // pin these tests exist for.
    let swept = std::env::var("FLEET_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .is_some_and(|n| n > 0);
    if !swept {
        fleet_parallel::set_max_threads(4);
    }
}

fn config(k: usize, dp: Option<(f32, f32)>) -> SimulationConfig {
    let mut builder = SimulationConfig::builder()
        .steps(40)
        .aggregation_k(k)
        .batch_size(25)
        .staleness(StalenessDistribution::d1())
        .eval_every(10)
        .eval_examples(150)
        .seed(17);
    if let Some((clip_norm, noise_multiplier)) = dp {
        builder = builder.dp(clip_norm, noise_multiplier);
    }
    builder.build().expect("determinism config is valid")
}

#[test]
fn parallel_runs_with_same_seed_are_bitwise_identical() {
    pin_threads();
    let (train, test, users) = small_world(800, 12, 5);
    let sim = AsyncSimulation::new(&train, &test, &users, config(4, None));

    let mut model_a = small_model(2);
    let mut model_b = small_model(2);
    let history_a = sim.run(&mut model_a, AdaSgd::new(10, 99.7));
    let history_b = sim.run(&mut model_b, AdaSgd::new(10, 99.7));

    assert_eq!(history_a, history_b);
    assert_eq!(model_a.parameters(), model_b.parameters());
    assert_eq!(history_a.scaling_factors.len(), 40 * 4);
}

#[test]
fn parallel_dp_runs_replay_their_noise() {
    pin_threads();
    let (train, test, users) = small_world(800, 12, 5);
    let sim = AsyncSimulation::new(&train, &test, &users, config(3, Some((1.0, 0.3))));

    let mut model_a = small_model(3);
    let mut model_b = small_model(3);
    assert_eq!(
        sim.run(&mut model_a, FedAvg::new()),
        sim.run(&mut model_b, FedAvg::new())
    );
    assert_eq!(model_a.parameters(), model_b.parameters());
}

/// FNV-1a over the parameter bit patterns: equal digests mean bit-for-bit
/// equal models.
fn digest(params: &[f32]) -> u64 {
    params.iter().fold(0xcbf29ce484222325u64, |h, p| {
        (h ^ u64::from(p.to_bits())).wrapping_mul(0x100000001b3)
    })
}

#[test]
fn shard_sweep_digests_are_identical() {
    pin_threads();
    let (train, test, users) = small_world(800, 12, 5);
    let mut runs = Vec::new();
    for shards in [1usize, 2, 8] {
        let mut cfg = config(4, None);
        cfg.core.shards = shards;
        let sim = AsyncSimulation::new(&train, &test, &users, cfg);
        let mut model = small_model(2);
        let history = sim.run(&mut model, AdaSgd::new(10, 99.7));
        runs.push((shards, digest(&model.parameters()), history));
    }
    // One line for the cross-process thread sweep: run this binary under
    // FLEET_NUM_THREADS=1/4/7 with --nocapture and compare.
    println!(
        "shard-sweep digest: {:#018x} (threads={})",
        runs[0].1,
        fleet_parallel::max_threads()
    );
    for run in &runs[1..] {
        assert_eq!(runs[0].1, run.1, "digest diverged at {} shards", run.0);
        assert_eq!(runs[0].2, run.2, "history diverged at {} shards", run.0);
    }
}

#[test]
fn per_shard_digest_is_stable() {
    pin_threads();
    // The asynchronous per-shard apply schedule: 4 shards advancing on
    // independent triggers (the scripted flush schedule diverges the vector
    // clock every other round), with per-shard staleness attribution flowing
    // through the v2 wire codec. Once the clocks diverge, the shard count is
    // part of the semantics, so the digest is pinned for this *fixed* config
    // and must be identical across thread counts only —
    // `scripts/ci.sh` sweeps FLEET_NUM_THREADS=1/4/7
    // and compares the digest this test prints against the pinned value in
    // scripts/expected_digests.txt.
    let (train, test, users) = small_world(800, 12, 5);
    let make = |flush_every: usize| {
        let mut cfg = config(4, None);
        cfg.core.shards = 4;
        cfg.flush_every = flush_every;
        let sim = AsyncSimulation::new(&train, &test, &users, cfg);
        let mut model = small_model(2);
        let history = sim.run(&mut model, AdaSgd::new(10, 99.7));
        (digest(&model.parameters()), history)
    };
    let (first, history_a) = make(2);
    println!(
        "pershard digest: {first:#018x} (threads={})",
        fleet_parallel::max_threads()
    );
    let (second, history_b) = make(2);
    assert_eq!(first, second, "per-shard runs with one seed diverged");
    assert_eq!(history_a, history_b);
    // The flush schedule must actually diverge the trajectory from the
    // unflushed run — otherwise the vector clock under test never diverged.
    let (unflushed, _) = make(0);
    assert_ne!(
        first, unflushed,
        "per-shard digest must differ from the unflushed run"
    );
}

#[test]
fn chaos_digests_are_stable() {
    pin_threads();
    // The fault-injection harness joins the determinism contract: a seeded
    // chaos plan (10% dropped requests, 10% dropped results, 5% duplicates,
    // 5% three-round stragglers, one crash-restart) must be bit-stable for a
    // fixed seed — across repeated runs in-process here, and across
    // FLEET_NUM_THREADS=1/4/7 via the digest lines
    // `scripts/ci.sh` compares against scripts/expected_digests.txt. Fault
    // decisions are stateless hashes of (seed, round, worker), so the chaos
    // trajectory is a pure function of the config.
    let (train, test, users) = small_world(800, 12, 5);
    // The `l` runs flush nothing; the `p` runs flush every other round over
    // 4 shards.
    let make = |flush_every: usize, fault_seed: u64| {
        let mut cfg = config(4, None);
        cfg.faults = FaultPlan::chaos(fault_seed);
        if flush_every > 0 {
            cfg.core.shards = 4;
            cfg.flush_every = flush_every;
        }
        let sim = AsyncSimulation::new(&train, &test, &users, cfg);
        let mut model = small_model(2);
        let history = sim.run(&mut model, AdaSgd::new(10, 99.7));
        (digest(&model.parameters()), history)
    };

    // The fault-free reference the chaos runs must diverge from.
    let clean = {
        let sim = AsyncSimulation::new(&train, &test, &users, config(4, None));
        let mut model = small_model(2);
        sim.run(&mut model, AdaSgd::new(10, 99.7));
        digest(&model.parameters())
    };

    for (name, flush_every, fault_seed) in [
        ("chaos-l1", 0, 1u64),
        ("chaos-p1", 2, 1),
        ("chaos-l2", 0, 2),
        ("chaos-p2", 2, 2),
    ] {
        let (first, history_a) = make(flush_every, fault_seed);
        println!(
            "{name} digest: {first:#018x} (threads={})",
            fleet_parallel::max_threads()
        );
        let (second, history_b) = make(flush_every, fault_seed);
        assert_eq!(first, second, "{name}: chaos runs with one seed diverged");
        assert_eq!(history_a, history_b);
        assert_ne!(first, clean, "{name}: the fault plan must perturb the run");
        // The plan must actually have fired — otherwise the digest pins a
        // silently fault-free run.
        let stats = history_a.faults;
        assert!(stats.dropped_requests > 0, "{name}: {stats:?}");
        assert!(stats.dropped_results > 0, "{name}: {stats:?}");
        assert!(stats.duplicates_rejected > 0, "{name}: {stats:?}");
        assert!(stats.delayed_delivered > 0, "{name}: {stats:?}");
    }
}

#[test]
fn cnn_training_digest_is_stable() {
    pin_threads();
    // A small CNN training loop (conv + pool + dense, forward and backward)
    // so the im2col convolution path joins the cross-thread
    // bit-stability contract: `scripts/ci.sh` reruns this binary under
    // FLEET_NUM_THREADS=1/4/7 and compares the digest
    // this test prints. The conv layer and the kernels run on the calling
    // thread, so the digest pins the numeric trajectory of the im2col,
    // pooling and kernel tail paths; the kernels' large packed shapes are
    // covered by `parallel_large_kernels_are_reproducible` below.
    use fleet_ml::models::small_cnn;
    use fleet_ml::Tensor;
    let (batch, size, classes) = (64usize, 16usize, 10usize);
    let x = Tensor::from_vec(
        (0..batch * size * size)
            .map(|i| (i as f32 * 0.013).sin())
            .collect(),
        &[batch, 1, size, size],
    );
    let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
    let train = || {
        let mut model = small_cnn(1, size, classes, 7);
        for _ in 0..4 {
            let (_, grad) = model.compute_gradient(&x, &labels).unwrap();
            model.apply_gradient(&grad, 0.05).unwrap();
        }
        digest(&model.parameters())
    };
    let first = train();
    println!(
        "cnn-train digest: {first:#018x} (threads={})",
        fleet_parallel::max_threads()
    );
    assert_eq!(first, train(), "repeated CNN training runs diverged");
}

#[test]
fn parallel_large_kernels_are_reproducible() {
    pin_threads();
    // 256-cubed runs every kernel layout's packed main panels over many
    // MR-row groups; the kernels read no thread count, so the bits must not
    // move under FLEET_NUM_THREADS either.
    use fleet_ml::Tensor;
    let a = Tensor::from_vec(
        (0..256 * 256).map(|i| (i as f32 * 0.001).sin()).collect(),
        &[256, 256],
    );
    let b = Tensor::from_vec(
        (0..256 * 256).map(|i| (i as f32 * 0.002).cos()).collect(),
        &[256, 256],
    );
    assert_eq!(a.matmul(&b), a.matmul(&b));
    assert_eq!(a.matmul_tn(&b), a.matmul_tn(&b));
    assert_eq!(a.matmul_nt(&b), a.matmul_nt(&b));
}
