//! Cross-crate integration tests of the staleness-aware learning algorithms
//! under the asynchronous simulation engine (the §3.2 experiments at test
//! scale), and of the per-shard vector-clock staleness attribution.

use fleet_bench::{AsyncSimulation, SimulationConfig, StalenessDistribution, TrainingHistory};
use fleet_core::{AdaSgd, ApplyMode, DynSgd, FedAvg, ParameterServer, Ssgd, WorkerUpdate};
use fleet_tests::{small_model, small_world};

fn run_with(
    staleness: StalenessDistribution,
    steps: usize,
    run: impl FnOnce(&AsyncSimulation) -> TrainingHistory,
) -> TrainingHistory {
    let (train, test, users) = small_world(2000, 40, 11);
    let config = SimulationConfig::builder()
        .steps(steps)
        .learning_rate(0.05)
        .batch_size(40)
        .staleness(staleness)
        .eval_every(steps / 4)
        .eval_examples(400)
        .seed(21)
        .build()
        .expect("staleness config is valid");
    let sim = AsyncSimulation::new(&train, &test, &users, config);
    run(&sim)
}

#[test]
fn synchronous_baseline_converges() {
    let history = run_with(StalenessDistribution::None, 500, |sim| {
        sim.run(&mut small_model(1), Ssgd::new())
    });
    assert!(
        history.best_accuracy() > 0.45,
        "SSGD should converge, got {}",
        history.best_accuracy()
    );
}

#[test]
fn staleness_hurts_but_dampening_helps() {
    let heavy = StalenessDistribution::Gaussian {
        mean: 12.0,
        std: 4.0,
    };
    let steps = 500;
    let ssgd = run_with(StalenessDistribution::None, steps, |sim| {
        sim.run(&mut small_model(1), Ssgd::new())
    });
    let ada = run_with(heavy, steps, |sim| {
        sim.run(&mut small_model(1), AdaSgd::new(10, 99.7))
    });
    let fed = run_with(heavy, steps, |sim| {
        sim.run(&mut small_model(1), FedAvg::new())
    });

    // The ideal staleness-free run is the upper bound.
    assert!(ssgd.best_accuracy() >= ada.best_accuracy() - 0.05);
    // The staleness-aware algorithm should not be (meaningfully) worse than
    // the unaware one.
    assert!(
        ada.best_accuracy() >= fed.best_accuracy() - 0.05,
        "AdaSGD {} vs FedAvg {}",
        ada.best_accuracy(),
        fed.best_accuracy()
    );
}

/// Per-shard staleness regression: a scripted schedule in which two shards
/// diverge by more than one clock tick must produce per-shard τ values (and
/// dampening weights) that differ from the lockstep run — asserted exactly.
#[test]
fn per_shard_staleness_diverges_from_lockstep_exactly() {
    use fleet_data::LabelDistribution;
    use fleet_ml::Gradient;

    let update = |staleness: u64| {
        WorkerUpdate::new(
            Gradient::from_vec(vec![1.0; 4]),
            staleness,
            LabelDistribution::uniform(4),
            10,
            0,
        )
    };
    let make = |mode: ApplyMode| {
        ParameterServer::new(vec![0.0; 4], DynSgd::new(), 1.0, 3)
            .with_shards(2)
            .with_apply_mode(mode)
    };

    // The scripted schedule: three submissions, all computed against the
    // same read snapshot (vector clock [0, 0]); shard 0 is flushed after
    // each of the first two, so its clock runs 2 ticks ahead of shard 1's
    // by the third submission.
    let mut per_shard = make(ApplyMode::PerShard);
    per_shard.submit(update(0).with_read_clock(vec![0, 0]));
    per_shard.flush_shard(0);
    per_shard.submit(update(0).with_read_clock(vec![0, 0]));
    per_shard.flush_shard(0);
    assert_eq!(per_shard.shard_clocks(), vec![2, 0], "diverged by 2 ticks");
    per_shard.submit(update(0).with_read_clock(vec![0, 0]));

    // Per-shard τ at the third submission: shard 0 applied twice since the
    // read, shard 1 never. DynSGD weights are exactly 1/(τ_s + 1).
    assert_eq!(per_shard.last_shard_staleness(), &[2, 0]);
    assert_eq!(
        per_shard.last_shard_weights(),
        &[(1.0f64 / 3.0) as f32, 1.0]
    );

    // The lockstep run of the *same* submissions sees scalar staleness 0
    // everywhere: weight 1 for every gradient on every shard, applied on the
    // K=3rd submission.
    let mut lockstep = make(ApplyMode::Lockstep);
    for _ in 0..3 {
        let outcome = lockstep.submit(update(0));
        assert_eq!(outcome.applied_weight, 1.0);
    }
    assert_eq!(lockstep.parameters(), &[-3.0; 4]);

    // The per-shard trajectory differs: shard 1's range matches lockstep
    // (its clock never diverged), shard 0's does not — its second gradient
    // was dampened at τ=1 (weight 1/2) and its third (τ=2, weight 1/3) is
    // still pending at this point of the schedule.
    assert_eq!(&per_shard.parameters()[2..4], &[-3.0, -3.0]);
    assert_eq!(&per_shard.parameters()[0..2], &[-1.5, -1.5]);
    per_shard.flush();
    let expected = -1.5 - (1.0f64 / 3.0) as f32;
    assert_eq!(&per_shard.parameters()[0..2], &[expected, expected]);
    assert_ne!(per_shard.parameters(), lockstep.parameters());
}

#[test]
fn adasgd_and_dynsgd_dampen_stale_updates_differently() {
    let heavy = StalenessDistribution::Constant(24);
    let ada = run_with(heavy, 200, |sim| {
        sim.run(&mut small_model(2), AdaSgd::new(10, 99.7))
    });
    let dyn_ = run_with(heavy, 200, |sim| {
        sim.run(&mut small_model(2), DynSgd::new())
    });
    // With constant staleness 24, DynSGD's weight is exactly 1/25 once the
    // run is past its warm-up (staleness is clamped to the clock early on);
    // AdaSGD's exponential dampening plus boosting gives a different profile.
    let dyn_late = *dyn_.scaling_factors.last().unwrap();
    assert!((dyn_late - 1.0 / 25.0).abs() < 1e-9, "got {dyn_late}");
    let ada_late = *ada.scaling_factors.last().unwrap();
    assert!(ada_late > 0.0 && ada_late <= 1.0);
    assert!((ada_late - dyn_late).abs() > 1e-6);
}
