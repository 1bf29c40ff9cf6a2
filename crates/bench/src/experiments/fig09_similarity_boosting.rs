//! Figure 9: long-tail staleness — every gradient touching class 0 is a
//! straggler with staleness 4·τ_thres = 48. AdaSGD's similarity boosting lets
//! the model learn class 0 anyway; DynSGD (no boosting) lags. Also reports
//! the CDF of the gradient scaling factors (Fig. 9b).

use crate::experiments::common;
use crate::{
    AsyncSimulation, ExperimentWriter, Scale, SimulationConfig, StalenessDistribution,
    TrainingHistory,
};
use fleet_core::{AdaSgd, Aggregator, DynSgd, Ssgd};

fn config(scale: Scale) -> SimulationConfig {
    SimulationConfig::builder()
        .steps(scale.pick(400, 2500))
        .learning_rate(0.03)
        .batch_size(scale.pick(50, 100))
        .staleness(StalenessDistribution::d1())
        .class_straggler(0, 48)
        .track_class(0)
        .eval_every(scale.pick(60, 100))
        .eval_examples(800)
        .seed(13)
        .build()
        .expect("fig09 config is valid")
}

fn run_one<A: Aggregator>(world: &common::World, scale: Scale, aggregator: A) -> TrainingHistory {
    let mut cfg = config(scale);
    if aggregator.name() == "SSGD" {
        cfg.staleness = StalenessDistribution::None;
        cfg.class_straggler = None;
    }
    let sim = AsyncSimulation::new(&world.train, &world.test, &world.users, cfg);
    let mut model = common::model(world.train.num_classes(), 2);
    sim.run(&mut model, aggregator)
}

/// Runs the Fig. 9 experiment (class-0 accuracy + dampening-factor CDF).
pub fn run(scale: Scale) {
    let mut out = ExperimentWriter::new("fig09_similarity_boosting");
    out.comment("Figure 9a: accuracy for class 0 when all class-0 gradients have staleness 48");
    let world = common::mnist_non_iid(scale.pick(2000, 6000), 100, 77);

    // τ_thres is pinned to 12 (the D1 value) exactly as in the paper, so the
    // injected 48-step stragglers do not inflate the percentile estimate.
    let runs = vec![
        (
            "AdaSGD".to_string(),
            run_one(
                &world,
                scale,
                AdaSgd::new(10, 99.7).with_fixed_tau_thres(12),
            ),
        ),
        (
            "AdaSGD (no boost)".to_string(),
            run_one(
                &world,
                scale,
                AdaSgd::new(10, 99.7)
                    .with_fixed_tau_thres(12)
                    .without_similarity_boost(),
            ),
        ),
        ("DynSGD".to_string(), run_one(&world, scale, DynSgd::new())),
        (
            "SSGD (ideal)".to_string(),
            run_one(&world, scale, Ssgd::new()),
        ),
    ];

    out.row("algorithm,step,class0_accuracy,overall_accuracy");
    for (name, history) in &runs {
        for e in &history.evals {
            out.row(format!(
                "{name},{},{:.4},{:.4}",
                e.step,
                e.class_accuracy.unwrap_or(0.0),
                e.accuracy
            ));
        }
    }

    out.comment("Figure 9b: CDF of the gradient scaling factors");
    out.row("algorithm,scaling_factor_percentile,scaling_factor");
    for (name, history) in &runs {
        if name.starts_with("SSGD") {
            continue;
        }
        let mut factors = history.scaling_factors.clone();
        factors.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        for pct in [1, 5, 10, 25, 50, 75, 90, 95, 99] {
            let idx = ((pct as f64 / 100.0) * (factors.len().saturating_sub(1)) as f64) as usize;
            if let Some(f) = factors.get(idx) {
                out.row(format!("{name},{pct},{f:.5}"));
            }
        }
    }
    out.finish();
}
