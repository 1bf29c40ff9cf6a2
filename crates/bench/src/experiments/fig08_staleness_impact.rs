//! Figure 8: impact of staleness on learning — AdaSGD vs DynSGD under
//! D1 = N(6,2) and D2 = N(12,4), plus the FedAvg (staleness-unaware) and
//! SSGD (staleness-free) baselines, on non-IID data.

use crate::experiments::common;
use crate::{
    AsyncSimulation, ExperimentWriter, Scale, SimulationConfig, StalenessDistribution,
    TrainingHistory,
};
use fleet_core::{AdaSgd, Aggregator, DynSgd, FedAvg, Ssgd};

fn config(scale: Scale, staleness: StalenessDistribution, seed: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .steps(scale.pick(400, 2500))
        .learning_rate(0.03)
        .batch_size(scale.pick(50, 100))
        .aggregation_k(1)
        .staleness(staleness)
        .eval_every(scale.pick(60, 100))
        .eval_examples(800)
        .seed(seed)
        .build()
        .expect("fig08 config is valid")
}

fn run_one<A: Aggregator>(
    world: &common::World,
    scale: Scale,
    staleness: StalenessDistribution,
    aggregator: A,
) -> TrainingHistory {
    let sim = AsyncSimulation::new(
        &world.train,
        &world.test,
        &world.users,
        config(scale, staleness, 5),
    );
    let mut model = common::model(world.train.num_classes(), 1);
    sim.run(&mut model, aggregator)
}

/// Runs the Fig. 8 comparison and writes accuracy-vs-step series.
pub fn run(scale: Scale) {
    let mut out = ExperimentWriter::new("fig08_staleness_impact");
    out.comment("Figure 8: accuracy vs steps on non-IID data under controlled staleness");
    let world = common::mnist_non_iid(scale.pick(2000, 6000), 100, 42);

    let runs: Vec<(String, TrainingHistory)> = vec![
        (
            "SSGD (ideal)".to_string(),
            run_one(&world, scale, StalenessDistribution::None, Ssgd::new()),
        ),
        (
            "AdaSGD (mu=6)".to_string(),
            run_one(
                &world,
                scale,
                StalenessDistribution::d1(),
                AdaSgd::new(10, 99.7),
            ),
        ),
        (
            "DynSGD (mu=6)".to_string(),
            run_one(&world, scale, StalenessDistribution::d1(), DynSgd::new()),
        ),
        (
            "AdaSGD (mu=12)".to_string(),
            run_one(
                &world,
                scale,
                StalenessDistribution::d2(),
                AdaSgd::new(10, 99.7),
            ),
        ),
        (
            "DynSGD (mu=12)".to_string(),
            run_one(&world, scale, StalenessDistribution::d2(), DynSgd::new()),
        ),
        (
            "FedAvg (mu=12)".to_string(),
            run_one(&world, scale, StalenessDistribution::d2(), FedAvg::new()),
        ),
    ];

    out.row("algorithm,step,accuracy");
    for (name, history) in &runs {
        for e in &history.evals {
            out.row(format!("{name},{},{:.4}", e.step, e.accuracy));
        }
    }
    // Convergence-speed summary (the paper reports AdaSGD reaching 80% 14.4%
    // faster than DynSGD under D1 and 18.4% faster under D2).
    let target = runs
        .iter()
        .map(|(_, h)| h.best_accuracy())
        .fold(f32::INFINITY, f32::min)
        .max(0.5)
        * 0.95;
    for (name, history) in &runs {
        let steps = history
            .steps_to_accuracy(target)
            .map(|s| s.to_string())
            .unwrap_or_else(|| "never".to_string());
        out.comment(format!(
            "{name}: final={:.4} best={:.4} steps_to_{target:.2}={steps}",
            history.final_accuracy(),
            history.best_accuracy()
        ));
    }
    out.finish();
}
