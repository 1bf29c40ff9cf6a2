//! Figure 11: staleness awareness under differential privacy — AdaSGD vs
//! DynSGD with Gaussian-mechanism gradient perturbation at ε = 1.75 and
//! ε = 13.66 (and without noise), on IID data with D2 staleness.

use crate::experiments::common;
use crate::{
    AsyncSimulation, ExperimentWriter, Scale, SimulationConfig, StalenessDistribution,
    TrainingHistory,
};
use fleet_core::{AdaSgd, Aggregator, DynSgd};
use fleet_dp::MomentsAccountant;

fn run_one<A: Aggregator>(
    world: &common::World,
    scale: Scale,
    dp: Option<(f32, f32)>,
    aggregator: A,
) -> TrainingHistory {
    let mut builder = SimulationConfig::builder()
        .steps(scale.pick(300, 2500))
        .learning_rate(0.05)
        .batch_size(scale.pick(32, 100))
        .staleness(StalenessDistribution::d2())
        .eval_every(scale.pick(60, 100))
        .eval_examples(800)
        .seed(8);
    if let Some((clip_norm, noise_multiplier)) = dp {
        builder = builder.dp(clip_norm, noise_multiplier);
    }
    let cfg = builder.build().expect("fig11 config is valid");
    let sim = AsyncSimulation::new(&world.train, &world.test, &world.users, cfg);
    let mut model = common::model(world.train.num_classes(), 6);
    sim.run(&mut model, aggregator)
}

/// Runs the differentially-private comparison.
pub fn run(scale: Scale) {
    let mut out = ExperimentWriter::new("fig11_differential_privacy");
    out.comment("Figure 11: AdaSGD vs DynSGD with differentially-private gradients (IID, D2)");
    let world = common::world(10, scale.pick(2000, 6000), 100, false, 55);

    // Map the paper's epsilons to noise multipliers with the accountant.
    let steps = scale.pick(300u64, 2500);
    let accountant = MomentsAccountant::paper_mnist_defaults();
    let sigma_strong = accountant.noise_for_epsilon(1.75, steps) as f32;
    let sigma_weak = accountant.noise_for_epsilon(13.66, steps) as f32;
    out.comment(format!(
        "noise multipliers: eps=1.75 -> sigma={sigma_strong:.3}, eps=13.66 -> sigma={sigma_weak:.3}"
    ));
    let clip = 1.0;

    let configs: Vec<(String, Option<(f32, f32)>)> = vec![
        ("no DP".to_string(), None),
        ("eps=13.66".to_string(), Some((clip, sigma_weak))),
        ("eps=1.75".to_string(), Some((clip, sigma_strong))),
    ];

    out.row("algorithm,privacy,step,accuracy");
    for (privacy, dp) in &configs {
        let ada = run_one(&world, scale, *dp, AdaSgd::new(10, 99.7));
        let dyn_ = run_one(&world, scale, *dp, DynSgd::new());
        for (alg, history) in [("AdaSGD", &ada), ("DynSGD", &dyn_)] {
            for e in &history.evals {
                out.row(format!("{alg},{privacy},{},{:.4}", e.step, e.accuracy));
            }
            out.comment(format!(
                "{alg} {privacy}: final={:.4}",
                history.final_accuracy()
            ));
        }
    }
    out.finish();
}
