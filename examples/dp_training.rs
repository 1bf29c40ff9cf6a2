//! Differentially private Online FL: clip and perturb every worker gradient
//! with the Gaussian mechanism, and watch how stronger privacy (smaller ε)
//! slows convergence while AdaSGD keeps its edge over DynSGD (Fig. 11).
//!
//! Run with: `cargo run --release -p fleet-examples --example dp_training`

use fleet_bench::{AsyncSimulation, SimulationConfig, StalenessDistribution};
use fleet_core::{AdaSgd, DynSgd};
use fleet_data::partition::iid_partition;
use fleet_data::synthetic::{generate, SyntheticSpec};
use fleet_dp::MomentsAccountant;
use fleet_ml::models::mlp_classifier;

fn main() {
    let data = generate(&SyntheticSpec::vector(10, 32, 4000), 9);
    let (train, test) = data.split(0.2);
    let users = iid_partition(&train, 50, 1);

    let steps = 600u64;
    let accountant = MomentsAccountant::paper_mnist_defaults();
    let scenarios = [
        ("no DP".to_string(), None),
        (
            format!(
                "eps=13.66 (sigma={:.2})",
                accountant.noise_for_epsilon(13.66, steps)
            ),
            Some((1.0f32, accountant.noise_for_epsilon(13.66, steps) as f32)),
        ),
        (
            format!(
                "eps=1.75 (sigma={:.2})",
                accountant.noise_for_epsilon(1.75, steps)
            ),
            Some((1.0f32, accountant.noise_for_epsilon(1.75, steps) as f32)),
        ),
    ];

    println!("privacy               | algorithm | final accuracy");
    for (label, dp) in scenarios {
        for which in ["AdaSGD", "DynSGD"] {
            let mut builder = SimulationConfig::builder()
                .steps(steps as usize)
                .learning_rate(0.05)
                .batch_size(50)
                .staleness(StalenessDistribution::Gaussian {
                    mean: 12.0,
                    std: 4.0,
                })
                .eval_every(200)
                .eval_examples(600)
                .seed(17);
            if let Some((clip_norm, noise_multiplier)) = dp {
                builder = builder.dp(clip_norm, noise_multiplier);
            }
            let config = builder.build().expect("dp config is valid");
            let sim = AsyncSimulation::new(&train, &test, &users, config);
            let mut model = mlp_classifier(32, &[32], 10, 4);
            let history = if which == "AdaSGD" {
                sim.run(&mut model, AdaSgd::new(10, 99.7))
            } else {
                sim.run(&mut model, DynSgd::new())
            };
            println!("{label:21} | {which:9} | {:.3}", history.final_accuracy());
        }
    }
    println!("\nSmaller epsilon (stronger privacy) means more noise and slower convergence.");
}
