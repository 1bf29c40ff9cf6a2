//! Staleness awareness: AdaSGD vs DynSGD vs FedAvg vs the synchronous ideal
//! under controlled staleness (the Fig. 8 setting, at example scale).
//!
//! Run with: `cargo run --release -p fleet-examples --example staleness_awareness`

use fleet_bench::{AsyncSimulation, SimulationConfig, StalenessDistribution};
use fleet_core::{AdaSgd, Aggregator, DynSgd, FedAvg, Ssgd};
use fleet_data::partition::non_iid_shards;
use fleet_data::synthetic::{generate, SyntheticSpec};
use fleet_ml::models::mlp_classifier;

fn main() {
    let data = generate(&SyntheticSpec::vector(10, 32, 4000), 3);
    let (train, test) = data.split(0.2);
    let users = non_iid_shards(&train, 50, 2, 4);

    let config = SimulationConfig::builder()
        .steps(800)
        .learning_rate(0.03)
        .batch_size(50)
        .staleness(StalenessDistribution::Gaussian {
            mean: 12.0,
            std: 4.0,
        })
        .eval_every(100)
        .eval_examples(600)
        .seed(5)
        .build()
        .expect("simulation config is valid");
    println!(
        "Non-IID data over {} users, staleness ~ N(12, 4), {} steps\n",
        users.len(),
        config.steps
    );

    let mut results = Vec::new();
    run(
        &train,
        &test,
        &users,
        &config,
        AdaSgd::new(10, 99.7),
        &mut results,
    );
    run(&train, &test, &users, &config, DynSgd::new(), &mut results);
    run(&train, &test, &users, &config, FedAvg::new(), &mut results);
    let mut sync_config = config.clone();
    sync_config.staleness = StalenessDistribution::None;
    run(
        &train,
        &test,
        &users,
        &sync_config,
        Ssgd::new(),
        &mut results,
    );

    println!("\nalgorithm | final accuracy | best accuracy");
    for (name, final_acc, best) in results {
        println!("{name:9} |     {final_acc:.3}      |    {best:.3}");
    }
}

fn run<A: Aggregator>(
    train: &fleet_data::Dataset,
    test: &fleet_data::Dataset,
    users: &[Vec<usize>],
    config: &SimulationConfig,
    aggregator: A,
    results: &mut Vec<(&'static str, f32, f32)>,
) {
    let name = aggregator.name();
    let partition: Vec<Vec<usize>> = users.to_vec();
    let sim = AsyncSimulation::new(train, test, &partition, config.clone());
    let mut model = mlp_classifier(32, &[32], 10, 9);
    let history = sim.run(&mut model, aggregator);
    print!("{name}: ");
    for eval in &history.evals {
        print!("{:.2}@{} ", eval.accuracy, eval.step);
    }
    println!();
    results.push((name, history.final_accuracy(), history.best_accuracy()));
}
