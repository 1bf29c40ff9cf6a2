//! Figure 10: staleness awareness with IID data — E-MNIST-like (62 classes)
//! and CIFAR-100-like (100 classes) stand-ins under D2 staleness.

use crate::experiments::common;
use crate::{
    AsyncSimulation, ExperimentWriter, Scale, SimulationConfig, StalenessDistribution,
    TrainingHistory,
};
use fleet_core::{AdaSgd, Aggregator, DynSgd, FedAvg, Ssgd};

fn run_one<A: Aggregator>(
    world: &common::World,
    scale: Scale,
    staleness: StalenessDistribution,
    aggregator: A,
) -> TrainingHistory {
    let cfg = SimulationConfig::builder()
        .steps(scale.pick(400, 3000))
        .learning_rate(0.2)
        .batch_size(scale.pick(32, 100))
        .staleness(staleness)
        .eval_every(scale.pick(60, 150))
        .eval_examples(1000)
        .seed(3)
        .build()
        .expect("fig10 config is valid");
    let sim = AsyncSimulation::new(&world.train, &world.test, &world.users, cfg);
    let mut model = common::model(world.train.num_classes(), 4);
    sim.run(&mut model, aggregator)
}

/// Runs the IID comparison on the two many-class datasets.
pub fn run(scale: Scale) {
    let mut out = ExperimentWriter::new("fig10_iid_data");
    out.comment("Figure 10: staleness awareness with IID data (D2 staleness)");
    out.row("dataset,algorithm,step,accuracy");

    let datasets = [
        ("E-MNIST-like", 62usize, scale.pick(2500, 12_000)),
        ("CIFAR-100-like", 100usize, scale.pick(3000, 15_000)),
    ];
    for (name, classes, examples) in datasets {
        let world = common::many_class_iid(classes, examples, 100, 91);
        let runs = vec![
            (
                "SSGD (ideal)",
                run_one(&world, scale, StalenessDistribution::None, Ssgd::new()),
            ),
            (
                "AdaSGD",
                run_one(
                    &world,
                    scale,
                    StalenessDistribution::d2(),
                    AdaSgd::new(classes, 99.7),
                ),
            ),
            (
                "DynSGD",
                run_one(&world, scale, StalenessDistribution::d2(), DynSgd::new()),
            ),
            (
                "FedAvg",
                run_one(&world, scale, StalenessDistribution::d2(), FedAvg::new()),
            ),
        ];
        for (alg, history) in &runs {
            for e in &history.evals {
                out.row(format!("{name},{alg},{},{:.4}", e.step, e.accuracy));
            }
            out.comment(format!(
                "{name} {alg}: final={:.4}",
                history.final_accuracy()
            ));
        }
    }
    out.finish();
}
