//! Throughput of the asynchronous training simulation (global steps per
//! second), which bounds how fast the Figs. 8–11 experiments run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fleet_bench::{AsyncSimulation, SimulationConfig, StalenessDistribution};
use fleet_core::AdaSgd;
use fleet_data::partition::non_iid_shards;
use fleet_data::synthetic::{generate, SyntheticSpec};
use fleet_ml::models::mlp_classifier;

fn simulation_benches(c: &mut Criterion) {
    let data = generate(&SyntheticSpec::vector(10, 32, 2000), 1);
    let (train, test) = data.split(0.2);
    let users = non_iid_shards(&train, 50, 2, 2);

    c.bench_function("async_simulation_100_steps_adasgd", |b| {
        b.iter(|| {
            let cfg = SimulationConfig::builder()
                .steps(100)
                .batch_size(32)
                .staleness(StalenessDistribution::d1())
                .eval_every(1000)
                .seed(3)
                .build()
                .expect("bench config is valid");
            let sim = AsyncSimulation::new(&train, &test, &users, cfg);
            let mut model = mlp_classifier(32, &[32], 10, 0);
            black_box(sim.run(&mut model, AdaSgd::new(10, 99.7)))
        });
    });

    c.bench_function("async_simulation_50_steps_k4_parallel", |b| {
        b.iter(|| {
            let cfg = SimulationConfig::builder()
                .steps(50)
                .batch_size(32)
                .aggregation_k(4)
                .staleness(StalenessDistribution::d1())
                .eval_every(1000)
                .seed(3)
                .build()
                .expect("bench config is valid");
            let sim = AsyncSimulation::new(&train, &test, &users, cfg);
            let mut model = mlp_classifier(32, &[32], 10, 0);
            black_box(sim.run(&mut model, AdaSgd::new(10, 99.7)))
        });
    });

    c.bench_function("async_simulation_50_steps_k4_sharded8", |b| {
        b.iter(|| {
            let cfg = SimulationConfig::builder()
                .steps(50)
                .batch_size(32)
                .aggregation_k(4)
                .shards(8)
                .staleness(StalenessDistribution::d1())
                .eval_every(1000)
                .seed(3)
                .build()
                .expect("bench config is valid");
            let sim = AsyncSimulation::new(&train, &test, &users, cfg);
            let mut model = mlp_classifier(32, &[32], 10, 0);
            black_box(sim.run(&mut model, AdaSgd::new(10, 99.7)))
        });
    });

    c.bench_function("worker_gradient_batch100", |b| {
        let mut model = mlp_classifier(32, &[32], 10, 0);
        let indices: Vec<usize> = (0..100).collect();
        let (x, y) = train.batch(&indices);
        b.iter(|| black_box(model.compute_gradient(&x, &y).unwrap()));
    });
}

criterion_group!(benches, simulation_benches);
criterion_main!(benches);
