//! Micro-benchmarks of the I-Prof and MAUI hot paths: one prediction and one
//! observation per learning task (the paper stresses that the profiler must
//! add negligible latency to each request).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fleet_device::DeviceFeatures;
use fleet_profiler::{
    collect_calibration, pretrained_iprof, pretrained_maui, Slo, WorkloadProfiler,
};

fn profiler_benches(c: &mut Criterion) {
    let profiles = fleet_device::profile::catalogue();
    let calibration = collect_calibration(&profiles[..10], Slo::latency(3.0), 8, 30, 1);
    let features = DeviceFeatures::default();

    c.bench_function("iprof_predict", |b| {
        let mut iprof = pretrained_iprof(Slo::latency(3.0), &calibration);
        b.iter(|| black_box(iprof.predict("Galaxy S7", &features)));
    });

    c.bench_function("iprof_predict_and_observe", |b| {
        let mut iprof = pretrained_iprof(Slo::latency(3.0), &calibration);
        b.iter(|| {
            let n = iprof.predict("Galaxy S7", &features);
            iprof.observe("Galaxy S7", &features, n, 3.1, 0.05);
            black_box(n)
        });
    });

    c.bench_function("maui_predict_and_observe", |b| {
        let mut maui = pretrained_maui(Slo::latency(3.0), &calibration);
        b.iter(|| {
            let n = maui.predict("Galaxy S7", &features);
            maui.observe("Galaxy S7", &features, n, 3.1, 0.05);
            black_box(n)
        });
    });

    c.bench_function("calibration_collection_5_devices", |b| {
        b.iter(|| {
            black_box(collect_calibration(
                &profiles[..5],
                Slo::latency(3.0),
                8,
                20,
                2,
            ))
        });
    });
}

criterion_group!(benches, profiler_benches);
criterion_main!(benches);
