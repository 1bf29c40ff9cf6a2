//! I-Prof in action: predicting per-device mini-batch sizes so that every
//! learning task lands close to a 3-second computation-time SLO, compared
//! with the MAUI baseline (the Fig. 12 setting, at example scale).
//!
//! Run with: `cargo run -p fleet-examples --example profiler_slo`

use fleet_device::profile::{aws_device_farm_set, catalogue};
use fleet_device::Device;
use fleet_profiler::{
    collect_calibration, pretrained_iprof, pretrained_maui, DeviationStats, Slo, WorkloadProfiler,
};

fn main() {
    let slo = Slo::latency(3.0);
    println!("SLO: every learning task should take ~3 seconds of computation.\n");

    // Offline calibration on a handful of training devices.
    let training: Vec<_> = catalogue().into_iter().take(10).collect();
    let calibration = collect_calibration(&training, slo, 8, 40, 1);
    println!(
        "Collected {} calibration tasks on {} training devices.",
        calibration.len(),
        training.len()
    );

    let mut iprof = pretrained_iprof(slo, &calibration);
    let mut maui = pretrained_maui(slo, &calibration);

    let mut iprof_latencies = Vec::new();
    let mut maui_latencies = Vec::new();
    println!("\ndevice                | profiler | batch | seconds");
    for profile in aws_device_farm_set().into_iter().take(8) {
        let mut device_i = Device::new(profile.clone(), 11);
        let mut device_m = Device::new(profile.clone(), 11);
        for _ in 0..5 {
            let f = device_i.features();
            let n = iprof.predict(&profile.name, &f);
            let exec = device_i.execute_task(n);
            iprof.observe(
                &profile.name,
                &f,
                n,
                exec.computation_seconds,
                exec.energy_pct,
            );
            iprof_latencies.push(exec.computation_seconds);

            let fm = device_m.features();
            let nm = maui.predict(&profile.name, &fm);
            let em = device_m.execute_task(nm);
            maui.observe(
                &profile.name,
                &fm,
                nm,
                em.computation_seconds,
                em.energy_pct,
            );
            maui_latencies.push(em.computation_seconds);

            device_i.idle(60.0);
            device_m.idle(60.0);
        }
        println!(
            "{:21} | I-Prof   | {:5} | {:.2}",
            profile.name,
            iprof
                .predict_batch(&profile.name, &device_i.features())
                .batch_size,
            iprof_latencies.last().unwrap()
        );
        println!(
            "{:21} | MAUI     | {:5} | {:.2}",
            profile.name,
            maui.predict(&profile.name, &device_m.features()),
            maui_latencies.last().unwrap()
        );
    }

    let iprof_stats = DeviationStats::from_measurements(&iprof_latencies, 3.0);
    let maui_stats = DeviationStats::from_measurements(&maui_latencies, 3.0);
    println!("\n90th-percentile deviation from the 3 s SLO:");
    println!("  I-Prof: {:.2} s   (paper: 0.75 s)", iprof_stats.p90);
    println!("  MAUI  : {:.2} s   (paper: 2.70 s)", maui_stats.p90);
}
