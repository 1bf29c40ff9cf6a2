//! Figure 12: I-Prof vs MAUI against the 3-second computation-time SLO over
//! the 21 AWS Device Farm devices. A round-robin dispatcher alternates each
//! device's requests between the two profilers (as in the paper), and we
//! report the per-request computation times, the deviation CDF and the
//! proposed mini-batch sizes.

use crate::experiments::common::profiler_training_profiles;
use crate::{ExperimentWriter, Scale};
use fleet_device::profile::aws_device_farm_set;
use fleet_device::Device;
use fleet_profiler::{
    collect_calibration, pretrained_iprof, pretrained_maui, DeviationStats, Slo, WorkloadProfiler,
};

/// Runs the computation-time-SLO comparison.
pub fn run(scale: Scale) {
    let mut out = ExperimentWriter::new("fig12_iprof_latency");
    out.comment("Figure 12: I-Prof vs MAUI, computation-time SLO = 3 s, 21 AWS devices");
    let slo = Slo::paper_latency_default();
    let slo_seconds = slo.computation_seconds.unwrap_or(3.0);

    // Offline bootstrap on disjoint training devices (batch sweep up to 2x SLO).
    let calibration = collect_calibration(&profiler_training_profiles(), slo, 8, 40, 101);
    let mut iprof = pretrained_iprof(slo, &calibration);
    let mut maui = pretrained_maui(slo, &calibration);

    let requests_per_device = scale.pick(6, 14);
    let mut iprof_latencies = Vec::new();
    let mut maui_latencies = Vec::new();

    out.row("profiler,device,request,batch_size,computation_seconds,deviation_seconds");
    for (device_index, profile) in aws_device_farm_set().into_iter().enumerate() {
        // Two device replicas so both profilers see the same hardware state
        // trajectory independently.
        let mut device_for_iprof = Device::new(profile.clone(), 500 + device_index as u64);
        let mut device_for_maui = Device::new(profile.clone(), 500 + device_index as u64);
        for request in 0..requests_per_device {
            for (which, profiler, device, sink) in [
                (
                    "I-Prof",
                    &mut iprof as &mut dyn WorkloadProfiler,
                    &mut device_for_iprof,
                    &mut iprof_latencies,
                ),
                (
                    "MAUI",
                    &mut maui as &mut dyn WorkloadProfiler,
                    &mut device_for_maui,
                    &mut maui_latencies,
                ),
            ] {
                let features = device.features();
                let batch = profiler.predict(&profile.name, &features);
                let exec = device.execute_task(batch);
                profiler.observe(
                    &profile.name,
                    &features,
                    batch,
                    exec.computation_seconds,
                    exec.energy_pct,
                );
                sink.push(exec.computation_seconds);
                out.row(format!(
                    "{which},{},{request},{batch},{:.4},{:.4}",
                    profile.name,
                    exec.computation_seconds,
                    (exec.computation_seconds - slo_seconds).abs()
                ));
                device.idle(120.0);
            }
        }
    }

    let iprof_stats = DeviationStats::from_measurements(&iprof_latencies, slo_seconds);
    let maui_stats = DeviationStats::from_measurements(&maui_latencies, slo_seconds);
    out.comment(format!(
        "I-Prof deviation: p50={:.3}s p90={:.3}s max={:.3}s over {} tasks (paper p90: 0.75 s)",
        iprof_stats.p50, iprof_stats.p90, iprof_stats.max, iprof_stats.count
    ));
    out.comment(format!(
        "MAUI deviation: p50={:.3}s p90={:.3}s max={:.3}s over {} tasks (paper p90: 2.7 s)",
        maui_stats.p50, maui_stats.p90, maui_stats.max, maui_stats.count
    ));
    out.finish();
}
