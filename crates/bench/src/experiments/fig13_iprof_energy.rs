//! Figure 13: I-Prof vs MAUI against the energy SLO of 0.075 % battery drop
//! per learning task, on the 5 lab devices.

use crate::experiments::common::profiler_training_profiles;
use crate::{ExperimentWriter, Scale};
use fleet_device::profile::lab_device_set;
use fleet_device::Device;
use fleet_profiler::{
    collect_calibration, pretrained_iprof, pretrained_maui, DeviationStats, Slo, WorkloadProfiler,
};

/// Runs the energy-SLO comparison.
pub fn run(scale: Scale) {
    let mut out = ExperimentWriter::new("fig13_iprof_energy");
    out.comment("Figure 13: I-Prof vs MAUI, energy SLO = 0.075% battery, 5 lab devices");
    let slo = Slo::paper_energy_default();
    let slo_energy = slo.energy_pct.unwrap_or(0.075);

    let calibration =
        collect_calibration(&profiler_training_profiles(), Slo::latency(3.0), 8, 40, 202);
    let mut iprof = pretrained_iprof(slo, &calibration);
    let mut maui = pretrained_maui(slo, &calibration);

    let requests_per_device = scale.pick(4, 8);
    let mut iprof_energy = Vec::new();
    let mut maui_energy = Vec::new();

    out.row("profiler,device,request,batch_size,energy_pct,deviation_pct");
    for (device_index, profile) in lab_device_set().into_iter().enumerate() {
        let mut device_for_iprof = Device::new(profile.clone(), 900 + device_index as u64);
        let mut device_for_maui = Device::new(profile.clone(), 900 + device_index as u64);
        for request in 0..requests_per_device {
            for (which, profiler, device, sink) in [
                (
                    "I-Prof",
                    &mut iprof as &mut dyn WorkloadProfiler,
                    &mut device_for_iprof,
                    &mut iprof_energy,
                ),
                (
                    "MAUI",
                    &mut maui as &mut dyn WorkloadProfiler,
                    &mut device_for_maui,
                    &mut maui_energy,
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
                sink.push(exec.energy_pct);
                out.row(format!(
                    "{which},{},{request},{batch},{:.5},{:.5}",
                    profile.name,
                    exec.energy_pct,
                    (exec.energy_pct - slo_energy).abs()
                ));
                device.idle(120.0);
            }
        }
    }

    let iprof_stats = DeviationStats::from_measurements(&iprof_energy, slo_energy);
    let maui_stats = DeviationStats::from_measurements(&maui_energy, slo_energy);
    out.comment(format!(
        "I-Prof energy deviation: p50={:.4}% p90={:.4}% max={:.4}% over {} tasks (paper p90: 0.01%)",
        iprof_stats.p50, iprof_stats.p90, iprof_stats.max, iprof_stats.count
    ));
    out.comment(format!(
        "MAUI energy deviation: p50={:.4}% p90={:.4}% max={:.4}% over {} tasks (paper p90: 0.19%)",
        maui_stats.p50, maui_stats.p90, maui_stats.max, maui_stats.count
    ));
    out.finish();
}
