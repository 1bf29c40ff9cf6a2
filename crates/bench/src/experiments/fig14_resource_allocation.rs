//! Figure 14: FLeet's static big-cores-only allocation vs CALOREE trained on
//! the same device (the ideal setup for CALOREE), with the CALOREE deadline
//! set to 1x and 2x the FLeet computation time. The metric is energy per
//! learning task.

use crate::experiments::common::profiler_training_profiles;
use crate::{ExperimentWriter, Scale};
use fleet_device::profile::lab_device_set;
use fleet_device::{Caloree, Device};
use fleet_profiler::{collect_calibration, pretrained_iprof, Slo, WorkloadProfiler};

/// Runs the resource-allocation comparison on the 5 lab devices.
pub fn run(scale: Scale) {
    let mut out = ExperimentWriter::new("fig14_resource_allocation");
    out.comment("Figure 14: energy per task — FLeet allocation vs CALOREE (same-device training)");
    let repeats = scale.pick(3, 10);

    // The workload size per device is what I-Prof proposes for the 3 s SLO.
    let slo = Slo::paper_latency_default();
    let calibration = collect_calibration(&profiler_training_profiles(), slo, 8, 40, 404);
    let mut iprof = pretrained_iprof(slo, &calibration);

    out.row("device,batch_size,fleet_energy_pct,caloree_energy_pct,caloree_2x_deadline_energy_pct");
    for (i, profile) in lab_device_set().into_iter().enumerate() {
        let mut device = Device::new(profile.clone(), 600 + i as u64);
        // Let I-Prof converge on this device with a few observation rounds.
        let mut batch = 0usize;
        for _ in 0..4 {
            let features = device.features();
            batch = iprof.predict(&profile.name, &features);
            let exec = device.execute_task(batch);
            iprof.observe(
                &profile.name,
                &features,
                batch,
                exec.computation_seconds,
                exec.energy_pct,
            );
            device.idle(300.0);
        }
        // CALOREE trained on this same device (its ideal conditions).
        let caloree = Caloree::trained_on(&mut device, 500);

        let mut fleet_energy = 0.0;
        let mut caloree_energy = 0.0;
        let mut caloree_2x_energy = 0.0;
        let mut deadline = 0.0;
        for _ in 0..repeats {
            device.recharge();
            device.idle(1e4);
            let fleet_exec = device.execute_task(batch);
            fleet_energy += fleet_exec.energy_pct;
            deadline = fleet_exec.computation_seconds;

            device.recharge();
            device.idle(1e4);
            caloree_energy += caloree.run(&mut device, batch, deadline).energy_pct;

            device.recharge();
            device.idle(1e4);
            caloree_2x_energy += caloree.run(&mut device, batch, 2.0 * deadline).energy_pct;
        }
        let n = repeats as f32;
        out.row(format!(
            "{},{batch},{:.5},{:.5},{:.5}",
            profile.name,
            fleet_energy / n,
            caloree_energy / n,
            caloree_2x_energy / n
        ));
        out.comment(format!(
            "{}: FLeet deadline reference {:.2} s",
            profile.name, deadline
        ));
    }
    out.finish();
}
