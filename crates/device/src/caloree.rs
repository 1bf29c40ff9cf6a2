//! CALOREE baseline resource manager (Mishra et al., ASPLOS'18), as used for
//! comparison in §3.4 of the FLeet paper.
//!
//! CALOREE profiles a device by running the workload under every available
//! resource configuration (here: core allocations, since frequencies cannot be
//! set on non-rooted Android), keeps the energy-optimal configurations (the
//! lower convex hull of the speed/power trade-off — the *performance hash
//! table*, PHT), and at run time picks the most energy-efficient configuration
//! that still meets the task deadline.
//!
//! The paper's Table 2 shows that a PHT collected on one device transfers
//! poorly to other device models; Figure 14 shows that even on the training
//! device CALOREE does not beat FLeet's simple big-cores-only policy for
//! compute-bound gradient tasks. Both effects emerge from this implementation.

use crate::allocation::{enumerate_allocations, CoreAllocation};
use crate::device::Device;
use crate::profile::DeviceProfile;
use serde::{Deserialize, Serialize};

/// One entry of the performance hash table: a configuration with its measured
/// speed and power on the *training* device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct PhtEntry {
    /// The core allocation this entry describes.
    pub allocation: CoreAllocation,
    /// Measured throughput in samples per second.
    pub samples_per_second: f32,
    /// Measured power in battery-percent per second.
    pub power_pct_per_second: f32,
}

/// The performance hash table: energy-optimal configurations sorted by speed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct PerformanceHashTable {
    /// Name of the device the PHT was collected on.
    pub trained_on: String,
    entries: Vec<PhtEntry>,
}

impl PerformanceHashTable {
    /// Profiles `device` with a calibration workload of `calibration_batch`
    /// samples under every feasible core allocation and keeps the lower convex
    /// hull of the (speed, power) points.
    ///
    /// # Panics
    ///
    /// Panics if `calibration_batch` is zero.
    pub(crate) fn profile(device: &mut Device, calibration_batch: usize) -> Self {
        assert!(calibration_batch > 0, "calibration batch must be positive");
        let profile = device.profile().clone();
        let original_allocation = device.allocation();
        let mut measured = Vec::new();
        for allocation in enumerate_allocations(&profile) {
            device.set_allocation(allocation);
            // Cool down between calibration runs so each config is measured
            // under comparable conditions.
            device.idle(600.0);
            let exec = device.execute_task(calibration_batch);
            if exec.computation_seconds <= 0.0 {
                continue;
            }
            measured.push(PhtEntry {
                allocation,
                samples_per_second: calibration_batch as f32 / exec.computation_seconds,
                power_pct_per_second: exec.energy_pct / exec.computation_seconds,
            });
        }
        device.set_allocation(original_allocation);
        device.recharge();

        let entries = lower_convex_hull(measured);
        Self {
            trained_on: profile.name,
            entries,
        }
    }

    /// Picks the most energy-efficient configuration whose *predicted* speed
    /// still finishes `batch_size` samples within `deadline_seconds`. Falls
    /// back to the fastest configuration when none is predicted to meet the
    /// deadline. Returns `None` for an empty PHT.
    pub(crate) fn select(&self, batch_size: usize, deadline_seconds: f32) -> Option<PhtEntry> {
        let required_speed = batch_size as f32 / deadline_seconds.max(1e-6);
        self.entries
            .iter()
            .find(|e| e.samples_per_second >= required_speed)
            .or_else(|| self.entries.last())
            .copied()
    }
}

/// Keeps the points on the lower convex hull of the power-vs-speed curve:
/// configurations for which no other configuration is both faster and less
/// power-hungry, sorted by increasing speed.
fn lower_convex_hull(mut entries: Vec<PhtEntry>) -> Vec<PhtEntry> {
    entries.sort_by(|a, b| {
        a.samples_per_second
            .partial_cmp(&b.samples_per_second)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut hull: Vec<PhtEntry> = Vec::new();
    for e in entries {
        // Dominated: some kept entry is at least as fast and uses no more power.
        if hull.iter().any(|h| {
            h.samples_per_second >= e.samples_per_second
                && h.power_pct_per_second <= e.power_pct_per_second
        }) {
            continue;
        }
        // Remove entries the new one dominates.
        hull.retain(|h| {
            !(e.samples_per_second >= h.samples_per_second
                && e.power_pct_per_second <= h.power_pct_per_second)
        });
        hull.push(e);
        hull.sort_by(|a, b| {
            a.samples_per_second
                .partial_cmp(&b.samples_per_second)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    hull
}

/// Outcome of running one task under CALOREE control.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CaloreeRun {
    /// The allocation CALOREE selected.
    pub allocation: CoreAllocation,
    /// Actual computation time in seconds.
    pub computation_seconds: f32,
    /// Actual energy in battery percent.
    pub energy_pct: f32,
    /// The deadline CALOREE was asked to meet.
    pub deadline_seconds: f32,
    /// Relative deadline error `|actual - deadline| / deadline`, in percent
    /// (the metric of Table 2).
    pub deadline_error_pct: f32,
}

/// The CALOREE controller: a PHT (possibly collected on a *different* device)
/// plus a per-configuration switching overhead.
#[derive(Debug, Clone)]
pub struct Caloree {
    pht: PerformanceHashTable,
    /// Latency overhead incurred whenever the controller switches the running
    /// configuration (scheduler migration + cache warm-up), in seconds.
    pub switch_overhead_seconds: f32,
}

impl Caloree {
    /// Creates a controller from a previously collected PHT.
    pub(crate) fn new(pht: PerformanceHashTable) -> Self {
        Self {
            pht,
            switch_overhead_seconds: 0.08,
        }
    }

    /// Profiles `device` and returns a controller trained on it (the paper's
    /// "ideal" same-device setup).
    pub fn trained_on(device: &mut Device, calibration_batch: usize) -> Self {
        Self::new(PerformanceHashTable::profile(device, calibration_batch))
    }

    /// Runs `batch_size` samples on `device` under a deadline, using the PHT
    /// to choose the configuration.
    pub fn run(&self, device: &mut Device, batch_size: usize, deadline_seconds: f32) -> CaloreeRun {
        let entry = self.pht.select(batch_size, deadline_seconds);
        let allocation = entry
            .map(|e| e.allocation)
            .unwrap_or(CoreAllocation::AllCores);
        let previous = device.allocation();
        device.set_allocation(allocation);
        let switched = previous != allocation;
        let exec = device.execute_task(batch_size);
        device.set_allocation(previous);

        let overhead = if switched {
            self.switch_overhead_seconds
        } else {
            0.0
        };
        let actual = exec.computation_seconds + overhead;
        let deadline_error_pct = if deadline_seconds > 0.0 {
            (actual - deadline_seconds).abs() / deadline_seconds * 100.0
        } else {
            0.0
        };
        CaloreeRun {
            allocation,
            computation_seconds: actual,
            energy_pct: exec.energy_pct,
            deadline_seconds,
            deadline_error_pct,
        }
    }

    /// Table 2 helper: the mean deadline error over `repeats` runs of
    /// `batch_size` samples on `device` with a deadline chosen so that the
    /// *training* device would finish exactly on time.
    pub fn transfer_deadline_error(
        &self,
        device: &mut Device,
        batch_size: usize,
        deadline_seconds: f32,
        repeats: usize,
    ) -> f32 {
        let mut total = 0.0;
        for _ in 0..repeats.max(1) {
            device.idle(600.0);
            total += self
                .run(device, batch_size, deadline_seconds)
                .deadline_error_pct;
        }
        total / repeats.max(1) as f32
    }
}

/// Convenience: builds a device from a profile, trains CALOREE on it and
/// returns both.
pub fn train_on_profile(
    profile: DeviceProfile,
    calibration_batch: usize,
    seed: u64,
) -> (Device, Caloree) {
    let mut device = Device::new(profile, seed);
    let caloree = Caloree::trained_on(&mut device, calibration_batch);
    (device, caloree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::by_name;

    #[test]
    fn pht_is_sorted_and_nondominated() {
        let mut device = Device::new(by_name("Galaxy S7").unwrap(), 1);
        let pht = PerformanceHashTable::profile(&mut device, 500);
        let entries = &pht.entries;
        assert!(!entries.is_empty());
        for w in entries.windows(2) {
            assert!(w[0].samples_per_second <= w[1].samples_per_second);
            // Faster entries must pay more power, otherwise the slower one is dominated.
            assert!(w[0].power_pct_per_second <= w[1].power_pct_per_second + 1e-9);
        }
    }

    #[test]
    fn select_meets_deadline_when_possible() {
        let mut device = Device::new(by_name("Galaxy S7").unwrap(), 2);
        let pht = PerformanceHashTable::profile(&mut device, 500);
        let entry = pht.select(1000, 30.0).unwrap();
        assert!(entry.samples_per_second >= 1000.0 / 30.0);
    }

    #[test]
    fn select_falls_back_to_fastest_for_impossible_deadline() {
        let mut device = Device::new(by_name("Xperia E3").unwrap(), 3);
        let pht = PerformanceHashTable::profile(&mut device, 200);
        let entry = pht.select(100_000, 0.001).unwrap();
        let fastest = pht
            .entries
            .iter()
            .map(|e| e.samples_per_second)
            .fold(0.0f32, f32::max);
        assert_eq!(entry.samples_per_second, fastest);
    }

    #[test]
    fn same_device_deadline_error_is_small() {
        let (mut device, caloree) = train_on_profile(by_name("Galaxy S7").unwrap(), 500, 4);
        // Deadline = what the device actually needs for this batch.
        device.idle(1e5);
        let batch = 1000;
        let deadline = device.true_latency_slope() * batch as f32;
        let err = caloree.transfer_deadline_error(&mut device, batch, deadline, 10);
        assert!(err < 20.0, "same-device error should be small, got {err}%");
    }

    #[test]
    fn transfer_to_different_device_increases_error() {
        let (mut s7, caloree) = train_on_profile(by_name("Galaxy S7").unwrap(), 500, 5);
        s7.idle(1e5);
        let batch = 1000;
        let deadline = s7.true_latency_slope() * batch as f32;
        let err_same = caloree.transfer_deadline_error(&mut s7, batch, deadline, 5);

        let mut honor10 = Device::new(by_name("Honor 10").unwrap(), 6);
        let err_honor10 = caloree.transfer_deadline_error(&mut honor10, batch, deadline, 5);
        assert!(
            err_honor10 > err_same,
            "transfer error ({err_honor10}%) should exceed same-device error ({err_same}%)"
        );
    }

    #[test]
    fn caloree_energy_not_better_than_fleet_policy() {
        // Figure 14: for compute-bound gradient tasks, FLeet's static
        // big-cores-only policy is at least as energy-efficient as CALOREE.
        let (mut device, caloree) = train_on_profile(by_name("Galaxy S8").unwrap(), 500, 7);
        let batch = 2000;
        let runs = 10;
        let mut fleet_energy = 0.0;
        let mut caloree_energy = 0.0;
        for _ in 0..runs {
            device.recharge();
            device.idle(1e5);
            let fleet_exec = device.execute_task(batch);
            fleet_energy += fleet_exec.energy_pct;
            let deadline = 2.0 * fleet_exec.computation_seconds;
            device.recharge();
            device.idle(1e5);
            caloree_energy += caloree.run(&mut device, batch, deadline).energy_pct;
        }
        assert!(
            caloree_energy >= fleet_energy * 0.9,
            "CALOREE ({caloree_energy}) should not beat FLeet ({fleet_energy}) by a wide margin"
        );
    }
}
