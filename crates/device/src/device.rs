//! A stateful simulated mobile device executing learning tasks.

use crate::allocation::CoreAllocation;
use crate::features::DeviceFeatures;
use crate::profile::DeviceProfile;
use crate::thermal::ThermalModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Result of executing one learning task on a device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskExecution {
    /// Mini-batch size that was processed.
    pub batch_size: usize,
    /// Wall-clock computation time in seconds.
    pub computation_seconds: f32,
    /// Energy consumed, as a percentage of the battery capacity.
    pub energy_pct: f32,
    /// Energy consumed in milliwatt-hours.
    pub energy_mwh: f32,
    /// Device temperature when the task started, in °C.
    pub start_temperature: f32,
}

/// A simulated handset: static profile + dynamic thermal/battery/memory state.
///
/// The latency and energy of a task are linear in the mini-batch size with a
/// device-specific slope that worsens as the device heats up, plus
/// multiplicative measurement noise — the structure measured in Fig. 4 of the
/// paper.
#[derive(Debug, Clone)]
pub struct Device {
    profile: DeviceProfile,
    thermal: ThermalModel,
    allocation: CoreAllocation,
    battery_pct: f32,
    rng: StdRng,
    tasks_executed: u64,
}

impl Device {
    /// Creates a device from a profile with FLeet's default core allocation,
    /// full battery and ambient temperature.
    pub fn new(profile: DeviceProfile, seed: u64) -> Self {
        let allocation = CoreAllocation::fleet_policy(&profile);
        Self {
            thermal: ThermalModel::typical(),
            allocation,
            battery_pct: 100.0,
            rng: StdRng::seed_from_u64(seed),
            tasks_executed: 0,
            profile,
        }
    }

    /// Overrides the core allocation (used by the CALOREE comparison).
    pub(crate) fn set_allocation(&mut self, allocation: CoreAllocation) {
        self.allocation = allocation;
    }

    /// The current core allocation.
    pub(crate) fn allocation(&self) -> CoreAllocation {
        self.allocation
    }

    /// The static device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Remaining battery percentage.
    pub fn battery_pct(&self) -> f32 {
        self.battery_pct
    }

    /// Number of learning tasks executed so far.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks_executed
    }

    /// The stock-Android feature snapshot sent to the server with a learning
    /// task request (step 1 of Fig. 2).
    pub fn features(&mut self) -> DeviceFeatures {
        // Available memory fluctuates with foreground app pressure.
        let available_fraction: f32 = self.rng.gen_range(0.25..0.65);
        DeviceFeatures {
            available_memory_mb: self.profile.total_memory_mb * available_fraction,
            total_memory_mb: self.profile.total_memory_mb,
            temperature_celsius: self.thermal.temperature(),
            sum_max_freq_ghz: self.profile.sum_max_freq_ghz(),
            energy_per_cpu_second: self.profile.energy_per_cpu_second(),
        }
    }

    /// The true (noise-free) seconds-per-sample slope at the current
    /// temperature and allocation. Exposed for tests and for building oracle
    /// baselines.
    pub fn true_latency_slope(&self) -> f32 {
        let thermal_penalty = 1.0 + self.profile.thermal_sensitivity * self.thermal.excess();
        self.profile.base_secs_per_sample * thermal_penalty
            / self.allocation.relative_speed(&self.profile)
    }

    /// The true (noise-free) battery-percent-per-sample slope at the current
    /// temperature and allocation.
    pub(crate) fn true_energy_slope(&self) -> f32 {
        let thermal_penalty = 1.0 + 0.5 * self.profile.thermal_sensitivity * self.thermal.excess();
        self.profile.base_energy_pct_per_sample
            * thermal_penalty
            * self.allocation.relative_energy(&self.profile)
    }

    /// Executes a learning task over `batch_size` samples, updating the
    /// thermal and battery state and returning the measured latency/energy.
    ///
    /// A `batch_size` of zero returns a zero-cost execution.
    pub fn execute_task(&mut self, batch_size: usize) -> TaskExecution {
        let start_temperature = self.thermal.temperature();
        if batch_size == 0 {
            return TaskExecution {
                batch_size,
                computation_seconds: 0.0,
                energy_pct: 0.0,
                energy_mwh: 0.0,
                start_temperature,
            };
        }
        let noise = |rng: &mut StdRng, sigma: f32| -> f32 {
            // Multiplicative log-ish noise, clamped to stay positive.
            1.0 + rng.gen_range(-sigma..sigma)
        };
        let latency = self.true_latency_slope()
            * batch_size as f32
            * noise(&mut self.rng, self.profile.measurement_noise);
        let energy_pct = self.true_energy_slope()
            * batch_size as f32
            * noise(&mut self.rng, self.profile.measurement_noise);
        let energy_mwh = energy_pct / 100.0 * self.profile.battery_mwh;

        self.thermal.heat(latency);
        self.battery_pct = (self.battery_pct - energy_pct).max(0.0);
        self.tasks_executed += 1;

        TaskExecution {
            batch_size,
            computation_seconds: latency,
            energy_pct,
            energy_mwh,
            start_temperature,
        }
    }

    /// Lets the device idle (and cool down) for `seconds`.
    pub fn idle(&mut self, seconds: f32) {
        self.thermal.cool(seconds);
    }

    /// Recharges the battery to 100 % and cools back to ambient.
    pub fn recharge(&mut self) {
        self.battery_pct = 100.0;
        self.thermal.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::by_name;
    use proptest::prelude::*;

    fn device(name: &str) -> Device {
        Device::new(by_name(name).unwrap(), 7)
    }

    #[test]
    fn latency_and_energy_scale_linearly() {
        let mut d = device("Galaxy S7");
        let small = d.execute_task(100);
        d.recharge();
        d.idle(1e6);
        let mut d2 = device("Galaxy S7");
        let large = d2.execute_task(1000);
        // Within noise bounds, 10x the work takes ~10x the time and energy.
        let ratio_t = large.computation_seconds / small.computation_seconds;
        let ratio_e = large.energy_pct / small.energy_pct;
        assert!((7.0..13.0).contains(&ratio_t), "latency ratio {ratio_t}");
        assert!((7.0..13.0).contains(&ratio_e), "energy ratio {ratio_e}");
    }

    #[test]
    fn zero_batch_is_free() {
        let mut d = device("Galaxy S7");
        let exec = d.execute_task(0);
        assert_eq!(exec.computation_seconds, 0.0);
        assert_eq!(exec.energy_pct, 0.0);
        assert_eq!(d.battery_pct(), 100.0);
    }

    #[test]
    fn devices_are_heterogeneous() {
        let mut fast = device("Honor 10");
        let mut slow = device("Xperia E3");
        let f = fast.execute_task(500);
        let s = slow.execute_task(500);
        assert!(
            s.computation_seconds > 5.0 * f.computation_seconds,
            "slow {} vs fast {}",
            s.computation_seconds,
            f.computation_seconds
        );
    }

    #[test]
    fn sustained_load_heats_and_slows_the_device() {
        let mut d = device("Honor 10");
        let cold_slope = d.true_latency_slope();
        for _ in 0..30 {
            d.execute_task(2000);
        }
        assert!(d.thermal.temperature() > 31.0);
        assert!(d.true_latency_slope() > cold_slope);
        // Cooling down restores the slope.
        d.idle(1e5);
        assert!((d.true_latency_slope() - cold_slope).abs() / cold_slope < 0.01);
    }

    #[test]
    fn battery_drains_and_recharges() {
        let mut d = device("Galaxy S4 mini");
        for _ in 0..20 {
            d.execute_task(1000);
        }
        assert!(d.battery_pct() < 100.0);
        d.recharge();
        assert_eq!(d.battery_pct(), 100.0);
        assert_eq!(d.thermal.temperature(), 30.0);
    }

    #[test]
    fn features_reflect_profile_and_state() {
        let mut d = device("Galaxy S7");
        let f = d.features();
        assert_eq!(f.total_memory_mb, d.profile().total_memory_mb);
        assert!(f.available_memory_mb < f.total_memory_mb);
        assert_eq!(f.sum_max_freq_ghz, d.profile().sum_max_freq_ghz());
        assert_eq!(f.temperature_celsius, 30.0);
    }

    #[test]
    fn energy_mwh_consistent_with_pct() {
        let mut d = device("Galaxy S7");
        let exec = d.execute_task(500);
        let expected = exec.energy_pct / 100.0 * d.profile().battery_mwh;
        assert!((exec.energy_mwh - expected).abs() < 1e-3);
    }

    #[test]
    fn execution_is_deterministic_per_seed() {
        let mut a = Device::new(by_name("Pixel").unwrap(), 3);
        let mut b = Device::new(by_name("Pixel").unwrap(), 3);
        assert_eq!(a.execute_task(200), b.execute_task(200));
    }

    proptest! {
        #[test]
        fn prop_latency_energy_positive_and_monotone(batch in 1usize..3000, seed in 0u64..20) {
            let mut d = Device::new(by_name("Galaxy S6").unwrap(), seed);
            let exec = d.execute_task(batch);
            prop_assert!(exec.computation_seconds > 0.0);
            prop_assert!(exec.energy_pct > 0.0);
            prop_assert!(exec.energy_mwh > 0.0);
        }

        #[test]
        fn prop_battery_never_negative(batches in proptest::collection::vec(1usize..5000, 1..30)) {
            let mut d = Device::new(by_name("Moto G (2nd Gen)").unwrap(), 1);
            for b in batches {
                d.execute_task(b);
                prop_assert!(d.battery_pct() >= 0.0);
            }
        }
    }
}
