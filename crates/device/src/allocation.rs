//! CPU-core allocation policies.
//!
//! §2.4 of the paper: on non-rooted Android the only available knob is the set
//! of cores the learning task runs on. FLeet uses a simple scheme — big cores
//! only on big.LITTLE SoCs, all cores otherwise — because for compute-bound
//! embarrassingly parallel gradient tasks the big cores are both faster *and*
//! more energy-efficient (they finish much sooner), while symmetric ARMv7
//! parts consume roughly constant energy per workload regardless of core
//! count.

use crate::profile::DeviceProfile;
use serde::{Deserialize, Serialize};

/// Which cores a learning task is scheduled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreAllocation {
    /// Only the big cluster (FLeet's choice on big.LITTLE SoCs).
    BigCoresOnly,
    /// Every core in the SoC (FLeet's choice on symmetric SoCs).
    AllCores,
    /// An explicit number of big and LITTLE cores (what CALOREE sweeps over).
    Custom {
        /// Number of big cores used.
        big: u32,
        /// Number of LITTLE cores used.
        little: u32,
    },
}

impl CoreAllocation {
    /// FLeet's allocation policy for a device (§2.4).
    pub(crate) fn fleet_policy(profile: &DeviceProfile) -> Self {
        if profile.is_big_little() {
            CoreAllocation::BigCoresOnly
        } else {
            CoreAllocation::AllCores
        }
    }

    /// Number of (big, little) cores this allocation uses on `profile`,
    /// clamped to what the SoC offers.
    pub(crate) fn cores_used(&self, profile: &DeviceProfile) -> (u32, u32) {
        match *self {
            CoreAllocation::BigCoresOnly => {
                (profile.big_cores.max(1).min(profile.big_cores.max(1)), 0)
            }
            CoreAllocation::AllCores => (profile.big_cores, profile.little_cores),
            CoreAllocation::Custom { big, little } => {
                (big.min(profile.big_cores), little.min(profile.little_cores))
            }
        }
    }

    /// Relative speed of this allocation compared with the profile's baseline
    /// (big cores only, or all cores on a symmetric SoC). Higher is faster.
    ///
    /// Returns a small positive floor when the allocation selects no usable
    /// core, so downstream latency stays finite.
    pub(crate) fn relative_speed(&self, profile: &DeviceProfile) -> f32 {
        let (big, little) = self.cores_used(profile);
        let reference = reference_throughput(profile);
        let throughput = throughput(profile, big, little);
        (throughput / reference).max(0.05)
    }

    /// Relative *power* draw of this allocation compared with the baseline.
    /// Big cores draw more power per core than LITTLE cores.
    pub(crate) fn relative_power(&self, profile: &DeviceProfile) -> f32 {
        let (big, little) = self.cores_used(profile);
        let reference = reference_power(profile);
        let power = power(big, little);
        (power / reference).max(0.05)
    }

    /// Relative energy per unit of work: power divided by speed. FLeet's
    /// policy has value 1.0 by construction.
    pub(crate) fn relative_energy(&self, profile: &DeviceProfile) -> f32 {
        self.relative_power(profile) / self.relative_speed(profile)
    }
}

/// Per-core relative throughput: a big core is ~2x a LITTLE core for the
/// compute-bound gradient kernels.
const BIG_CORE_THROUGHPUT: f32 = 1.0;
const LITTLE_CORE_THROUGHPUT: f32 = 0.45;
/// Per-core relative power draw.
const BIG_CORE_POWER: f32 = 1.0;
const LITTLE_CORE_POWER: f32 = 0.55;

fn throughput(profile: &DeviceProfile, big: u32, little: u32) -> f32 {
    // Parallel efficiency tapers slightly with core count (memory bandwidth).
    let raw = big as f32 * BIG_CORE_THROUGHPUT + little as f32 * LITTLE_CORE_THROUGHPUT;
    let total = (big + little) as f32;
    if total == 0.0 {
        return 0.0;
    }
    let efficiency = 1.0 - 0.03 * (total - 1.0).max(0.0);
    let _ = profile;
    raw * efficiency.max(0.5)
}

fn power(big: u32, little: u32) -> f32 {
    big as f32 * BIG_CORE_POWER + little as f32 * LITTLE_CORE_POWER
}

fn reference_throughput(profile: &DeviceProfile) -> f32 {
    if profile.is_big_little() {
        throughput(profile, profile.big_cores, 0)
    } else {
        throughput(profile, 0, profile.little_cores)
    }
}

fn reference_power(profile: &DeviceProfile) -> f32 {
    if profile.is_big_little() {
        power(profile.big_cores, 0)
    } else {
        power(0, profile.little_cores)
    }
}

/// Enumerates every feasible `Custom` allocation of a device (used by CALOREE
/// to build its performance hash table).
pub(crate) fn enumerate_allocations(profile: &DeviceProfile) -> Vec<CoreAllocation> {
    let mut out = Vec::new();
    for big in 0..=profile.big_cores {
        for little in 0..=profile.little_cores {
            if big + little == 0 {
                continue;
            }
            out.push(CoreAllocation::Custom { big, little });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::by_name;

    #[test]
    fn fleet_policy_prefers_big_cores_on_big_little() {
        let s7 = by_name("Galaxy S7").unwrap();
        assert_eq!(
            CoreAllocation::fleet_policy(&s7),
            CoreAllocation::BigCoresOnly
        );
        let e3 = by_name("Xperia E3").unwrap();
        assert_eq!(CoreAllocation::fleet_policy(&e3), CoreAllocation::AllCores);
    }

    #[test]
    fn fleet_policy_has_unit_relative_metrics() {
        for p in crate::profile::catalogue() {
            let alloc = CoreAllocation::fleet_policy(&p);
            assert!((alloc.relative_speed(&p) - 1.0).abs() < 1e-5, "{}", p.name);
            assert!((alloc.relative_energy(&p) - 1.0).abs() < 1e-5, "{}", p.name);
        }
    }

    #[test]
    fn little_cores_are_slower_and_less_efficient_for_compute() {
        let s7 = by_name("Galaxy S7").unwrap();
        let little = CoreAllocation::Custom {
            big: 0,
            little: s7.little_cores,
        };
        assert!(little.relative_speed(&s7) < 1.0);
        // §2.4: big cores are MORE energy-efficient for compute-intensive tasks.
        assert!(little.relative_energy(&s7) > 1.0);
    }

    #[test]
    fn all_cores_faster_than_big_only_but_less_efficient() {
        let s7 = by_name("Galaxy S7").unwrap();
        let all = CoreAllocation::AllCores;
        assert!(all.relative_speed(&s7) > 1.0);
        assert!(all.relative_energy(&s7) >= 1.0);
    }

    #[test]
    fn custom_allocation_clamped_to_available_cores() {
        let s7 = by_name("Galaxy S7").unwrap();
        let alloc = CoreAllocation::Custom {
            big: 100,
            little: 100,
        };
        assert_eq!(alloc.cores_used(&s7), (s7.big_cores, s7.little_cores));
    }

    #[test]
    fn zero_core_allocation_has_floor_speed() {
        let s7 = by_name("Galaxy S7").unwrap();
        let alloc = CoreAllocation::Custom { big: 0, little: 0 };
        assert!(alloc.relative_speed(&s7) > 0.0);
    }

    #[test]
    fn enumerate_covers_all_combinations() {
        let s7 = by_name("Galaxy S7").unwrap(); // 4 big + 4 little
        let allocs = enumerate_allocations(&s7);
        assert_eq!(allocs.len(), 5 * 5 - 1);
        let e3 = by_name("Xperia E3").unwrap(); // 0 big + 4 little
        assert_eq!(enumerate_allocations(&e3).len(), 4);
    }
}
