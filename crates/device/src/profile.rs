//! Static hardware characteristics of simulated device models and the
//! catalogue of named devices used by the experiments.
//!
//! The per-sample compute cost and energy cost are calibrated against the
//! ranges the paper reports in Fig. 4 (e.g. ~20 s for a mini-batch of 3200 on
//! a Galaxy S7 versus ~5 s on an Honor 10, and 7–51 Gflops across the device
//! generations mentioned in §2.2).

use serde::{Deserialize, Serialize};

/// Static description of one device model (e.g. "Galaxy S7").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Marketing name; doubles as the device-model key used by I-Prof's
    /// personalised models.
    pub name: String,
    /// Seconds of computation per sample when running on the big cores at a
    /// nominal 30 °C.
    pub base_secs_per_sample: f32,
    /// Battery percentage consumed per sample at nominal temperature.
    pub base_energy_pct_per_sample: f32,
    /// Number of "big" cores (0 for symmetric ARMv7 devices).
    pub big_cores: u32,
    /// Number of "LITTLE" (or symmetric) cores.
    pub little_cores: u32,
    /// Maximum frequency of a big core in GHz.
    pub big_freq_ghz: f32,
    /// Maximum frequency of a LITTLE core in GHz.
    pub little_freq_ghz: f32,
    /// Total memory in MB.
    pub total_memory_mb: f32,
    /// Battery capacity in mWh (modern phones: ~11000 mWh or more).
    pub battery_mwh: f32,
    /// How strongly the compute slope degrades with temperature
    /// (fractional slowdown per °C above ambient).
    pub thermal_sensitivity: f32,
    /// Relative run-to-run noise of latency/energy measurements (std-dev as a
    /// fraction of the mean).
    pub measurement_noise: f32,
}

impl DeviceProfile {
    /// Sum of the maximum frequencies over all cores in GHz — one of the
    /// features I-Prof reads from the Android API.
    pub fn sum_max_freq_ghz(&self) -> f32 {
        self.big_cores as f32 * self.big_freq_ghz + self.little_cores as f32 * self.little_freq_ghz
    }

    /// Whether the SoC is an ARM big.LITTLE design.
    pub fn is_big_little(&self) -> bool {
        self.big_cores > 0 && self.little_cores > 0
    }

    /// Energy consumed per non-idle CPU second as a fraction of the battery,
    /// derived from the per-sample figures (the feature I-Prof's energy
    /// predictor uses).
    pub fn energy_per_cpu_second(&self) -> f32 {
        if self.base_secs_per_sample <= 0.0 {
            0.0
        } else {
            (self.base_energy_pct_per_sample / 100.0) / self.base_secs_per_sample
        }
    }

    /// Convenience constructor for tests and custom scenarios.
    pub fn custom(
        name: &str,
        base_secs_per_sample: f32,
        base_energy_pct_per_sample: f32,
        big_cores: u32,
        little_cores: u32,
        big_freq_ghz: f32,
        little_freq_ghz: f32,
    ) -> Self {
        Self {
            name: name.to_string(),
            base_secs_per_sample,
            base_energy_pct_per_sample,
            big_cores,
            little_cores,
            big_freq_ghz,
            little_freq_ghz,
            total_memory_mb: 4096.0,
            battery_mwh: 11000.0,
            thermal_sensitivity: 0.01,
            measurement_noise: 0.05,
        }
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "one row of the device table below: a flat positional call keeps the table readable"
)]
fn profile(
    name: &str,
    secs_per_sample: f32,
    energy_pct_per_sample: f32,
    big: u32,
    little: u32,
    big_ghz: f32,
    little_ghz: f32,
    mem_mb: f32,
    battery_mwh: f32,
    thermal: f32,
) -> DeviceProfile {
    DeviceProfile {
        name: name.to_string(),
        base_secs_per_sample: secs_per_sample,
        base_energy_pct_per_sample: energy_pct_per_sample,
        big_cores: big,
        little_cores: little,
        big_freq_ghz: big_ghz,
        little_freq_ghz: little_ghz,
        total_memory_mb: mem_mb,
        battery_mwh,
        thermal_sensitivity: thermal,
        measurement_noise: 0.05,
    }
}

/// The device models used by the evaluation (the AWS Device Farm set of
/// Fig. 12(a) plus the lab devices of Figs. 13/14 and Table 2). Per-sample
/// costs are calibrated to reproduce the heterogeneity of Fig. 4.
pub fn catalogue() -> Vec<DeviceProfile> {
    vec![
        // name, s/sample, %batt/sample, big, little, bigGHz, littleGHz, memMB, battery mWh, thermal
        profile(
            "Galaxy S6",
            0.0060,
            2.2e-4,
            4,
            4,
            2.1,
            1.5,
            3072.0,
            9800.0,
            0.012,
        ),
        profile(
            "Galaxy S6 Edge",
            0.0058,
            2.1e-4,
            4,
            4,
            2.1,
            1.5,
            3072.0,
            9900.0,
            0.012,
        ),
        profile(
            "Nexus 6", 0.0085, 2.8e-4, 0, 4, 0.0, 2.7, 3072.0, 12400.0, 0.015,
        ),
        profile(
            "MotoG3", 0.0180, 4.5e-4, 0, 4, 0.0, 1.4, 2048.0, 9200.0, 0.010,
        ),
        profile(
            "Moto G (4)",
            0.0140,
            4.0e-4,
            0,
            8,
            0.0,
            1.5,
            2048.0,
            11400.0,
            0.010,
        ),
        profile(
            "Galaxy Note5",
            0.0055,
            2.0e-4,
            4,
            4,
            2.1,
            1.5,
            4096.0,
            11400.0,
            0.012,
        ),
        profile(
            "XT1096", 0.0160, 4.2e-4, 0, 4, 0.0, 2.5, 2048.0, 8800.0, 0.012,
        ),
        profile(
            "Galaxy S5",
            0.0120,
            3.6e-4,
            0,
            4,
            0.0,
            2.5,
            2048.0,
            10600.0,
            0.011,
        ),
        profile(
            "SM-N900P", 0.0130, 3.8e-4, 0, 4, 0.0, 2.3, 3072.0, 12200.0, 0.011,
        ),
        profile(
            "Nexus 5", 0.0150, 4.1e-4, 0, 4, 0.0, 2.3, 2048.0, 8700.0, 0.012,
        ),
        profile(
            "Lenovo TB-8504F",
            0.0200,
            5.0e-4,
            0,
            4,
            0.0,
            1.4,
            2048.0,
            18200.0,
            0.008,
        ),
        profile(
            "Venue 8", 0.0220, 5.4e-4, 0, 4, 0.0, 1.6, 1024.0, 15500.0, 0.008,
        ),
        profile(
            "Moto G (2nd Gen)",
            0.0250,
            6.0e-4,
            0,
            4,
            0.0,
            1.2,
            1024.0,
            8200.0,
            0.010,
        ),
        profile(
            "Pixel", 0.0048, 1.8e-4, 2, 2, 2.15, 1.6, 4096.0, 10600.0, 0.013,
        ),
        profile(
            "HTC U11", 0.0032, 1.3e-4, 4, 4, 2.45, 1.9, 4096.0, 11400.0, 0.014,
        ),
        profile(
            "SM-G950U1",
            0.0030,
            1.2e-4,
            4,
            4,
            2.35,
            1.9,
            4096.0,
            11400.0,
            0.014,
        ),
        profile(
            "XT1254", 0.0125, 3.7e-4, 0, 4, 0.0, 2.7, 3072.0, 14800.0, 0.011,
        ),
        profile(
            "HTC One A9",
            0.0145,
            4.0e-4,
            4,
            4,
            1.5,
            1.2,
            2048.0,
            7900.0,
            0.011,
        ),
        profile(
            "Galaxy S7",
            0.0063,
            2.4e-4,
            4,
            4,
            2.3,
            1.6,
            4096.0,
            11400.0,
            0.020,
        ),
        profile(
            "LG-H910", 0.0070, 2.6e-4, 2, 2, 2.35, 1.6, 4096.0, 12400.0, 0.013,
        ),
        profile(
            "LG-H830", 0.0090, 3.0e-4, 2, 4, 2.15, 1.4, 4096.0, 10600.0, 0.013,
        ),
        // Lab devices (energy SLO + resource allocation experiments).
        profile(
            "Honor 10", 0.0016, 4.0e-5, 4, 4, 2.36, 1.8, 6144.0, 12900.0, 0.030,
        ),
        profile(
            "Honor 9", 0.0024, 7.0e-5, 4, 4, 2.36, 1.8, 4096.0, 12200.0, 0.022,
        ),
        profile(
            "Galaxy S8",
            0.0029,
            1.1e-4,
            4,
            4,
            2.35,
            1.9,
            4096.0,
            11400.0,
            0.016,
        ),
        profile(
            "Galaxy S4 mini",
            0.0210,
            5.6e-4,
            0,
            2,
            0.0,
            1.7,
            1536.0,
            7200.0,
            0.009,
        ),
        profile(
            "Xperia E3",
            0.0250,
            6.2e-4,
            0,
            4,
            0.0,
            1.2,
            1024.0,
            8800.0,
            0.009,
        ),
    ]
}

/// Looks a profile up by name in the [`catalogue`].
pub fn by_name(name: &str) -> Option<DeviceProfile> {
    catalogue().into_iter().find(|p| p.name == name)
}

/// The 20 AWS Device Farm models used by the latency-SLO experiment
/// (Fig. 12(a) order).
pub fn aws_device_farm_set() -> Vec<DeviceProfile> {
    let names = [
        "Galaxy S6",
        "Galaxy S6 Edge",
        "Nexus 6",
        "MotoG3",
        "Moto G (4)",
        "Galaxy Note5",
        "XT1096",
        "Galaxy S5",
        "SM-N900P",
        "Nexus 5",
        "Lenovo TB-8504F",
        "Venue 8",
        "Moto G (2nd Gen)",
        "Pixel",
        "HTC U11",
        "SM-G950U1",
        "XT1254",
        "HTC One A9",
        "Galaxy S7",
        "LG-H910",
        "LG-H830",
    ];
    names.iter().filter_map(|n| by_name(n)).collect()
}

/// The 5 lab devices used for the energy-SLO and resource-allocation
/// experiments (§3.3, §3.4), in their log-in order.
pub fn lab_device_set() -> Vec<DeviceProfile> {
    [
        "Honor 10",
        "Galaxy S8",
        "Galaxy S7",
        "Galaxy S4 mini",
        "Xperia E3",
    ]
    .iter()
    .filter_map(|n| by_name(n))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_nonempty_and_unique() {
        let cat = catalogue();
        assert!(cat.len() >= 20);
        let mut names: Vec<&str> = cat.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len(), "device names must be unique");
    }

    #[test]
    fn by_name_finds_known_devices() {
        assert!(by_name("Galaxy S7").is_some());
        assert!(by_name("Honor 10").is_some());
        assert!(by_name("Unobtainium Phone").is_none());
    }

    #[test]
    fn heterogeneity_spans_an_order_of_magnitude() {
        // §2.2: Galaxy S6 does 7.11 Gflops vs 51.4 on a Galaxy S10 — roughly a
        // 7x+ spread; our catalogue spans >10x in per-sample cost.
        let cat = catalogue();
        let min = cat
            .iter()
            .map(|p| p.base_secs_per_sample)
            .fold(f32::INFINITY, f32::min);
        let max = cat
            .iter()
            .map(|p| p.base_secs_per_sample)
            .fold(0.0f32, f32::max);
        assert!(max / min > 10.0, "spread was only {}", max / min);
    }

    #[test]
    fn aws_set_has_21_devices() {
        assert_eq!(aws_device_farm_set().len(), 21);
    }

    #[test]
    fn lab_set_matches_paper_order() {
        let lab = lab_device_set();
        assert_eq!(lab.len(), 5);
        assert_eq!(lab[0].name, "Honor 10");
        assert_eq!(lab[4].name, "Xperia E3");
    }

    #[test]
    fn sum_max_freq_accounts_for_all_cores() {
        let p = DeviceProfile::custom("t", 0.01, 1e-4, 4, 4, 2.0, 1.5);
        assert!((p.sum_max_freq_ghz() - 14.0).abs() < 1e-6);
        assert!(p.is_big_little());
        let sym = DeviceProfile::custom("s", 0.01, 1e-4, 0, 4, 0.0, 1.5);
        assert!(!sym.is_big_little());
    }

    #[test]
    fn energy_per_cpu_second_is_positive() {
        for p in catalogue() {
            assert!(p.energy_per_cpu_second() > 0.0, "{}", p.name);
        }
    }

    #[test]
    fn honor_10_is_fastest_lab_device() {
        let lab = lab_device_set();
        let honor = lab.iter().find(|p| p.name == "Honor 10").unwrap();
        assert!(lab
            .iter()
            .all(|p| p.base_secs_per_sample >= honor.base_secs_per_sample));
    }
}
