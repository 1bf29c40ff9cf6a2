//! Offline calibration-data collection.
//!
//! The paper bootstraps both I-Prof's cold-start model and MAUI by running
//! learning tasks of increasing mini-batch size on a set of *training* devices
//! (disjoint from the test devices) until the computation time reaches twice
//! the SLO, recording the device features of each task (§3.3). This module
//! reproduces that procedure against the device simulator.

use crate::iprof::IProf;
use crate::maui::Maui;
use crate::slo::Slo;
use fleet_device::{Device, DeviceFeatures, DeviceProfile};

/// One calibration observation collected on a training device.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSample {
    /// Device model the sample was collected on.
    pub device_model: String,
    /// Observable device state at request time.
    pub features: DeviceFeatures,
    /// Mini-batch size of the task.
    pub batch_size: usize,
    /// Measured computation time in seconds.
    pub computation_seconds: f32,
    /// Measured energy in percent of battery.
    pub energy_pct: f32,
}

impl CalibrationSample {
    /// Seconds per sample.
    pub(crate) fn latency_slope(&self) -> f32 {
        self.computation_seconds / self.batch_size.max(1) as f32
    }

    /// Battery percent per sample.
    pub(crate) fn energy_slope(&self) -> f32 {
        self.energy_pct / self.batch_size.max(1) as f32
    }
}

/// Runs the calibration procedure on a set of training-device profiles:
/// batch sizes grow geometrically from `start_batch` until the measured
/// computation time exceeds twice the latency SLO (or `max_steps` tasks ran).
pub fn collect_calibration(
    profiles: &[DeviceProfile],
    slo: Slo,
    start_batch: usize,
    max_steps: usize,
    seed: u64,
) -> Vec<CalibrationSample> {
    let latency_cap = slo.computation_seconds.unwrap_or(3.0) * 2.0;
    let mut out = Vec::new();
    for (i, profile) in profiles.iter().enumerate() {
        let mut device = Device::new(profile.clone(), seed.wrapping_add(i as u64));
        let mut batch = start_batch.max(1);
        for _ in 0..max_steps {
            let features = device.features();
            let exec = device.execute_task(batch);
            out.push(CalibrationSample {
                device_model: profile.name.clone(),
                features,
                batch_size: batch,
                computation_seconds: exec.computation_seconds,
                energy_pct: exec.energy_pct,
            });
            if exec.computation_seconds >= latency_cap {
                break;
            }
            batch = (batch as f32 * 1.6).ceil() as usize;
            device.idle(30.0);
        }
    }
    out
}

/// Builds an [`IProf`] pre-trained on the given calibration samples.
pub fn pretrained_iprof(slo: Slo, samples: &[CalibrationSample]) -> IProf {
    let mut iprof = IProf::new(slo);
    let latency: Vec<(Vec<f32>, f32)> = samples
        .iter()
        .map(|s| (s.features.latency_features(), s.latency_slope()))
        .collect();
    let energy: Vec<(Vec<f32>, f32)> = samples
        .iter()
        .map(|s| (s.features.energy_features(), s.energy_slope()))
        .collect();
    iprof.pretrain_latency(&latency);
    iprof.pretrain_energy(&energy);
    iprof
}

/// Builds a `Maui` baseline pre-trained on the given calibration samples.
pub fn pretrained_maui(slo: Slo, samples: &[CalibrationSample]) -> Maui {
    let mut maui = Maui::new(slo);
    let latency: Vec<(usize, f32)> = samples
        .iter()
        .map(|s| (s.batch_size, s.computation_seconds))
        .collect();
    let energy: Vec<(usize, f32)> = samples
        .iter()
        .map(|s| (s.batch_size, s.energy_pct))
        .collect();
    maui.pretrain_latency(&latency);
    maui.pretrain_energy(&energy);
    maui
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadProfiler;
    use fleet_device::profile::{by_name, catalogue};

    fn training_profiles() -> Vec<DeviceProfile> {
        catalogue().into_iter().take(8).collect()
    }

    #[test]
    fn calibration_stops_at_twice_the_slo() {
        let samples = collect_calibration(&training_profiles(), Slo::latency(3.0), 8, 40, 1);
        assert!(!samples.is_empty());
        // Every device contributed samples, and the last sample per device is
        // around or above 2x the SLO (or the step limit was hit).
        for p in training_profiles() {
            let per_device: Vec<&CalibrationSample> = samples
                .iter()
                .filter(|s| s.device_model == p.name)
                .collect();
            assert!(!per_device.is_empty(), "{} missing", p.name);
            let last = per_device.last().unwrap();
            assert!(
                last.computation_seconds >= 6.0 || per_device.len() == 40,
                "{} stopped early at {}s",
                p.name,
                last.computation_seconds
            );
        }
    }

    #[test]
    fn calibration_batches_grow() {
        let samples = collect_calibration(
            &[by_name("Galaxy S7").unwrap()],
            Slo::latency(3.0),
            8,
            40,
            2,
        );
        for w in samples.windows(2) {
            assert!(w[1].batch_size > w[0].batch_size);
        }
    }

    #[test]
    fn pretrained_iprof_beats_pretrained_maui_on_unseen_heterogeneous_devices() {
        // The essence of Fig. 12: with heterogeneous devices, a single global
        // batch-size model (MAUI) cannot fit everyone, while I-Prof's
        // feature-based model can.
        let slo = Slo::latency(3.0);
        let samples = collect_calibration(&training_profiles(), slo, 8, 40, 3);
        let mut iprof = pretrained_iprof(slo, &samples);
        let mut maui = pretrained_maui(slo, &samples);

        let test_profiles = ["Honor 10", "Xperia E3", "Pixel", "Galaxy S7"];
        let mut iprof_err = 0.0f32;
        let mut maui_err = 0.0f32;
        for name in test_profiles {
            let profile = by_name(name).unwrap();
            let mut d_i = Device::new(profile.clone(), 10);
            let mut d_m = Device::new(profile, 10);
            for _ in 0..6 {
                let f = d_i.features();
                let n_i = iprof.predict(name, &f);
                let e_i = d_i.execute_task(n_i);
                iprof.observe(name, &f, n_i, e_i.computation_seconds, e_i.energy_pct);
                iprof_err += (e_i.computation_seconds - 3.0).abs();

                let f_m = d_m.features();
                let n_m = maui.predict(name, &f_m);
                let e_m = d_m.execute_task(n_m);
                maui.observe(name, &f_m, n_m, e_m.computation_seconds, e_m.energy_pct);
                maui_err += (e_m.computation_seconds - 3.0).abs();

                d_i.idle(60.0);
                d_m.idle(60.0);
            }
        }
        assert!(
            iprof_err < maui_err,
            "I-Prof total deviation {iprof_err} should beat MAUI {maui_err}"
        );
    }
}
