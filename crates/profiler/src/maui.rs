//! The MAUI-style baseline profiler (§3.3 of the paper).
//!
//! MAUI (Cuervo et al., MobiSys'10) predicts energy with a linear regression
//! on the number of CPU cycles; the paper adapts it to this setting by
//! replacing CPU cycles with the mini-batch size (the workload has a static
//! code path). The result is a single *global* model `cost = θ · n` shared by
//! every device — no device features, no personalisation — which is exactly
//! why it struggles with heterogeneous fleets.

use crate::linreg::LinearRegression;
use crate::slo::Slo;
use crate::WorkloadProfiler;
use fleet_device::DeviceFeatures;

const MIN_SLOPE: f32 = 1e-8;
const MAX_BATCH: usize = 100_000;

/// The MAUI baseline profiler.
#[derive(Debug, Clone)]
pub struct Maui {
    slo: Slo,
    latency_samples: Vec<(Vec<f32>, f32)>,
    energy_samples: Vec<(Vec<f32>, f32)>,
    latency_model: LinearRegression,
    energy_model: LinearRegression,
    refit_every: usize,
    since_refit: usize,
}

impl Maui {
    /// Creates a MAUI profiler for the given SLO.
    pub(crate) fn new(slo: Slo) -> Self {
        Self {
            slo,
            latency_samples: Vec::new(),
            energy_samples: Vec::new(),
            latency_model: LinearRegression::zeros(1),
            energy_model: LinearRegression::zeros(1),
            refit_every: 25,
            since_refit: 0,
        }
    }

    /// Pre-trains from offline calibration pairs `(batch_size, seconds)`.
    pub(crate) fn pretrain_latency(&mut self, samples: &[(usize, f32)]) {
        self.latency_samples
            .extend(samples.iter().map(|&(n, t)| (vec![n as f32], t)));
        self.refit();
    }

    /// Pre-trains from offline calibration pairs `(batch_size, battery_pct)`.
    pub(crate) fn pretrain_energy(&mut self, samples: &[(usize, f32)]) {
        self.energy_samples
            .extend(samples.iter().map(|&(n, e)| (vec![n as f32], e)));
        self.refit();
    }

    /// Per-sample computation-time slope the model currently believes in.
    pub(crate) fn latency_slope(&self) -> f32 {
        self.latency_model.predict(&[1.0]).max(MIN_SLOPE)
    }

    /// Per-sample energy slope the model currently believes in.
    pub(crate) fn energy_slope(&self) -> f32 {
        self.energy_model.predict(&[1.0]).max(MIN_SLOPE)
    }

    fn refit(&mut self) {
        if let Some(m) = LinearRegression::fit(&self.latency_samples) {
            self.latency_model = m;
        }
        if let Some(m) = LinearRegression::fit(&self.energy_samples) {
            self.energy_model = m;
        }
        self.since_refit = 0;
    }
}

impl WorkloadProfiler for Maui {
    fn name(&self) -> &'static str {
        "MAUI"
    }

    fn predict(&mut self, _device_model: &str, _features: &DeviceFeatures) -> usize {
        let mut bound = MAX_BATCH as f32;
        if let Some(t_slo) = self.slo.computation_seconds {
            bound = bound.min(t_slo / self.latency_slope());
        }
        if let Some(e_slo) = self.slo.energy_pct {
            bound = bound.min(e_slo / self.energy_slope());
        }
        (bound.floor() as usize).clamp(1, MAX_BATCH)
    }

    fn observe(
        &mut self,
        _device_model: &str,
        _features: &DeviceFeatures,
        batch_size: usize,
        computation_seconds: f32,
        energy_pct: f32,
    ) {
        if batch_size == 0 {
            return;
        }
        self.latency_samples
            .push((vec![batch_size as f32], computation_seconds));
        self.energy_samples
            .push((vec![batch_size as f32], energy_pct));
        self.since_refit += 1;
        if self.since_refit >= self.refit_every {
            self.refit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretrained_slope_predicts_batch_for_slo() {
        let mut maui = Maui::new(Slo::latency(3.0));
        // World where every device costs 0.003 s/sample.
        let samples: Vec<(usize, f32)> = (1..200)
            .map(|n| (n * 10, n as f32 * 10.0 * 0.003))
            .collect();
        maui.pretrain_latency(&samples);
        assert!((maui.latency_slope() - 0.003).abs() < 1e-4);
        let batch = maui.predict("any", &DeviceFeatures::default());
        assert!((900..=1100).contains(&batch), "batch {batch}");
    }

    #[test]
    fn same_prediction_for_all_devices() {
        // MAUI ignores device features entirely — its key weakness.
        let mut maui = Maui::new(Slo::latency(3.0));
        maui.pretrain_latency(&[(100, 0.5), (200, 1.0), (400, 2.0)]);
        let fast = DeviceFeatures {
            sum_max_freq_ghz: 20.0,
            ..DeviceFeatures::default()
        };
        let slow = DeviceFeatures {
            sum_max_freq_ghz: 2.0,
            ..DeviceFeatures::default()
        };
        assert_eq!(maui.predict("fast", &fast), maui.predict("slow", &slow));
    }

    #[test]
    fn observations_shift_the_global_slope() {
        let mut maui = Maui::new(Slo::latency(3.0));
        maui.pretrain_latency(&[(100, 0.1), (200, 0.2)]); // 0.001 s/sample
        let before = maui.latency_slope();
        // Feed many observations from a much slower population.
        for _ in 0..30 {
            maui.observe("slow", &DeviceFeatures::default(), 100, 1.0, 0.01);
        }
        assert!(maui.latency_slope() > before);
    }

    #[test]
    fn energy_slo_respected() {
        let mut maui = Maui::new(Slo::energy(0.075));
        maui.pretrain_energy(&[(100, 0.01), (200, 0.02)]); // 1e-4 %/sample
        let batch = maui.predict("any", &DeviceFeatures::default());
        assert!((700..=760).contains(&batch), "batch {batch}");
    }

    #[test]
    fn untrained_maui_is_bounded() {
        let mut maui = Maui::new(Slo::latency(3.0));
        let batch = maui.predict("any", &DeviceFeatures::default());
        assert!((1..=MAX_BATCH).contains(&batch));
    }
}
