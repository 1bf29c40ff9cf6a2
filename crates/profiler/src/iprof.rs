//! I-Prof: the SLO-driven workload profiler of the FLeet paper (§2.2).

use crate::linreg::LinearRegression;
use crate::passive_aggressive::PassiveAggressiveRegressor;
use crate::slo::Slo;
use crate::WorkloadProfiler;
use fleet_device::DeviceFeatures;
use std::collections::BTreeMap;

/// Floor for a predicted per-sample slope, preventing division blow-ups when a
/// (cold) model predicts a non-positive slope.
const MIN_LATENCY_SLOPE: f32 = 1e-5;
const MIN_ENERGY_SLOPE: f32 = 1e-8;
/// Upper bound on the proposed mini-batch size.
const MAX_BATCH: usize = 100_000;

/// Output of one I-Prof prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPrediction {
    /// The proposed mini-batch size (Eq. 1 of the paper, bounded by both
    /// SLO dimensions when both are configured).
    pub batch_size: usize,
    /// Computation time the profiler expects for that batch, in seconds.
    pub predicted_seconds: f32,
    /// Energy the profiler expects for that batch, in percent of battery.
    pub predicted_energy_pct: f32,
    /// Whether the personalised (passive-aggressive) model was used rather
    /// than the cold-start global model.
    pub personalized: bool,
}

/// Checkpointed mutable state of one [`SlopePredictor`]. Configuration
/// (ε, slope floor, retrain period) is not part of the state; it comes from
/// the constructor of the predictor the state is imported into.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlopePredictorState {
    /// Coefficients of the cold-start global model.
    pub global: Vec<f32>,
    /// Personalised models as `(device_model, coefficients, update_count)`,
    /// sorted by device model name (the predictor keeps them in a `BTreeMap`,
    /// so registration order never reaches the export).
    pub personal: Vec<(String, Vec<f32>, u64)>,
    /// Accumulated calibration observations (feature vector, slope).
    pub calibration: Vec<(Vec<f32>, f32)>,
    /// Range of slopes seen so far.
    pub seen_range: Option<(f32, f32)>,
    /// Observations since the last global re-train.
    pub since_retrain: u64,
}

/// Checkpointed mutable state of an [`IProf`] instance: one
/// [`SlopePredictorState`] per predicted dimension.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IProfState {
    /// State of the computation-time predictor.
    pub latency: SlopePredictorState,
    /// State of the energy predictor.
    pub energy: SlopePredictorState,
}

/// One predictor (computation time *or* energy): a cold-start global linear
/// regression plus one personalised passive-aggressive model per device model.
#[derive(Debug, Clone)]
struct SlopePredictor {
    global: LinearRegression,
    personal: BTreeMap<String, PassiveAggressiveRegressor>,
    calibration: Vec<(Vec<f32>, f32)>,
    pa_epsilon: f32,
    min_slope: f32,
    /// Range of slopes seen so far; cold-start predictions are clamped into a
    /// widened version of this range to avoid extrapolation blow-ups for
    /// devices far outside the calibration population.
    seen_range: Option<(f32, f32)>,
    retrain_every: usize,
    since_retrain: usize,
}

impl SlopePredictor {
    fn new(dim: usize, pa_epsilon: f32, min_slope: f32) -> Self {
        Self {
            global: LinearRegression::zeros(dim),
            personal: BTreeMap::new(),
            calibration: Vec::new(),
            pa_epsilon,
            min_slope,
            seen_range: None,
            retrain_every: 50,
            since_retrain: 0,
        }
    }

    fn pretrain(&mut self, samples: &[(Vec<f32>, f32)]) {
        for (_, slope) in samples {
            self.record_range(*slope);
        }
        self.calibration.extend_from_slice(samples);
        if let Some(model) = LinearRegression::fit(&self.calibration) {
            self.global = model;
        }
    }

    fn record_range(&mut self, slope: f32) {
        self.seen_range = Some(match self.seen_range {
            None => (slope, slope),
            Some((lo, hi)) => (lo.min(slope), hi.max(slope)),
        });
    }

    fn clamp_slope(&self, slope: f32) -> f32 {
        let slope = slope.max(self.min_slope);
        match self.seen_range {
            Some((lo, hi)) => slope.clamp(lo * 0.3, hi * 3.0),
            None => slope,
        }
    }

    fn predict_slope(&self, device_model: &str, x: &[f32]) -> (f32, bool) {
        if let Some(pa) = self.personal.get(device_model) {
            if pa.updates() > 0 {
                return (self.clamp_slope(pa.predict(x)), true);
            }
        }
        (self.clamp_slope(self.global.predict(x)), false)
    }

    fn observe(&mut self, device_model: &str, x: &[f32], slope: f32) {
        self.record_range(slope);
        let dim = x.len();
        let global = &self.global;
        let pa = self
            .personal
            .entry(device_model.to_string())
            .or_insert_with(|| {
                // Bootstrap the personalised model from the global model so its
                // first prediction matches the cold-start estimate.
                let init = if global.dim() == dim {
                    global.coefficients().to_vec()
                } else {
                    vec![0.0; dim]
                };
                PassiveAggressiveRegressor::with_initial(init, self.pa_epsilon)
            });
        pa.update(x, slope);

        self.calibration.push((x.to_vec(), slope));
        self.since_retrain += 1;
        if self.since_retrain >= self.retrain_every {
            if let Some(model) = LinearRegression::fit(&self.calibration) {
                self.global = model;
            }
            self.since_retrain = 0;
        }
    }

    fn export_state(&self) -> SlopePredictorState {
        SlopePredictorState {
            global: self.global.coefficients().to_vec(),
            personal: self
                .personal
                .iter()
                .map(|(name, pa)| (name.clone(), pa.coefficients().to_vec(), pa.updates()))
                .collect(),
            calibration: self.calibration.clone(),
            seen_range: self.seen_range,
            since_retrain: self.since_retrain as u64,
        }
    }

    fn import_state(&mut self, state: SlopePredictorState) {
        self.global = LinearRegression::from_coefficients(state.global);
        self.personal = state
            .personal
            .into_iter()
            .map(|(name, theta, updates)| {
                (
                    name,
                    PassiveAggressiveRegressor::restore(theta, self.pa_epsilon, updates),
                )
            })
            .collect();
        self.calibration = state.calibration;
        self.seen_range = state.seen_range;
        self.since_retrain = state.since_retrain as usize;
    }
}

/// The I-Prof profiler: one [`SlopePredictor`] for computation time and one
/// for energy, combined through the SLO to propose a mini-batch size.
#[derive(Debug, Clone)]
pub struct IProf {
    slo: Slo,
    latency: SlopePredictor,
    energy: SlopePredictor,
}

impl IProf {
    /// Creates an I-Prof instance for an SLO with the default
    /// passive-aggressive sensitivities (1e-4 s/sample for computation time,
    /// 1e-6 battery-percent/sample for energy; see EXPERIMENTS.md for how
    /// these relate to the ε values quoted in the paper).
    pub fn new(slo: Slo) -> Self {
        Self::with_sensitivity(slo, 1e-4, 1e-6)
    }

    /// Creates an I-Prof instance with explicit ε-insensitive-loss thresholds
    /// for the latency and energy passive-aggressive models.
    pub fn with_sensitivity(slo: Slo, latency_epsilon: f32, energy_epsilon: f32) -> Self {
        Self {
            slo,
            latency: SlopePredictor::new(
                DeviceFeatures::LATENCY_DIM,
                latency_epsilon,
                MIN_LATENCY_SLOPE,
            ),
            energy: SlopePredictor::new(
                DeviceFeatures::ENERGY_DIM,
                energy_epsilon,
                MIN_ENERGY_SLOPE,
            ),
        }
    }

    /// The configured SLO.
    pub fn slo(&self) -> Slo {
        self.slo
    }

    /// Pre-trains the cold-start global computation-time model from offline
    /// calibration data `(latency_features, seconds_per_sample)`.
    pub fn pretrain_latency(&mut self, samples: &[(Vec<f32>, f32)]) {
        self.latency.pretrain(samples);
    }

    /// Pre-trains the cold-start global energy model from offline calibration
    /// data `(energy_features, battery_pct_per_sample)`.
    pub fn pretrain_energy(&mut self, samples: &[(Vec<f32>, f32)]) {
        self.energy.pretrain(samples);
    }

    /// Number of device models with a personalised latency model.
    pub fn personalized_models(&self) -> usize {
        self.latency.personal.len().max(self.energy.personal.len())
    }

    /// Exports the profiler's full mutable state for checkpointing. Personal
    /// models are sorted by device-model name, so the export is deterministic.
    pub fn export_state(&self) -> IProfState {
        IProfState {
            latency: self.latency.export_state(),
            energy: self.energy.export_state(),
        }
    }

    /// Restores state captured with [`IProf::export_state`] into a profiler
    /// built with the same constructor arguments (SLO, ε sensitivities).
    /// Subsequent predictions and observations proceed exactly as they would
    /// have on the exporting instance.
    pub fn import_state(&mut self, state: IProfState) {
        self.latency.import_state(state.latency);
        self.energy.import_state(state.energy);
    }

    /// Predicts the mini-batch size and the expected cost for a request.
    pub fn predict_batch(&self, device_model: &str, features: &DeviceFeatures) -> BatchPrediction {
        let lx = features.latency_features();
        let ex = features.energy_features();
        let (lat_slope, lat_personal) = self.latency.predict_slope(device_model, &lx);
        let (en_slope, en_personal) = self.energy.predict_slope(device_model, &ex);

        let mut bound = MAX_BATCH as f32;
        if let Some(t_slo) = self.slo.computation_seconds {
            bound = bound.min(t_slo / lat_slope);
        }
        if let Some(e_slo) = self.slo.energy_pct {
            bound = bound.min(e_slo / en_slope);
        }
        let batch_size = (bound.floor() as usize).clamp(1, MAX_BATCH);
        BatchPrediction {
            batch_size,
            predicted_seconds: lat_slope * batch_size as f32,
            predicted_energy_pct: en_slope * batch_size as f32,
            personalized: lat_personal || en_personal,
        }
    }
}

impl WorkloadProfiler for IProf {
    fn name(&self) -> &'static str {
        "I-Prof"
    }

    fn predict(&mut self, device_model: &str, features: &DeviceFeatures) -> usize {
        self.predict_batch(device_model, features).batch_size
    }

    fn observe(
        &mut self,
        device_model: &str,
        features: &DeviceFeatures,
        batch_size: usize,
        computation_seconds: f32,
        energy_pct: f32,
    ) {
        if batch_size == 0 {
            return;
        }
        let lat_slope = computation_seconds / batch_size as f32;
        let en_slope = energy_pct / batch_size as f32;
        self.latency
            .observe(device_model, &features.latency_features(), lat_slope);
        self.energy
            .observe(device_model, &features.energy_features(), en_slope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(freq: f32, temp: f32) -> DeviceFeatures {
        DeviceFeatures {
            available_memory_mb: 2000.0,
            total_memory_mb: 4000.0,
            temperature_celsius: temp,
            sum_max_freq_ghz: freq,
            energy_per_cpu_second: 2e-5,
        }
    }

    /// Calibration samples for a linear world where the latency slope is
    /// `0.02 / freq` seconds per sample.
    fn calibration() -> Vec<(Vec<f32>, f32)> {
        let mut out = Vec::new();
        for freq in [4.0f32, 8.0, 12.0, 16.0] {
            for temp in [30.0f32, 35.0, 40.0] {
                let f = features(freq, temp);
                out.push((f.latency_features(), 0.02 / freq));
            }
        }
        out
    }

    #[test]
    fn cold_start_uses_global_model() {
        let mut iprof = IProf::new(Slo::latency(3.0));
        iprof.pretrain_latency(&calibration());
        let pred = iprof.predict_batch("NewPhone", &features(8.0, 30.0));
        assert!(!pred.personalized);
        // True slope 0.0025 -> ideal batch 1200; the global model should land
        // in the right ballpark.
        assert!(
            (400..=4000).contains(&pred.batch_size),
            "batch was {}",
            pred.batch_size
        );
    }

    #[test]
    fn personalized_model_takes_over_after_observation() {
        let mut iprof = IProf::new(Slo::latency(3.0));
        iprof.pretrain_latency(&calibration());
        let f = features(10.0, 30.0);
        let first = iprof.predict_batch("Phone-X", &f);
        assert!(!first.personalized);
        // Device is actually twice as slow as the calibration world suggests.
        let true_slope = 0.004;
        iprof.observe(
            "Phone-X",
            &f,
            first.batch_size,
            true_slope * first.batch_size as f32,
            0.01,
        );
        let second = iprof.predict_batch("Phone-X", &f);
        assert!(second.personalized);
        let err_first = (first.predicted_seconds / first.batch_size as f32 - true_slope).abs();
        let err_second = (second.predicted_seconds / second.batch_size as f32 - true_slope).abs();
        assert!(
            err_second < err_first,
            "personalisation should reduce error"
        );
    }

    #[test]
    fn predictions_converge_towards_slo() {
        let mut iprof = IProf::new(Slo::latency(3.0));
        iprof.pretrain_latency(&calibration());
        let f = features(6.0, 32.0);
        let true_slope = 0.0045f32;
        let mut last_dev = f32::MAX;
        for i in 0..10 {
            let batch = iprof.predict("Phone-Y", &f);
            let latency = true_slope * batch as f32;
            iprof.observe("Phone-Y", &f, batch, latency, 0.01);
            let dev = (latency - 3.0).abs();
            if i >= 5 {
                assert!(dev <= last_dev + 0.3, "deviation should keep shrinking");
            }
            last_dev = dev;
        }
        assert!(last_dev < 0.5, "final deviation {last_dev}");
    }

    #[test]
    fn energy_slo_bounds_batch_size() {
        let mut iprof = IProf::new(Slo::both(1000.0, 0.075));
        iprof.pretrain_latency(&calibration());
        // Energy slope 1e-4 %/sample -> bound = 750.
        let f = features(8.0, 30.0);
        let samples = vec![(f.energy_features(), 1e-4f32)];
        iprof.pretrain_energy(&samples);
        let pred = iprof.predict_batch("E-Phone", &f);
        assert!(pred.batch_size <= 760, "batch {}", pred.batch_size);
        assert!(pred.predicted_energy_pct <= 0.08);
    }

    #[test]
    fn batch_is_at_least_one_even_for_terrible_devices() {
        let mut iprof = IProf::new(Slo::latency(0.001));
        iprof.pretrain_latency(&calibration());
        let pred = iprof.predict_batch("Slowest", &features(0.5, 50.0));
        assert!(pred.batch_size >= 1);
    }

    #[test]
    fn untrained_profiler_still_returns_valid_batches() {
        let mut iprof = IProf::new(Slo::latency(3.0));
        let batch = iprof.predict("Anything", &features(8.0, 30.0));
        assert!((1..=MAX_BATCH).contains(&batch));
    }

    /// Export mid-run, import into a fresh instance, and feed both the same
    /// follow-up observations: predictions and exported state must stay
    /// identical — the personalised models' update counts included.
    #[test]
    fn state_roundtrip_resumes_the_prediction_stream() {
        let build = || {
            let mut iprof = IProf::new(Slo::latency(3.0));
            iprof.pretrain_latency(&calibration());
            iprof
        };
        let mut original = build();
        let f = features(9.0, 33.0);
        for i in 0..5 {
            let pred = original.predict_batch("Phone-Z", &f);
            original.observe("Phone-Z", &f, pred.batch_size, 0.003 * (i + 1) as f32, 0.01);
        }
        let state = original.export_state();
        assert!(!state.latency.personal.is_empty());
        assert_eq!(state.latency.personal[0].2, 5, "update count must survive");

        let mut restored = build();
        restored.import_state(state.clone());
        assert_eq!(restored.export_state(), state);
        for i in 0..5 {
            let a = original.predict_batch("Phone-Z", &f);
            let b = restored.predict_batch("Phone-Z", &f);
            assert_eq!(a, b);
            assert!(b.personalized);
            let secs = 0.002 * (i + 1) as f32;
            original.observe("Phone-Z", &f, a.batch_size, secs, 0.01);
            restored.observe("Phone-Z", &f, b.batch_size, secs, 0.01);
        }
        assert_eq!(original.export_state(), restored.export_state());
    }

    #[test]
    fn observe_ignores_zero_batches() {
        let mut iprof = IProf::new(Slo::latency(3.0));
        iprof.observe("P", &features(8.0, 30.0), 0, 1.0, 1.0);
        assert_eq!(iprof.personalized_models(), 0);
    }
}
