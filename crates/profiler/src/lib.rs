//! # fleet-profiler
//!
//! I-Prof — the FLeet paper's lightweight, SLO-driven workload profiler
//! (§2.2) — together with the MAUI baseline it is compared against (§3.3).
//!
//! Given the device state observable on stock Android
//! ([`fleet_device::DeviceFeatures`]), I-Prof predicts the per-sample slope α
//! of the (linear) relation between mini-batch size and computation time or
//! energy, and inverts it (Eq. 1 of the paper) to propose the largest
//! mini-batch size that still meets the Service Level Objective:
//!
//! ```text
//! n̂ = max(1, SLO / α̂)
//! ```
//!
//! Two estimators are combined:
//!
//! * a **cold-start global model** — ordinary least squares over device
//!   features, pre-trained offline on calibration devices and periodically
//!   re-trained — used for the first request of every device model, and
//! * a **personalised model per device model** — an online
//!   passive-aggressive regressor with an ε-insensitive loss — bootstrapped
//!   from the first observation and refined with every subsequent learning
//!   task.
//!
//! The MAUI baseline ([`pretrained_maui`]) is the comparison profiler: a
//! single linear regression on the mini-batch size alone (the paper's
//! adaptation of MAUI).

#![forbid(unsafe_code)]

mod eval;
mod iprof;
mod linreg;
mod maui;
mod passive_aggressive;
mod slo;
mod training;

pub use eval::DeviationStats;
pub use iprof::{BatchPrediction, IProf, IProfState, SlopePredictorState};
pub use slo::Slo;
pub use training::{collect_calibration, pretrained_iprof, pretrained_maui};

use fleet_device::DeviceFeatures;

/// Common interface of the workload profilers compared in §3.3, so the
/// experiment harnesses can alternate requests between them (the paper uses a
/// round-robin dispatcher for exactly this purpose).
pub trait WorkloadProfiler {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;

    /// Predicts the mini-batch size for a request from `device_model` with the
    /// given observable `features`.
    fn predict(&mut self, device_model: &str, features: &DeviceFeatures) -> usize;

    /// Feeds back the measured execution of a learning task so the profiler
    /// can refine its estimators.
    fn observe(
        &mut self,
        device_model: &str,
        features: &DeviceFeatures,
        batch_size: usize,
        computation_seconds: f32,
        energy_pct: f32,
    );
}
