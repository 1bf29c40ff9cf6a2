//! Network latency models.
//!
//! §3.1 of the paper estimates the model download + gradient upload time at
//! 1.1 s over 4G LTE and 3.8 s over 3G HSPA+, and assumes an exponentially
//! distributed round-trip latency per model update (computation + network)
//! when deriving the staleness distribution of Fig. 7.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Cellular technology of a worker's connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkKind {
    /// 4G LTE: ~1.1 s for the model transfer of the paper's 123 k-parameter model.
    Lte4G,
    /// 3G HSPA+: ~3.8 s for the same transfer.
    Hspa3G,
}

impl NetworkKind {
    /// Transfer seconds for the paper's reference model (download + upload).
    pub(crate) fn reference_transfer_seconds(&self) -> f64 {
        match self {
            NetworkKind::Lte4G => 1.1,
            NetworkKind::Hspa3G => 3.8,
        }
    }

    /// Transfer seconds scaled to an arbitrary number of model parameters
    /// (the reference is the paper's 123,330-parameter RNN).
    pub fn transfer_seconds(&self, num_parameters: usize) -> f64 {
        const REFERENCE_PARAMETERS: f64 = 123_330.0;
        self.reference_transfer_seconds() * (num_parameters as f64 / REFERENCE_PARAMETERS)
    }
}

/// Exponential round-trip latency sampler used for the staleness study.
///
/// The round-trip is `minimum + Exp(mean - minimum)`: the paper uses a minimum
/// of 7.1 s (6 s computation + 1.1 s 4G transfer) and a mean of 8.45 s (the
/// average of the 4G and 3G cases).
#[derive(Debug, Clone)]
pub struct RoundTripModel {
    minimum_seconds: f64,
    mean_seconds: f64,
    rng: StdRng,
}

impl RoundTripModel {
    /// Creates a sampler with the given minimum and mean (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `mean_seconds < minimum_seconds` or `minimum_seconds < 0`.
    pub(crate) fn new(minimum_seconds: f64, mean_seconds: f64, seed: u64) -> Self {
        assert!(minimum_seconds >= 0.0, "minimum must be non-negative");
        assert!(
            mean_seconds >= minimum_seconds,
            "mean must be at least the minimum"
        );
        Self {
            minimum_seconds,
            mean_seconds,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The paper's §3.1 configuration: minimum 7.1 s, mean 8.45 s.
    pub fn paper_defaults(seed: u64) -> Self {
        Self::new(7.1, 8.45, seed)
    }

    /// Draws one round-trip latency in seconds.
    pub fn sample(&mut self) -> f64 {
        let excess_mean = self.mean_seconds - self.minimum_seconds;
        if excess_mean <= 0.0 {
            return self.minimum_seconds;
        }
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        self.minimum_seconds - excess_mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_transfer_times_match_paper() {
        assert_eq!(NetworkKind::Lte4G.reference_transfer_seconds(), 1.1);
        assert_eq!(NetworkKind::Hspa3G.reference_transfer_seconds(), 3.8);
    }

    #[test]
    fn transfer_scales_with_model_size() {
        let t_small = NetworkKind::Lte4G.transfer_seconds(123_330 / 2);
        let t_ref = NetworkKind::Lte4G.transfer_seconds(123_330);
        assert!((t_ref - 1.1).abs() < 1e-9);
        assert!((t_small - 0.55).abs() < 1e-9);
    }

    #[test]
    fn samples_respect_minimum() {
        let mut m = RoundTripModel::paper_defaults(1);
        for _ in 0..1000 {
            assert!(m.sample() >= 7.1);
        }
    }

    #[test]
    fn sample_mean_close_to_configured_mean() {
        let mut m = RoundTripModel::paper_defaults(2);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| m.sample()).sum::<f64>() / n as f64;
        assert!((mean - 8.45).abs() < 0.15, "mean was {mean}");
    }

    #[test]
    fn degenerate_model_returns_minimum() {
        let mut m = RoundTripModel::new(5.0, 5.0, 3);
        assert_eq!(m.sample(), 5.0);
    }

    #[test]
    #[should_panic(expected = "mean must be at least the minimum")]
    fn invalid_mean_panics() {
        RoundTripModel::new(10.0, 5.0, 0);
    }
}
