//! Simplified moments accountant.
//!
//! The paper measures the privacy loss ε with the moments accountant of Abadi
//! et al. given the sampling ratio `q = batch_size / N`, the noise multiplier
//! σ, the number of iterations `T` and `δ = 1/N²`. The full accountant
//! integrates log-moment bounds numerically; for the reproduction we use the
//! well-known closed-form bound of the same paper,
//! `ε ≈ c · q · sqrt(T · ln(1/δ)) / σ`, with `c = 2`, which preserves the
//! monotone relationships the experiments rely on (more noise or fewer steps
//! ⇒ smaller ε).

/// Closed-form moments-accountant estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MomentsAccountant {
    /// Sampling ratio `q = batch_size / dataset_size`.
    pub sampling_ratio: f64,
    /// Failure probability δ (the paper uses `1/N²`).
    pub delta: f64,
}

impl MomentsAccountant {
    /// Creates an accountant.
    ///
    /// # Panics
    ///
    /// Panics if `sampling_ratio` is not in `(0, 1]` or δ is not in `(0, 1)`.
    pub(crate) fn new(sampling_ratio: f64, delta: f64) -> Self {
        assert!(
            sampling_ratio > 0.0 && sampling_ratio <= 1.0,
            "sampling ratio must be in (0, 1]"
        );
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        Self {
            sampling_ratio,
            delta,
        }
    }

    /// The paper's §3.2 setup: mini-batch 100 over N = 60,000 MNIST examples,
    /// δ = 1/N².
    pub fn paper_mnist_defaults() -> Self {
        let n = 60_000.0;
        Self::new(100.0 / n, 1.0 / (n * n))
    }

    /// Estimated privacy loss ε after `steps` iterations with noise
    /// multiplier `sigma`. Returns `f64::INFINITY` when `sigma` is zero. The
    /// reference [`MomentsAccountant::noise_for_epsilon`] is tested against.
    #[cfg(test)]
    fn epsilon(&self, sigma: f64, steps: u64) -> f64 {
        if sigma <= 0.0 {
            return f64::INFINITY;
        }
        let c = 2.0;
        c * self.sampling_ratio * ((steps as f64) * (1.0 / self.delta).ln()).sqrt() / sigma
    }

    /// The noise multiplier σ needed to stay within `epsilon` after `steps`
    /// iterations: the inverse of the closed-form bound
    /// `ε = 2q·√(T·ln(1/δ)) / σ`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not positive.
    pub fn noise_for_epsilon(&self, epsilon: f64, steps: u64) -> f64 {
        assert!(epsilon > 0.0, "epsilon must be positive");
        let c = 2.0;
        c * self.sampling_ratio * ((steps as f64) * (1.0 / self.delta).ln()).sqrt() / epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_decreases_with_noise() {
        let acc = MomentsAccountant::paper_mnist_defaults();
        let strong = acc.epsilon(8.0, 4000);
        let weak = acc.epsilon(1.0, 4000);
        assert!(strong < weak);
    }

    #[test]
    fn epsilon_grows_with_steps() {
        let acc = MomentsAccountant::paper_mnist_defaults();
        assert!(acc.epsilon(2.0, 8000) > acc.epsilon(2.0, 1000));
    }

    #[test]
    fn zero_noise_means_infinite_epsilon() {
        let acc = MomentsAccountant::paper_mnist_defaults();
        assert!(acc.epsilon(0.0, 100).is_infinite());
    }

    #[test]
    fn noise_for_epsilon_inverts_epsilon() {
        let acc = MomentsAccountant::paper_mnist_defaults();
        let sigma = acc.noise_for_epsilon(1.75, 4000);
        let eps = acc.epsilon(sigma, 4000);
        assert!((eps - 1.75).abs() < 1e-9);
    }

    #[test]
    fn paper_epsilons_require_more_noise_for_stronger_privacy() {
        // Figure 11 uses ε = 1.75 (strong) and ε = 13.66 (weak) over the same
        // number of steps: the strong guarantee must require more noise.
        let acc = MomentsAccountant::paper_mnist_defaults();
        let strong_noise = acc.noise_for_epsilon(1.75, 4000);
        let weak_noise = acc.noise_for_epsilon(13.66, 4000);
        assert!(strong_noise > weak_noise);
    }

    #[test]
    #[should_panic(expected = "sampling ratio")]
    fn invalid_sampling_ratio_panics() {
        MomentsAccountant::new(0.0, 1e-9);
    }
}
