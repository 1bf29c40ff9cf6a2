//! Online passive-aggressive regression (Crammer et al., JMLR 2006), the
//! per-device-model personalised estimator of I-Prof (§2.2 of the paper).
//!
//! For each observation `(x, α)` the model parameters are updated as
//!
//! ```text
//! θ ← θ + (f / ‖x‖²) · sign(α − xᵀθ) · x
//! ```
//!
//! where `f` is the ε-insensitive loss `max(0, |xᵀθ − α| − ε)`. The parameter
//! ε controls the aggressiveness: the smaller ε, the larger the update per
//! new observation.

use serde::{Deserialize, Serialize};

/// An online passive-aggressive regressor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct PassiveAggressiveRegressor {
    theta: Vec<f32>,
    epsilon: f32,
    updates: u64,
}

impl PassiveAggressiveRegressor {
    /// Bootstraps the regressor from an existing coefficient vector (I-Prof
    /// initialises each personalised model from the cold-start global model's
    /// first prediction for that device).
    pub(crate) fn with_initial(theta: Vec<f32>, epsilon: f32) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Self {
            theta,
            epsilon,
            updates: 0,
        }
    }

    /// Rebuilds a regressor from checkpointed state, preserving the update
    /// count (unlike [`PassiveAggressiveRegressor::with_initial`], which
    /// resets it — the count decides whether a personalised model has seen
    /// real observations and may override the cold-start global model).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative.
    pub(crate) fn restore(theta: Vec<f32>, epsilon: f32, updates: u64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Self {
            theta,
            epsilon,
            updates,
        }
    }

    /// The current coefficients.
    pub(crate) fn coefficients(&self) -> &[f32] {
        &self.theta
    }

    /// Number of updates applied so far.
    pub(crate) fn updates(&self) -> u64 {
        self.updates
    }

    /// Predicts `xᵀθ` (dimensions beyond the model are ignored).
    pub(crate) fn predict(&self, x: &[f32]) -> f32 {
        self.theta.iter().zip(x.iter()).map(|(&t, &v)| t * v).sum()
    }

    /// The ε-insensitive loss for an observation (Eq. 2 of the paper).
    pub(crate) fn loss(&self, x: &[f32], target: f32) -> f32 {
        let error = (self.predict(x) - target).abs();
        (error - self.epsilon).max(0.0)
    }

    /// Applies one passive-aggressive update for the observation `(x, target)`.
    /// Observations with zero feature norm are ignored.
    pub(crate) fn update(&mut self, x: &[f32], target: f32) {
        let norm_sq: f32 = x.iter().map(|v| v * v).sum();
        if norm_sq <= f32::EPSILON {
            return;
        }
        let loss = self.loss(x, target);
        if loss > 0.0 {
            let direction = if target >= self.predict(x) { 1.0 } else { -1.0 };
            let step = loss / norm_sq;
            for (t, &v) in self.theta.iter_mut().zip(x.iter()) {
                *t += step * direction * v;
            }
        }
        self.updates += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn within_epsilon_observations_do_not_move_theta() {
        let mut pa = PassiveAggressiveRegressor::with_initial(vec![1.0], 0.5);
        pa.update(&[1.0], 1.3); // error 0.3 < epsilon
        assert_eq!(pa.coefficients(), &[1.0]);
        assert_eq!(pa.updates(), 1);
    }

    #[test]
    fn update_moves_prediction_towards_target() {
        let mut pa = PassiveAggressiveRegressor::with_initial(vec![0.0; 1], 0.0);
        let before = (pa.predict(&[2.0]) - 10.0).abs();
        pa.update(&[2.0], 10.0);
        let after = (pa.predict(&[2.0]) - 10.0).abs();
        assert!(after < before);
        // With epsilon = 0 the PA update lands exactly on the target.
        assert!(after < 1e-5);
    }

    #[test]
    fn converges_to_linear_relation() {
        let mut pa = PassiveAggressiveRegressor::with_initial(vec![0.0; 2], 0.01);
        for i in 0..500 {
            let x = vec![1.0, (i % 10) as f32];
            let y = 0.5 + 0.2 * x[1];
            pa.update(&x, y);
        }
        let pred = pa.predict(&[1.0, 5.0]);
        assert!((pred - 1.5).abs() < 0.1, "prediction was {pred}");
    }

    #[test]
    fn smaller_epsilon_is_more_aggressive() {
        let mut tight = PassiveAggressiveRegressor::with_initial(vec![0.0; 1], 0.0);
        let mut loose = PassiveAggressiveRegressor::with_initial(vec![0.0; 1], 0.5);
        tight.update(&[1.0], 1.0);
        loose.update(&[1.0], 1.0);
        assert!(tight.coefficients()[0] > loose.coefficients()[0]);
    }

    #[test]
    fn zero_norm_features_are_ignored() {
        let mut pa = PassiveAggressiveRegressor::with_initial(vec![0.0; 2], 0.1);
        pa.update(&[0.0, 0.0], 5.0);
        assert_eq!(pa.coefficients(), &[0.0, 0.0]);
    }

    #[test]
    fn bootstrap_from_initial_coefficients() {
        let pa = PassiveAggressiveRegressor::with_initial(vec![0.2, 0.3], 0.1);
        assert!((pa.predict(&[1.0, 2.0]) - 0.8).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_update_never_overshoots_past_epsilon(initial in -2.0f32..2.0, target in -5.0f32..5.0, x in 0.1f32..3.0) {
            let mut pa = PassiveAggressiveRegressor::with_initial(vec![initial], 0.05);
            pa.update(&[x], target);
            // After one PA step the residual shrinks to at most epsilon
            // (the update is exactly the loss normalised by ||x||^2).
            let residual = (pa.predict(&[x]) - target).abs();
            let before = (initial * x - target).abs();
            prop_assert!(residual <= before + 1e-4);
            prop_assert!(residual <= 0.05 + 1e-3 || residual < before);
        }
    }
}
