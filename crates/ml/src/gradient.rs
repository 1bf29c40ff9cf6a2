//! Flat gradient container exchanged between FLeet workers and the server.
//!
//! In the FLeet protocol (Fig. 2 of the paper, step 5) the worker sends back a
//! single gradient computed on its local mini-batch; the server then scales it
//! by the staleness-aware dampening factor and applies it to the model
//! (Eq. 3). [`Gradient`] is that unit of exchange: a flat `f32` vector with the
//! arithmetic needed by the aggregation algorithms.

use serde::{Deserialize, Serialize};

/// A flat gradient (or parameter-delta) vector.
///
/// # Example
///
/// ```
/// use fleet_ml::Gradient;
///
/// let mut g = Gradient::from_vec(vec![3.0, 4.0]);
/// assert_eq!(g.l2_norm(), 5.0);
/// assert_eq!(g.clip_l2(2.5), 0.5);
/// assert_eq!(g.as_slice(), &[1.5, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Gradient {
    values: Vec<f32>,
}

impl Gradient {
    /// Creates a zero gradient with `len` entries.
    pub fn zeros(len: usize) -> Self {
        Self {
            values: vec![0.0; len],
        }
    }

    /// Creates a gradient from a flat vector.
    pub fn from_vec(values: Vec<f32>) -> Self {
        Self { values }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the gradient has no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Immutable view of the entries.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Mutable view of the entries.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Scales every entry in place.
    pub(crate) fn scale_in_place(&mut self, factor: f32) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Adds `other * factor` to this gradient in place.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn add_scaled(&mut self, other: &Gradient, factor: f32) {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "gradient length mismatch: {} vs {}",
            self.values.len(),
            other.values.len()
        );
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += b * factor;
        }
    }

    /// L2 norm of the gradient.
    pub fn l2_norm(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Clips the gradient in place so that its L2 norm is at most `max_norm`,
    /// returning the factor that was applied (1.0 when no clipping occurred).
    ///
    /// This is the per-gradient clipping used by the differentially-private
    /// training setup of the paper's §3.2 (via `fleet-dp`).
    pub fn clip_l2(&mut self, max_norm: f32) -> f32 {
        let norm = self.l2_norm();
        if norm > max_norm && norm > 0.0 {
            let factor = max_norm / norm;
            self.scale_in_place(factor);
            factor
        } else {
            1.0
        }
    }
}

impl FromIterator<f32> for Gradient {
    fn from_iter<T: IntoIterator<Item = f32>>(iter: T) -> Self {
        Gradient {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_len() {
        let g = Gradient::zeros(5);
        assert_eq!(g.len(), 5);
        assert!(!g.is_empty());
        assert_eq!(g.l2_norm(), 0.0);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut acc = Gradient::zeros(3);
        acc.add_scaled(&Gradient::from_vec(vec![1.0, 1.0, 1.0]), 2.0);
        acc.add_scaled(&Gradient::from_vec(vec![0.0, 1.0, 2.0]), -1.0);
        assert_eq!(acc.as_slice(), &[2.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_scaled_length_mismatch_panics() {
        let mut a = Gradient::zeros(2);
        a.add_scaled(&Gradient::zeros(3), 1.0);
    }

    #[test]
    fn clip_reduces_norm() {
        let mut g = Gradient::from_vec(vec![3.0, 4.0]);
        let factor = g.clip_l2(1.0);
        assert!((factor - 0.2).abs() < 1e-6);
        assert!((g.l2_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clip_noop_when_small() {
        let mut g = Gradient::from_vec(vec![0.3, 0.4]);
        let factor = g.clip_l2(1.0);
        assert_eq!(factor, 1.0);
        assert!((g.l2_norm() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn from_iterator_collects() {
        let g: Gradient = (0..4).map(|i| i as f32).collect();
        assert_eq!(g.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    proptest! {
        #[test]
        fn prop_clip_never_exceeds_bound(values in proptest::collection::vec(-50.0f32..50.0, 1..64), bound in 0.1f32..10.0) {
            let mut g = Gradient::from_vec(values);
            g.clip_l2(bound);
            prop_assert!(g.l2_norm() <= bound * 1.001);
        }

        #[test]
        fn prop_scale_then_norm(values in proptest::collection::vec(-10.0f32..10.0, 1..64), k in 0.0f32..4.0) {
            let g = Gradient::from_vec(values);
            let mut scaled = g.clone();
            scaled.scale_in_place(k);
            prop_assert!((scaled.l2_norm() - k * g.l2_norm()).abs() < 1e-2);
        }
    }
}
