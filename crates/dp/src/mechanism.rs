//! Gradient clipping + Gaussian noise (the mechanism of Abadi et al., CCS'16,
//! applied per worker gradient as in the paper's §3.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Gaussian mechanism: clip each gradient to an L2 bound and add
/// `N(0, (noise_multiplier * clip_norm / batch_size)^2)` noise per coordinate.
#[derive(Debug, Clone)]
pub struct GaussianMechanism {
    clip_norm: f32,
    noise_multiplier: f32,
    rng: StdRng,
}

impl GaussianMechanism {
    /// Creates a mechanism with the given clipping bound and noise multiplier
    /// (σ, the ratio of the noise standard deviation to the sensitivity).
    ///
    /// # Panics
    ///
    /// Panics if `clip_norm` is not positive or `noise_multiplier` is negative.
    pub fn new(clip_norm: f32, noise_multiplier: f32, seed: u64) -> Self {
        assert!(clip_norm > 0.0, "clip_norm must be positive");
        assert!(
            noise_multiplier >= 0.0,
            "noise_multiplier must be non-negative"
        );
        Self {
            clip_norm,
            noise_multiplier,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The raw RNG state, for checkpoint/restore of a mid-run mechanism.
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Rebuilds a mechanism whose noise stream continues exactly where a
    /// state captured with [`GaussianMechanism::rng_state`] left off.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`GaussianMechanism::new`].
    pub fn from_rng_state(clip_norm: f32, noise_multiplier: f32, state: u64) -> Self {
        let mut mechanism = Self::new(clip_norm, noise_multiplier, 0);
        mechanism.rng = StdRng::from_state(state);
        mechanism
    }

    /// Privatises a flat gradient computed on `batch_size` examples in place:
    /// clip to `clip_norm`, then add Gaussian noise with standard deviation
    /// `noise_multiplier * clip_norm / batch_size` per coordinate (the
    /// per-example sensitivity of an averaged mini-batch gradient).
    pub fn privatize(&mut self, gradient: &mut [f32], batch_size: usize) {
        clip_l2(gradient, self.clip_norm);
        if self.noise_multiplier == 0.0 || gradient.is_empty() {
            return;
        }
        let std = self.noise_multiplier * self.clip_norm / batch_size.max(1) as f32;
        for g in gradient.iter_mut() {
            *g += std * self.sample_standard_normal();
        }
    }

    fn sample_standard_normal(&mut self) -> f32 {
        // Box–Muller transform.
        let u1: f32 = self.rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }
}

/// Clips a flat vector to an L2 norm bound in place, returning the factor
/// applied (1.0 when no clipping was necessary).
pub(crate) fn clip_l2(values: &mut [f32], max_norm: f32) -> f32 {
    let norm: f32 = values.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let factor = max_norm / norm;
        for v in values.iter_mut() {
            *v *= factor;
        }
        factor
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_reduces_large_norms_only() {
        let mut big = vec![3.0, 4.0];
        assert!((clip_l2(&mut big, 1.0) - 0.2).abs() < 1e-6);
        let norm: f32 = big.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6);

        let mut small = vec![0.1, 0.1];
        assert_eq!(clip_l2(&mut small, 1.0), 1.0);
        assert_eq!(small, vec![0.1, 0.1]);
    }

    #[test]
    fn zero_noise_multiplier_only_clips() {
        let mut m = GaussianMechanism::new(1.0, 0.0, 1);
        let mut g = vec![3.0, 4.0];
        m.privatize(&mut g, 10);
        let norm: f32 = g.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
    }

    #[test]
    fn noise_perturbs_gradient() {
        let mut m = GaussianMechanism::new(1.0, 4.0, 2);
        let mut g = vec![0.0; 100];
        m.privatize(&mut g, 1);
        assert!(g.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn noise_scale_shrinks_with_batch_size() {
        let noise_norm = |batch: usize| -> f32 {
            let mut m = GaussianMechanism::new(1.0, 2.0, 3);
            let mut g = vec![0.0; 1000];
            m.privatize(&mut g, batch);
            g.iter().map(|v| v * v).sum::<f32>().sqrt()
        };
        assert!(noise_norm(100) < noise_norm(1) / 10.0);
    }

    #[test]
    fn mechanism_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut m = GaussianMechanism::new(1.0, 1.0, seed);
            let mut g = vec![0.5; 8];
            m.privatize(&mut g, 4);
            g
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    #[should_panic(expected = "clip_norm must be positive")]
    fn invalid_clip_norm_panics() {
        GaussianMechanism::new(0.0, 1.0, 0);
    }

    #[test]
    fn noise_is_roughly_unbiased() {
        let mut m = GaussianMechanism::new(1.0, 1.0, 11);
        let mut g = vec![0.0f32; 20_000];
        m.privatize(&mut g, 1);
        let mean: f32 = g.iter().sum::<f32>() / g.len() as f32;
        assert!(mean.abs() < 0.05, "mean noise was {mean}");
    }
}
