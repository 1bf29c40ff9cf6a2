//! Weight initialisation schemes.
//!
//! The paper's CNNs (Table 1) use standard initialisation; we provide uniform,
//! Xavier/Glorot and He initialisers, all seeded for reproducibility.

use crate::tensor::Tensor;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Weight initialisation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Initializer {
    /// All weights zero (useful for biases and tests).
    Zeros,
    /// Uniform in `[-scale, scale]` where the scale is fixed at construction.
    UniformSymmetric,
    /// Glorot/Xavier uniform: `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`.
    #[default]
    Xavier,
    /// He/Kaiming uniform: `U(-sqrt(6/fan_in), +sqrt(6/fan_in))`, suited to ReLU.
    He,
}

impl Initializer {
    /// Builds a tensor of the given shape, using `fan_in`/`fan_out` to size the
    /// distribution and `seed` for reproducibility.
    pub(crate) fn init(&self, shape: &[usize], fan_in: usize, fan_out: usize, seed: u64) -> Tensor {
        let len: usize = shape.iter().product();
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = match self {
            Initializer::Zeros => vec![0.0; len],
            Initializer::UniformSymmetric => {
                let dist = Uniform::new_inclusive(-0.05f32, 0.05f32);
                (0..len).map(|_| dist.sample(&mut rng)).collect()
            }
            Initializer::Xavier => {
                let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                let dist = Uniform::new_inclusive(-bound, bound);
                (0..len).map(|_| dist.sample(&mut rng)).collect()
            }
            Initializer::He => {
                let bound = (6.0 / fan_in.max(1) as f32).sqrt();
                let dist = Uniform::new_inclusive(-bound, bound);
                (0..len).map(|_| dist.sample(&mut rng)).collect()
            }
        };
        Tensor::from_vec(data, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_all_zero() {
        let t = Initializer::Zeros.init(&[4, 4], 4, 4, 0);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn xavier_within_bound() {
        let fan_in = 10;
        let fan_out = 20;
        let bound = (6.0f32 / 30.0).sqrt();
        let t = Initializer::Xavier.init(&[fan_in, fan_out], fan_in, fan_out, 7);
        assert!(t.data().iter().all(|v| v.abs() <= bound + 1e-6));
        // Not all values identical.
        assert!(t.data().iter().any(|&v| (v - t.data()[0]).abs() > 1e-9));
    }

    #[test]
    fn he_within_bound() {
        let bound = (6.0f32 / 16.0).sqrt();
        let t = Initializer::He.init(&[16, 8], 16, 8, 3);
        assert!(t.data().iter().all(|v| v.abs() <= bound + 1e-6));
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = Initializer::Xavier.init(&[8, 8], 8, 8, 99);
        let b = Initializer::Xavier.init(&[8, 8], 8, 8, 99);
        let c = Initializer::Xavier.init(&[8, 8], 8, 8, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_symmetric_small() {
        let t = Initializer::UniformSymmetric.init(&[32], 32, 32, 1);
        assert!(t.data().iter().all(|v| v.abs() <= 0.05 + 1e-6));
    }
}
