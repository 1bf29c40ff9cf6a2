//! Mini-batch sampling from a user's local data.
//!
//! FLeet workers sample a mini-batch of the size dictated by I-Prof from their
//! locally collected data (step 5 of Fig. 2). The sampler draws uniformly
//! with replacement when the requested size exceeds the available data, and
//! without replacement otherwise, mirroring `ξ_i` drawn uniformly from the
//! local dataset `x_i` in Eq. 3 of the paper.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Deterministic mini-batch sampler over a user's local example indices.
#[derive(Debug, Clone)]
pub struct MiniBatchSampler {
    rng: StdRng,
}

impl MiniBatchSampler {
    /// Creates a sampler seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples `batch_size` indices from `local_indices`.
    ///
    /// Sampling is without replacement while the local dataset is large
    /// enough, and with replacement otherwise. Returns an empty vector when
    /// either input is empty or zero.
    pub fn sample(&mut self, local_indices: &[usize], batch_size: usize) -> Vec<usize> {
        if local_indices.is_empty() || batch_size == 0 {
            return Vec::new();
        }
        if batch_size <= local_indices.len() {
            let mut pool = local_indices.to_vec();
            pool.shuffle(&mut self.rng);
            pool.truncate(batch_size);
            pool
        } else {
            (0..batch_size)
                .map(|_| local_indices[self.rng.gen_range(0..local_indices.len())])
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_inputs_give_empty_batch() {
        let mut s = MiniBatchSampler::new(0);
        assert!(s.sample(&[], 10).is_empty());
        assert!(s.sample(&[1, 2, 3], 0).is_empty());
    }

    #[test]
    fn without_replacement_when_enough_data() {
        let mut s = MiniBatchSampler::new(1);
        let pool: Vec<usize> = (0..100).collect();
        let batch = s.sample(&pool, 50);
        assert_eq!(batch.len(), 50);
        let unique: BTreeSet<usize> = batch.iter().cloned().collect();
        assert_eq!(unique.len(), 50);
        assert!(batch.iter().all(|i| pool.contains(i)));
    }

    #[test]
    fn with_replacement_when_batch_exceeds_pool() {
        let mut s = MiniBatchSampler::new(2);
        let pool = vec![7, 8, 9];
        let batch = s.sample(&pool, 10);
        assert_eq!(batch.len(), 10);
        assert!(batch.iter().all(|i| pool.contains(i)));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let pool: Vec<usize> = (0..20).collect();
        let a = MiniBatchSampler::new(5).sample(&pool, 10);
        let b = MiniBatchSampler::new(5).sample(&pool, 10);
        let c = MiniBatchSampler::new(6).sample(&pool, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
