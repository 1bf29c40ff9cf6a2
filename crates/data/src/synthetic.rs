//! Synthetic dataset generators standing in for the paper's image benchmarks.
//!
//! Each class is a Gaussian cluster in feature space; the class count, feature
//! shape, sample count and cluster spread are configurable, so the
//! experiment harnesses can keep the class counts of the datasets used in the
//! paper (MNIST: 10, E-MNIST: 62, CIFAR-100: 100) while staying small enough
//! to run on a laptop.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr_like::sample_normal;
use serde::{Deserialize, Serialize};

/// Minimal Box–Muller normal sampling so we do not need an extra dependency.
mod rand_distr_like {
    use rand::Rng;

    /// Draws one sample from `N(mean, std)`.
    pub(crate) fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f32, std: f32) -> f32 {
        // Box–Muller transform; avoid u1 == 0.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        mean + std * z
    }
}

/// Specification of a synthetic classification dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Number of classes.
    pub num_classes: usize,
    /// Per-example feature shape (e.g. `[1, 8, 8]` for image-like data).
    pub feature_shape: Vec<usize>,
    /// Total number of examples to generate.
    pub num_examples: usize,
    /// Standard deviation of each class cluster. Larger values make the task
    /// harder (more class overlap, noisier gradients).
    pub cluster_std: f32,
    /// Distance of the class centres from the origin.
    pub cluster_spread: f32,
}

impl SyntheticSpec {
    /// A flat-vector variant (no image structure) used by fast unit tests and
    /// the MLP-based experiment harnesses.
    pub fn vector(num_classes: usize, feature_dim: usize, num_examples: usize) -> Self {
        Self {
            num_classes,
            feature_shape: vec![feature_dim],
            num_examples,
            cluster_std: 0.5,
            cluster_spread: 1.0,
        }
    }

    /// Number of feature values per example.
    pub(crate) fn feature_len(&self) -> usize {
        self.feature_shape.iter().product()
    }
}

/// Generates a dataset according to `spec`, deterministically for a `seed`.
///
/// Class centres are drawn uniformly in `[-spread, spread]^d`; each example is
/// its class centre plus isotropic Gaussian noise of width `cluster_std`.
/// Class labels are assigned round-robin so every class is represented as
/// evenly as possible.
///
/// # Panics
///
/// Panics if the spec has zero classes or a zero-length feature shape.
pub fn generate(spec: &SyntheticSpec, seed: u64) -> Dataset {
    assert!(spec.num_classes > 0, "num_classes must be positive");
    let feature_len = spec.feature_len();
    assert!(feature_len > 0, "feature shape must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);

    // Deterministic class centres.
    let centres: Vec<Vec<f32>> = (0..spec.num_classes)
        .map(|_| {
            (0..feature_len)
                .map(|_| rng.gen_range(-spec.cluster_spread..=spec.cluster_spread))
                .collect()
        })
        .collect();

    let mut features = Vec::with_capacity(spec.num_examples * feature_len);
    let mut labels = Vec::with_capacity(spec.num_examples);
    for i in 0..spec.num_examples {
        let class = i % spec.num_classes;
        labels.push(class);
        for &centre in &centres[class] {
            features.push(sample_normal(&mut rng, centre, spec.cluster_std));
        }
    }
    // Min-max scale to [0, 1], mirroring the paper's pre-processing (§3.2).
    min_max_scale(&mut features);
    Dataset::new(
        features,
        labels,
        spec.feature_shape.clone(),
        spec.num_classes,
    )
}

/// In-place min-max scaling of a feature buffer to `[0, 1]`.
/// Leaves the buffer untouched when it is empty or constant.
pub(crate) fn min_max_scale(values: &mut [f32]) {
    if values.is_empty() {
        return;
    }
    let min = values.iter().cloned().fold(f32::INFINITY, f32::min);
    let max = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let range = max - min;
    if range <= f32::EPSILON {
        return;
    }
    for v in values.iter_mut() {
        *v = (*v - min) / range;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An image-shaped spec: 10 classes of `[1, 8, 8]` examples.
    fn image_spec(num_examples: usize) -> SyntheticSpec {
        SyntheticSpec {
            num_classes: 10,
            feature_shape: vec![1, 8, 8],
            num_examples,
            cluster_std: 0.6,
            cluster_spread: 1.0,
        }
    }

    fn class_counts(d: &Dataset) -> Vec<usize> {
        let mut counts = vec![0; d.num_classes()];
        for i in 0..d.len() {
            counts[d.label(i)] += 1;
        }
        counts
    }

    #[test]
    fn generate_respects_spec() {
        let d = generate(&image_spec(100), 42);
        assert_eq!(d.len(), 100);
        assert_eq!(d.num_classes(), 10);
        assert_eq!(d.batch(&[0]).0.shape(), &[1, 1, 8, 8]);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = SyntheticSpec::vector(5, 10, 50);
        assert_eq!(generate(&spec, 1), generate(&spec, 1));
        assert_ne!(generate(&spec, 1), generate(&spec, 2));
    }

    #[test]
    fn all_classes_represented() {
        let d = generate(&SyntheticSpec::vector(7, 4, 70), 3);
        assert!(class_counts(&d).iter().all(|&c| c == 10));
    }

    #[test]
    fn features_scaled_to_unit_interval() {
        let d = generate(&image_spec(64), 9);
        for i in 0..d.len() {
            for &v in d.example(i) {
                assert!((0.0..=1.0).contains(&v), "feature {v} outside [0,1]");
            }
        }
    }

    #[test]
    fn min_max_scale_handles_edge_cases() {
        let mut empty: Vec<f32> = vec![];
        min_max_scale(&mut empty);
        let mut constant = vec![3.0, 3.0];
        min_max_scale(&mut constant);
        assert_eq!(constant, vec![3.0, 3.0]);
        let mut values = vec![1.0, 3.0, 5.0];
        min_max_scale(&mut values);
        assert_eq!(values, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn clusters_are_separable_for_small_std() {
        // With tiny noise, a nearest-centroid rule should achieve high accuracy,
        // confirming the generator produces learnable structure.
        let spec = SyntheticSpec {
            num_classes: 4,
            feature_shape: vec![6],
            num_examples: 200,
            cluster_std: 0.05,
            cluster_spread: 1.0,
        };
        let d = generate(&spec, 11);
        // Nearest-centroid classification.
        let mut centroids = vec![vec![0.0f32; 6]; 4];
        let counts = class_counts(&d);
        for i in 0..d.len() {
            let c = d.label(i);
            for (k, v) in d.example(i).iter().enumerate() {
                centroids[c][k] += v / counts[c] as f32;
            }
        }
        let mut correct = 0;
        for i in 0..d.len() {
            let best = (0..4)
                .min_by(|&a, &b| {
                    let da: f32 = d
                        .example(i)
                        .iter()
                        .zip(&centroids[a])
                        .map(|(x, c)| (x - c).powi(2))
                        .sum();
                    let db: f32 = d
                        .example(i)
                        .iter()
                        .zip(&centroids[b])
                        .map(|(x, c)| (x - c).powi(2))
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == d.label(i) {
                correct += 1;
            }
        }
        assert!(correct as f32 / d.len() as f32 > 0.95);
    }

    proptest! {
        #[test]
        fn prop_generate_len_and_labels(classes in 1usize..20, dim in 1usize..16, n in 1usize..200, seed in 0u64..50) {
            let spec = SyntheticSpec::vector(classes, dim, n);
            let d = generate(&spec, seed);
            prop_assert_eq!(d.len(), n);
            prop_assert!((0..d.len()).all(|i| d.label(i) < classes));
        }
    }
}
