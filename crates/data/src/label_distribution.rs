//! Label distributions and the Bhattacharyya coefficient.
//!
//! AdaSGD's similarity-based boosting (§2.3, Eq. 4 of the paper) compares the
//! label distribution of a worker's local dataset with the global label
//! distribution of all previously used samples using the Bhattacharyya
//! coefficient `BC(p, q) = Σ_i sqrt(p_i q_i) ∈ [0, 1]`.

use serde::{Deserialize, Serialize};

/// A normalised distribution over class labels (or histogram bins, for
/// regression tasks — see §2.3 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabelDistribution {
    probabilities: Vec<f32>,
}

impl LabelDistribution {
    /// Builds the empirical distribution of `labels` over `num_classes`
    /// classes. Labels outside the range are ignored. Returns the uniform
    /// distribution when `labels` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn from_labels(labels: &[usize], num_classes: usize) -> Self {
        assert!(num_classes > 0, "num_classes must be positive");
        let mut counts = vec![0.0f32; num_classes];
        let mut total = 0.0f32;
        for &l in labels {
            if l < num_classes {
                counts[l] += 1.0;
                total += 1.0;
            }
        }
        if total == 0.0 {
            return Self::uniform(num_classes);
        }
        for c in &mut counts {
            *c /= total;
        }
        Self {
            probabilities: counts,
        }
    }

    /// Builds a distribution from raw per-class counts (used for the global
    /// label distribution, which accumulates all previously used samples).
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty.
    pub fn from_counts(counts: &[u64]) -> Self {
        assert!(!counts.is_empty(), "counts must be non-empty");
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Self::uniform(counts.len());
        }
        Self {
            probabilities: counts.iter().map(|&c| c as f32 / total as f32).collect(),
        }
    }

    /// The uniform distribution over `num_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn uniform(num_classes: usize) -> Self {
        assert!(num_classes > 0, "num_classes must be positive");
        Self {
            probabilities: vec![1.0 / num_classes as f32; num_classes],
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.probabilities.len()
    }

    /// Probability assigned to `class` (0.0 when out of range).
    pub fn probability(&self, class: usize) -> f32 {
        self.probabilities.get(class).copied().unwrap_or(0.0)
    }

    /// The probability vector.
    pub fn as_slice(&self) -> &[f32] {
        &self.probabilities
    }

    /// Bhattacharyya coefficient between two distributions, in `[0, 1]`
    /// (1 = identical support and shape, 0 = disjoint support).
    ///
    /// Distributions of different lengths are compared over the shorter prefix
    /// (the remaining mass necessarily contributes zero overlap).
    pub(crate) fn bhattacharyya(&self, other: &LabelDistribution) -> f32 {
        self.probabilities
            .iter()
            .zip(other.probabilities.iter())
            .map(|(&p, &q)| (p * q).max(0.0).sqrt())
            .sum::<f32>()
            .clamp(0.0, 1.0)
    }
}

/// Accumulates the global label distribution over all samples the server has
/// already used for updates (the `LD_global` of Eq. 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalLabelDistribution {
    counts: Vec<u64>,
}

impl GlobalLabelDistribution {
    /// Creates an empty accumulator over `num_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn new(num_classes: usize) -> Self {
        assert!(num_classes > 0, "num_classes must be positive");
        Self {
            counts: vec![0; num_classes],
        }
    }

    /// Records that `count` samples of `class` were used for a model update.
    /// Out-of-range classes are ignored.
    pub fn record(&mut self, class: usize, count: u64) {
        if let Some(c) = self.counts.get_mut(class) {
            *c += count;
        }
    }

    /// Records every label of a local mini-batch.
    pub fn record_labels(&mut self, labels: &[usize]) {
        for &l in labels {
            self.record(l, 1);
        }
    }

    /// Per-class counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Snapshot as a normalised [`LabelDistribution`] (uniform when empty).
    pub(crate) fn distribution(&self) -> LabelDistribution {
        LabelDistribution::from_counts(&self.counts)
    }

    /// Similarity of a local label distribution with the global one, i.e.
    /// Eq. 4 of the paper: `sim(x_i) = BC(LD(x_i), LD_global)`.
    pub fn similarity(&self, local: &LabelDistribution) -> f32 {
        self.distribution().bhattacharyya(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_labels_matches_paper_example() {
        // Paper §2.3: 1 example of label 0 and 2 of label 1 over 4 classes
        // gives LD = [1/3, 2/3, 0, 0].
        let ld = LabelDistribution::from_labels(&[0, 1, 1], 4);
        let expect = [1.0 / 3.0, 2.0 / 3.0, 0.0, 0.0];
        for (a, b) in ld.as_slice().iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_labels_give_uniform() {
        let ld = LabelDistribution::from_labels(&[], 5);
        assert_eq!(ld, LabelDistribution::uniform(5));
    }

    #[test]
    fn out_of_range_labels_ignored() {
        let ld = LabelDistribution::from_labels(&[0, 9], 2);
        assert_eq!(ld.probability(0), 1.0);
    }

    #[test]
    fn bhattacharyya_identical_is_one() {
        let ld = LabelDistribution::from_labels(&[0, 1, 2, 2], 3);
        assert!((ld.bhattacharyya(&ld) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn bhattacharyya_disjoint_is_zero() {
        let a = LabelDistribution::from_labels(&[0, 0], 4);
        let b = LabelDistribution::from_labels(&[3, 3], 4);
        assert_eq!(a.bhattacharyya(&b), 0.0);
    }

    #[test]
    fn bhattacharyya_symmetric() {
        let a = LabelDistribution::from_labels(&[0, 1, 1], 3);
        let b = LabelDistribution::from_labels(&[1, 2], 3);
        assert!((a.bhattacharyya(&b) - b.bhattacharyya(&a)).abs() < 1e-6);
    }

    #[test]
    fn global_distribution_accumulates() {
        let mut g = GlobalLabelDistribution::new(3);
        assert_eq!(g.counts(), &[0, 0, 0]);
        assert_eq!(g.distribution(), LabelDistribution::uniform(3));
        g.record_labels(&[0, 0, 1]);
        g.record(2, 1);
        assert_eq!(g.counts(), &[2, 1, 1]);
        let d = g.distribution();
        assert!((d.probability(0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn similarity_lower_for_unseen_label() {
        // A gradient computed on a label the model has rarely seen must get a
        // lower similarity (and hence a larger boost in AdaSGD).
        let mut g = GlobalLabelDistribution::new(4);
        g.record(1, 100);
        g.record(2, 100);
        let seen = LabelDistribution::from_labels(&[1, 2], 4);
        let unseen = LabelDistribution::from_labels(&[0, 0], 4);
        assert!(g.similarity(&seen) > g.similarity(&unseen));
    }

    proptest! {
        #[test]
        fn prop_bc_in_unit_interval(labels_a in proptest::collection::vec(0usize..6, 0..50),
                                    labels_b in proptest::collection::vec(0usize..6, 0..50)) {
            let a = LabelDistribution::from_labels(&labels_a, 6);
            let b = LabelDistribution::from_labels(&labels_b, 6);
            let bc = a.bhattacharyya(&b);
            prop_assert!((0.0..=1.0).contains(&bc));
        }

        #[test]
        fn prop_distribution_sums_to_one(labels in proptest::collection::vec(0usize..8, 1..100)) {
            let ld = LabelDistribution::from_labels(&labels, 8);
            let sum: f32 = ld.as_slice().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }

        #[test]
        fn prop_self_similarity_is_max(labels in proptest::collection::vec(0usize..5, 1..50),
                                       other in proptest::collection::vec(0usize..5, 1..50)) {
            let a = LabelDistribution::from_labels(&labels, 5);
            let b = LabelDistribution::from_labels(&other, 5);
            prop_assert!(a.bhattacharyya(&a) >= a.bhattacharyya(&b) - 1e-5);
        }
    }
}
