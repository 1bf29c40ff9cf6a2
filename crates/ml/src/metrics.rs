//! Evaluation metrics used by the paper's experiments.
//!
//! * Top-1 accuracy — Figures 3, 8, 9, 10, 11, 15.
//! * F1-score @ top-k — Figure 6 (the hashtag-recommendation quality metric:
//!   how many of the top-5 recommended hashtags were actually used and how
//!   many of the used hashtags were recommended).

use std::collections::BTreeSet;

/// Fraction of predictions equal to the label. Returns 0.0 for empty input.
///
/// # Example
///
/// ```
/// use fleet_ml::metrics::accuracy;
/// assert_eq!(accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
/// ```
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    if predictions.is_empty() || predictions.len() != labels.len() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    correct as f32 / predictions.len() as f32
}

/// Per-class accuracy: fraction of examples with label `class` that were
/// predicted correctly. Returns `None` when no example carries the class
/// (Figure 9a reports accuracy restricted to class 0).
pub fn class_accuracy(predictions: &[usize], labels: &[usize], class: usize) -> Option<f32> {
    let total = labels.iter().filter(|&&l| l == class).count();
    if total == 0 || predictions.len() != labels.len() {
        return None;
    }
    let correct = predictions
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| **l == class && p == l)
        .count();
    Some(correct as f32 / total as f32)
}

/// Precision/recall/F1 for one recommendation: `recommended` is the ranked
/// top-k output, `actual` the ground-truth set.
///
/// Returns `(precision, recall, f1)`, all zero when either side is empty.
pub fn precision_recall_f1(recommended: &[usize], actual: &[usize]) -> (f32, f32, f32) {
    if recommended.is_empty() || actual.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let actual_set: BTreeSet<usize> = actual.iter().cloned().collect();
    let hits = recommended
        .iter()
        .filter(|r| actual_set.contains(r))
        .count() as f32;
    let precision = hits / recommended.len() as f32;
    let recall = hits / actual_set.len() as f32;
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    (precision, recall, f1)
}

/// Mean F1-score @ top-k over a set of (recommendation, ground-truth) pairs,
/// the quality metric of the paper's §3.1 (Figure 6).
pub fn mean_f1_at_k(pairs: &[(Vec<usize>, Vec<usize>)]) -> f32 {
    if pairs.is_empty() {
        return 0.0;
    }
    let total: f32 = pairs
        .iter()
        .map(|(rec, act)| precision_recall_f1(rec, act).2)
        .sum();
    total / pairs.len() as f32
}

/// Utility accumulating a running average (used by the experiment harnesses
/// when reporting per-chunk metrics).
#[derive(Debug, Clone, Default)]
pub struct RunningMean {
    sum: f64,
    count: u64,
}

impl RunningMean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    /// Current mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 2, 3], &[0, 1, 2, 3]), 1.0);
        assert_eq!(accuracy(&[0, 0, 0, 0], &[0, 1, 2, 3]), 0.25);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[1], &[1, 2]), 0.0);
    }

    #[test]
    fn class_accuracy_restricts_to_class() {
        let preds = [0, 1, 0, 2];
        let labels = [0, 0, 0, 2];
        assert_eq!(class_accuracy(&preds, &labels, 0), Some(2.0 / 3.0));
        assert_eq!(class_accuracy(&preds, &labels, 2), Some(1.0));
        assert_eq!(class_accuracy(&preds, &labels, 5), None);
    }

    #[test]
    fn f1_perfect_and_disjoint() {
        let (p, r, f1) = precision_recall_f1(&[1, 2, 3], &[1, 2, 3]);
        assert_eq!((p, r, f1), (1.0, 1.0, 1.0));
        let (p, r, f1) = precision_recall_f1(&[4, 5], &[1, 2]);
        assert_eq!((p, r, f1), (0.0, 0.0, 0.0));
    }

    #[test]
    fn f1_partial_overlap() {
        // 5 recommended, 2 actually used, 1 hit.
        let (p, r, f1) = precision_recall_f1(&[1, 2, 3, 4, 5], &[1, 9]);
        assert!((p - 0.2).abs() < 1e-6);
        assert!((r - 0.5).abs() < 1e-6);
        assert!((f1 - 2.0 * 0.2 * 0.5 / 0.7).abs() < 1e-6);
    }

    #[test]
    fn f1_empty_sides() {
        assert_eq!(precision_recall_f1(&[], &[1]), (0.0, 0.0, 0.0));
        assert_eq!(precision_recall_f1(&[1], &[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn mean_f1_averages() {
        let pairs = vec![(vec![1, 2], vec![1, 2]), (vec![3], vec![4])];
        assert!((mean_f1_at_k(&pairs) - 0.5).abs() < 1e-6);
        assert_eq!(mean_f1_at_k(&[]), 0.0);
    }

    #[test]
    fn running_mean_accumulates() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), 0.0);
        m.push(2.0);
        m.push(4.0);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.count(), 2);
    }
}
