//! In-memory labelled dataset.

use fleet_ml::Tensor;
use serde::{Deserialize, Serialize};

/// A labelled classification dataset held in memory.
///
/// Features are stored flat (`examples x feature_len`); `feature_shape`
/// records the per-example shape (e.g. `[1, 8, 8]` for image data) so that
/// batches can be reassembled into the tensor layout a CNN expects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    features: Vec<f32>,
    labels: Vec<usize>,
    feature_shape: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` is not `labels.len() * product(feature_shape)`
    /// or if a label is `>= num_classes`.
    pub(crate) fn new(
        features: Vec<f32>,
        labels: Vec<usize>,
        feature_shape: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        let per_example: usize = feature_shape.iter().product();
        assert_eq!(
            features.len(),
            labels.len() * per_example,
            "feature length {} does not match {} examples of shape {:?}",
            features.len(),
            labels.len(),
            feature_shape
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range for {num_classes} classes"
        );
        Self {
            features,
            labels,
            feature_shape,
            num_classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of feature values per example.
    pub fn feature_len(&self) -> usize {
        self.feature_shape.iter().product()
    }

    /// The label of example `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn label(&self, index: usize) -> usize {
        self.labels[index]
    }

    /// Features of example `index` as a flat slice.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub(crate) fn example(&self, index: usize) -> &[f32] {
        let len = self.feature_len();
        &self.features[index * len..(index + 1) * len]
    }

    /// Builds a batch tensor (`[batch, ...feature_shape]`) and label vector
    /// from example indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let len = self.feature_len();
        let mut data = Vec::with_capacity(indices.len() * len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.example(i));
            labels.push(self.labels[i]);
        }
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(&self.feature_shape);
        (Tensor::from_vec(data, &shape), labels)
    }

    /// Splits into `(train, test)` where `test_fraction` of the examples
    /// (rounded down) go to the test set, keeping the original order.
    ///
    /// # Panics
    ///
    /// Panics if `test_fraction` is not within `[0, 1]`.
    pub fn split(&self, test_fraction: f32) -> (Dataset, Dataset) {
        assert!(
            (0.0..=1.0).contains(&test_fraction),
            "test_fraction must be in [0, 1]"
        );
        let test_len = (self.len() as f32 * test_fraction) as usize;
        let train_len = self.len() - test_len;
        let per = self.feature_len();
        let train = Dataset::new(
            self.features[..train_len * per].to_vec(),
            self.labels[..train_len].to_vec(),
            self.feature_shape.clone(),
            self.num_classes,
        );
        let test = Dataset::new(
            self.features[train_len * per..].to_vec(),
            self.labels[train_len..].to_vec(),
            self.feature_shape.clone(),
            self.num_classes,
        );
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            vec![0, 1, 0, 1],
            vec![2],
            2,
        )
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.feature_len(), 2);
        assert_eq!(d.example(1), &[2.0, 3.0]);
        assert_eq!(d.label(3), 1);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_lengths_panic() {
        Dataset::new(vec![1.0, 2.0, 3.0], vec![0, 1], vec![2], 2);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_panics() {
        Dataset::new(vec![1.0, 2.0], vec![5], vec![2], 2);
    }

    #[test]
    fn batch_builds_tensor() {
        let d = toy();
        let (x, y) = d.batch(&[0, 2]);
        assert_eq!(x.shape(), &[2, 2]);
        assert_eq!(x.data(), &[0.0, 1.0, 4.0, 5.0]);
        assert_eq!(y, vec![0, 0]);
    }

    #[test]
    fn split_preserves_total() {
        let d = toy();
        let (train, test) = d.split(0.25);
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert_eq!(test.example(0), &[6.0, 7.0]);
    }
}
