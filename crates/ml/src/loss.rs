//! Loss functions.
//!
//! FLeet's image-classification workloads train with softmax cross-entropy;
//! this module provides it together with the gradient with respect to the
//! logits, which seeds the backward pass through a
//! [`crate::model::Sequential`] model.

use crate::tensor::Tensor;
use crate::{MlError, Result};

/// Numerically-stable softmax over the rows of a `[batch, classes]` tensor.
///
/// # Panics
///
/// Panics if the tensor is not 2-D.
pub(crate) fn softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().len(), 2, "softmax requires a 2-D tensor");
    let (batch, classes) = (logits.shape()[0], logits.shape()[1]);
    let mut out = vec![0.0f32; batch * classes];
    for i in 0..batch {
        let row = &logits.data()[i * classes..(i + 1) * classes];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        for j in 0..classes {
            out[i * classes + j] = exps[j] / sum;
        }
    }
    Tensor::from_vec(out, &[batch, classes])
}

/// Softmax cross-entropy loss for integer class labels.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Creates the loss function.
    pub(crate) fn new() -> Self {
        Self
    }

    /// Computes the mean loss over the batch and the gradient with respect to
    /// the logits.
    ///
    /// `logits` has shape `[batch, classes]`; `labels` holds one class index
    /// per example.
    ///
    /// # Errors
    ///
    /// Returns an error when the batch sizes disagree, the batch is empty or a
    /// label is out of range.
    pub(crate) fn forward(&self, logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
        if logits.shape().len() != 2 {
            return Err(MlError::ShapeMismatch {
                expected: vec![labels.len(), 0],
                actual: logits.shape().to_vec(),
                context: "SoftmaxCrossEntropy::forward".to_string(),
            });
        }
        let (batch, classes) = (logits.shape()[0], logits.shape()[1]);
        if batch != labels.len() || batch == 0 {
            return Err(MlError::InvalidArgument(format!(
                "batch size mismatch: logits have {batch} rows, {} labels given",
                labels.len()
            )));
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
            return Err(MlError::InvalidArgument(format!(
                "label {bad} out of range for {classes} classes"
            )));
        }
        let probs = softmax(logits);
        let mut loss = 0.0f32;
        let mut grad = probs.clone();
        for (i, &label) in labels.iter().enumerate() {
            let p = probs.at2(i, label).max(1e-12);
            loss -= p.ln();
            *grad.at2_mut(i, label) -= 1.0;
        }
        let scale = 1.0 / batch as f32;
        Ok((loss * scale, grad.scale(scale)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let p = softmax(&logits);
        for i in 0..2 {
            let s: f32 = (0..3).map(|j| p.at2(i, j)).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let b = Tensor::from_vec(vec![101.0, 102.0, 103.0], &[1, 3]);
        let pa = softmax(&a);
        let pb = softmax(&b);
        for (x, y) in pa.data().iter().zip(pb.data().iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn uniform_logits_give_log_classes_loss() {
        let loss_fn = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(&[4, 10]);
        let labels = vec![0, 3, 5, 9];
        let (loss, _) = loss_fn.forward(&logits, &labels).unwrap();
        assert!((loss - (10.0f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        let loss_fn = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![2.0, -1.0, 0.5, 0.0, 1.0, -0.5], &[2, 3]);
        let (_, grad) = loss_fn.forward(&logits, &[0, 2]).unwrap();
        for i in 0..2 {
            let s: f32 = (0..3).map(|j| grad.at2(i, j)).sum();
            assert!(s.abs() < 1e-5, "row {i} gradient sums to {s}");
        }
    }

    #[test]
    fn perfect_prediction_has_small_loss() {
        let loss_fn = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![100.0, 0.0, 0.0], &[1, 3]);
        let (loss, _) = loss_fn.forward(&logits, &[0]).unwrap();
        assert!(loss < 1e-3);
    }

    #[test]
    fn label_out_of_range_errors() {
        let loss_fn = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(&[1, 3]);
        assert!(loss_fn.forward(&logits, &[3]).is_err());
    }

    #[test]
    fn batch_mismatch_errors() {
        let loss_fn = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(&[2, 3]);
        assert!(loss_fn.forward(&logits, &[0]).is_err());
        assert!(loss_fn.forward(&Tensor::zeros(&[0, 3]), &[]).is_err());
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let loss_fn = SoftmaxCrossEntropy::new();
        let mut logits = Tensor::from_vec(vec![0.3, -0.7, 1.2], &[1, 3]);
        let labels = [2usize];
        let (_, grad) = loss_fn.forward(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for j in 0..3 {
            let orig = logits.at2(0, j);
            *logits.at2_mut(0, j) = orig + eps;
            let (plus, _) = loss_fn.forward(&logits, &labels).unwrap();
            *logits.at2_mut(0, j) = orig - eps;
            let (minus, _) = loss_fn.forward(&logits, &labels).unwrap();
            *logits.at2_mut(0, j) = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (grad.at2(0, j) - numeric).abs() < 1e-3,
                "logit {j}: analytic {} vs numeric {numeric}",
                grad.at2(0, j)
            );
        }
    }
}
