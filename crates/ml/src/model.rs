//! The [`Sequential`] model container.
//!
//! FLeet exchanges *flat* parameter and gradient vectors between the server
//! and its workers (Fig. 2 of the paper): the server sends model parameters,
//! the worker computes a gradient on its local mini-batch and sends the flat
//! gradient back. `Sequential` therefore exposes
//! [`Sequential::parameters`] / [`Sequential::set_parameters`] and
//! [`Sequential::gradient`] as its primary interface, in addition to the usual
//! forward/backward passes.

use crate::gradient::Gradient;
use crate::layer::Layer;
use crate::loss::SoftmaxCrossEntropy;
use crate::tensor::Tensor;
use crate::{MlError, Result};

/// A feed-forward stack of layers trained with softmax cross-entropy.
///
/// `Clone` produces a full replica of the parameters and gradients; the
/// parallel async simulation clones one replica per worker thread. Between
/// passes a model holds nothing else: every transient buffer of a pass is
/// lent by the thread's scratch pool and given back before the pass
/// returns.
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    loss: SoftmaxCrossEntropy,
}

impl Sequential {
    /// Creates an empty model.
    pub(crate) fn new() -> Self {
        Self {
            layers: Vec::new(),
            loss: SoftmaxCrossEntropy::new(),
        }
    }

    /// Appends a layer, returning `self` for chaining.
    pub(crate) fn with_layer(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub(crate) fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub(crate) fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Runs a forward pass through every layer.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.with_logits(input, Tensor::clone)
    }

    /// Runs a forward pass and `f` on the logits, then gives every buffer of
    /// the pass back to the scratch pool. The logits are lent too, so a
    /// caller that keeps them gets a copy: the pool then keeps every buffer
    /// it lent, and the next pass allocates none.
    fn with_logits<R>(&mut self, input: &Tensor, f: impl FnOnce(&Tensor) -> R) -> Result<R> {
        let logits = self.forward_pass(input);
        self.release_scratch();
        let logits = logits?;
        let out = f(&logits);
        logits.give_back();
        Ok(out)
    }

    /// [`Sequential::forward`] leaving each layer's caches in place for a
    /// backward pass. Each intermediate activation goes back to the scratch
    /// pool as soon as the next layer has consumed it.
    fn forward_pass(&mut self, input: &Tensor) -> Result<Tensor> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(input.clone());
        };
        let mut current = first.forward(input)?;
        for layer in rest {
            let next = layer.forward(&current)?;
            std::mem::replace(&mut current, next).give_back();
        }
        Ok(current)
    }

    /// Computes the mean loss and accumulates parameter gradients for a batch
    /// of `inputs` with integer `labels`. Returns the loss.
    ///
    /// Gradients accumulate across calls until [`Sequential::zero_gradients`]
    /// is invoked, which matches how a FLeet worker computes one gradient per
    /// learning task.
    ///
    /// # Errors
    ///
    /// Propagates shape/label errors from the layers and the loss.
    pub(crate) fn backward(&mut self, inputs: &Tensor, labels: &[usize]) -> Result<f32> {
        let loss = self.backward_pass(inputs, labels);
        self.release_scratch();
        loss
    }

    /// [`Sequential::backward`] before the layers give their caches back.
    fn backward_pass(&mut self, inputs: &Tensor, labels: &[usize]) -> Result<f32> {
        let logits = self.forward_pass(inputs)?;
        let (loss, mut grad) = self.loss.forward(&logits, labels)?;
        logits.give_back();
        // Mirror of the forward pass: every consumed gradient tensor goes
        // back to the scratch pool once the layer below has produced its own.
        let Some((first, rest)) = self.layers.split_first_mut() else {
            grad.give_back();
            return Ok(loss);
        };
        for layer in rest.iter_mut().rev() {
            let next = layer.backward(&grad)?;
            std::mem::replace(&mut grad, next).give_back();
        }
        // The first layer's input gradient has no consumer; let the layer
        // skip computing it (a full GEMM + scatter for convolutions).
        first.backward_input_unneeded(&grad)?;
        grad.give_back();
        Ok(loss)
    }

    /// Gives every layer's pass scratch back to the thread's pool.
    fn release_scratch(&mut self) {
        for layer in &mut self.layers {
            layer.release_scratch();
        }
    }

    /// Clears all accumulated parameter gradients.
    pub(crate) fn zero_gradients(&mut self) {
        for layer in &mut self.layers {
            layer.zero_gradients();
        }
    }

    /// Returns all model parameters as one flat vector (layer order, then
    /// parameter order within the layer).
    pub fn parameters(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.parameter_count());
        for layer in &self.layers {
            for p in layer.parameters() {
                out.extend_from_slice(p.data());
            }
        }
        out
    }

    /// Overwrites all model parameters from a flat vector produced by
    /// [`Sequential::parameters`] (possibly of another replica of the same
    /// architecture).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ParameterCountMismatch`] when the length differs
    /// from [`Sequential::parameter_count`].
    pub fn set_parameters(&mut self, flat: &[f32]) -> Result<()> {
        let expected = self.parameter_count();
        if flat.len() != expected {
            return Err(MlError::ParameterCountMismatch {
                expected,
                actual: flat.len(),
            });
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            for p in layer.parameters_mut() {
                let len = p.len();
                p.data_mut().copy_from_slice(&flat[offset..offset + len]);
                offset += len;
            }
        }
        Ok(())
    }

    /// Returns the currently accumulated gradient as a flat [`Gradient`] in
    /// the same layout as [`Sequential::parameters`].
    pub(crate) fn gradient(&self) -> Gradient {
        let mut out = Vec::with_capacity(self.parameter_count());
        for layer in &self.layers {
            for g in layer.gradients() {
                out.extend_from_slice(g.data());
            }
        }
        Gradient::from_vec(out)
    }

    /// Applies a parameter delta: `params <- params - learning_rate * gradient`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ParameterCountMismatch`] when the gradient length
    /// differs from the parameter count.
    pub fn apply_gradient(&mut self, gradient: &Gradient, learning_rate: f32) -> Result<()> {
        let expected = self.parameter_count();
        if gradient.len() != expected {
            return Err(MlError::ParameterCountMismatch {
                expected,
                actual: gradient.len(),
            });
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            for p in layer.parameters_mut() {
                let len = p.len();
                for (value, g) in p
                    .data_mut()
                    .iter_mut()
                    .zip(gradient.as_slice()[offset..offset + len].iter())
                {
                    *value -= learning_rate * g;
                }
                offset += len;
            }
        }
        Ok(())
    }

    /// Convenience: computes the gradient of the loss on one mini-batch
    /// without disturbing previously accumulated gradients, returning
    /// `(loss, gradient)`.
    ///
    /// # Errors
    ///
    /// Propagates shape/label errors.
    pub fn compute_gradient(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
    ) -> Result<(f32, Gradient)> {
        self.zero_gradients();
        let loss = self.backward(inputs, labels)?;
        Ok((loss, self.gradient()))
    }

    /// Predicted class index for every row of `inputs`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the forward pass.
    pub fn predict(&mut self, inputs: &Tensor) -> Result<Vec<usize>> {
        self.with_logits(inputs, Tensor::argmax_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::layers::{Dense, Relu};

    fn tiny_model() -> Sequential {
        Sequential::new()
            .with_layer(Box::new(Dense::new(4, 8, Initializer::Xavier, 1)))
            .with_layer(Box::new(Relu::new()))
            .with_layer(Box::new(Dense::new(8, 3, Initializer::Xavier, 2)))
    }

    #[test]
    fn parameter_roundtrip() {
        let mut model = tiny_model();
        let params = model.parameters();
        assert_eq!(params.len(), model.parameter_count());
        let doubled: Vec<f32> = params.iter().map(|v| v * 2.0).collect();
        model.set_parameters(&doubled).unwrap();
        assert_eq!(model.parameters(), doubled);
    }

    #[test]
    fn set_parameters_rejects_wrong_length() {
        let mut model = tiny_model();
        assert!(matches!(
            model.set_parameters(&[0.0; 3]),
            Err(MlError::ParameterCountMismatch { .. })
        ));
    }

    #[test]
    fn gradient_has_parameter_length() {
        let mut model = tiny_model();
        let inputs = Tensor::full(&[2, 4], 1.0);
        let (_, grad) = model.compute_gradient(&inputs, &[0, 1]).unwrap();
        assert_eq!(grad.len(), model.parameter_count());
        assert!(grad.l2_norm() > 0.0);
    }

    #[test]
    fn apply_gradient_changes_parameters() {
        let mut model = tiny_model();
        let before = model.parameters();
        let inputs = Tensor::full(&[2, 4], 1.0);
        let (_, grad) = model.compute_gradient(&inputs, &[0, 1]).unwrap();
        model.apply_gradient(&grad, 0.1).unwrap();
        assert_ne!(model.parameters(), before);
    }

    #[test]
    fn apply_gradient_rejects_wrong_length() {
        let mut model = tiny_model();
        assert!(model.apply_gradient(&Gradient::zeros(1), 0.1).is_err());
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut model = tiny_model();
        // Two well-separated clusters.
        let inputs = Tensor::from_vec(
            vec![
                1.0, 1.0, 0.0, 0.0, //
                0.9, 1.1, 0.0, 0.1, //
                0.0, 0.0, 1.0, 1.0, //
                0.1, 0.0, 1.1, 0.9,
            ],
            &[4, 4],
        );
        let labels = vec![0, 0, 1, 1];
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..200 {
            let (loss, grad) = model.compute_gradient(&inputs, &labels).unwrap();
            model.apply_gradient(&grad, 0.1).unwrap();
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss did not decrease: {first_loss:?} -> {last_loss}"
        );
        assert_eq!(model.predict(&inputs).unwrap(), labels);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut model = tiny_model();
        let inputs = Tensor::full(&[1, 4], 1.0);
        model.zero_gradients();
        model.backward(&inputs, &[0]).unwrap();
        let g1 = model.gradient();
        model.backward(&inputs, &[0]).unwrap();
        let g2 = model.gradient();
        assert!((g2.l2_norm() - 2.0 * g1.l2_norm()).abs() < 1e-4);
        model.zero_gradients();
        assert_eq!(model.gradient().l2_norm(), 0.0);
    }

    #[test]
    fn replicas_stay_in_sync_via_flat_parameters() {
        // The FLeet worker/server exchange: replica B adopts replica A's
        // parameters and must produce identical outputs.
        let mut a = tiny_model();
        let mut b = tiny_model();
        b.set_parameters(&a.parameters()).unwrap();
        let x = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.4], &[1, 4]);
        assert_eq!(a.forward(&x).unwrap(), b.forward(&x).unwrap());
    }
}
