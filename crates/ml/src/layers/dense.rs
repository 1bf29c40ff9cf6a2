//! Fully-connected (dense) layer.

use crate::init::Initializer;
use crate::layer::Layer;
use crate::tensor::Tensor;
use crate::{MlError, Result};

/// A fully-connected layer computing `output = input · W + b`.
///
/// Input shape `[batch, in_features]`, output shape `[batch, out_features]`.
///
/// # Example
///
/// ```
/// use fleet_ml::{Dense, Initializer, Layer, Tensor};
///
/// # fn main() -> Result<(), fleet_ml::MlError> {
/// let mut dense = Dense::new(3, 2, Initializer::Xavier, 1);
/// let out = dense.forward(&Tensor::zeros(&[4, 3]))?;
/// assert_eq!(out.shape(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weights: Tensor,
    bias: Tensor,
    grad_weights: Tensor,
    grad_bias: Tensor,
    /// The latest forward pass's input, copied onto a lent buffer; `None`
    /// before the first forward pass and after [`Layer::release_scratch`].
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with `in_features` inputs and `out_features`
    /// outputs, initialising the weights with `init` and the given `seed`.
    pub fn new(in_features: usize, out_features: usize, init: Initializer, seed: u64) -> Self {
        let weights = init.init(
            &[in_features, out_features],
            in_features,
            out_features,
            seed,
        );
        Self {
            in_features,
            out_features,
            weights,
            bias: Tensor::zeros(&[out_features]),
            grad_weights: Tensor::zeros(&[in_features, out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
        }
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        if input.shape().len() != 2 || input.shape()[1] != self.in_features {
            return Err(MlError::ShapeMismatch {
                expected: vec![0, self.in_features],
                actual: input.shape().to_vec(),
                context: "Dense::forward".to_string(),
            });
        }
        let mut out = Tensor::lent(&[input.shape()[0], self.out_features]);
        input.matmul_into(&self.weights, &mut out);
        // Broadcast the bias over the batch with row-slice arithmetic.
        let bias = self.bias.data();
        for row in out.data_mut().chunks_mut(self.out_features) {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        }
        Tensor::relend(&mut self.cached_input, input.shape()).copy_from(input);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self.cached_input.as_ref().ok_or_else(|| {
            MlError::InvalidArgument("Dense::backward called before forward".to_string())
        })?;
        if grad_output.shape().len() != 2 || grad_output.shape()[1] != self.out_features {
            return Err(MlError::ShapeMismatch {
                expected: vec![input.shape()[0], self.out_features],
                actual: grad_output.shape().to_vec(),
                context: "Dense::backward".to_string(),
            });
        }
        // dW += input^T · grad_output — fused TN kernel accumulating straight
        // into the gradient buffer, no transpose and no temporary.
        input.matmul_tn_acc_into(grad_output, &mut self.grad_weights);
        // db += per-column sums of grad_output, via row slices.
        let gb = self.grad_bias.data_mut();
        for row in grad_output.data().chunks(self.out_features) {
            for (g, &v) in gb.iter_mut().zip(row) {
                *g += v;
            }
        }
        // dx = grad_output · W^T — fused NT kernel, no transpose.
        let mut grad_input = Tensor::lent(&[grad_output.shape()[0], self.in_features]);
        grad_output.matmul_nt_into(&self.weights, &mut grad_input);
        Ok(grad_input)
    }

    fn parameters(&self) -> Vec<&Tensor> {
        vec![&self.weights, &self.bias]
    }

    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weights, &mut self.bias]
    }

    fn gradients(&self) -> Vec<&Tensor> {
        vec![&self.grad_weights, &self.grad_bias]
    }

    fn zero_gradients(&mut self) {
        self.grad_weights.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn release_scratch(&mut self) {
        if let Some(input) = self.cached_input.take() {
            input.give_back();
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_difference_check(layer: &mut Dense, input: &Tensor) {
        // Numerical gradient check on the first weight entry.
        let eps = 1e-2f32;
        let out = layer.forward(input).unwrap();
        let grad_out = Tensor::full(out.shape(), 1.0);
        layer.zero_gradients();
        layer.forward(input).unwrap();
        layer.backward(&grad_out).unwrap();
        let analytic = layer.gradients()[0].data()[0];

        let original = layer.weights.data()[0];
        layer.weights.data_mut()[0] = original + eps;
        let plus = layer.forward(input).unwrap().data().iter().sum::<f32>();
        layer.weights.data_mut()[0] = original - eps;
        let minus = layer.forward(input).unwrap().data().iter().sum::<f32>();
        layer.weights.data_mut()[0] = original;
        let numeric = (plus - minus) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn forward_shape() {
        let mut d = Dense::new(5, 3, Initializer::Xavier, 0);
        let out = d.forward(&Tensor::zeros(&[7, 5])).unwrap();
        assert_eq!(out.shape(), &[7, 3]);
    }

    #[test]
    fn forward_rejects_bad_shape() {
        let mut d = Dense::new(5, 3, Initializer::Xavier, 0);
        assert!(d.forward(&Tensor::zeros(&[7, 4])).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut d = Dense::new(2, 2, Initializer::Zeros, 0);
        assert!(d.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn bias_applied() {
        let mut d = Dense::new(2, 2, Initializer::Zeros, 0);
        d.bias = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        let out = d.forward(&Tensor::zeros(&[1, 2])).unwrap();
        assert_eq!(out.data(), &[1.0, -1.0]);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut d = Dense::new(3, 2, Initializer::Xavier, 11);
        let input = Tensor::from_vec(vec![0.5, -0.3, 0.8, 0.1, 0.9, -0.4], &[2, 3]);
        finite_difference_check(&mut d, &input);
    }

    #[test]
    fn zero_gradients_resets() {
        let mut d = Dense::new(2, 2, Initializer::Xavier, 0);
        let x = Tensor::full(&[1, 2], 1.0);
        d.forward(&x).unwrap();
        d.backward(&Tensor::full(&[1, 2], 1.0)).unwrap();
        assert!(d.gradients()[0].data().iter().any(|&g| g != 0.0));
        d.zero_gradients();
        assert!(d.gradients()[0].data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn parameter_count() {
        let d = Dense::new(4, 3, Initializer::Xavier, 0);
        assert_eq!(d.parameter_count(), 4 * 3 + 3);
    }
}
