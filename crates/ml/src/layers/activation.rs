//! Activation layers.

use crate::layer::Layer;
use crate::tensor::Tensor;
use crate::{MlError, Result};

/// Rectified Linear Unit: `max(0, x)` applied element-wise.
///
/// # Example
///
/// ```
/// use fleet_ml::{Layer, Relu, Tensor};
///
/// # fn main() -> Result<(), fleet_ml::MlError> {
/// let mut relu = Relu::new();
/// let out = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]))?;
/// assert_eq!(out.data(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// The latest forward pass's mask, on a lent buffer; `None` before the
    /// first forward pass and after [`Layer::release_scratch`].
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a new ReLU activation layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let mask = Tensor::relend(&mut self.mask, input.shape());
        let mut out = Tensor::lent(input.shape());
        // One fused sweep writing both the mask and the masked output
        // (`v * m`, like the old two-pass `map` + `mul`, so non-finite
        // values propagate identically). Indexed over equal-length slices so
        // the bounds checks hoist and the loop vectorises.
        let src = input.data();
        let msk = &mut mask.data_mut()[..src.len()];
        let dst = &mut out.data_mut()[..src.len()];
        for i in 0..src.len() {
            let m = f32::from(src[i] > 0.0);
            msk[i] = m;
            dst[i] = src[i] * m;
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self.mask.as_ref().ok_or_else(|| {
            MlError::InvalidArgument("Relu::backward called before forward".to_string())
        })?;
        if mask.shape() != grad_output.shape() {
            return Err(MlError::ShapeMismatch {
                expected: mask.shape().to_vec(),
                actual: grad_output.shape().to_vec(),
                context: "Relu::backward".to_string(),
            });
        }
        let mut grad = Tensor::lent(grad_output.shape());
        for ((g, &go), &m) in grad
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(mask.data())
        {
            *g = go * m;
        }
        Ok(grad)
    }

    fn parameters(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn gradients(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_gradients(&mut self) {}

    fn release_scratch(&mut self) {
        if let Some(mask) = self.mask.take() {
            mask.give_back();
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let out = relu
            .forward(&Tensor::from_vec(vec![-2.0, -0.1, 0.0, 0.5, 3.0], &[1, 5]))
            .unwrap();
        assert_eq!(out.data(), &[0.0, 0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        relu.forward(&Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]))
            .unwrap();
        let grad = relu
            .backward(&Tensor::from_vec(vec![5.0, 5.0], &[1, 2]))
            .unwrap();
        assert_eq!(grad.data(), &[0.0, 5.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::zeros(&[1, 1])).is_err());
    }

    #[test]
    fn has_no_parameters() {
        let relu = Relu::new();
        assert_eq!(relu.parameter_count(), 0);
    }
}
