//! Flatten adapter between convolutional and dense layers.

use crate::layer::Layer;
use crate::tensor::Tensor;
use crate::{MlError, Result};

/// Flattens `[batch, d1, d2, ...]` inputs into `[batch, d1*d2*...]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a new flatten layer.
    pub(crate) fn new() -> Self {
        Self { input_shape: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        if input.shape().is_empty() {
            return Err(MlError::InvalidArgument(
                "Flatten::forward requires at least a 1-D tensor".to_string(),
            ));
        }
        let batch = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        self.input_shape = Some(input.shape().to_vec());
        Ok(input.reshape(&[batch, rest]))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let shape = self.input_shape.as_ref().ok_or_else(|| {
            MlError::InvalidArgument("Flatten::backward called before forward".to_string())
        })?;
        Ok(grad_output.reshape(shape))
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

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores() {
        let mut f = Flatten::new();
        let input = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let out = f.forward(&input).unwrap();
        assert_eq!(out.shape(), &[2, 12]);
        let back = f.backward(&out).unwrap();
        assert_eq!(back.shape(), &[2, 3, 2, 2]);
        assert_eq!(back.data(), input.data());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut f = Flatten::new();
        assert!(f.backward(&Tensor::zeros(&[1, 4])).is_err());
    }
}
