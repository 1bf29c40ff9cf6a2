//! The [`Layer`] trait implemented by every building block of a
//! [`crate::model::Sequential`] model.

use crate::tensor::Tensor;
use crate::Result;

/// A differentiable layer.
///
/// A layer caches whatever it needs during [`Layer::forward`] so that the
/// following [`Layer::backward`] call can compute both the gradient with
/// respect to its input (returned) and the gradients with respect to its own
/// parameters (accumulated internally and exposed via [`Layer::gradients`]).
///
/// Layers are used exclusively through [`crate::model::Sequential`], but the
/// trait is public so that downstream users can add custom layers.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Human-readable layer name used in model summaries.
    fn name(&self) -> &str;

    /// Runs the forward pass for a batch, caching activations for backward.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MlError::ShapeMismatch`] when the input shape is not
    /// compatible with the layer.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor>;

    /// Runs the backward pass, consuming the gradient with respect to the
    /// layer output and returning the gradient with respect to the input.
    /// Parameter gradients are accumulated internally.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MlError::ShapeMismatch`] when `grad_output` does not
    /// match the shape produced by the preceding forward pass, or
    /// [`crate::MlError::InvalidArgument`] when called before `forward`.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// The layer's parameter tensors (possibly empty).
    fn parameters(&self) -> Vec<&Tensor>;

    /// Mutable access to the layer's parameter tensors.
    fn parameters_mut(&mut self) -> Vec<&mut Tensor>;

    /// The gradients accumulated by the latest backward pass, in the same
    /// order as [`Layer::parameters`].
    fn gradients(&self) -> Vec<&Tensor>;

    /// Resets all accumulated parameter gradients to zero.
    fn zero_gradients(&mut self);

    /// Total number of scalar parameters held by the layer.
    fn parameter_count(&self) -> usize {
        self.parameters().iter().map(|p| p.len()).sum()
    }

    /// [`Layer::backward`] for the *first* layer of a model, where the
    /// returned input gradient has no consumer: layers whose input gradient
    /// is expensive (convolution: one full GEMM plus a scatter) override this
    /// to skip computing it. Parameter gradients are accumulated exactly as
    /// in [`Layer::backward`]. The default runs the full backward pass and
    /// drops the result.
    ///
    /// # Errors
    ///
    /// Same contract as [`Layer::backward`].
    fn backward_input_unneeded(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward(grad_output).map(|_| ())
    }

    /// Gives every buffer the layer borrowed from the thread's scratch pool
    /// for its latest pass (cached inputs, masks, im2col columns) back to
    /// the pool. A following [`Layer::backward`] errors as if no forward had
    /// run. [`crate::model::Sequential`] calls this before each of its passes
    /// returns, so a model at rest holds only its parameters and gradients.
    /// The default does nothing: a layer that owns its caches keeps them.
    fn release_scratch(&mut self) {}

    /// Boxed deep clone of the layer: its parameters and gradients, and any
    /// scratch it still holds (none, after [`Layer::release_scratch`]).
    ///
    /// Powers `Clone` for [`crate::model::Sequential`], which the parallel
    /// async simulation uses to hand each worker thread its own model replica.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
