//! Concrete [`crate::layer::Layer`] implementations.
//!
//! The paper's Table 1 models are built from convolution, max-pooling and
//! fully-connected layers with ReLU activations; this module provides exactly
//! those blocks plus a flatten adapter.

mod activation;
mod conv;
mod dense;
mod flatten;
mod pool;

pub use activation::Relu;
pub use conv::Conv2d;
pub use dense::Dense;
pub(crate) use flatten::Flatten;
pub use pool::MaxPool2d;
