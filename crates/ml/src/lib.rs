//! # fleet-ml
//!
//! A from-scratch, dependency-light neural-network substrate used by the
//! [FLeet](https://arxiv.org/abs/2006.07273) reproduction.
//!
//! The FLeet paper trains Convolutional Neural Networks (Table 1) and a small
//! recurrent hashtag recommender with mini-batch Stochastic Gradient Descent
//! on mobile devices. This crate provides everything those experiments need:
//!
//! * [`tensor::Tensor`] — a dense row-major `f32` tensor with the handful of
//!   operations required by forward/backward passes,
//! * [`kernels`] — the blocked, thread-parallel matrix kernels behind
//!   [`tensor::Tensor::matmul`] and its fused variants: one lane-explicit
//!   `mul_add` path that native (FMA-capable) builds, the supported
//!   configuration, compile to fused vector instructions,
//! * [`layer::Layer`] implementations (dense, conv2d, max-pool, ReLU, flatten),
//! * [`loss`] — softmax cross-entropy,
//! * [`model::Sequential`] — a feed-forward model container exposing its
//!   parameters and gradients as flat vectors (the unit exchanged between FLeet
//!   workers and the server),
//! * [`gradient::Gradient`] — the flat gradient container with the arithmetic
//!   used by the aggregation algorithms (scaling, addition, clipping),
//! * [`optimizer::Sgd`] — plain SGD used for the ideal synchronous baseline,
//! * [`models`] — builders for the paper's Table 1 topologies (scaled to run on
//!   a laptop) and a bag-of-words hashtag recommender,
//! * [`metrics`] — accuracy and the F1-score @ top-k used in §3.1.
//!
//! # Kernel architecture
//!
//! Worker-side cost is dominated by the dense/conv forward and backward
//! passes, so the compute layer is organised around three rules:
//!
//! 1. **Raw-slice kernels, fused layouts.** [`kernels`] implements `A·B`,
//!    `Aᵀ·B` (accumulating) and `A·Bᵀ` directly on row-major slices, so the
//!    backward pass never materialises a transpose and weight gradients
//!    accumulate straight into the layer's gradient buffer.
//! 2. **Deterministic parallelism.** Large kernels split their *output
//!    rows* across threads (`fleet_parallel`); every output element is
//!    produced by a fixed-order loop whose per-element operations are fused
//!    multiply-adds, so results are bit-for-bit identical for any thread
//!    count. The async-simulation reproducibility guarantee rests on this.
//! 3. **Caller-owned scratch.** Layers reuse per-layer workspaces instead of
//!    allocating per call: `forward` caches its input via
//!    [`tensor::Tensor::copy_from`] (reusing the buffer), `zero_gradients`
//!    zeroes in place, and the `*_into` tensor methods
//!    ([`tensor::Tensor::matmul_into`], [`tensor::Tensor::matmul_nt_into`],
//!    [`tensor::Tensor::matmul_tn_acc_into`],
//!    [`tensor::Tensor::add_scaled_into`]) write into tensors whose
//!    allocations persist across steps. [`model::Sequential`] closes the
//!    remaining loop by handing every consumed activation and gradient
//!    tensor back to the layer that produced it
//!    ([`layer::Layer::recycle_output`] / [`layer::Layer::recycle_grad`]),
//!    so a training step runs allocation-free after the first pass. The
//!    convention throughout: a `&mut Tensor` out-parameter is resized with
//!    [`tensor::Tensor::resize_for`] (which keeps capacity) and fully
//!    overwritten unless the method name says it accumulates (`_acc_`).
//!
//!    `Conv2d` is the showcase: it lowers batches into a persistent im2col
//!    workspace and runs forward and backward entirely on the fused GEMM
//!    kernels (see `layers::conv`).
//!
//! The seed repository's single-threaded matmul (including its `a == 0.0`
//! sparsity skip, which only pays off for one-hot inputs) and its direct
//! convolution loop nest survive as `#[cfg(test)]` oracles only: the
//! references the kernel and im2col parity tests compare against.
//!
//! # Example
//!
//! ```
//! use fleet_ml::models::mlp_classifier;
//! use fleet_ml::tensor::Tensor;
//!
//! # fn main() -> Result<(), fleet_ml::MlError> {
//! let mut model = mlp_classifier(4, &[16], 3, 42);
//! let input = Tensor::zeros(&[2, 4]);
//! let logits = model.forward(&input)?;
//! assert_eq!(logits.shape(), &[2, 3]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod gradient;
pub mod init;
pub mod kernels;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod models;
pub mod optimizer;
pub mod recommender;
pub mod tensor;

use std::error::Error;
use std::fmt;

/// Error type returned by the fallible public entry points of this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// Two tensors (or a tensor and a layer) disagree on shape.
    ShapeMismatch {
        /// Shape the operation expected.
        expected: Vec<usize>,
        /// Shape the operation received.
        actual: Vec<usize>,
        /// Human-readable location of the mismatch.
        context: String,
    },
    /// A parameter vector handed to [`model::Sequential::set_parameters`] has
    /// the wrong length.
    ParameterCountMismatch {
        /// Number of parameters the model holds.
        expected: usize,
        /// Number of parameters provided.
        actual: usize,
    },
    /// An argument was outside its valid domain (empty batch, zero classes, ...).
    InvalidArgument(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::ShapeMismatch {
                expected,
                actual,
                context,
            } => write!(
                f,
                "shape mismatch in {context}: expected {expected:?}, got {actual:?}"
            ),
            MlError::ParameterCountMismatch { expected, actual } => write!(
                f,
                "parameter count mismatch: model has {expected}, got {actual}"
            ),
            MlError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl Error for MlError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MlError>;

pub use gradient::Gradient;
pub use model::Sequential;
pub use tensor::Tensor;
