//! # fleet-ml
//!
//! A from-scratch, dependency-light neural-network substrate used by the
//! [FLeet](https://arxiv.org/abs/2006.07273) reproduction.
//!
//! The FLeet paper trains Convolutional Neural Networks (Table 1) and a small
//! recurrent hashtag recommender with mini-batch Stochastic Gradient Descent
//! on mobile devices. This crate provides everything those experiments need:
//!
//! * [`Tensor`] — a dense row-major `f32` tensor with the handful of
//!   operations required by forward/backward passes,
//! * [`kernels`] — the blocked, register-tiled matrix kernels behind
//!   [`Tensor::matmul`] and its fused variants: one lane-explicit `mul_add`
//!   path that native (FMA-capable) builds, the supported configuration,
//!   compile to fused vector instructions,
//! * [`Layer`] implementations ([`Dense`], [`Conv2d`], [`MaxPool2d`],
//!   [`Relu`], flatten) and a softmax cross-entropy loss,
//! * [`Sequential`] — a feed-forward model container exposing its parameters
//!   and gradients as flat vectors (the unit exchanged between FLeet workers
//!   and the server),
//! * [`Gradient`] — the flat gradient container with the arithmetic used by
//!   the aggregation algorithms (scaling, addition, clipping),
//! * [`models`] — builders for the paper's Table 1 topologies (scaled to run on
//!   a laptop) and the smaller MLP/CNN stand-ins the experiments default to,
//! * [`HashtagRecommender`] / [`MostPopularRecommender`] — the hashtag
//!   recommender of §3.1 and its most-popular baseline,
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
//! 2. **Task-level parallelism only.** A learning task is one gradient on
//!    one core: no kernel or layer spawns a thread or reads the thread
//!    count, and the cores are used across tasks (the simulation's
//!    per-round worker slots, the server's connections). Every output
//!    element is produced by a fixed-order loop whose per-element operations
//!    are fused multiply-adds, so results are bit-for-bit identical however
//!    many tasks run side by side. The async-simulation reproducibility
//!    guarantee rests on this.
//! 3. **Thread-owned scratch.** Every transient buffer of a pass — im2col
//!    columns, ReLU masks, pooling argmax indices, cached inputs, each
//!    activation and input gradient — is lent by one thread-local pool
//!    (`scratch`) instead of living in the layer. [`Sequential`] gives each
//!    activation and gradient back as soon as the next layer has consumed
//!    it, and every layer's caches ([`Layer::release_scratch`]) before a
//!    pass returns, so a model at rest holds only its parameters and
//!    gradients, and all the replicas one thread runs share that thread's
//!    one warm working set. Parameter gradients accumulate in place and
//!    `zero_gradients` zeroes in place. The convention throughout: a lent
//!    buffer's contents, like those of a `&mut Tensor` out-parameter resized
//!    with `Tensor::resize_for`, are unspecified: each kernel fully
//!    overwrites its output unless its name says it accumulates (`_acc_`),
//!    and a lent buffer that is accumulated into is zero-filled first.
//!
//!    `Conv2d` is the showcase: it lowers batches into a lent im2col
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
//! use fleet_ml::Tensor;
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

mod gradient;
mod init;
pub mod kernels;
mod layer;
mod layers;
mod loss;
pub mod metrics;
mod model;
pub mod models;
mod recommender;
mod scratch;
mod tensor;

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
pub(crate) type Result<T> = std::result::Result<T, MlError>;

pub use gradient::Gradient;
pub use init::Initializer;
pub use layer::Layer;
pub use layers::{Conv2d, Dense, MaxPool2d, Relu};
pub use model::Sequential;
pub use recommender::{HashtagRecommender, MostPopularRecommender};
pub use tensor::Tensor;
