//! Model builders.
//!
//! [`table1_mnist_cnn`], [`table1_emnist_cnn`] and [`table1_cifar100_cnn`]
//! reproduce the exact topologies of the paper's Table 1, and since the
//! im2col convolution engine landed they run their convolutions on the SIMD
//! GEMM kernels (`cargo bench --bench conv` tracks the step times against
//! the direct loop-nest baseline). The experiment harnesses still default to
//! the scaled-down [`small_cnn`] and [`mlp_classifier`] builders, which
//! preserve the training dynamics (non-convex model, softmax cross-entropy,
//! mini-batch SGD) at a fraction of the cost.

use crate::init::Initializer;
use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use crate::model::Sequential;

/// Multi-layer perceptron with ReLU activations between the hidden layers.
pub fn mlp_classifier(input_dim: usize, hidden: &[usize], classes: usize, seed: u64) -> Sequential {
    let mut model = Sequential::new();
    let mut prev = input_dim;
    for (i, &h) in hidden.iter().enumerate() {
        model.push(Box::new(Dense::new(
            prev,
            h,
            Initializer::He,
            seed.wrapping_add(i as u64),
        )));
        model.push(Box::new(Relu::new()));
        prev = h;
    }
    model.push(Box::new(Dense::new(
        prev,
        classes,
        Initializer::Xavier,
        seed.wrapping_add(hidden.len() as u64),
    )));
    model
}

/// A small CNN for `channels x size x size` images: one convolution, one
/// max-pool and a dense classifier head. Used by the laptop-scale experiment
/// harnesses in place of the full Table 1 models.
pub fn small_cnn(channels: usize, size: usize, classes: usize, seed: u64) -> Sequential {
    let conv_out = size - 3 + 1; // 3x3 kernel, stride 1
    let pool_out = conv_out / 2; // 2x2 pool, stride 2
    let flat = 8 * pool_out * pool_out;
    Sequential::new()
        .with_layer(Box::new(Conv2d::new(
            channels,
            8,
            3,
            1,
            Initializer::He,
            seed,
        )))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(MaxPool2d::new(2, 2)))
        .with_layer(Box::new(Flatten::new()))
        .with_layer(Box::new(Dense::new(
            flat,
            classes,
            Initializer::Xavier,
            seed + 1,
        )))
}

/// The paper's Table 1 MNIST model: 28x28x1 input, Conv 5x5x8 (stride 1),
/// Pool 3x3 (stride 3), Conv 5x5x48 (stride 1), Pool 2x2 (stride 2), FC 10.
pub fn table1_mnist_cnn(seed: u64) -> Sequential {
    Sequential::new()
        .with_layer(Box::new(Conv2d::new(1, 8, 5, 1, Initializer::He, seed)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(MaxPool2d::new(3, 3)))
        .with_layer(Box::new(Conv2d::new(
            8,
            48,
            5,
            1,
            Initializer::He,
            seed + 1,
        )))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(MaxPool2d::new(2, 2)))
        .with_layer(Box::new(Flatten::new()))
        .with_layer(Box::new(Dense::new(192, 10, Initializer::Xavier, seed + 2)))
}

/// The paper's Table 1 E-MNIST model: 28x28x1 input, Conv 5x5x10, Pool 2x2,
/// Conv 5x5x10, Pool 2x2, FC 15, FC 62.
pub fn table1_emnist_cnn(seed: u64) -> Sequential {
    Sequential::new()
        .with_layer(Box::new(Conv2d::new(1, 10, 5, 1, Initializer::He, seed)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(MaxPool2d::new(2, 2)))
        .with_layer(Box::new(Conv2d::new(
            10,
            10,
            5,
            1,
            Initializer::He,
            seed + 1,
        )))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(MaxPool2d::new(2, 2)))
        .with_layer(Box::new(Flatten::new()))
        .with_layer(Box::new(Dense::new(160, 15, Initializer::He, seed + 2)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(Dense::new(15, 62, Initializer::Xavier, seed + 3)))
}

/// The paper's Table 1 CIFAR-100 model: 32x32x3 input, Conv 3x3x16, Pool 3x3
/// (stride 2), Conv 3x3x64, Pool 4x4 (stride 4), FC 384, FC 192, FC 100.
pub fn table1_cifar100_cnn(seed: u64) -> Sequential {
    Sequential::new()
        .with_layer(Box::new(Conv2d::new(3, 16, 3, 1, Initializer::He, seed)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(MaxPool2d::new(3, 2)))
        .with_layer(Box::new(Conv2d::new(
            16,
            64,
            3,
            1,
            Initializer::He,
            seed + 1,
        )))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(MaxPool2d::new(4, 4)))
        .with_layer(Box::new(Flatten::new()))
        .with_layer(Box::new(Dense::new(576, 384, Initializer::He, seed + 2)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(Dense::new(384, 192, Initializer::He, seed + 3)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(Dense::new(
            192,
            100,
            Initializer::Xavier,
            seed + 4,
        )))
}

/// Summary of a Table 1 topology (used by the `table01_models` harness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSummary {
    /// Dataset name from Table 1.
    pub dataset: &'static str,
    /// Input shape `[channels, height, width]`.
    pub input_shape: [usize; 3],
    /// Number of layers in the built model (including activations/adapters).
    pub layers: usize,
    /// Total scalar parameter count.
    pub parameters: usize,
}

/// Builds every Table 1 model and reports its shape/parameter summary.
pub fn table1_summaries() -> Vec<ModelSummary> {
    vec![
        ModelSummary {
            dataset: "MNIST",
            input_shape: [1, 28, 28],
            layers: table1_mnist_cnn(0).num_layers(),
            parameters: table1_mnist_cnn(0).parameter_count(),
        },
        ModelSummary {
            dataset: "E-MNIST",
            input_shape: [1, 28, 28],
            layers: table1_emnist_cnn(0).num_layers(),
            parameters: table1_emnist_cnn(0).parameter_count(),
        },
        ModelSummary {
            dataset: "CIFAR-100",
            input_shape: [3, 32, 32],
            layers: table1_cifar100_cnn(0).num_layers(),
            parameters: table1_cifar100_cnn(0).parameter_count(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn mlp_shapes_and_depth() {
        let mut m = mlp_classifier(10, &[32, 16], 5, 1);
        assert_eq!(m.num_layers(), 5); // dense, relu, dense, relu, dense
        let out = m.forward(&Tensor::zeros(&[2, 10])).unwrap();
        assert_eq!(out.shape(), &[2, 5]);
    }

    #[test]
    fn small_cnn_forward_shape() {
        let mut m = small_cnn(1, 8, 10, 0);
        let out = m.forward(&Tensor::zeros(&[2, 1, 8, 8])).unwrap();
        assert_eq!(out.shape(), &[2, 10]);
    }

    #[test]
    fn table1_mnist_forward_and_params() {
        let mut m = table1_mnist_cnn(0);
        let out = m.forward(&Tensor::zeros(&[1, 1, 28, 28])).unwrap();
        assert_eq!(out.shape(), &[1, 10]);
        // conv1: 5*5*1*8+8, conv2: 5*5*8*48+48, fc: 192*10+10
        assert_eq!(m.parameter_count(), 208 + 9648 + 1930);
    }

    #[test]
    fn table1_emnist_forward_shape() {
        let mut m = table1_emnist_cnn(0);
        let out = m.forward(&Tensor::zeros(&[1, 1, 28, 28])).unwrap();
        assert_eq!(out.shape(), &[1, 62]);
    }

    #[test]
    fn table1_cifar_forward_shape() {
        let mut m = table1_cifar100_cnn(0);
        let out = m.forward(&Tensor::zeros(&[1, 3, 32, 32])).unwrap();
        assert_eq!(out.shape(), &[1, 100]);
    }

    #[test]
    fn table1_summaries_cover_all_datasets() {
        let summaries = table1_summaries();
        assert_eq!(summaries.len(), 3);
        assert!(summaries.iter().all(|s| s.parameters > 0));
        assert_eq!(summaries[0].dataset, "MNIST");
    }

    #[test]
    fn mnist_cnn_gradient_has_param_length() {
        let mut m = table1_mnist_cnn(3);
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        let (_, g) = m.compute_gradient(&x, &[0, 1]).unwrap();
        assert_eq!(g.len(), m.parameter_count());
    }
}
