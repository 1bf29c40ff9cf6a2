//! Benchmarks of the im2col convolution engine — the paper's Table 1
//! workloads are CNNs, so these rows track the dominant FLOPs of the
//! benchmark models.
//!
//! Run via `scripts/ci.sh` (or set `FLEET_BENCH_JSON=BENCH_conv.json`) for a
//! machine-readable record. The key rows:
//!
//! * `table1_mnist_step_im2col` / `table1_mnist_forward_im2col` — one full
//!   forward+backward training step, and the forward pass alone, of the
//!   paper's MNIST CNN.
//! * `conv2_mnist_{forward,backward}_im2col` — the second MNIST convolution
//!   in isolation (8→48 channels, 5x5 on 8x8).
//! * `table1_emnist_step_im2col` / `table1_cifar100_step_im2col` — the other
//!   two Table 1 topologies, for the perf trajectory.
//! * `maxpool2d_forward_24x24` — the row-vectorised pooling sweep.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fleet_ml::models::{table1_cifar100_cnn, table1_emnist_cnn, table1_mnist_cnn};
use fleet_ml::{Conv2d, Initializer, Layer, MaxPool2d, Tensor};

fn pattern(len: usize, scale: f32) -> Vec<f32> {
    // Xorshift fill: the old `(i * 2654435761) as f32 / usize::MAX as f32`
    // form never wrapped the hash to 32 bits, so every value rounded to
    // -0.5·scale and the benches ran on constant data.
    let mut state = 0x9E37_79B9_7F4A_7C15u64 | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * scale
        })
        .collect()
}

fn conv_layer_benches(c: &mut Criterion) {
    // MNIST conv2 shapes: [16, 8, 8, 8] -> [16, 48, 4, 4].
    let input = Tensor::from_vec(pattern(16 * 8 * 8 * 8, 1.0), &[16, 8, 8, 8]);
    c.bench_function("conv2_mnist_forward_im2col", |b| {
        let mut conv = Conv2d::new(8, 48, 5, 1, Initializer::He, 0);
        b.iter(|| black_box(conv.forward(&input).unwrap()));
    });
    c.bench_function("conv2_mnist_backward_im2col", |b| {
        let mut conv = Conv2d::new(8, 48, 5, 1, Initializer::He, 0);
        let out = conv.forward(&input).unwrap();
        let grad = Tensor::from_vec(pattern(out.data().len(), 1.0), out.shape());
        b.iter(|| {
            conv.zero_gradients();
            black_box(conv.backward(&grad).unwrap())
        });
    });
}

fn table1_step_benches(c: &mut Criterion) {
    // One full training step (forward + backward + gradient flattening) of
    // the Table 1 MNIST CNN, and its forward pass alone.
    let x_mnist = Tensor::from_vec(pattern(16 * 28 * 28, 1.0), &[16, 1, 28, 28]);
    let y16: Vec<usize> = (0..16).map(|i| i % 10).collect();
    c.bench_function("table1_mnist_step_im2col", |b| {
        let mut model = table1_mnist_cnn(0);
        b.iter(|| black_box(model.compute_gradient(&x_mnist, &y16).unwrap()));
    });
    c.bench_function("table1_mnist_forward_im2col", |b| {
        let mut model = table1_mnist_cnn(0);
        b.iter(|| black_box(model.forward(&x_mnist).unwrap()));
    });

    let x_emnist = Tensor::from_vec(pattern(16 * 28 * 28, 1.0), &[16, 1, 28, 28]);
    let y62: Vec<usize> = (0..16).map(|i| i % 62).collect();
    c.bench_function("table1_emnist_step_im2col", |b| {
        let mut model = table1_emnist_cnn(0);
        b.iter(|| black_box(model.compute_gradient(&x_emnist, &y62).unwrap()));
    });

    let x_cifar = Tensor::from_vec(pattern(8 * 3 * 32 * 32, 1.0), &[8, 3, 32, 32]);
    let y100: Vec<usize> = (0..8).map(|i| i % 100).collect();
    c.bench_function("table1_cifar100_step_im2col", |b| {
        let mut model = table1_cifar100_cnn(0);
        b.iter(|| black_box(model.compute_gradient(&x_cifar, &y100).unwrap()));
    });
}

fn pool_benches(c: &mut Criterion) {
    // The MNIST model's first pool: 3x3/3 over the 24x24 conv1 output.
    let input = Tensor::from_vec(pattern(16 * 8 * 24 * 24, 1.0), &[16, 8, 24, 24]);
    c.bench_function("maxpool2d_forward_24x24", |b| {
        let mut pool = MaxPool2d::new(3, 3);
        b.iter(|| black_box(pool.forward(&input).unwrap()));
    });
}

criterion_group!(
    benches,
    conv_layer_benches,
    table1_step_benches,
    pool_benches
);
criterion_main!(benches);
