//! Micro-benchmarks of the ML substrate kernels (matrix multiply, CNN
//! forward/backward, gradient arithmetic) that dominate worker-side cost.
//!
//! Run via `scripts/ci.sh` (or set `FLEET_BENCH_JSON=BENCH_kernels.json`) to
//! get a machine-readable record of the perf trajectory. The key rows:
//!
//! * `matmul_256_blocked`, `matmul_tn_256`, `matmul_nt_256` — the three
//!   layouts of the blocked, register-tiled kernel on the acceptance-size
//!   256x256x256 product, on the calling thread.
//! * `matmul_64_dense_blocked` vs `matmul_64_onehot_blocked` — the kernel has
//!   no `a == 0.0` sparsity skip, so one-hot rows must cost what dense rows
//!   cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fleet_ml::kernels;
use fleet_ml::models::{small_cnn, table1_mnist_cnn};
use fleet_ml::{Gradient, Tensor};

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

/// One-hot rows, as the recommender's bag-of-words inputs have.
fn one_hot(rows: usize, cols: usize) -> Vec<f32> {
    let mut data = vec![0.0; rows * cols];
    for r in 0..rows {
        data[r * cols + (r * 7) % cols] = 1.0;
    }
    data
}

fn matmul_benches(c: &mut Criterion) {
    let a256 = pattern(256 * 256, 2.0);
    let b256 = pattern(256 * 256, 2.0);
    let mut out256 = vec![0.0f32; 256 * 256];

    c.bench_function("matmul_256_blocked", |b| {
        b.iter(|| {
            kernels::matmul(&a256, &b256, &mut out256, 256, 256, 256);
            black_box(out256[0])
        });
    });
    c.bench_function("matmul_tn_256", |b| {
        b.iter(|| {
            out256.fill(0.0);
            kernels::matmul_tn_acc(&a256, &b256, &mut out256, 256, 256, 256);
            black_box(out256[0])
        });
    });
    c.bench_function("matmul_nt_256", |b| {
        b.iter(|| {
            kernels::matmul_nt(&a256, &b256, &mut out256, 256, 256, 256);
            black_box(out256[0])
        });
    });

    // Dense vs one-hot inputs through the same kernel.
    let dense64 = pattern(64 * 64, 1.0);
    let onehot64 = one_hot(64, 64);
    let w64 = pattern(64 * 64, 1.0);
    let mut out64 = vec![0.0f32; 64 * 64];
    c.bench_function("matmul_64_dense_blocked", |b| {
        b.iter(|| {
            kernels::matmul(&dense64, &w64, &mut out64, 64, 64, 64);
            black_box(out64[0])
        });
    });
    c.bench_function("matmul_64_onehot_blocked", |b| {
        b.iter(|| {
            kernels::matmul(&onehot64, &w64, &mut out64, 64, 64, 64);
            black_box(out64[0])
        });
    });
}

fn layer_benches(c: &mut Criterion) {
    c.bench_function("matmul_64x64", |b| {
        let a = Tensor::full(&[64, 64], 0.5);
        let m = Tensor::full(&[64, 64], 0.25);
        b.iter(|| black_box(a.matmul(&m)));
    });

    c.bench_function("matmul_into_64x64_no_alloc", |b| {
        let a = Tensor::full(&[64, 64], 0.5);
        let m = Tensor::full(&[64, 64], 0.25);
        let mut out = Tensor::zeros(&[64, 64]);
        b.iter(|| {
            a.matmul_into(&m, &mut out);
            black_box(out.data()[0])
        });
    });

    c.bench_function("small_cnn_gradient_batch32", |b| {
        let mut model = small_cnn(1, 8, 10, 0);
        let x = Tensor::full(&[32, 1, 8, 8], 0.3);
        let y: Vec<usize> = (0..32).map(|i| i % 10).collect();
        b.iter(|| black_box(model.compute_gradient(&x, &y).unwrap()));
    });

    c.bench_function("table1_mnist_cnn_forward_batch4", |b| {
        let mut model = table1_mnist_cnn(0);
        let x = Tensor::full(&[4, 1, 28, 28], 0.3);
        b.iter(|| black_box(model.forward(&x).unwrap()));
    });

    c.bench_function("dense_mlp_gradient_batch100", |b| {
        let mut model = fleet_ml::models::mlp_classifier(64, &[64, 32], 10, 0);
        let x = Tensor::full(&[100, 64], 0.2);
        let y: Vec<usize> = (0..100).map(|i| i % 10).collect();
        b.iter(|| black_box(model.compute_gradient(&x, &y).unwrap()));
    });

    c.bench_function("gradient_add_scaled_100k", |b| {
        let mut acc = Gradient::zeros(100_000);
        let g = Gradient::from_vec(vec![0.1; 100_000]);
        b.iter(|| {
            acc.add_scaled(&g, 0.5);
            black_box(acc.as_slice()[0])
        });
    });

    c.bench_function("gradient_clip_100k", |b| {
        let g = Gradient::from_vec(vec![0.1; 100_000]);
        b.iter(|| {
            let mut copy = g.clone();
            black_box(copy.clip_l2(1.0))
        });
    });
}

criterion_group!(benches, matmul_benches, layer_benches);
criterion_main!(benches);
