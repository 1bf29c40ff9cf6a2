//! Stale-buffer safety of the thread's scratch pool. A lent buffer still
//! holds whatever its previous borrower wrote, so a kernel that reads part
//! of its output before writing it would compute a different gradient on a
//! warm thread than on a fresh one. The im2col parity suite compares to a
//! tolerance and would not notice; this suite compares bits.
//!
//! One thread interleaves gradients and predictions of three models at two
//! batch sizes, so every buffer is lent again to a different layer, model
//! or batch shape; each gradient must equal, bit for bit, the one a fresh
//! replica computes on a fresh thread, whose pool starts empty.

use fleet_ml::models::{mlp_classifier, table1_cifar100_cnn, table1_mnist_cnn};
use fleet_ml::{Sequential, Tensor};

/// A model, its per-image input shape and its class count.
struct Case {
    model: Sequential,
    image: Vec<usize>,
    classes: usize,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            model: mlp_classifier(20, &[32, 16], 5, 3),
            image: vec![20],
            classes: 5,
        },
        Case {
            model: table1_mnist_cnn(11),
            image: vec![1, 28, 28],
            classes: 10,
        },
        Case {
            model: table1_cifar100_cnn(5),
            image: vec![3, 32, 32],
            classes: 100,
        },
    ]
}

/// A deterministic batch, different for every `salt`.
fn batch(case: &Case, size: usize, salt: usize) -> (Tensor, Vec<usize>) {
    let mut shape = vec![size];
    shape.extend_from_slice(&case.image);
    let len: usize = shape.iter().product();
    let values = (0..len)
        .map(|i| (((i * 31 + salt * 17) % 97) as f32 - 48.0) / 48.0)
        .collect();
    let labels = (0..size).map(|i| (i * 7 + salt) % case.classes).collect();
    (Tensor::from_vec(values, &shape), labels)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The gradient a fresh replica computes on a thread of its own.
#[expect(
    clippy::disallowed_methods,
    reason = "the reference needs a thread whose scratch pool has never lent a buffer; it runs one pass and shares nothing, so no partition is involved"
)]
fn fresh_gradient(model: &Sequential, inputs: &Tensor, labels: &[usize]) -> Vec<u32> {
    std::thread::scope(|s| {
        s.spawn(|| {
            let (_, gradient) = model
                .clone()
                .compute_gradient(inputs, labels)
                .expect("fresh gradient");
            bits(gradient.as_slice())
        })
        .join()
        .expect("fresh thread")
    })
}

#[test]
fn gradients_on_a_warm_pool_match_a_fresh_thread_bit_for_bit() {
    let mut cases = cases();
    let mut step = 0;
    for size in [32, 7, 32] {
        for case in cases.iter_mut() {
            step += 1;
            let (inputs, labels) = batch(case, size, step);
            let expected = fresh_gradient(&case.model, &inputs, &labels);
            let (_, gradient) = case
                .model
                .compute_gradient(&inputs, &labels)
                .expect("warm gradient");
            assert_eq!(
                bits(gradient.as_slice()),
                expected,
                "step {step} (batch {size}): a warm-pool gradient differs"
            );
            // A prediction at another batch size between gradients, so the
            // next pass borrows buffers a different shape last wrote.
            let (probe, _) = batch(case, 3, step + 1000);
            case.model.predict(&probe).expect("predict");
        }
    }
}
