//! Dense, row-major `f32` tensors.
//!
//! The tensor type is intentionally small: it supports exactly the operations
//! needed by the layers in this crate (element-wise arithmetic, matrix
//! multiplication, reshaping, reductions). All data is stored contiguously in
//! row-major order.

use serde::{Deserialize, Serialize};

use crate::scratch;

/// A dense, row-major tensor of `f32` values.
///
/// # Example
///
/// ```
/// use fleet_ml::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::full(&[2, 1], 1.0);
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), &[3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "tensor data length {} does not match shape {:?} (expected {})",
            data.len(),
            shape,
            expected
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let len: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The total number of elements.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data in row-major order.
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a copy of this tensor with a new shape, on a buffer lent by
    /// this thread's scratch pool ([`Tensor::lent`]).
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different number of elements.
    pub(crate) fn reshape(&self, shape: &[usize]) -> Tensor {
        let mut out = Tensor::lent(shape);
        assert_eq!(
            out.len(),
            self.len(),
            "reshape of {:?} to {shape:?} changes the element count",
            self.shape
        );
        out.data.copy_from_slice(&self.data);
        out
    }

    /// Element access for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the indices are out of bounds.
    pub(crate) fn at2(&self, row: usize, col: usize) -> f32 {
        assert_eq!(self.shape.len(), 2, "at2 requires a 2-D tensor");
        let cols = self.shape[1];
        self.data[row * cols + col]
    }

    /// Mutable element access for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the indices are out of bounds.
    pub(crate) fn at2_mut(&mut self, row: usize, col: usize) -> &mut f32 {
        assert_eq!(self.shape.len(), 2, "at2_mut requires a 2-D tensor");
        let cols = self.shape[1];
        &mut self.data[row * cols + col]
    }

    /// Multiplies every element by a scalar, in place.
    pub(crate) fn scale(mut self, factor: f32) -> Tensor {
        for v in &mut self.data {
            *v *= factor;
        }
        self
    }

    /// Overwrites every element with `value`, keeping the allocation.
    pub(crate) fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Makes this tensor a copy of `other`, reusing the existing allocation
    /// when it is large enough (the workhorse of layer input caching).
    pub(crate) fn copy_from(&mut self, other: &Tensor) {
        self.resize_for(&other.shape);
        self.data.copy_from_slice(&other.data);
    }

    /// A tensor of `shape` on a buffer lent by this thread's scratch pool
    /// ([`crate::scratch`]). Its contents are unspecified.
    pub(crate) fn lent(shape: &[usize]) -> Tensor {
        Tensor::from_vec(scratch::take(shape.iter().product()), shape)
    }

    /// Gives this tensor's buffer back to this thread's scratch pool.
    pub(crate) fn give_back(self) {
        scratch::give(self.data);
    }

    /// Gives back the tensor `slot` holds, if any, and refills the slot with
    /// a [`Tensor::lent`] one of `shape`.
    pub(crate) fn relend<'a>(slot: &'a mut Option<Tensor>, shape: &[usize]) -> &'a mut Tensor {
        if let Some(old) = slot.take() {
            old.give_back();
        }
        slot.insert(Tensor::lent(shape))
    }

    /// Reshapes in place to `shape`, growing or shrinking the data buffer but
    /// keeping its allocation where possible. Contents are unspecified after
    /// the call; callers overwrite them.
    pub(crate) fn resize_for(&mut self, shape: &[usize]) {
        let len: usize = shape.iter().product();
        if self.shape != shape {
            self.shape.clear();
            self.shape.extend_from_slice(shape);
        }
        self.data.resize(len, 0.0);
    }

    /// Matrix multiplication of two 2-D tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Runs the blocked, register-tiled kernel of [`crate::kernels`]; see
    /// [`Tensor::matmul_into`] for the allocation-free variant.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self · other`, reusing `out`'s allocation when large enough.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the inner dimensions disagree.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "matmul requires 2-D tensors (lhs)");
        assert_eq!(other.shape.len(), 2, "matmul requires 2-D tensors (rhs)");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul inner dimension mismatch: [{m}, {k}] x [{k2}, {n}]"
        );
        out.resize_for(&[m, n]);
        crate::kernels::matmul(&self.data, &other.data, &mut out.data, m, k, n);
    }

    /// `out = selfᵀ · other` for `self: [k, m]`, `other: [k, n]`, without
    /// materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the shared dimension disagrees.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        let (m, n) = self.check_tn(other);
        out.resize_for(&[m, n]);
        out.fill(0.0);
        crate::kernels::matmul_tn_acc(&self.data, &other.data, &mut out.data, m, self.shape[0], n);
        out
    }

    /// `out += selfᵀ · other` — the fused weight-gradient update, accumulating
    /// into a caller-owned gradient tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or `out` is not `[m, n]`.
    pub(crate) fn matmul_tn_acc_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, n) = self.check_tn(other);
        assert_eq!(
            out.shape,
            [m, n],
            "matmul_tn_acc_into output must be [{m}, {n}]"
        );
        crate::kernels::matmul_tn_acc(&self.data, &other.data, &mut out.data, m, self.shape[0], n);
    }

    fn check_tn(&self, other: &Tensor) -> (usize, usize) {
        assert_eq!(self.shape.len(), 2, "matmul_tn requires 2-D tensors (lhs)");
        assert_eq!(other.shape.len(), 2, "matmul_tn requires 2-D tensors (rhs)");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_tn shared dimension mismatch: [{k}, {m}]ᵀ x [{k2}, {n}]"
        );
        (m, n)
    }

    /// `self · otherᵀ` for `self: [m, k]`, `other: [n, k]`, without
    /// materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the shared dimension disagrees.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `out = self · otherᵀ`, reusing `out`'s allocation when large enough.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the shared dimension disagrees.
    pub(crate) fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "matmul_nt requires 2-D tensors (lhs)");
        assert_eq!(other.shape.len(), 2, "matmul_nt requires 2-D tensors (rhs)");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_nt shared dimension mismatch: [{m}, {k}] x [{n}, {k2}]ᵀ"
        );
        out.resize_for(&[m, n]);
        crate::kernels::matmul_nt(&self.data, &other.data, &mut out.data, m, k, n);
    }

    /// Transpose of a 2-D tensor: the reference the fused `matmul_tn` /
    /// `matmul_nt` layouts are tested against.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[cfg(test)]
    pub(crate) fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Index of the maximum element of each row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or has zero columns.
    pub(crate) fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2, "argmax_rows requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        assert!(n > 0, "argmax_rows requires at least one column");
        (0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(idx, _)| idx)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Indices of the `k` largest elements of each row, in descending order.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub(crate) fn topk_rows(&self, k: usize) -> Vec<Vec<usize>> {
        assert_eq!(self.shape.len(), 2, "topk_rows requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        (0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by(|&a, &b| {
                    row[b]
                        .partial_cmp(&row[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                idx.truncate(k);
                idx
            })
            .collect()
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.at2(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn zeros_and_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::full(&[3], 2.5).data(), &[2.5; 3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn argmax_and_topk() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
        let topk = a.topk_rows(2);
        assert_eq!(topk[0], vec![1, 0]);
        assert_eq!(topk[1], vec![0, 1]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        let b = a.reshape(&[2, 2]);
        assert_eq!(b.shape(), &[2, 2]);
        assert_eq!(b.data(), a.data());
    }

    proptest! {
        #[test]
        fn prop_scale_linear(data in proptest::collection::vec(-10.0f32..10.0, 1..32), k in -5.0f32..5.0) {
            let n = data.len();
            let a = Tensor::from_vec(data, &[n]);
            let direct = a.clone().scale(2.0 * k);
            let composed = a.scale(k).scale(2.0);
            for (x, y) in direct.data().iter().zip(composed.data().iter()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        #[test]
        fn prop_matmul_identity(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let a = Tensor::from_vec(data, &[rows, cols]);
            let mut id = Tensor::zeros(&[cols, cols]);
            for i in 0..cols { *id.at2_mut(i, i) = 1.0; }
            let b = a.matmul(&id);
            for (x, y) in a.data().iter().zip(b.data().iter()) {
                prop_assert!((x - y).abs() < 1e-5);
            }
        }

        #[test]
        fn prop_transpose_involution(rows in 1usize..8, cols in 1usize..8) {
            let data: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
            let a = Tensor::from_vec(data, &[rows, cols]);
            prop_assert_eq!(a.transpose().transpose(), a);
        }

        #[test]
        fn prop_matmul_matches_naive_reference(m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..200) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Tensor::from_vec((0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect(), &[m, k]);
            let b = Tensor::from_vec((0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect(), &[k, n]);
            let fast = a.matmul(&b);
            let mut reference = vec![0.0f32; m * n];
            crate::kernels::matmul_naive(a.data(), b.data(), &mut reference, m, k, n);
            for (x, y) in fast.data().iter().zip(reference.iter()) {
                prop_assert!((x - y).abs() < 1e-5, "{x} vs {y}");
            }
        }

        #[test]
        fn prop_matmul_tn_matches_explicit_transpose(m in 1usize..16, k in 1usize..16, n in 1usize..16, seed in 0u64..200) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Tensor::from_vec((0..k * m).map(|_| rng.gen_range(-2.0..2.0)).collect(), &[k, m]);
            let b = Tensor::from_vec((0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect(), &[k, n]);
            let fused = a.matmul_tn(&b);
            let explicit = a.transpose().matmul(&b);
            prop_assert_eq!(fused.shape(), explicit.shape());
            for (x, y) in fused.data().iter().zip(explicit.data().iter()) {
                prop_assert!((x - y).abs() < 1e-5, "{x} vs {y}");
            }
        }

        #[test]
        fn prop_matmul_nt_matches_explicit_transpose(m in 1usize..16, k in 1usize..16, n in 1usize..16, seed in 0u64..200) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Tensor::from_vec((0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect(), &[m, k]);
            let b = Tensor::from_vec((0..n * k).map(|_| rng.gen_range(-2.0..2.0)).collect(), &[n, k]);
            let fused = a.matmul_nt(&b);
            let explicit = a.matmul(&b.transpose());
            prop_assert_eq!(fused.shape(), explicit.shape());
            for (x, y) in fused.data().iter().zip(explicit.data().iter()) {
                prop_assert!((x - y).abs() < 1e-5, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_into_reuses_and_overwrites() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let mut out = Tensor::full(&[3, 3], 9.0); // wrong shape, stale contents
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a);
    }

    #[test]
    fn matmul_tn_acc_accumulates() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]); // [k=2, m=1]
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2, 1]); // [k=2, n=1]
        let mut acc = Tensor::full(&[1, 1], 10.0);
        a.matmul_tn_acc_into(&b, &mut acc);
        assert_eq!(acc.data(), &[10.0 + 1.0 * 3.0 + 2.0 * 4.0]);
    }

    #[test]
    fn copy_from_and_fill_keep_allocation() {
        let big = Tensor::full(&[8, 8], 1.0);
        let mut scratch = Tensor::default();
        scratch.copy_from(&big);
        assert_eq!(scratch, big);
        scratch.fill(0.0);
        assert_eq!(scratch.data(), &[0.0; 64]);
        let small = Tensor::from_vec(vec![5.0], &[1, 1]);
        scratch.copy_from(&small);
        assert_eq!(scratch, small);
    }
}
