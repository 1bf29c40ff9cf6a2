//! 2-D convolution layer, lowered to the GEMM micro-kernel engine.
//!
//! # The im2col engine
//!
//! The paper's Table 1 workloads are CNNs, so `Conv2d` is where the dominant
//! FLOPs of the benchmark models live. The layer routes them through
//! [`crate::kernels`]:
//!
//! * **Forward** lowers each batch image into a persistent, layer-owned
//!   im2col workspace — one `[K × N]` column matrix per image, where
//!   `K = in_channels · kernel²` patch rows in `(ic, ky, kx)`-ascending order
//!   and `N = oh · ow` output positions — and computes
//!   `out_b = W · cols_b + bias` with the register-tiled
//!   [`crate::kernels::matmul`] (`W` reshaped `[out_channels, K]`).
//! * **Backward** reuses the *same* workspace: `dW += dY_b · cols_bᵀ` via the
//!   fused [`crate::kernels::matmul_nt_acc`] straight into the gradient
//!   buffer (layers with few output channels compute the bit-identical
//!   transposed product instead — see [`GW_TRANSPOSE_MAX_OC`]), and
//!   `d(cols_b) = Wᵀ · dY_b` via [`crate::kernels::matmul_tn_acc`] followed
//!   by a col2im scatter-add into `grad_input`. As the first layer of a
//!   model the input-gradient GEMM + scatter is skipped entirely
//!   ([`Layer::backward_input_unneeded`]).
//!
//! After the first step no per-call allocations remain: the column
//! workspace, the `d(cols)` scratch (thread-local, one per persistent pool
//! worker) and the forward/backward output buffers (recycled by
//! [`crate::model::Sequential`] via [`Layer::recycle_output`] /
//! [`Layer::recycle_grad`]) all persist across steps.
//!
//! # Determinism
//!
//! The layer inherits the kernel engine's bit-for-bit determinism contract.
//! The `(ic, ky, kx)`-ascending patch-row order makes the GEMM's
//! ascending-`k` accumulation visit the `(input, weight)` products of an
//! output element in the order a direct loop nest would, so each output
//! element is one fixed fused-multiply-add chain — identical across thread
//! counts. Batch parallelism (gated on a work threshold, like the kernels'
//! own fan-out) splits *whole images* across the persistent pool; per-image
//! work is independent, so the partition cannot reassociate anything.
//!
//! The seed repository's direct loop nest survives as a test-only oracle
//! (`forward_direct` / `backward_direct`). It rounds each product and add
//! separately (no FMA) and seeds rows with the bias instead of adding it
//! last, so it agrees with the layer to tolerance, not bits — the property
//! tests at the bottom of this file pin that parity across strides,
//! remainder shapes, one-hot and NaN/Inf inputs.

use std::cell::RefCell;

use crate::init::Initializer;
use crate::kernels;
use crate::layer::Layer;
use crate::tensor::Tensor;
use crate::{MlError, Result};

/// Output-channel bound under which the weight gradient is computed as the
/// transposed product `d(Wᵀ) = cols_b · dY_bᵀ` (then transpose-added into the
/// gradient buffer) instead of `dW += dY_b · cols_bᵀ`: with few output
/// channels the direct orientation has too few rows to amortise any blocking
/// and re-streams the whole column matrix, while the transposed orientation
/// keeps the handful of `dY` rows L1-resident and streams `cols` once. The
/// two orientations are *bit-identical* — `dot(x, y) == dot(y, x)` because
/// IEEE multiplication commutes lane by lane — so this is purely a traffic
/// decision keyed on the layer shape.
const GW_TRANSPOSE_MAX_OC: usize = 12;

// The bit-identity argument above holds only while *both* orientations stay
// on the commutative blocked-dot path: the direct orientation needs
// `out_c < NT_PACK_MIN_ROWS` (else its rows take the fused-chain tiles) and
// the transposed orientation needs `out_c < NR` (else its columns do).
// Retuning either kernel constant past this bound must be caught at compile
// time, because the im2col parity suite is tolerance-based and would not
// notice the orientations drifting apart in the low bits.
const _: () = assert!(
    GW_TRANSPOSE_MAX_OC <= kernels::NT_PACK_MIN_ROWS && GW_TRANSPOSE_MAX_OC <= kernels::NR,
    "transposed weight-gradient orientation would leave the blocked-dot path"
);

thread_local! {
    /// Per-thread `d(cols)` scratch for the backward pass. Pool workers are
    /// persistent, so after warm-up the backward fan-out never allocates.
    static DCOLS_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's `d(cols)` scratch, grown to at least `len`.
fn with_dcols<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    DCOLS_BUF.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// A 2-D convolution over `[batch, in_channels, height, width]` inputs with
/// stride support and no padding ("valid" convolution), as in the paper's
/// Table 1 topologies.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    /// Weights with shape `[out_channels, in_channels, kernel, kernel]` —
    /// row-major, so also a `[out_channels, K]` GEMM operand as stored.
    weights: Tensor,
    bias: Tensor,
    grad_weights: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    /// Whole-batch im2col workspace: one `[K × N]` column matrix per image of
    /// `cached_input`, lowered by the latest forward and reused by the
    /// backward weight-gradient GEMM.
    cols: Vec<f32>,
    /// Scratch for the transposed weight-gradient product (small-`oc`
    /// layers; see [`GW_TRANSPOSE_MAX_OC`]).
    gwt_scratch: Vec<f32>,
    /// Recycled forward-output allocation (see [`Layer::recycle_output`]).
    out_spare: Vec<f32>,
    /// Recycled input-gradient allocation (see [`Layer::recycle_grad`]).
    grad_spare: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        init: Initializer,
        seed: u64,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weights = init.init(
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            fan_out,
            seed,
        );
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            weights,
            bias: Tensor::zeros(&[out_channels]),
            grad_weights: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_input: None,
            cols: Vec::new(),
            gwt_scratch: Vec::new(),
            out_spare: Vec::new(),
            grad_spare: Vec::new(),
        }
    }

    /// Output spatial size for an input spatial size, or `None` if the input
    /// is smaller than the kernel.
    pub(crate) fn output_size(&self, input: usize) -> Option<usize> {
        if input < self.kernel {
            None
        } else {
            Some((input - self.kernel) / self.stride + 1)
        }
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize)> {
        let shape = input.shape();
        if shape.len() != 4 || shape[1] != self.in_channels {
            return Err(MlError::ShapeMismatch {
                expected: vec![0, self.in_channels, 0, 0],
                actual: shape.to_vec(),
                context: "Conv2d::forward".to_string(),
            });
        }
        let (h, w) = (shape[2], shape[3]);
        let oh = self.output_size(h).ok_or_else(|| {
            MlError::InvalidArgument(format!(
                "input height {h} smaller than kernel {}",
                self.kernel
            ))
        })?;
        let ow = self.output_size(w).ok_or_else(|| {
            MlError::InvalidArgument(format!(
                "input width {w} smaller than kernel {}",
                self.kernel
            ))
        })?;
        Ok((shape[0], oh, ow))
    }

    /// Validates a backward call (forward ran, gradient shape matches) and
    /// returns `(batch, oh, ow)`.
    fn check_backward(&self, grad_output: &Tensor) -> Result<(usize, usize, usize)> {
        let input = self.cached_input.as_ref().ok_or_else(|| {
            MlError::InvalidArgument("Conv2d::backward called before forward".to_string())
        })?;
        let (batch, oh, ow) = self.check_input(input)?;
        let expected = vec![batch, self.out_channels, oh, ow];
        if grad_output.shape() != expected.as_slice() {
            return Err(MlError::ShapeMismatch {
                expected,
                actual: grad_output.shape().to_vec(),
                context: "Conv2d::backward".to_string(),
            });
        }
        Ok((batch, oh, ow))
    }

    /// Takes the recycled output allocation, resized for `len` elements.
    fn take_out_buf(&mut self, len: usize) -> Vec<f32> {
        let mut out = std::mem::take(&mut self.out_spare);
        out.resize(len, 0.0);
        out
    }

    /// Remembers `input` for the backward pass, reusing the cache's buffer.
    fn cache_input(&mut self, input: &Tensor) {
        match &mut self.cached_input {
            Some(cache) => cache.copy_from(input),
            cache => *cache = Some(input.clone()),
        }
    }

    /// im2col forward: lower every image, then one GEMM + bias broadcast per
    /// image, both phases batch-parallel above the work threshold.
    fn forward_im2col(&mut self, input: &Tensor, batch: usize, oh: usize, ow: usize) -> Tensor {
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let (in_c, out_c, kernel, stride) = (
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.stride,
        );
        let kk = in_c * kernel * kernel;
        let n = oh * ow;
        let cols_len = batch * kk * n;
        if self.cols.len() != cols_len {
            self.cols.resize(cols_len, 0.0);
        }
        let parallel = batch * out_c * kk * n >= kernels::PAR_FLOP_THRESHOLD;

        // Phase 1: lower images into the workspace (disjoint per image).
        let in_data = input.data();
        let img_len = in_c * h * w;
        let lower = |first_image: usize, chunk: &mut [f32]| {
            for (i, cols_b) in chunk.chunks_mut(kk * n).enumerate() {
                let img = &in_data[(first_image + i) * img_len..][..img_len];
                im2col_image(img, cols_b, in_c, h, w, kernel, stride, oh, ow);
            }
        };
        if parallel {
            fleet_parallel::parallel_chunks_mut(&mut self.cols, kk * n, lower);
        } else {
            lower(0, &mut self.cols);
        }

        // Phase 2: out_b = W · cols_b + bias (disjoint per image, workspace
        // now read-only).
        let mut out = self.take_out_buf(batch * out_c * n);
        let w_data = self.weights.data();
        let bias = self.bias.data();
        let cols = &self.cols;
        let gemm = |first_image: usize, chunk: &mut [f32]| {
            for (i, out_b) in chunk.chunks_mut(out_c * n).enumerate() {
                let b = first_image + i;
                kernels::matmul(w_data, &cols[b * kk * n..][..kk * n], out_b, out_c, kk, n);
                for (row, &bv) in out_b.chunks_mut(n).zip(bias) {
                    for o in row {
                        *o += bv;
                    }
                }
            }
        };
        if parallel {
            fleet_parallel::parallel_chunks_mut(&mut out, out_c * n, gemm);
        } else {
            gemm(0, &mut out);
        }
        Tensor::from_vec(out, &[batch, out_c, oh, ow])
    }

    /// The seed repository's direct loop nest, kept verbatim as the parity
    /// tests' oracle (bias hoisted out of the channel loop).
    #[cfg(test)]
    fn forward_direct(&mut self, input: &Tensor) -> Result<Tensor> {
        let (batch, oh, ow) = self.check_input(input)?;
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let (in_c, out_c, kernel, stride) = (
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.stride,
        );
        let mut out = self.take_out_buf(batch * out_c * oh * ow);
        let in_data = input.data();
        let w_data = self.weights.data();
        let bias_data = self.bias.data();
        for b in 0..batch {
            for oc in 0..out_c {
                let bias = bias_data[oc];
                for oy in 0..oh {
                    let out_row = &mut out[((b * out_c + oc) * oh + oy) * ow..][..ow];
                    out_row.fill(bias);
                    // Accumulate one (ic, ky, kx) weight at a time across the
                    // whole output row — for stride 1 that is a contiguous
                    // axpy over the input row, which vectorises over `ox`
                    // (the long dimension) instead of the tiny kernel width.
                    // The (ic, ky, kx)-ascending order matches the im2col
                    // GEMM's per-element summation order exactly.
                    for ic in 0..in_c {
                        for ky in 0..kernel {
                            let iy = oy * stride + ky;
                            let in_row = &in_data[((b * in_c + ic) * h + iy) * w..][..w];
                            let w_row =
                                &w_data[((oc * in_c + ic) * kernel + ky) * kernel..][..kernel];
                            for (kx, &wv) in w_row.iter().enumerate() {
                                if stride == 1 {
                                    for (o, &x) in out_row.iter_mut().zip(&in_row[kx..kx + ow]) {
                                        *o += wv * x;
                                    }
                                } else {
                                    for (ox, o) in out_row.iter_mut().enumerate() {
                                        *o += wv * in_row[ox * stride + kx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        self.cache_input(input);
        Ok(Tensor::from_vec(out, &[batch, out_c, oh, ow]))
    }

    /// im2col backward: `d(cols) = Wᵀ·dY` + col2im scatter per image
    /// (batch-parallel), then `dW += dY·colsᵀ` and the bias row sums
    /// accumulated in image order. With `need_input_grad` unset (first layer
    /// of a model) the whole input-gradient GEMM + scatter phase is skipped
    /// and `None` is returned.
    fn backward_im2col(
        &mut self,
        grad_output: &Tensor,
        batch: usize,
        oh: usize,
        ow: usize,
        need_input_grad: bool,
    ) -> Option<Tensor> {
        let input = self.cached_input.as_ref().expect("checked by backward");
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let (in_c, out_c, kernel, stride) = (
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.stride,
        );
        let kk = in_c * kernel * kernel;
        let n = oh * ow;
        let go = grad_output.data();
        let w_data = self.weights.data();
        let img_len = in_c * h * w;
        let grad_input = if need_input_grad {
            let mut grad_input = std::mem::take(&mut self.grad_spare);
            grad_input.resize(input.len(), 0.0);
            grad_input.fill(0.0);
            // Per-image input gradients: dcols_b = Wᵀ·dY_b, scattered back
            // to image geometry. Disjoint per image, so batch-parallel.
            let scatter = |first_image: usize, chunk: &mut [f32]| {
                for (i, gi_b) in chunk.chunks_mut(img_len).enumerate() {
                    let b = first_image + i;
                    with_dcols(kk * n, |dcols| {
                        dcols.fill(0.0);
                        kernels::matmul_tn_acc(
                            w_data,
                            &go[b * out_c * n..][..out_c * n],
                            dcols,
                            kk,
                            out_c,
                            n,
                        );
                        col2im_add(dcols, gi_b, in_c, h, w, kernel, stride, oh, ow);
                    });
                }
            };
            if batch * kk * out_c * n >= kernels::PAR_FLOP_THRESHOLD {
                fleet_parallel::parallel_chunks_mut(&mut grad_input, img_len, scatter);
            } else {
                scatter(0, &mut grad_input);
            }
            Some(Tensor::from_vec(grad_input, input.shape()))
        } else {
            None
        };

        // dW/db accumulate serially in image order over the forward-lowered
        // workspace (the fan-out inside the GEMM still parallelises large
        // products); the fused accumulating kernel extends the existing
        // gradient chains in place. Small-`oc` layers compute the product
        // transposed — bit-identical, far less memory traffic (see
        // [`GW_TRANSPOSE_MAX_OC`]).
        let transposed = out_c < GW_TRANSPOSE_MAX_OC && kk >= out_c;
        if transposed {
            self.gwt_scratch.resize(kk * out_c, 0.0);
        }
        let gw = self.grad_weights.data_mut();
        let gb = self.grad_bias.data_mut();
        for b in 0..batch {
            let go_b = &go[b * out_c * n..][..out_c * n];
            let cols_b = &self.cols[b * kk * n..][..kk * n];
            if transposed {
                kernels::matmul_nt(cols_b, go_b, &mut self.gwt_scratch, kk, n, out_c);
                for (i, gw_row) in gw.chunks_mut(kk).enumerate() {
                    for (j, g) in gw_row.iter_mut().enumerate() {
                        *g += self.gwt_scratch[j * out_c + i];
                    }
                }
            } else {
                kernels::matmul_nt_acc(go_b, cols_b, gw, out_c, n, kk);
            }
            for (g, row) in gb.iter_mut().zip(go_b.chunks(n)) {
                let mut sum = *g;
                for &v in row {
                    sum += v;
                }
                *g = sum;
            }
        }
        grad_input
    }

    /// The seed repository's direct backward loop nest, kept as the parity
    /// tests' oracle (note its `g == 0.0` skip, which the GEMM path does not
    /// have).
    #[cfg(test)]
    fn backward_direct(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let (batch, oh, ow) = self.check_backward(grad_output)?;
        let (in_c, out_c, kernel, stride) = (
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.stride,
        );
        // Disjoint field borrows: the cached input is read while the gradient
        // buffers are written, so no clone of the input is needed.
        let input = self.cached_input.as_ref().expect("checked by backward");
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let mut grad_input = std::mem::take(&mut self.grad_spare);
        grad_input.resize(input.len(), 0.0);
        grad_input.fill(0.0);
        let in_data = input.data();
        let go = grad_output.data();
        let w_data = self.weights.data();
        let gw = self.grad_weights.data_mut();
        let gb = self.grad_bias.data_mut();
        for b in 0..batch {
            for oc in 0..out_c {
                for oy in 0..oh {
                    let go_row = &go[((b * out_c + oc) * oh + oy) * ow..][..ow];
                    for (ox, &g) in go_row.iter().enumerate() {
                        // ReLU upstream makes zero gradients common enough
                        // that this skip pays for itself in the scalar nest
                        // (the GEMM path profits more from dense FMA tiles).
                        if g == 0.0 {
                            continue;
                        }
                        gb[oc] += g;
                        for ic in 0..in_c {
                            for ky in 0..kernel {
                                let iy = oy * stride + ky;
                                let base = ((b * in_c + ic) * h + iy) * w + ox * stride;
                                let in_patch = &in_data[base..base + kernel];
                                let wbase = ((oc * in_c + ic) * kernel + ky) * kernel;
                                let gw_row = &mut gw[wbase..wbase + kernel];
                                let w_row = &w_data[wbase..wbase + kernel];
                                let gi_patch = &mut grad_input[base..base + kernel];
                                for kx in 0..kernel {
                                    gw_row[kx] += g * in_patch[kx];
                                    gi_patch[kx] += g * w_row[kx];
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(Tensor::from_vec(grad_input, input.shape()))
    }
}

/// Lowers one `[in_c, h, w]` image into a `[K × N]` column matrix with patch
/// rows in `(ic, ky, kx)`-ascending order: `cols[p][oy*ow + ox] =
/// img[ic][oy*stride + ky][ox*stride + kx]`. Stride-1 rows are straight
/// `memcpy`s of input-row windows.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel signature: operand slices plus their dimensions, passed flat so the hot loop sees plain locals"
)]
fn im2col_image(
    img: &[f32],
    cols: &mut [f32],
    in_c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    oh: usize,
    ow: usize,
) {
    let n = oh * ow;
    let mut p = 0;
    for ic in 0..in_c {
        for ky in 0..kernel {
            for kx in 0..kernel {
                let col_row = &mut cols[p * n..(p + 1) * n];
                for oy in 0..oh {
                    let iy = oy * stride + ky;
                    let in_row = &img[(ic * h + iy) * w..][..w];
                    let dst = &mut col_row[oy * ow..(oy + 1) * ow];
                    if stride != 1 {
                        for (ox, d) in dst.iter_mut().enumerate() {
                            *d = in_row[ox * stride + kx];
                        }
                    } else if ow < 32 {
                        // Short rows (late conv layers shrink to a few
                        // positions): a scalar copy loop beats the overhead
                        // of one memcpy call per row.
                        for (d, &x) in dst.iter_mut().zip(&in_row[kx..kx + ow]) {
                            *d = x;
                        }
                    } else {
                        dst.copy_from_slice(&in_row[kx..kx + ow]);
                    }
                }
                p += 1;
            }
        }
    }
}

/// Scatter-adds a `[K × N]` column-gradient matrix back into `[in_c, h, w]`
/// image geometry — the adjoint of [`im2col_image`]. Rows are visited in the
/// same `(ic, ky, kx)`-ascending order and positions in ascending `(oy, ox)`,
/// so overlapping patches accumulate in one fixed order.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel signature: operand slices plus their dimensions, passed flat so the hot loop sees plain locals"
)]
fn col2im_add(
    dcols: &[f32],
    gi: &mut [f32],
    in_c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    oh: usize,
    ow: usize,
) {
    let n = oh * ow;
    let mut p = 0;
    for ic in 0..in_c {
        for ky in 0..kernel {
            for kx in 0..kernel {
                let col_row = &dcols[p * n..(p + 1) * n];
                for oy in 0..oh {
                    let iy = oy * stride + ky;
                    let gi_row = &mut gi[(ic * h + iy) * w..][..w];
                    let src = &col_row[oy * ow..(oy + 1) * ow];
                    if stride == 1 {
                        for (g, &s) in gi_row[kx..kx + ow].iter_mut().zip(src) {
                            *g += s;
                        }
                    } else {
                        for (ox, &s) in src.iter().enumerate() {
                            gi_row[ox * stride + kx] += s;
                        }
                    }
                }
                p += 1;
            }
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let (batch, oh, ow) = self.check_input(input)?;
        let out = self.forward_im2col(input, batch, oh, ow);
        self.cache_input(input);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let (batch, oh, ow) = self.check_backward(grad_output)?;
        let grad_input = self.backward_im2col(grad_output, batch, oh, ow, true);
        Ok(grad_input.expect("requested input gradient"))
    }

    fn backward_input_unneeded(&mut self, grad_output: &Tensor) -> Result<()> {
        let (batch, oh, ow) = self.check_backward(grad_output)?;
        self.backward_im2col(grad_output, batch, oh, ow, false);
        Ok(())
    }

    fn parameters(&self) -> Vec<&Tensor> {
        vec![&self.weights, &self.bias]
    }

    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weights, &mut self.bias]
    }

    fn gradients(&self) -> Vec<&Tensor> {
        vec![&self.grad_weights, &self.grad_bias]
    }

    fn zero_gradients(&mut self) {
        self.grad_weights.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn recycle_output(&mut self, output: Tensor) {
        self.out_spare = output.into_vec();
    }

    fn recycle_grad(&mut self, grad: Tensor) {
        self.grad_spare = grad.into_vec();
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_output_shape() {
        let mut conv = Conv2d::new(1, 2, 3, 1, Initializer::Xavier, 0);
        let out = conv.forward(&Tensor::zeros(&[2, 1, 8, 8])).unwrap();
        assert_eq!(out.shape(), &[2, 2, 6, 6]);
    }

    #[test]
    fn forward_with_stride() {
        let mut conv = Conv2d::new(1, 1, 2, 2, Initializer::Xavier, 0);
        let out = conv.forward(&Tensor::zeros(&[1, 1, 6, 6])).unwrap();
        assert_eq!(out.shape(), &[1, 1, 3, 3]);
    }

    #[test]
    fn identity_kernel_extracts_pixels() {
        // A 1x1 kernel with weight 1.0 must reproduce the input.
        let mut conv = Conv2d::new(1, 1, 1, 1, Initializer::Zeros, 0);
        conv.weights = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]);
        let input = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn known_convolution_value() {
        // 2x2 all-ones kernel over a 2x2 input sums the input.
        let mut conv = Conv2d::new(1, 1, 2, 1, Initializer::Zeros, 0);
        conv.weights = Tensor::full(&[1, 1, 2, 2], 1.0);
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.data(), &[10.0]);
    }

    #[test]
    fn input_smaller_than_kernel_errors() {
        let mut conv = Conv2d::new(1, 1, 5, 1, Initializer::Xavier, 0);
        assert!(conv.forward(&Tensor::zeros(&[1, 1, 3, 3])).is_err());
    }

    #[test]
    fn wrong_channel_count_errors() {
        let mut conv = Conv2d::new(3, 1, 2, 1, Initializer::Xavier, 0);
        assert!(conv.forward(&Tensor::zeros(&[1, 1, 4, 4])).is_err());
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // The layer and its test oracle, as (name, forward, backward) pairs.
        type Forward = fn(&mut Conv2d, &Tensor) -> Result<Tensor>;
        let paths: [(&str, Forward, Forward); 2] = [
            ("im2col", Conv2d::forward, Conv2d::backward),
            ("direct", Conv2d::forward_direct, Conv2d::backward_direct),
        ];
        for (path, forward, backward) in paths {
            let mut conv = Conv2d::new(1, 1, 2, 1, Initializer::Xavier, 5);
            let input = Tensor::from_vec(
                vec![0.2, -0.5, 0.1, 0.7, 0.3, -0.2, 0.9, 0.4, -0.6],
                &[1, 1, 3, 3],
            );
            let eps = 1e-2f32;
            conv.zero_gradients();
            let out = forward(&mut conv, &input).unwrap();
            backward(&mut conv, &Tensor::full(out.shape(), 1.0)).unwrap();
            let analytic = conv.gradients()[0].data()[0];

            let original = conv.weights.data()[0];
            conv.weights.data_mut()[0] = original + eps;
            let plus = forward(&mut conv, &input)
                .unwrap()
                .data()
                .iter()
                .sum::<f32>();
            conv.weights.data_mut()[0] = original - eps;
            let minus = forward(&mut conv, &input)
                .unwrap()
                .data()
                .iter()
                .sum::<f32>();
            conv.weights.data_mut()[0] = original;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "{path}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn backward_shapes_grad_input_like_input() {
        let mut conv = Conv2d::new(2, 3, 2, 1, Initializer::Xavier, 1);
        let input = Tensor::zeros(&[2, 2, 5, 5]);
        let out = conv.forward(&input).unwrap();
        let grad_in = conv.backward(&Tensor::full(out.shape(), 1.0)).unwrap();
        assert_eq!(grad_in.shape(), input.shape());
    }

    #[test]
    fn parameter_count_matches_formula() {
        let conv = Conv2d::new(3, 16, 3, 1, Initializer::Xavier, 0);
        assert_eq!(conv.parameter_count(), 16 * 3 * 3 * 3 + 16);
    }

    #[test]
    fn gw_orientations_are_bit_identical_below_transpose_bound() {
        // The GW_TRANSPOSE_MAX_OC gate claims dW is *bit*-identical whether
        // it is accumulated directly (dY·colsᵀ) or as the transposed product
        // (cols·dYᵀ, transpose-added). Pin that for a sweep of small-oc
        // shapes on both kernel entry points the two branches use.
        use crate::kernels;
        for &(oc, kk, n) in &[(1usize, 25usize, 36usize), (8, 25, 576), (11, 50, 49)] {
            assert!(oc < GW_TRANSPOSE_MAX_OC);
            let go: Vec<f32> = (0..oc * n).map(|i| (i as f32 * 0.37).sin()).collect();
            let cols: Vec<f32> = (0..kk * n).map(|i| (i as f32 * 0.13).cos()).collect();
            let seed: Vec<f32> = (0..oc * kk).map(|i| (i as f32 * 0.71).sin()).collect();

            let mut direct = seed.clone();
            kernels::matmul_nt_acc(&go, &cols, &mut direct, oc, n, kk);

            let mut gwt = vec![0.0f32; kk * oc];
            kernels::matmul_nt(&cols, &go, &mut gwt, kk, n, oc);
            let mut transposed = seed;
            for (i, row) in transposed.chunks_mut(kk).enumerate() {
                for (j, g) in row.iter_mut().enumerate() {
                    *g += gwt[j * oc + i];
                }
            }

            let direct_bits: Vec<u32> = direct.iter().map(|v| v.to_bits()).collect();
            let transposed_bits: Vec<u32> = transposed.iter().map(|v| v.to_bits()).collect();
            assert_eq!(direct_bits, transposed_bits, "oc={oc} kk={kk} n={n}");
        }
    }

    #[test]
    fn backward_before_forward_errors_instead_of_using_an_empty_workspace() {
        let mut conv = Conv2d::new(1, 1, 2, 1, Initializer::Xavier, 0);
        assert!(conv.backward(&Tensor::full(&[1, 1, 2, 2], 1.0)).is_err());
        assert!(conv
            .backward_input_unneeded(&Tensor::full(&[1, 1, 2, 2], 1.0))
            .is_err());
    }

    #[test]
    fn repeated_forwards_are_bit_identical() {
        // The workspace/output-buffer reuse must not leak state between
        // calls, including across a batch-size change.
        let mut conv = Conv2d::new(2, 3, 3, 1, Initializer::He, 9);
        let big = Tensor::from_vec(
            (0..2 * 2 * 6 * 6)
                .map(|i| (i as f32 * 0.37).sin())
                .collect(),
            &[2, 2, 6, 6],
        );
        let small = Tensor::from_vec(
            (0..2 * 6 * 6).map(|i| (i as f32 * 0.11).cos()).collect(),
            &[1, 2, 6, 6],
        );
        let first = conv.forward(&big).unwrap();
        conv.forward(&small).unwrap();
        let again = conv.forward(&big).unwrap();
        assert_eq!(first, again);
    }
}

/// Direct-vs-im2col parity: the layer must reproduce the reference loop nest
/// across strides, remainder-hostile shapes, one-hot and NaN/Inf inputs — to
/// tolerance, since the direct nest rounds multiply and add separately while
/// the kernels fuse them (same summation order, see the module docs).
#[cfg(test)]
mod im2col_parity {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random fill, decorrelated by `salt`.
    fn fill(len: usize, salt: u64) -> Vec<f32> {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 2.0
            })
            .collect()
    }

    fn one_hot(len: usize, every: usize) -> Vec<f32> {
        (0..len)
            .map(|i| if i % every == 0 { 1.0 } else { 0.0 })
            .collect()
    }

    /// Sprinkles NaN and infinities at deterministic positions.
    fn poison(data: &mut [f32]) {
        for (i, v) in data.iter_mut().enumerate() {
            match i % 23 {
                7 => *v = f32::NAN,
                13 => *v = f32::INFINITY,
                19 => *v = f32::NEG_INFINITY,
                _ => {}
            }
        }
    }

    /// NaN-aware closeness: both NaN passes, both same-sign infinite passes,
    /// otherwise relative-plus-absolute tolerance.
    fn assert_close(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            if x.is_nan() && y.is_nan() {
                continue;
            }
            if x.is_infinite() || y.is_infinite() {
                assert!(x == y, "{what}[{i}]: {x} vs {y}");
                continue;
            }
            let tol = 1e-3 + 1e-4 * x.abs().max(y.abs());
            assert!((x - y).abs() <= tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    /// Builds a pair of identically-initialised layers, runs forward and
    /// backward through the layer on one and through the direct oracle on the
    /// other, and asserts output/gradient parity.
    fn assert_parity(
        (in_c, out_c, kernel, stride): (usize, usize, usize, usize),
        (batch, h, w): (usize, usize, usize),
        input_data: Vec<f32>,
        grad_data: Option<Vec<f32>>,
    ) {
        let mut gemm = Conv2d::new(in_c, out_c, kernel, stride, Initializer::He, 33);
        let mut direct = Conv2d::new(in_c, out_c, kernel, stride, Initializer::He, 33);
        let input = Tensor::from_vec(input_data, &[batch, in_c, h, w]);

        let out_g = gemm.forward(&input).unwrap();
        let out_d = direct.forward_direct(&input).unwrap();
        assert_eq!(out_g.shape(), out_d.shape());
        assert_close(out_g.data(), out_d.data(), "forward");

        let grad = match grad_data {
            Some(data) => Tensor::from_vec(data, out_g.shape()),
            None => Tensor::from_vec(fill(out_g.len(), 77), out_g.shape()),
        };
        gemm.zero_gradients();
        direct.zero_gradients();
        let gi_g = gemm.backward(&grad).unwrap();
        let gi_d = direct.backward_direct(&grad).unwrap();
        assert_close(gi_g.data(), gi_d.data(), "grad_input");
        assert_close(
            gemm.gradients()[0].data(),
            direct.gradients()[0].data(),
            "grad_weights",
        );
        assert_close(
            gemm.gradients()[1].data(),
            direct.gradients()[1].data(),
            "grad_bias",
        );
    }

    proptest! {
        #[test]
        fn parity_across_strides_and_shapes(
            in_c in 1usize..4,
            out_c in 1usize..8,
            kernel in 1usize..5,
            stride in 1usize..4,
            extra_h in 0usize..7,
            extra_w in 0usize..7,
            batch in 1usize..4,
            salt in 0u64..500,
        ) {
            // Remainder-hostile by construction: oh/ow sweep every residue of
            // the kernel tile sizes as extra_h/extra_w vary.
            let h = kernel + extra_h;
            let w = kernel + extra_w;
            let input = fill(batch * in_c * h * w, salt);
            assert_parity((in_c, out_c, kernel, stride), (batch, h, w), input, None);
        }

        #[test]
        fn parity_on_one_hot_inputs(
            stride in 1usize..4,
            every in 1usize..9,
            salt in 0u64..100,
        ) {
            let (in_c, out_c, kernel) = (2, 5, 3);
            let (batch, h, w) = (2, 9, 9);
            let input = one_hot(batch * in_c * h * w, every + salt as usize % 3 + 1);
            assert_parity((in_c, out_c, kernel, stride), (batch, h, w), input, None);
        }

        #[test]
        fn parity_with_nan_and_inf(stride in 1usize..3, salt in 0u64..100) {
            // Non-finite inputs must propagate the same way through both
            // paths. The upstream gradient is kept nonzero everywhere: the
            // direct nest skips g == 0.0 terms while the GEMM adds them, and
            // adding 0·NaN is NaN — a legitimate divergence the contract
            // does not cover (finite zero terms are exact either way).
            let (in_c, out_c, kernel) = (2, 3, 2);
            let (batch, h, w) = (1, 6, 7);
            let mut input = fill(batch * in_c * h * w, salt);
            poison(&mut input);
            let oh = (h - kernel) / stride + 1;
            let ow = (w - kernel) / stride + 1;
            let grad: Vec<f32> = fill(batch * out_c * oh * ow, salt ^ 0xBEEF)
                .into_iter()
                .map(|g| if g.abs() < 1e-3 { 0.5 } else { g })
                .collect();
            assert_parity((in_c, out_c, kernel, stride), (batch, h, w), input, Some(grad));
        }
    }
}
