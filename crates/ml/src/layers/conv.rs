//! 2-D convolution layer, lowered to the GEMM micro-kernel engine.
//!
//! # Per-image lowering
//!
//! The paper's Table 1 workloads are CNNs, so `Conv2d` is where the dominant
//! FLOPs of the benchmark models live. The layer routes them through
//! [`crate::kernels`], one image at a time, through one per-image column
//! buffer: `[K × N]`, where `K = in_channels · kernel²` patch rows in
//! `(ic, ky, kx)`-ascending order and `N = oh · ow` output positions
//! (14 400 floats for the MNIST model's first convolution, 3 200 for its
//! second).
//!
//! * **Forward** lowers image `b` into the buffer and computes
//!   `out_b = W · cols + bias` with the register-tiled
//!   [`crate::kernels::matmul`] (`W` reshaped `[out_channels, K]`) while the
//!   columns are still in cache.
//! * **Backward** runs the images in ascending order: `d(cols) = Wᵀ · dY_b`
//!   via [`crate::kernels::matmul_tn_acc`] and a col2im scatter-add into
//!   `grad_input`, then image `b` lowered *again* from the cached input and
//!   `dW += dY_b · colsᵀ` via the fused [`crate::kernels::matmul_nt_acc`]
//!   straight into the gradient buffer (layers with few output channels
//!   compute the bit-identical transposed product instead — see
//!   [`GW_TRANSPOSE_MAX_OC`]) and the bias sums, every channel's chain
//!   extended in one pass over the positions. As the first layer of a model
//!   the input-gradient GEMM + scatter is skipped entirely
//!   ([`Layer::backward_input_unneeded`]).
//!
//! Lowering twice is what keeps no whole-batch workspace alive from forward
//! to backward: at batch 32 the MNIST model's two such workspaces were
//! 460 800 + 102 400 floats (2.25 MB), every one written before it was read.
//! The buffer holds exactly the values the whole-batch workspace held for
//! image `b`, and every GEMM call is the one it was, so the gradient is the
//! same bit for bit (the `per_image_parity` tests hold the layer to a
//! whole-batch oracle). Narrow rows (the second MNIST convolution's
//! `ow = 4`) are lowered and scattered as fixed-width array copies, which
//! pays for most of the second lowering.
//!
//! The GEMM still reads the columns from the buffer rather than gathering
//! its `B` panels straight from the image: a prototype that gathered them by
//! `(ic, ky, kx, oy, ox)` offsets inside the panel packing ran the first
//! MNIST convolution's batch-32 forward in 462 µs against 386 µs with the
//! buffer (2-core AVX-512 host). The lowering copies whole input rows; the
//! gather computes an offset per packed lane.
//!
//! The column buffer, the cached input, the `d(cols)` and transposed
//! weight-gradient scratch and the output and input-gradient tensors are
//! all lent by the thread's scratch pool ([`crate::scratch`]); the layer
//! itself keeps only its parameters and gradients across steps. The cached
//! input stays with the layer from forward to backward and goes back to the
//! pool at [`Layer::release_scratch`]; the rest go back as soon as their
//! pass is done with them.
//!
//! # One core per gradient
//!
//! The layer does not fan its batch out, and neither do the kernels it
//! calls: both passes run on the calling thread. A FLeet worker's task is
//! one mini-batch gradient, so the cores are better spent on other tasks
//! than on splitting one: a per-image fan-out cost five spawns per MNIST
//! gradient (fleetbench's `parallel.fanout_us`, ≈ 35–58 µs each against
//! ≈ 4–5 µs inline) and moved every activation between the cores' private
//! caches, and on the two-core reference host `FLEET_NUM_THREADS=1` ran
//! `train_inproc` faster than the default two threads did (numbers in
//! `fleet_parallel`'s crate docs).
//!
//! # Determinism
//!
//! The layer inherits the kernel engine's bit-for-bit determinism contract.
//! The `(ic, ky, kx)`-ascending patch-row order makes the GEMM's
//! ascending-`k` accumulation visit the `(input, weight)` products of an
//! output element in the order a direct loop nest would, so each output
//! element is one fixed fused-multiply-add chain — identical across thread
//! counts. Images are independent except for the weight and bias gradients,
//! which accumulate in ascending image order.
//!
//! The seed repository's direct loop nest survives as a test-only oracle
//! (`forward_direct` / `backward_direct`). It rounds each product and add
//! separately (no FMA) and seeds rows with the bias instead of adding it
//! last, so it agrees with the layer to tolerance, not bits — the property
//! tests at the bottom of this file pin that parity across strides,
//! remainder shapes, one-hot and NaN/Inf inputs.

use crate::init::Initializer;
use crate::kernels;
use crate::layer::Layer;
use crate::scratch;
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
// time: the direct-vs-im2col parity suite is tolerance-based, and the
// per-image parity suite's oracle makes the same orientation choice, so
// neither would notice the orientations drifting apart in the low bits.
const _: () = assert!(
    GW_TRANSPOSE_MAX_OC <= kernels::NT_PACK_MIN_ROWS && GW_TRANSPOSE_MAX_OC <= kernels::NR,
    "transposed weight-gradient orientation would leave the blocked-dot path"
);

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
    /// The latest forward pass's input, copied onto a lent buffer; `None`
    /// before the first forward pass and after [`Layer::release_scratch`].
    /// Backward lowers its images again from here.
    cached_input: Option<Tensor>,
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

    /// Remembers `input` for the backward pass, on a lent buffer.
    fn cache_input(&mut self, input: &Tensor) {
        Tensor::relend(&mut self.cached_input, input.shape()).copy_from(input);
    }

    /// The lowering of one image of `input` (checked by [`Self::check_input`]),
    /// whose output is `oh × ow`.
    fn patches(&self, input: &Tensor, oh: usize, ow: usize) -> Patches {
        Patches {
            in_c: self.in_channels,
            h: input.shape()[2],
            w: input.shape()[3],
            kernel: self.kernel,
            stride: self.stride,
            oh,
            ow,
        }
    }

    /// Forward, one image at a time: lower image `b` into the per-image
    /// column buffer, then `out_b = W · cols + bias` while those columns are
    /// still in cache.
    fn forward_im2col(&self, input: &Tensor, batch: usize, oh: usize, ow: usize) -> Tensor {
        let patches = self.patches(input, oh, ow);
        let out_c = self.out_channels;
        let (kk, n, img_len) = (patches.rows(), patches.positions(), patches.image_len());
        let mut cols = scratch::take(kk * n);
        let mut out = Tensor::lent(&[batch, out_c, oh, ow]);
        let out_data = out.data_mut();
        let in_data = input.data();
        let w_data = self.weights.data();
        let bias = self.bias.data();
        for b in 0..batch {
            let out_b = &mut out_data[b * out_c * n..][..out_c * n];
            patches.lower(&in_data[b * img_len..][..img_len], &mut cols);
            kernels::matmul(w_data, &cols, out_b, out_c, kk, n);
            for (row, &bv) in out_b.chunks_mut(n).zip(bias) {
                for o in row {
                    *o += bv;
                }
            }
        }
        scratch::give(cols);
        out
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
        let mut out = Tensor::lent(&[batch, out_c, oh, ow]);
        let out_data = out.data_mut();
        let in_data = input.data();
        let w_data = self.weights.data();
        let bias_data = self.bias.data();
        for b in 0..batch {
            for oc in 0..out_c {
                let bias = bias_data[oc];
                for oy in 0..oh {
                    let out_row = &mut out_data[((b * out_c + oc) * oh + oy) * ow..][..ow];
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
        Ok(out)
    }

    /// Backward, one image at a time in ascending order: image `b`'s input
    /// gradient (`d(cols) = Wᵀ·dY_b` scattered back by col2im), then image
    /// `b` lowered again from the cached input and its `dW += dY_b·colsᵀ`
    /// and bias sums, which extend the gradient chains in place. With
    /// `need_input_grad` unset (first layer of a model) the input-gradient
    /// GEMM and scatter are skipped and `None` is returned.
    fn backward_im2col(
        &mut self,
        grad_output: &Tensor,
        batch: usize,
        oh: usize,
        ow: usize,
        need_input_grad: bool,
    ) -> Option<Tensor> {
        let input = self.cached_input.as_ref().expect("checked by backward");
        let patches = self.patches(input, oh, ow);
        let out_c = self.out_channels;
        let (kk, n, img_len) = (patches.rows(), patches.positions(), patches.image_len());
        let mut grad_input = need_input_grad.then(|| {
            let mut grad_input = Tensor::lent(input.shape());
            grad_input.fill(0.0);
            grad_input
        });
        let mut cols = scratch::take(kk * n);
        let mut dcols = if need_input_grad {
            scratch::take(kk * n)
        } else {
            Vec::new()
        };
        // Small-`oc` layers compute the weight gradient transposed —
        // bit-identical, far less memory traffic (see
        // [`GW_TRANSPOSE_MAX_OC`]).
        let transposed = out_c < GW_TRANSPOSE_MAX_OC && kk >= out_c;
        let mut gwt = if transposed {
            scratch::take(kk * out_c)
        } else {
            Vec::new()
        };
        let in_data = input.data();
        let go = grad_output.data();
        let w_data = self.weights.data();
        let gw = self.grad_weights.data_mut();
        let gb = self.grad_bias.data_mut();
        for b in 0..batch {
            let go_b = &go[b * out_c * n..][..out_c * n];
            if let Some(grad_input) = grad_input.as_mut() {
                dcols.fill(0.0);
                kernels::matmul_tn_acc(w_data, go_b, &mut dcols, kk, out_c, n);
                let gi_b = &mut grad_input.data_mut()[b * img_len..][..img_len];
                patches.scatter_add(&dcols, gi_b);
            }
            patches.lower(&in_data[b * img_len..][..img_len], &mut cols);
            if transposed {
                kernels::matmul_nt(&cols, go_b, &mut gwt, kk, n, out_c);
                for (i, gw_row) in gw.chunks_mut(kk).enumerate() {
                    for (j, g) in gw_row.iter_mut().enumerate() {
                        *g += gwt[j * out_c + i];
                    }
                }
            } else {
                kernels::matmul_nt_acc(go_b, &cols, gw, out_c, n, kk);
            }
            add_row_sums(gb, go_b, n);
        }
        scratch::give(cols);
        scratch::give(dcols);
        scratch::give(gwt);
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
        let mut grad_input = Tensor::lent(input.shape());
        grad_input.fill(0.0);
        let gi = grad_input.data_mut();
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
                                let gi_patch = &mut gi[base..base + kernel];
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
        Ok(grad_input)
    }
}

/// Channels whose bias sums [`add_row_sums`] keeps in flight at once.
const BIAS_LANES: usize = 8;

/// `sums[c] += Σ_pos rows[c][pos]` over the `n`-long rows of a
/// `[sums.len(), n]` matrix. Each channel's sum is the same serial chain as
/// `for v in row { sum += v }` — seeded with `sums[c]`, ascending `pos` —
/// but one pass over the positions extends up to [`BIAS_LANES`] channels'
/// chains together, so their adds overlap instead of each waiting on the
/// last.
fn add_row_sums(sums: &mut [f32], rows: &[f32], n: usize) {
    if n == 0 {
        return;
    }
    let mut groups = sums.chunks_exact_mut(BIAS_LANES);
    let mut group_rows = rows.chunks_exact(BIAS_LANES * n);
    for (sums, rows) in (&mut groups).zip(&mut group_rows) {
        let mut acc: [f32; BIAS_LANES] = (&*sums).try_into().expect("a full group");
        for pos in 0..n {
            for (c, a) in acc.iter_mut().enumerate() {
                *a += rows[c * n + pos];
            }
        }
        sums.copy_from_slice(&acc);
    }
    // The last `sums.len() % BIAS_LANES` channels: the same pass, in place.
    let (sums, rows) = (groups.into_remainder(), group_rows.remainder());
    for pos in 0..n {
        for (c, s) in sums.iter_mut().enumerate() {
            *s += rows[c * n + pos];
        }
    }
}

/// How one `[in_c, h, w]` image is lowered into a `[K × N]` column matrix:
/// `K = in_c · kernel²` patch rows in `(ic, ky, kx)`-ascending order,
/// `N = oh · ow` output positions, `cols[p][oy*ow + ox] =
/// img[ic][oy*stride + ky][ox*stride + kx]`.
#[derive(Debug, Clone, Copy)]
struct Patches {
    in_c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    oh: usize,
    ow: usize,
}

impl Patches {
    /// `K`, the column matrix's rows.
    fn rows(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// `N`, the column matrix's columns.
    fn positions(&self) -> usize {
        self.oh * self.ow
    }

    /// Floats in one input image.
    fn image_len(&self) -> usize {
        self.in_c * self.h * self.w
    }

    /// Lowers `img` into `cols` (`[K × N]`, fully overwritten). The stride-1
    /// row widths of Table 1's convolutions (24 for the first MNIST and
    /// E-MNIST ones, 4, 8 and 12 for the second ones) copy as fixed-width
    /// arrays: one vector move per row where a runtime-length loop paid its
    /// set-up for four floats.
    fn lower(&self, img: &[f32], cols: &mut [f32]) {
        /// `copy(taps, row)` for every row of `cols`; `W` is `ow` when it is
        /// monomorphised, `0` reads it.
        fn rows<const W: usize>(
            g: &Patches,
            img: &[f32],
            cols: &mut [f32],
            copy: impl Fn(&[f32], &mut [f32]),
        ) {
            let ow = if W == 0 { g.ow } else { W };
            let run = (ow - 1) * g.stride + 1;
            g.each_row(|at, row| copy(&img[at..at + run], &mut cols[row * ow..][..ow]));
        }
        fn copy(src: &[f32], dst: &mut [f32]) {
            dst.copy_from_slice(src);
        }
        // Short runs of other widths: a scalar copy loop beats the overhead
        // of one `memcpy` call per row.
        fn copy_short(src: &[f32], dst: &mut [f32]) {
            for (d, &x) in dst.iter_mut().zip(src) {
                *d = x;
            }
        }
        match (self.stride, self.ow) {
            (1, 4) => rows::<4>(self, img, cols, copy),
            (1, 8) => rows::<8>(self, img, cols, copy),
            (1, 12) => rows::<12>(self, img, cols, copy),
            (1, 24) => rows::<24>(self, img, cols, copy),
            (1, ow) if ow >= 32 => rows::<0>(self, img, cols, copy),
            (1, _) => rows::<0>(self, img, cols, copy_short),
            (stride, _) => rows::<0>(self, img, cols, |src, dst| {
                for (d, &x) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                    *d = x;
                }
            }),
        }
    }

    /// Scatter-adds a `[K × N]` column-gradient matrix back into image
    /// geometry — the adjoint of [`Self::lower`]. Rows are visited in the
    /// same `(ic, ky, kx)`-ascending order and positions in ascending
    /// `(oy, ox)`, so overlapping patches accumulate in one fixed order; the
    /// widths [`Self::lower`] fixes are fixed here too.
    fn scatter_add(&self, dcols: &[f32], gi: &mut [f32]) {
        /// `add(row, taps)` for every row of `dcols`; `W` as in `lower`.
        fn rows<const W: usize>(
            g: &Patches,
            dcols: &[f32],
            gi: &mut [f32],
            add: impl Fn(&[f32], &mut [f32]),
        ) {
            let ow = if W == 0 { g.ow } else { W };
            let run = (ow - 1) * g.stride + 1;
            g.each_row(|at, row| add(&dcols[row * ow..][..ow], &mut gi[at..at + run]));
        }
        fn add(src: &[f32], dst: &mut [f32]) {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        match (self.stride, self.ow) {
            (1, 4) => rows::<4>(self, dcols, gi, add),
            (1, 8) => rows::<8>(self, dcols, gi, add),
            (1, 12) => rows::<12>(self, dcols, gi, add),
            (1, 24) => rows::<24>(self, dcols, gi, add),
            (1, _) => rows::<0>(self, dcols, gi, add),
            (stride, _) => rows::<0>(self, dcols, gi, |src, dst| {
                for (d, &s) in dst.iter_mut().step_by(stride).zip(src) {
                    *d += s;
                }
            }),
        }
    }

    /// Calls `f(at, row)` for every `(ic, ky, kx, oy)` in ascending order:
    /// `row` numbers the column matrix's `ow`-float rows (patch row `p`
    /// holds rows `p·oh .. (p + 1)·oh`), and `at` is the image offset of that
    /// row's first tap, `img[ic][oy·stride + ky][kx]`.
    #[inline(always)]
    fn each_row(&self, mut f: impl FnMut(usize, usize)) {
        let mut row = 0;
        for ic in 0..self.in_c {
            for ky in 0..self.kernel {
                for kx in 0..self.kernel {
                    for oy in 0..self.oh {
                        f((ic * self.h + oy * self.stride + ky) * self.w + kx, row);
                        row += 1;
                    }
                }
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

    fn release_scratch(&mut self) {
        if let Some(input) = self.cached_input.take() {
            input.give_back();
        }
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
    fn interleaved_bias_sums_equal_serial_per_channel_sums() {
        // `add_row_sums` interleaves the channels' chains; each channel must
        // still be the serial ascending-position chain from its seed. Values
        // span many magnitudes, so any reordering would show in the bits.
        for channels in [1usize, 7, 8, 9, 17, 48] {
            for n in [1usize, 3, 16, 37, 576] {
                let rows: Vec<f32> = (0..channels * n)
                    .map(|i| (i as f32 * 0.618).sin() * 10f32.powi((i % 9) as i32 - 4))
                    .collect();
                let seed: Vec<f32> = (0..channels).map(|c| (c as f32 * 1.3).cos()).collect();
                let serial: Vec<f32> = seed
                    .iter()
                    .zip(rows.chunks(n))
                    .map(|(&s, row)| {
                        let mut sum = s;
                        for &v in row {
                            sum += v;
                        }
                        sum
                    })
                    .collect();
                let mut interleaved = seed.clone();
                add_row_sums(&mut interleaved, &rows, n);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&interleaved), bits(&serial), "{channels} x {n}");
            }
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

/// Per-image lowering against the whole-batch workspace it replaced, bit for
/// bit: the oracle lowers every image up front by the index formula into one
/// `[batch × K × N]` workspace (and scatters `d(cols)` back by the formula),
/// then makes the same kernel calls in the same order as the layer.
#[cfg(test)]
mod per_image_parity {
    use super::*;

    /// `(in_c, out_c, kernel, stride, h, w)`.
    type Shape = (usize, usize, usize, usize, usize, usize);

    /// `cols[p][oy*ow + ox] = img[ic][oy*stride + ky][ox*stride + kx]`.
    fn lower_by_formula(img: &[f32], g: &Patches, cols: &mut [f32]) {
        let n = g.positions();
        for (p, row) in cols.chunks_exact_mut(n).enumerate() {
            let (ic, ky, kx) = (
                p / (g.kernel * g.kernel),
                p / g.kernel % g.kernel,
                p % g.kernel,
            );
            for (j, c) in row.iter_mut().enumerate() {
                let (oy, ox) = (j / g.ow, j % g.ow);
                *c = img[(ic * g.h + oy * g.stride + ky) * g.w + ox * g.stride + kx];
            }
        }
    }

    /// The adjoint of [`lower_by_formula`], in the same `(p, oy, ox)` order.
    fn scatter_by_formula(dcols: &[f32], g: &Patches, gi: &mut [f32]) {
        let n = g.positions();
        for (p, row) in dcols.chunks_exact(n).enumerate() {
            let (ic, ky, kx) = (
                p / (g.kernel * g.kernel),
                p / g.kernel % g.kernel,
                p % g.kernel,
            );
            for (j, &d) in row.iter().enumerate() {
                let (oy, ox) = (j / g.ow, j % g.ow);
                gi[(ic * g.h + oy * g.stride + ky) * g.w + ox * g.stride + kx] += d;
            }
        }
    }

    /// The whole-batch engine: `(output, grad_input, grad_weights,
    /// grad_bias)` for one forward and one backward from zeroed gradients.
    fn whole_batch(conv: &Conv2d, input: &Tensor, go: &[f32]) -> [Vec<f32>; 4] {
        let (batch, oh, ow) = conv.check_input(input).unwrap();
        let g = conv.patches(input, oh, ow);
        let (kk, n, img_len, out_c) = (g.rows(), g.positions(), g.image_len(), conv.out_channels);
        let mut cols = vec![f32::NAN; batch * kk * n];
        for (img, cols_b) in input
            .data()
            .chunks_exact(img_len)
            .zip(cols.chunks_exact_mut(kk * n))
        {
            lower_by_formula(img, &g, cols_b);
        }
        let w = conv.weights.data();
        let mut out = vec![0.0; batch * out_c * n];
        let mut gi = vec![0.0; input.len()];
        let mut gw = vec![0.0; w.len()];
        let mut gb = vec![0.0; out_c];
        let mut dcols = vec![0.0; kk * n];
        let mut gwt = vec![0.0; kk * out_c];
        let transposed = out_c < GW_TRANSPOSE_MAX_OC && kk >= out_c;
        for b in 0..batch {
            let cols_b = &cols[b * kk * n..][..kk * n];
            let out_b = &mut out[b * out_c * n..][..out_c * n];
            kernels::matmul(w, cols_b, out_b, out_c, kk, n);
            for (row, &bv) in out_b.chunks_mut(n).zip(conv.bias.data()) {
                row.iter_mut().for_each(|o| *o += bv);
            }
        }
        for b in 0..batch {
            let cols_b = &cols[b * kk * n..][..kk * n];
            let go_b = &go[b * out_c * n..][..out_c * n];
            dcols.fill(0.0);
            kernels::matmul_tn_acc(w, go_b, &mut dcols, kk, out_c, n);
            scatter_by_formula(&dcols, &g, &mut gi[b * img_len..][..img_len]);
            if transposed {
                kernels::matmul_nt(cols_b, go_b, &mut gwt, kk, n, out_c);
                for (i, gw_row) in gw.chunks_mut(kk).enumerate() {
                    for (j, v) in gw_row.iter_mut().enumerate() {
                        *v += gwt[j * out_c + i];
                    }
                }
            } else {
                kernels::matmul_nt_acc(go_b, cols_b, &mut gw, out_c, n, kk);
            }
            add_row_sums(&mut gb, go_b, n);
        }
        [out, gi, gw, gb]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn pattern(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (((i * 7919 + salt * 104_729) % 2003) as f32 / 1001.0 - 1.0) * 1.7)
            .collect()
    }

    fn assert_whole_batch_parity(shape: Shape, batch: usize) {
        let (in_c, out_c, kernel, stride, h, w) = shape;
        let mut conv = Conv2d::new(in_c, out_c, kernel, stride, Initializer::He, 17);
        conv.bias = Tensor::from_vec(pattern(out_c, 3), &[out_c]);
        let input = Tensor::from_vec(pattern(batch * in_c * h * w, 1), &[batch, in_c, h, w]);
        let out = conv.forward(&input).unwrap();
        let go = Tensor::from_vec(pattern(out.len(), 2), out.shape());
        let gi = conv.backward(&go).unwrap();
        let want = whole_batch(&conv, &input, go.data());
        let got = [
            out.data(),
            gi.data(),
            conv.grad_weights.data(),
            conv.grad_bias.data(),
        ];
        for ((what, got), want) in ["output", "grad_input", "grad_weights", "grad_bias"]
            .iter()
            .zip(got)
            .zip(&want)
        {
            assert_eq!(
                bits(got),
                bits(want),
                "{what} of {shape:?} at batch {batch}"
            );
        }
    }

    #[test]
    fn per_image_lowering_equals_the_whole_batch_workspace_on_table1_shapes() {
        let table1: [Shape; 6] = [
            (1, 8, 5, 1, 28, 28),   // MNIST conv1
            (8, 48, 5, 1, 8, 8),    // MNIST conv2
            (1, 10, 5, 1, 28, 28),  // EMNIST conv1
            (10, 10, 5, 1, 12, 12), // EMNIST conv2
            (3, 16, 3, 1, 32, 32),  // CIFAR-100 conv1
            (16, 64, 3, 1, 14, 14), // CIFAR-100 conv2
        ];
        for shape in table1 {
            assert_whole_batch_parity(shape, 3);
        }
    }

    #[test]
    fn per_image_lowering_equals_the_whole_batch_workspace_on_strides_and_remainders() {
        let shapes: [Shape; 8] = [
            (3, 5, 3, 2, 11, 13),
            (2, 13, 2, 2, 9, 16),
            (2, 7, 2, 1, 9, 7),
            (1, 3, 3, 1, 7, 10),
            (4, 20, 3, 1, 6, 14),
            (2, 6, 1, 3, 10, 10),
            (3, 9, 4, 3, 17, 19),
            (1, 2, 2, 1, 3, 40),
        ];
        for shape in shapes {
            for batch in [1, 2] {
                assert_whole_batch_parity(shape, batch);
            }
        }
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
