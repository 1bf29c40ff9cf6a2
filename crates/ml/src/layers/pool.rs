//! Max-pooling layer.

use crate::layer::Layer;
use crate::scratch;
use crate::tensor::Tensor;
use crate::{MlError, Result};

/// 2-D max-pooling over `[batch, channels, height, width]` inputs.
///
/// The paper's Table 1 uses pooling windows of 2x2, 3x3 and 4x4 with matching
/// strides (and 3x3 at stride 2 for CIFAR-100); this layer supports any
/// window/stride combination.
///
/// The forward pass scans the whole window of each output element in
/// `(ky, kx)` order with the running max and argmax in registers, and writes
/// the element once (monomorphised for windows 2–4). For Table 1's
/// window/stride pairs (2/2, 3/3, 4/4 and 3/2) a row of at least eight
/// outputs is scanned eight adjacent outputs at a time, one lane each: every
/// lane still visits its own window in `(ky, kx)` order, so the lanes are a
/// schedule, not a different computation (the MNIST model's first pool ran
/// ≈ 3× faster so in a standalone probe). Ties keep the semantics of the
/// scalar reference: the *first* window position (in `(ky, kx)` order) to
/// reach the maximum wins the argmax, and NaN inputs never win (a `>`
/// comparison); a window with no winner (all NaN or −∞) yields −∞ and
/// argmax 0.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
    /// Input shape of the latest forward pass; empty before the first one
    /// and after [`Layer::release_scratch`].
    cached_input_shape: Vec<usize>,
    /// For each output element, the flat input index of the element that
    /// won, on a lent buffer.
    cached_argmax: Vec<u32>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with a square `window` and the given `stride`.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `stride` is zero.
    pub fn new(window: usize, stride: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        assert!(stride > 0, "pool stride must be positive");
        Self {
            window,
            stride,
            cached_input_shape: Vec::new(),
            cached_argmax: Vec::new(),
        }
    }

    /// Output spatial size for an input spatial size, or `None` if the input
    /// is smaller than the pooling window.
    pub(crate) fn output_size(&self, input: usize) -> Option<usize> {
        if input < self.window {
            None
        } else {
            Some((input - self.window) / self.stride + 1)
        }
    }
}

/// Adjacent output elements of a row that [`pool_plane`] scans side by
/// side, one lane each.
const POOL_LANES: usize = 8;

/// Max-pools one `[h, w]` input plane whose first element has flat index
/// `plane_base` into its `[oh, ow]` output and argmax planes. Each output
/// element scans its whole window, rows `ky` then columns `kx` ascending,
/// starting from −∞ and argmax 0. `W` and `S` are the window and stride
/// when they are monomorphised (Table 1's pairs, so the scan unrolls and
/// its offsets are constants); `0` reads `window` or `stride` instead.
/// With both fixed and at least [`POOL_LANES`] outputs to a row, the row
/// runs [`pool_lanes`] over runs of that many outputs and one output at a
/// time over the rest; otherwise every output is scanned on its own.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel signature: operand slices plus their dimensions, passed flat so the hot loop sees plain locals"
)]
fn pool_plane<const W: usize, const S: usize>(
    plane: &[f32],
    plane_base: usize,
    out: &mut [f32],
    argmax: &mut [u32],
    w: usize,
    ow: usize,
    stride: usize,
    window: usize,
) {
    let window = if W == 0 { window } else { W };
    let stride = if S == 0 { stride } else { S };
    let rows = out.chunks_exact_mut(ow).zip(argmax.chunks_exact_mut(ow));
    if W == 0 || S == 0 || ow < POOL_LANES {
        for (oy, (out_row, arg_row)) in rows.enumerate() {
            for (ox, (o, a)) in out_row.iter_mut().zip(arg_row).enumerate() {
                let mut best = f32::NEG_INFINITY;
                let mut arg = 0;
                for ky in 0..window {
                    let at = (oy * stride + ky) * w + ox * stride;
                    for (kx, &x) in plane[at..at + window].iter().enumerate() {
                        let gt = x > best;
                        best = if gt { x } else { best };
                        arg = if gt {
                            (plane_base + at + kx) as u32
                        } else {
                            arg
                        };
                    }
                }
                *o = best;
                *a = arg;
            }
        }
        return;
    }
    let laned = ow - ow % POOL_LANES;
    for (oy, (out_row, arg_row)) in rows.enumerate() {
        let at = oy * stride * w;
        for ox in (0..laned).step_by(POOL_LANES) {
            let (o, a) = (
                &mut out_row[ox..ox + POOL_LANES],
                &mut arg_row[ox..ox + POOL_LANES],
            );
            pool_lanes::<W, S, POOL_LANES>(
                plane,
                plane_base + at + ox * stride,
                at + ox * stride,
                o,
                a,
                w,
            );
        }
        for ox in laned..ow {
            let (o, a) = (&mut out_row[ox..=ox], &mut arg_row[ox..=ox]);
            pool_lanes::<W, S, 1>(
                plane,
                plane_base + at + ox * stride,
                at + ox * stride,
                o,
                a,
                w,
            );
        }
    }
}

/// Scans the windows of `L` adjacent outputs, the first of which starts at
/// `plane[at]` (flat input index `base`), as `L` lanes: for each window
/// position in `(ky, kx)` order, every lane compares its own tap with its
/// running max (`>`, so ties keep the first position and NaN never wins)
/// and keeps the winner's flat index. The window `W` and stride `S` are
/// constants, so every tap's offset is one.
#[inline(always)]
fn pool_lanes<const W: usize, const S: usize, const L: usize>(
    plane: &[f32],
    base: usize,
    at: usize,
    out: &mut [f32],
    argmax: &mut [u32],
    w: usize,
) {
    let mut best = [f32::NEG_INFINITY; L];
    let mut arg = [0u32; L];
    for ky in 0..W {
        let taps: &[f32] = &plane[at + ky * w..][..(L - 1) * S + W];
        let row_base = (base + ky * w) as u32;
        for kx in 0..W {
            for l in 0..L {
                let i = l * S + kx;
                let gt = taps[i] > best[l];
                best[l] = if gt { taps[i] } else { best[l] };
                arg[l] = if gt { row_base + i as u32 } else { arg[l] };
            }
        }
    }
    out.copy_from_slice(&best);
    argmax.copy_from_slice(&arg);
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        "maxpool2d"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() != 4 {
            return Err(MlError::ShapeMismatch {
                expected: vec![0, 0, 0, 0],
                actual: shape.to_vec(),
                context: "MaxPool2d::forward".to_string(),
            });
        }
        let (batch, channels, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let oh = self.output_size(h).ok_or_else(|| {
            MlError::InvalidArgument(format!(
                "input height {h} smaller than window {}",
                self.window
            ))
        })?;
        let ow = self.output_size(w).ok_or_else(|| {
            MlError::InvalidArgument(format!(
                "input width {w} smaller than window {}",
                self.window
            ))
        })?;
        assert!(
            input.len() <= u32::MAX as usize,
            "MaxPool2d input too large for u32 argmax indices"
        );
        let out_len = batch * channels * oh * ow;
        let mut out = Tensor::lent(&[batch, channels, oh, ow]);
        scratch::give(std::mem::take(&mut self.cached_argmax));
        self.cached_argmax = scratch::take(out_len);
        let pool = match (self.window, self.stride) {
            (2, 2) => pool_plane::<2, 2>,
            (3, 3) => pool_plane::<3, 3>,
            (4, 4) => pool_plane::<4, 4>,
            (3, 2) => pool_plane::<3, 2>,
            (2, _) => pool_plane::<2, 0>,
            (3, _) => pool_plane::<3, 0>,
            (4, _) => pool_plane::<4, 0>,
            _ => pool_plane::<0, 0>,
        };
        let planes = input
            .data()
            .chunks_exact(h * w)
            .zip(out.data_mut().chunks_exact_mut(oh * ow))
            .zip(self.cached_argmax.chunks_exact_mut(oh * ow));
        for (p, ((plane, out_plane), arg_plane)) in planes.enumerate() {
            pool(
                plane,
                p * h * w,
                out_plane,
                arg_plane,
                w,
                ow,
                self.stride,
                self.window,
            );
        }
        self.cached_input_shape.clear();
        self.cached_input_shape.extend_from_slice(shape);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        if self.cached_input_shape.is_empty() {
            return Err(MlError::InvalidArgument(
                "MaxPool2d::backward called before forward".to_string(),
            ));
        }
        if grad_output.len() != self.cached_argmax.len() {
            return Err(MlError::ShapeMismatch {
                expected: vec![self.cached_argmax.len()],
                actual: vec![grad_output.len()],
                context: "MaxPool2d::backward".to_string(),
            });
        }
        let mut grad_input = Tensor::lent(&self.cached_input_shape);
        grad_input.fill(0.0);
        let gi = grad_input.data_mut();
        for (&in_idx, &g) in self.cached_argmax.iter().zip(grad_output.data()) {
            gi[in_idx as usize] += g;
        }
        Ok(grad_input)
    }

    fn parameters(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn gradients(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_gradients(&mut self) {}

    fn release_scratch(&mut self) {
        self.cached_input_shape.clear();
        scratch::give(std::mem::take(&mut self.cached_argmax));
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_picks_max() {
        let mut pool = MaxPool2d::new(2, 2);
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        );
        let out = pool.forward(&input).unwrap();
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        pool.forward(&input).unwrap();
        let grad = pool
            .backward(&Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]))
            .unwrap();
        assert_eq!(grad.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn non_4d_input_errors() {
        let mut pool = MaxPool2d::new(2, 2);
        assert!(pool.forward(&Tensor::zeros(&[2, 4])).is_err());
    }

    #[test]
    fn too_small_input_errors() {
        let mut pool = MaxPool2d::new(3, 3);
        assert!(pool.forward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }

    #[test]
    fn negative_values_handled() {
        let mut pool = MaxPool2d::new(2, 2);
        let input = Tensor::from_vec(vec![-5.0, -2.0, -8.0, -1.0], &[1, 1, 2, 2]);
        let out = pool.forward(&input).unwrap();
        assert_eq!(out.data(), &[-1.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut pool = MaxPool2d::new(2, 2);
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
    }

    /// The previous forward pass, kept as the oracle: outputs pre-filled
    /// with −∞ and argmax 0, then every window row `ky` swept into the whole
    /// output row — each tap across the row for stride 1, each element's
    /// `kx` run for larger strides.
    fn sweep_oracle(
        data: &[f32],
        (batch, channels, h, w): (usize, usize, usize, usize),
        window: usize,
        stride: usize,
    ) -> (Vec<f32>, Vec<u32>) {
        let oh = (h - window) / stride + 1;
        let ow = (w - window) / stride + 1;
        let mut out = vec![f32::NEG_INFINITY; batch * channels * oh * ow];
        let mut argmax = vec![0u32; out.len()];
        for plane in 0..batch * channels {
            for oy in 0..oh {
                let out_row = &mut out[(plane * oh + oy) * ow..][..ow];
                let arg_row = &mut argmax[(plane * oh + oy) * ow..][..ow];
                for ky in 0..window {
                    let iy = oy * stride + ky;
                    let in_row = &data[(plane * h + iy) * w..][..w];
                    let row_base = ((plane * h + iy) * w) as u32;
                    if stride == 1 {
                        for kx in 0..window {
                            let src = &in_row[kx..kx + ow];
                            for (ox, ((o, a), &x)) in out_row
                                .iter_mut()
                                .zip(arg_row.iter_mut())
                                .zip(src)
                                .enumerate()
                            {
                                let gt = x > *o;
                                *o = if gt { x } else { *o };
                                *a = if gt { row_base + (ox + kx) as u32 } else { *a };
                            }
                        }
                    } else {
                        for (ox, (o, a)) in out_row.iter_mut().zip(arg_row.iter_mut()).enumerate() {
                            let base = ox * stride;
                            for (kx, &x) in in_row[base..base + window].iter().enumerate() {
                                if x > *o {
                                    *o = x;
                                    *a = row_base + (base + kx) as u32;
                                }
                            }
                        }
                    }
                }
            }
        }
        (out, argmax)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs the layer and the oracle on `data` and requires equal output
    /// bits, argmax indices and shapes.
    fn assert_matches_sweep(
        data: Vec<f32>,
        dims: (usize, usize, usize, usize),
        window: usize,
        stride: usize,
    ) {
        let (batch, channels, h, w) = dims;
        let (expected, exp_argmax) = sweep_oracle(&data, dims, window, stride);
        let mut pool = MaxPool2d::new(window, stride);
        let out = pool
            .forward(&Tensor::from_vec(data, &[batch, channels, h, w]))
            .unwrap();
        let (oh, ow) = ((h - window) / stride + 1, (w - window) / stride + 1);
        let what = format!("w{window}/s{stride} {dims:?}");
        assert_eq!(out.shape(), &[batch, channels, oh, ow], "shape {what}");
        assert_eq!(bits(out.data()), bits(&expected), "values {what}");
        assert_eq!(pool.cached_argmax, exp_argmax, "argmax {what}");
    }

    /// Every window/stride combination Table 1 uses, a non-matching pair
    /// with overlap, one with gaps and a stride-1 window must reproduce the
    /// sweep, duplicate maxima included (the first window position keeps
    /// winning).
    #[test]
    fn forward_matches_the_sweep_across_table1_shapes_and_strides() {
        for &(window, stride) in &[(2, 2), (3, 3), (4, 4), (3, 2), (2, 3), (3, 1)] {
            let dims = (2, 3, 11, 13);
            // Coarse value grid so duplicate maxima occur inside windows.
            let data: Vec<f32> = (0..2 * 3 * 11 * 13)
                .map(|i| ((i * 37) % 11) as f32 - 5.0)
                .collect();
            assert_matches_sweep(data, dims, window, stride);
        }
    }

    mod sweep_parity {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn whole_window_scan_equals_the_sweep(
                window in 1usize..=5,
                stride in 1usize..=4,
                batch in 1usize..=2,
                channels in 1usize..=3,
                extra_h in 0usize..=8,
                extra_w in 0usize..=8,
                salt in 0usize..1000,
            ) {
                // A coarse grid (ties inside windows) laced with NaN, ±∞ and
                // both zeros; a 1x1 window over NaN or −∞ has no winner.
                let (h, w) = (window + extra_h, window + extra_w);
                let data: Vec<f32> = (0..batch * channels * h * w)
                    .map(|i| match (i * 7 + salt) % 19 {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 | 3 => f32::NEG_INFINITY,
                        4 => -0.0,
                        5 => 0.0,
                        r => (r % 5) as f32 - 2.0,
                    })
                    .collect();
                assert_matches_sweep(data, (batch, channels, h, w), window, stride);
            }
        }
    }

    /// The one-output-at-a-time scan the lanes replaced, as their oracle:
    /// each output element scans its window in `(ky, kx)` order from −∞
    /// and argmax 0.
    fn scalar_scan(
        data: &[f32],
        (batch, channels, h, w): (usize, usize, usize, usize),
        window: usize,
        stride: usize,
    ) -> (Vec<f32>, Vec<u32>) {
        let (oh, ow) = ((h - window) / stride + 1, (w - window) / stride + 1);
        let mut out = Vec::new();
        let mut argmax = Vec::new();
        for plane in 0..batch * channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let (mut best, mut arg) = (f32::NEG_INFINITY, 0u32);
                    for ky in 0..window {
                        for kx in 0..window {
                            let i = (plane * h + oy * stride + ky) * w + ox * stride + kx;
                            if data[i] > best {
                                best = data[i];
                                arg = i as u32;
                            }
                        }
                    }
                    out.push(best);
                    argmax.push(arg);
                }
            }
        }
        (out, argmax)
    }

    #[test]
    fn pool_lanes_equal_the_scalar_scan() {
        // Windows 2–4 (monomorphised) and 5 (generic); strides below, at and
        // above the window; widths that leave no run of lanes (ow < 8),
        // exactly one, and runs plus a remainder. The values are a coarse
        // grid (ties), NaN, ±∞ and both zeros, and the last plane is all
        // −∞, whose windows have no winner.
        for window in [2usize, 3, 4, 5] {
            for stride in [1, 2, window, window + 1] {
                for ow in [1usize, 3, 7, 8, 9, 16, 19] {
                    let w = (ow - 1) * stride + window;
                    let dims = (2, 2, window + stride + 1, w);
                    let len = 2 * 2 * dims.2 * w;
                    let plane = dims.2 * w;
                    let data: Vec<f32> = (0..len)
                        .map(|i| match (i >= len - plane, (i * 7 + ow) % 17) {
                            (true, _) | (_, 2) => f32::NEG_INFINITY,
                            (_, 0) => f32::NAN,
                            (_, 1) => f32::INFINITY,
                            (_, 3) => -0.0,
                            (_, 4) => 0.0,
                            (_, r) => (r % 4) as f32 - 1.0,
                        })
                        .collect();
                    let (want, want_arg) = scalar_scan(&data, dims, window, stride);
                    let mut pool = MaxPool2d::new(window, stride);
                    let out = pool
                        .forward(&Tensor::from_vec(data, &[dims.0, dims.1, dims.2, w]))
                        .unwrap();
                    let what = format!("w{window}/s{stride} ow {ow}");
                    assert_eq!(bits(out.data()), bits(&want), "values {what}");
                    assert_eq!(pool.cached_argmax, want_arg, "argmax {what}");
                }
            }
        }
    }

    #[test]
    fn repeated_forwards_reuse_buffers_and_stay_identical() {
        let mut pool = MaxPool2d::new(2, 2);
        let big = Tensor::from_vec((0..64).map(|i| (i as f32).sin()).collect(), &[1, 1, 8, 8]);
        let small = Tensor::from_vec((0..16).map(|i| (i as f32).cos()).collect(), &[1, 1, 4, 4]);
        let first = pool.forward(&big).unwrap();
        pool.forward(&small).unwrap();
        let again = pool.forward(&big).unwrap();
        assert_eq!(first, again);
    }
}
