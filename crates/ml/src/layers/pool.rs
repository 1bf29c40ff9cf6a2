//! Max-pooling layer.

use crate::layer::Layer;
use crate::scratch;
use crate::tensor::Tensor;
use crate::{MlError, Result};

/// 2-D max-pooling over `[batch, channels, height, width]` inputs.
///
/// The paper's Table 1 uses pooling windows of 2x2, 3x3 and 4x4 with matching
/// strides; this layer supports any window/stride combination.
///
/// The forward pass sweeps each window tap `(ky, kx)` across the whole output
/// row at once — a branchless compare-and-select over `ox`, the long
/// dimension, which the compiler vectorises — instead of gathering the full
/// window per output element. Ties keep the semantics of the scalar
/// reference: the *first* window position (in `(ky, kx)` order) to reach the
/// maximum wins the argmax, and NaN inputs never win (a `>` comparison).
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

/// One window row of strided pooling: every output element scans its `W`
/// contiguous candidates starting at `ox·stride`, visiting them in the same
/// strictly-greater order as the sliding-tap sweep.
fn strided_row<const W: usize>(
    out_row: &mut [f32],
    arg_row: &mut [u32],
    in_row: &[f32],
    row_base: u32,
    stride: usize,
) {
    for (ox, (o, a)) in out_row.iter_mut().zip(arg_row.iter_mut()).enumerate() {
        let base = ox * stride;
        let win: &[f32; W] = in_row[base..base + W].try_into().unwrap();
        let mut best = *o;
        let mut arg = *a;
        for (kx, &x) in win.iter().enumerate() {
            let gt = x > best;
            best = if gt { x } else { best };
            arg = if gt {
                row_base + (base + kx) as u32
            } else {
                arg
            };
        }
        *o = best;
        *a = arg;
    }
}

/// [`strided_row`] for window sizes outside the monomorphised set.
fn strided_row_dyn(
    out_row: &mut [f32],
    arg_row: &mut [u32],
    in_row: &[f32],
    row_base: u32,
    stride: usize,
    window: usize,
) {
    for (ox, (o, a)) in out_row.iter_mut().zip(arg_row.iter_mut()).enumerate() {
        let base = ox * stride;
        let mut best = *o;
        let mut arg = *a;
        for (kx, &x) in in_row[base..base + window].iter().enumerate() {
            let gt = x > best;
            best = if gt { x } else { best };
            arg = if gt {
                row_base + (base + kx) as u32
            } else {
                arg
            };
        }
        *o = best;
        *a = arg;
    }
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
        let data = input.data();
        let out_len = batch * channels * oh * ow;
        let mut out = Tensor::lent(&[batch, channels, oh, ow]);
        out.fill(f32::NEG_INFINITY);
        scratch::give(std::mem::take(&mut self.cached_argmax));
        self.cached_argmax = scratch::take(out_len);
        self.cached_argmax.fill(0);
        let out_data = out.data_mut();
        let (window, stride) = (self.window, self.stride);
        for plane in 0..batch * channels {
            for oy in 0..oh {
                let out_row = &mut out_data[(plane * oh + oy) * ow..][..ow];
                let arg_row = &mut self.cached_argmax[(plane * oh + oy) * ow..][..ow];
                for ky in 0..window {
                    let iy = oy * stride + ky;
                    let in_row = &data[(plane * h + iy) * w..][..w];
                    let row_base = ((plane * h + iy) * w) as u32;
                    if stride == 1 {
                        // Sliding windows: sweep each contiguous tap across
                        // the whole output row (compare-and-select over the
                        // long dimension).
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
                        // Strided windows: per output element, scan the
                        // contiguous window with the running max/argmax in
                        // registers. Monomorphised per Table-1 window size
                        // so the scan fully unrolls without bounds checks.
                        match window {
                            2 => strided_row::<2>(out_row, arg_row, in_row, row_base, stride),
                            3 => strided_row::<3>(out_row, arg_row, in_row, row_base, stride),
                            4 => strided_row::<4>(out_row, arg_row, in_row, row_base, stride),
                            _ => {
                                strided_row_dyn(out_row, arg_row, in_row, row_base, stride, window)
                            }
                        }
                    }
                }
            }
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

    /// Reference implementation: the pre-vectorisation per-element gather.
    fn reference_pool(
        data: &[f32],
        (batch, channels, h, w): (usize, usize, usize, usize),
        window: usize,
        stride: usize,
    ) -> (Vec<f32>, Vec<usize>) {
        let oh = (h - window) / stride + 1;
        let ow = (w - window) / stride + 1;
        let mut out = vec![f32::NEG_INFINITY; batch * channels * oh * ow];
        let mut argmax = vec![0usize; out.len()];
        for b in 0..batch {
            for c in 0..channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let out_idx = ((b * channels + c) * oh + oy) * ow + ox;
                        for ky in 0..window {
                            for kx in 0..window {
                                let in_idx = ((b * channels + c) * h + oy * stride + ky) * w
                                    + ox * stride
                                    + kx;
                                if data[in_idx] > out[out_idx] {
                                    out[out_idx] = data[in_idx];
                                    argmax[out_idx] = in_idx;
                                }
                            }
                        }
                    }
                }
            }
        }
        (out, argmax)
    }

    /// Shape/stride regression for the row-vectorised forward: every
    /// window/stride combination Table 1 uses (and a non-matching pair with
    /// overlap, and one with gaps) must reproduce the scalar reference — max
    /// values, argmax routing and output shape — including duplicate maxima,
    /// where the first window position must keep winning.
    #[test]
    fn vectorised_forward_matches_reference_across_shapes_and_strides() {
        for &(window, stride) in &[(2, 2), (3, 3), (4, 4), (3, 2), (2, 3), (3, 1)] {
            let (batch, channels, h, w) = (2, 3, 11, 13);
            // Coarse value grid so duplicate maxima occur inside windows.
            let data: Vec<f32> = (0..batch * channels * h * w)
                .map(|i| ((i * 37) % 11) as f32 - 5.0)
                .collect();
            let input = Tensor::from_vec(data.clone(), &[batch, channels, h, w]);
            let mut pool = MaxPool2d::new(window, stride);
            let out = pool.forward(&input).unwrap();
            let oh = (h - window) / stride + 1;
            let ow = (w - window) / stride + 1;
            assert_eq!(
                out.shape(),
                &[batch, channels, oh, ow],
                "w{window}/s{stride}"
            );
            let (expected, exp_argmax) =
                reference_pool(&data, (batch, channels, h, w), window, stride);
            assert_eq!(
                out.data(),
                expected.as_slice(),
                "values w{window}/s{stride}"
            );
            let got_argmax: Vec<usize> = pool.cached_argmax.iter().map(|&v| v as usize).collect();
            assert_eq!(got_argmax, exp_argmax, "argmax w{window}/s{stride}");
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
