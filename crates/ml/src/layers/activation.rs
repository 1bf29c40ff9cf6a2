//! Activation layers.

use crate::layer::Layer;
use crate::scratch;
use crate::tensor::Tensor;
use crate::{MlError, Result};

/// Elements per word of [`Relu`]'s mask: bit `i` of word `w` is element
/// `32·w + i`.
const MASK_BITS: usize = 32;

/// Rectified Linear Unit: `max(0, x)` applied element-wise.
///
/// Forward keeps one bit per element (`x > 0`), 32 to a `u32` word, instead
/// of a float mask: a sixteenth of the memory written and read back. Both
/// passes multiply by the bit widened to `0.0` or `1.0` (`x · m` forward,
/// `dy · m` backward), exactly as a float mask did, so NaN, ±∞ and signed
/// zeros come out with the same bits.
///
/// # Example
///
/// ```
/// use fleet_ml::{Layer, Relu, Tensor};
///
/// # fn main() -> Result<(), fleet_ml::MlError> {
/// let mut relu = Relu::new();
/// let out = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]))?;
/// assert_eq!(out.data(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// Shape of the latest forward pass's input; empty before the first
    /// forward pass and after [`Layer::release_scratch`].
    shape: Vec<usize>,
    /// The latest forward pass's `x > 0` bits, on a lent buffer.
    mask: Vec<u32>,
}

impl Relu {
    /// Creates a new ReLU activation layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `dst = src · m` for `m = f32::from(src > 0)`, returning the `m` bits.
/// `N` is the run length when it is a whole word, so the loop compiles to
/// fixed-width code; `N = 0` reads `src.len()` instead (the short tail).
#[inline]
fn relu_word<const N: usize>(src: &[f32], dst: &mut [f32]) -> u32 {
    let len = if N == 0 { src.len() } else { N };
    let mut word = 0;
    for (i, (&x, d)) in src[..len].iter().zip(&mut dst[..len]).enumerate() {
        let on = x > 0.0;
        *d = x * f32::from(on);
        word |= u32::from(on) << i;
    }
    word
}

/// `dst = src · m` for the bits `m` of `word`; `N` as in [`relu_word`].
#[inline]
fn mask_word<const N: usize>(word: u32, src: &[f32], dst: &mut [f32]) {
    let len = if N == 0 { src.len() } else { N };
    for (i, (&g, d)) in src[..len].iter().zip(&mut dst[..len]).enumerate() {
        *d = g * f32::from(word >> i & 1 != 0);
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let src = input.data();
        scratch::give(std::mem::take(&mut self.mask));
        self.mask = scratch::take(src.len().div_ceil(MASK_BITS));
        self.shape.clear();
        self.shape.extend_from_slice(input.shape());
        let mut out = Tensor::lent(input.shape());
        let words = src
            .chunks(MASK_BITS)
            .zip(out.data_mut().chunks_mut(MASK_BITS));
        for (word, (src, dst)) in self.mask.iter_mut().zip(words) {
            *word = if src.len() == MASK_BITS {
                relu_word::<MASK_BITS>(src, dst)
            } else {
                relu_word::<0>(src, dst)
            };
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        if self.shape.is_empty() {
            return Err(MlError::InvalidArgument(
                "Relu::backward called before forward".to_string(),
            ));
        }
        if self.shape != grad_output.shape() {
            return Err(MlError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: grad_output.shape().to_vec(),
                context: "Relu::backward".to_string(),
            });
        }
        let mut grad = Tensor::lent(grad_output.shape());
        let words = grad_output
            .data()
            .chunks(MASK_BITS)
            .zip(grad.data_mut().chunks_mut(MASK_BITS));
        for (&word, (src, dst)) in self.mask.iter().zip(words) {
            if src.len() == MASK_BITS {
                mask_word::<MASK_BITS>(word, src, dst);
            } else {
                mask_word::<0>(word, src, dst);
            }
        }
        Ok(grad)
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
        self.shape.clear();
        scratch::give(std::mem::take(&mut self.mask));
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let out = relu
            .forward(&Tensor::from_vec(vec![-2.0, -0.1, 0.0, 0.5, 3.0], &[1, 5]))
            .unwrap();
        assert_eq!(out.data(), &[0.0, 0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        relu.forward(&Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]))
            .unwrap();
        let grad = relu
            .backward(&Tensor::from_vec(vec![5.0, 5.0], &[1, 2]))
            .unwrap();
        assert_eq!(grad.data(), &[0.0, 5.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::zeros(&[1, 1])).is_err());
    }

    #[test]
    fn has_no_parameters() {
        let relu = Relu::new();
        assert_eq!(relu.parameter_count(), 0);
    }

    mod relu_bit_mask {
        use super::*;

        /// The float mask the bit mask replaced, as the oracle:
        /// `m = f32::from(x > 0)`, `out = x · m`, `grad = dy · m`.
        fn float_mask(input: &[f32], grad_output: &[f32]) -> (Vec<f32>, Vec<f32>) {
            let mask: Vec<f32> = input.iter().map(|&x| f32::from(x > 0.0)).collect();
            let out = input.iter().zip(&mask).map(|(&x, &m)| x * m).collect();
            let grad = grad_output
                .iter()
                .zip(&mask)
                .map(|(&g, &m)| g * m)
                .collect();
            (out, grad)
        }

        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        const SPECIALS: [f32; 10] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -2.25,
            f32::MIN_POSITIVE,
            -1e-40,
            3e38,
        ];

        #[test]
        fn relu_bit_mask_matches_the_float_mask_bit_for_bit() {
            for len in [1usize, 5, 31, 32, 33, 63, 64, 65, 100, 129] {
                let input: Vec<f32> = (0..len).map(|i| SPECIALS[(i * 7 + 3) % 10]).collect();
                let grad_output: Vec<f32> = (0..len)
                    .map(|i| SPECIALS[(i * 3 + len) % 10] - (i % 4) as f32)
                    .collect();
                let (want_out, want_grad) = float_mask(&input, &grad_output);

                let mut relu = Relu::new();
                let out = relu.forward(&Tensor::from_vec(input, &[1, len])).unwrap();
                let grad = relu
                    .backward(&Tensor::from_vec(grad_output, &[1, len]))
                    .unwrap();
                assert_eq!(bits(out.data()), bits(&want_out), "forward, len {len}");
                assert_eq!(bits(grad.data()), bits(&want_grad), "backward, len {len}");
            }
        }

        #[test]
        fn relu_mask_follows_the_latest_forward() {
            // A shorter pass after a longer one: the stale words past the
            // new length must not leak into its backward.
            let mut relu = Relu::new();
            relu.forward(&Tensor::full(&[3, 40], 1.0)).unwrap();
            let input: Vec<f32> = (0..37).map(|i| SPECIALS[i % 10]).collect();
            let grad_output = vec![2.0f32; 37];
            let (_, want) = float_mask(&input, &grad_output);
            relu.forward(&Tensor::from_vec(input, &[1, 37])).unwrap();
            let grad = relu
                .backward(&Tensor::from_vec(grad_output, &[1, 37]))
                .unwrap();
            assert_eq!(bits(grad.data()), bits(&want));
            assert!(relu.backward(&Tensor::zeros(&[3, 40])).is_err());
        }
    }
}
