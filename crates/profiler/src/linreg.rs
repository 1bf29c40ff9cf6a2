//! Ordinary least squares used for I-Prof's cold-start global model and for
//! the MAUI baseline.
//!
//! The model is `y ≈ xᵀθ`; fitting solves the (ridge-regularised) normal
//! equations `(XᵀX + λI) θ = Xᵀy` with Gaussian elimination. The feature
//! dimensionality is tiny (≤ 7), so this is more than fast enough.

use serde::{Deserialize, Serialize};

/// A fitted linear regression model.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub(crate) struct LinearRegression {
    theta: Vec<f32>,
}

impl LinearRegression {
    /// Creates an (unfitted) all-zero model with `dim` coefficients.
    pub(crate) fn zeros(dim: usize) -> Self {
        Self {
            theta: vec![0.0; dim],
        }
    }

    /// Creates a model from explicit coefficients.
    pub(crate) fn from_coefficients(theta: Vec<f32>) -> Self {
        Self { theta }
    }

    /// The coefficient vector θ.
    pub(crate) fn coefficients(&self) -> &[f32] {
        &self.theta
    }

    /// Number of coefficients.
    pub(crate) fn dim(&self) -> usize {
        self.theta.len()
    }

    /// Fits θ with ordinary least squares (ridge λ = 1e-6 for numerical
    /// stability). Returns `None` when the inputs are empty, inconsistent, or
    /// the normal equations are singular.
    pub(crate) fn fit(samples: &[(Vec<f32>, f32)]) -> Option<Self> {
        let dim = samples.first()?.0.len();
        if dim == 0 || samples.iter().any(|(x, _)| x.len() != dim) {
            return None;
        }
        // Normal equations in f64 for stability.
        let mut xtx = vec![vec![0.0f64; dim]; dim];
        let mut xty = vec![0.0f64; dim];
        for (x, y) in samples {
            for i in 0..dim {
                xty[i] += x[i] as f64 * *y as f64;
                for j in 0..dim {
                    xtx[i][j] += x[i] as f64 * x[j] as f64;
                }
            }
        }
        let lambda = 1e-6;
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += lambda;
        }
        let theta = solve(xtx, xty)?;
        Some(Self {
            theta: theta.into_iter().map(|v| v as f32).collect(),
        })
    }

    /// Predicts `xᵀθ`. Mismatched lengths are truncated to the shorter one.
    pub(crate) fn predict(&self, x: &[f32]) -> f32 {
        self.theta.iter().zip(x.iter()).map(|(&t, &v)| t * v).sum()
    }
}

/// Solves `A·x = b` by Gaussian elimination with partial pivoting. Returns
/// `None` for (near-)singular systems.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot_row = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        // Eliminate.
        for row in 0..n {
            if row == col {
                continue;
            }
            let factor = a[row][col] / a[col][col];
            let (pivot_row, elim_row) = if col < row {
                let (head, tail) = a.split_at_mut(row);
                (&head[col], &mut tail[0])
            } else {
                let (head, tail) = a.split_at_mut(col);
                (&tail[0], &mut head[row])
            };
            for (v, &pv) in elim_row[col..].iter_mut().zip(&pivot_row[col..]) {
                *v -= factor * pv;
            }
            b[row] -= factor * b[col];
        }
    }
    Some((0..n).map(|i| b[i] / a[i][i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn recovers_exact_linear_relation() {
        // y = 2*x0 + 3*x1 - 1 (with intercept feature).
        let samples: Vec<(Vec<f32>, f32)> = (0..50)
            .map(|i| {
                let x0 = i as f32 * 0.1;
                let x1 = (i % 7) as f32;
                (vec![1.0, x0, x1], -1.0 + 2.0 * x0 + 3.0 * x1)
            })
            .collect();
        let model = LinearRegression::fit(&samples).unwrap();
        let c = model.coefficients();
        assert!((c[0] + 1.0).abs() < 1e-3);
        assert!((c[1] - 2.0).abs() < 1e-3);
        assert!((c[2] - 3.0).abs() < 1e-3);
        assert!((model.predict(&[1.0, 1.0, 1.0]) - 4.0).abs() < 1e-2);
    }

    #[test]
    fn fit_rejects_empty_and_inconsistent_input() {
        assert!(LinearRegression::fit(&[]).is_none());
        let bad = vec![(vec![1.0, 2.0], 1.0), (vec![1.0], 2.0)];
        assert!(LinearRegression::fit(&bad).is_none());
    }

    #[test]
    fn zeros_model_predicts_zero() {
        let m = LinearRegression::zeros(4);
        assert_eq!(m.predict(&[1.0, 2.0, 3.0, 4.0]), 0.0);
        assert_eq!(m.dim(), 4);
    }

    #[test]
    fn single_feature_fit_matches_slope() {
        // MAUI-style: y = 0.005 * n.
        let samples: Vec<(Vec<f32>, f32)> = (1..100)
            .map(|n| (vec![n as f32], 0.005 * n as f32))
            .collect();
        let m = LinearRegression::fit(&samples).unwrap();
        assert!((m.coefficients()[0] - 0.005).abs() < 1e-6);
    }

    #[test]
    fn from_coefficients_roundtrip() {
        let m = LinearRegression::from_coefficients(vec![1.5, -2.0]);
        assert_eq!(m.predict(&[2.0, 1.0]), 1.0);
    }

    proptest! {
        #[test]
        fn prop_fit_recovers_random_2d_relation(a in -5.0f32..5.0, b in -5.0f32..5.0) {
            let samples: Vec<(Vec<f32>, f32)> = (0..40)
                .map(|i| {
                    let x = (i as f32) * 0.25 - 5.0;
                    (vec![1.0, x], a + b * x)
                })
                .collect();
            let m = LinearRegression::fit(&samples).unwrap();
            prop_assert!((m.coefficients()[0] - a).abs() < 1e-2);
            prop_assert!((m.coefficients()[1] - b).abs() < 1e-2);
        }
    }
}
