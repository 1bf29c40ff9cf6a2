//! Staleness-dampening functions (Fig. 5 of the paper).
//!
//! * AdaSGD: `Λ(τ) = e^{−βτ}`, with β chosen so that the exponential curve
//!   crosses DynSGD's inverse curve at `τ_thres / 2`:
//!   `1 / (τ_thres/2 + 1) = e^{−β · τ_thres/2}`.
//! * DynSGD: `Λ(τ) = 1 / (τ + 1)`.
//! * FedAvg / SSGD: no dampening (`Λ(τ) = 1`).

use serde::{Deserialize, Serialize};

/// The dampening rate β of AdaSGD's exponential function for a given
/// `τ_thres` (Eq. in §2.3): `β = ln(τ_thres/2 + 1) / (τ_thres/2)`.
///
/// Returns 0.0 when `tau_thres` is zero (no dampening).
pub(crate) fn exponential_beta(tau_thres: u64) -> f64 {
    if tau_thres == 0 {
        return 0.0;
    }
    let half = tau_thres as f64 / 2.0;
    (half + 1.0).ln() / half
}

/// A staleness-dampening policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) enum DampeningPolicy {
    /// AdaSGD's exponential dampening with rate β.
    Exponential {
        /// Decay rate β of `e^{−βτ}`.
        beta: f64,
    },
    /// DynSGD's inverse dampening `1/(τ+1)`.
    Inverse,
}

impl DampeningPolicy {
    /// AdaSGD's policy calibrated for a `τ_thres`.
    pub(crate) fn exponential_for(tau_thres: u64) -> Self {
        DampeningPolicy::Exponential {
            beta: exponential_beta(tau_thres),
        }
    }

    /// The dampening factor `Λ(τ)` in `(0, 1]`. The exponential factor is
    /// floored at the smallest positive `f64` so that extreme staleness never
    /// underflows to an exact zero weight.
    pub(crate) fn factor(&self, staleness: u64) -> f64 {
        match *self {
            DampeningPolicy::Exponential { beta } => {
                (-beta * staleness as f64).exp().max(f64::MIN_POSITIVE)
            }
            DampeningPolicy::Inverse => 1.0 / (staleness as f64 + 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn beta_makes_curves_cross_at_half_tau_thres() {
        for tau_thres in [4u64, 12, 24, 48] {
            let beta = exponential_beta(tau_thres);
            let half = tau_thres as f64 / 2.0;
            let exponential = (-beta * half).exp();
            let inverse = 1.0 / (half + 1.0);
            assert!(
                (exponential - inverse).abs() < 1e-9,
                "curves must intersect at tau_thres/2 for tau_thres={tau_thres}"
            );
        }
    }

    #[test]
    fn zero_tau_thres_disables_dampening() {
        assert_eq!(exponential_beta(0), 0.0);
        let p = DampeningPolicy::exponential_for(0);
        assert_eq!(p.factor(100), 1.0);
    }

    #[test]
    fn fresh_gradients_are_not_dampened() {
        for p in [
            DampeningPolicy::exponential_for(12),
            DampeningPolicy::Inverse,
        ] {
            assert!((p.factor(0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exponential_dampens_more_than_inverse_beyond_tau_thres() {
        // Fig. 5: beyond the crossing point the exponential curve lies below
        // the inverse curve (stronger dampening for very stale gradients)...
        let tau_thres = 12;
        let ada = DampeningPolicy::exponential_for(tau_thres);
        let dyn_ = DampeningPolicy::Inverse;
        for tau in (tau_thres + 1)..(4 * tau_thres) {
            assert!(ada.factor(tau) < dyn_.factor(tau), "tau={tau}");
        }
        // ...and above it before the crossing point (milder dampening for
        // moderately stale gradients).
        for tau in 1..(tau_thres / 2) {
            assert!(ada.factor(tau) > dyn_.factor(tau), "tau={tau}");
        }
    }

    #[test]
    fn inverse_matches_formula() {
        let p = DampeningPolicy::Inverse;
        assert!((p.factor(1) - 0.5).abs() < 1e-12);
        assert!((p.factor(9) - 0.1).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_factors_in_unit_interval(tau in 0u64..1000, tau_thres in 1u64..100) {
            for p in [DampeningPolicy::exponential_for(tau_thres), DampeningPolicy::Inverse] {
                let f = p.factor(tau);
                prop_assert!(f > 0.0 && f <= 1.0);
            }
        }

        #[test]
        fn prop_dampening_is_monotone_in_staleness(tau in 0u64..500, tau_thres in 1u64..100) {
            let p = DampeningPolicy::exponential_for(tau_thres);
            prop_assert!(p.factor(tau + 1) <= p.factor(tau));
            let i = DampeningPolicy::Inverse;
            prop_assert!(i.factor(tau + 1) <= i.factor(tau));
        }
    }
}
