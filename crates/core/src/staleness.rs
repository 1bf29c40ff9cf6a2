//! Tracking of observed staleness values and estimation of `τ_thres`.
//!
//! AdaSGD's dampening rate is calibrated from the *s-th percentile of past
//! staleness values* (`τ_thres`), where s% is the expected percentage of
//! non-stragglers — a system parameter, not an ML hyper-parameter (§2.3).
//! During an initial bootstrap phase (before enough staleness values have been
//! observed) the paper suggests falling back to DynSGD's inverse dampening;
//! the tracker exposes [`StalenessTracker::is_bootstrapping`] for that.

use serde::{Deserialize, Serialize};

/// Records observed staleness values and answers percentile queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct StalenessTracker {
    values: Vec<u64>,
    bootstrap_len: usize,
}

impl StalenessTracker {
    /// Creates an empty tracker that reports
    /// [`StalenessTracker::is_bootstrapping`] until `bootstrap_len` staleness
    /// values have been recorded.
    pub(crate) fn new(bootstrap_len: usize) -> Self {
        Self {
            values: Vec::new(),
            bootstrap_len,
        }
    }

    /// Records one observed staleness value.
    pub(crate) fn record(&mut self, staleness: u64) {
        self.values.push(staleness);
    }

    /// The recorded staleness values, in observation order — the tracker's
    /// whole mutable state, exported for checkpointing.
    pub(crate) fn values(&self) -> &[u64] {
        &self.values
    }

    /// Replaces the recorded values with a sequence captured via
    /// [`StalenessTracker::values`]; percentiles and bootstrap status
    /// continue exactly as if the values had been recorded live.
    pub(crate) fn restore_values(&mut self, values: Vec<u64>) {
        self.values = values;
    }

    /// Whether the tracker is still in the bootstrap phase.
    pub(crate) fn is_bootstrapping(&self) -> bool {
        self.values.len() < self.bootstrap_len
    }

    /// The `percentile`-th percentile (0–100) of the recorded staleness
    /// values (nearest-rank). Returns `None` when nothing has been recorded.
    ///
    /// # Panics
    ///
    /// Panics if `percentile` is outside `[0, 100]`.
    pub(crate) fn percentile(&self, percentile: f64) -> Option<u64> {
        assert!(
            (0.0..=100.0).contains(&percentile),
            "percentile must be in [0, 100]"
        );
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        let rank = (percentile / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    /// `τ_thres`: the s-th percentile of the recorded staleness values, with a
    /// fallback used while nothing has been recorded.
    pub(crate) fn tau_thres(&self, s_percentile: f64, fallback: u64) -> u64 {
        self.percentile(s_percentile).unwrap_or(fallback).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_tracker_has_no_percentile() {
        let t = StalenessTracker::new(0);
        assert_eq!(t.percentile(99.0), None);
        assert_eq!(t.tau_thres(99.0, 12), 12);
    }

    #[test]
    fn percentile_of_known_values() {
        let mut t = StalenessTracker::new(0);
        for v in 0..=100 {
            t.record(v);
        }
        assert_eq!(t.percentile(0.0), Some(0));
        assert_eq!(t.percentile(50.0), Some(50));
        assert_eq!(t.percentile(99.0), Some(99));
        assert_eq!(t.percentile(100.0), Some(100));
    }

    #[test]
    fn tau_thres_is_at_least_one() {
        let mut t = StalenessTracker::new(0);
        t.record(0);
        t.record(0);
        assert_eq!(t.tau_thres(99.0, 5), 1);
    }

    #[test]
    fn bootstrap_phase_ends_after_enough_samples() {
        let mut t = StalenessTracker::new(3);
        assert!(t.is_bootstrapping());
        t.record(1);
        t.record(2);
        assert!(t.is_bootstrapping());
        t.record(3);
        assert!(!t.is_bootstrapping());
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_percentile_panics() {
        let mut t = StalenessTracker::new(0);
        t.record(1);
        let _ = t.percentile(101.0);
    }

    proptest! {
        #[test]
        fn prop_percentile_is_monotone(values in proptest::collection::vec(0u64..100, 1..200)) {
            let mut t = StalenessTracker::new(0);
            for v in &values {
                t.record(*v);
            }
            let p50 = t.percentile(50.0).unwrap();
            let p90 = t.percentile(90.0).unwrap();
            let p99 = t.percentile(99.0).unwrap();
            prop_assert!(p50 <= p90);
            prop_assert!(p90 <= p99);
            prop_assert!(values.contains(&p99));
        }
    }
}
