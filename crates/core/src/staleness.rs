//! Tracking of observed staleness values and estimation of `τ_thres`.
//!
//! AdaSGD's dampening rate is calibrated from the *s-th percentile of past
//! staleness values* (`τ_thres`), where s% is the expected percentage of
//! non-stragglers — a system parameter, not an ML hyper-parameter (§2.3).
//! During an initial bootstrap phase (before enough staleness values have been
//! observed) the paper suggests falling back to DynSGD's inverse dampening;
//! the tracker exposes [`StalenessTracker::is_bootstrapping`] for that.
//!
//! The history is kept as exact counts per distinct staleness value, not as
//! the sequence of observations: a nearest-rank percentile only depends on
//! the multiset, so the cumulative counts answer it with the same integer a
//! sort of every observation would, and the state stays as large as the
//! number of distinct values rather than growing with uptime.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Records observed staleness values and answers percentile queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct StalenessTracker {
    /// Observations per staleness value. A map, never a dense vector indexed
    /// by staleness: the values come from wire fields, and a forged one must
    /// not size an allocation.
    counts: BTreeMap<u64, u64>,
    /// Sum of `counts`: the number of observations.
    total: u64,
    bootstrap_len: usize,
}

impl StalenessTracker {
    /// Creates an empty tracker that reports
    /// [`StalenessTracker::is_bootstrapping`] until `bootstrap_len` staleness
    /// values have been recorded.
    pub(crate) fn new(bootstrap_len: usize) -> Self {
        Self {
            counts: BTreeMap::new(),
            total: 0,
            bootstrap_len,
        }
    }

    /// Records one observed staleness value.
    pub(crate) fn record(&mut self, staleness: u64) {
        *self.counts.entry(staleness).or_insert(0) += 1;
        self.total += 1;
    }

    /// The recorded history as `(value, count)` pairs in ascending value
    /// order, every count at least 1 — the tracker's whole mutable state,
    /// exported for checkpointing.
    pub(crate) fn counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&value, &count)| (value, count))
    }

    /// Replaces the recorded history with pairs captured via
    /// [`StalenessTracker::counts`]; percentiles and bootstrap status
    /// continue exactly as if the values had been recorded live.
    pub(crate) fn restore_counts(&mut self, counts: Vec<(u64, u64)>) {
        self.total = counts.iter().map(|&(_, count)| count).sum();
        self.counts = counts.into_iter().collect();
    }

    /// Whether the tracker is still in the bootstrap phase.
    pub(crate) fn is_bootstrapping(&self) -> bool {
        self.total < self.bootstrap_len as u64
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
        let last = self.total.checked_sub(1)?;
        let rank = ((percentile / 100.0 * last as f64).round() as u64).min(last);
        // The answer is the value at 0-based `rank` of the sorted multiset,
        // i.e. the one with `last - rank` observations above it. Walk from the
        // top: τ_thres is a high percentile, so this stops after a few values.
        let mut above = 0;
        for (&value, &count) in self.counts.iter().rev() {
            above += count;
            if above > last - rank {
                return Some(value);
            }
        }
        unreachable!("the counts sum to the total")
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

    /// The sort-based nearest-rank percentile the counts replace: the oracle
    /// [`StalenessTracker::percentile`] must agree with.
    fn sorted_percentile(values: &[u64], percentile: f64) -> Option<u64> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = (percentile / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    fn tracker_of(values: &[u64]) -> StalenessTracker {
        let mut t = StalenessTracker::new(0);
        for &v in values {
            t.record(v);
        }
        t
    }

    #[test]
    fn empty_tracker_has_no_percentile() {
        let t = StalenessTracker::new(0);
        assert_eq!(t.percentile(99.0), None);
        assert_eq!(t.tau_thres(99.0, 12), 12);
    }

    #[test]
    fn percentile_of_known_values() {
        let t = tracker_of(&(0..=100).collect::<Vec<_>>());
        assert_eq!(t.percentile(0.0), Some(0));
        assert_eq!(t.percentile(50.0), Some(50));
        assert_eq!(t.percentile(99.0), Some(99));
        assert_eq!(t.percentile(100.0), Some(100));
    }

    #[test]
    fn tau_thres_is_at_least_one() {
        let t = tracker_of(&[0, 0]);
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
        let t = tracker_of(&[1]);
        let _ = t.percentile(101.0);
    }

    #[test]
    fn history_is_bounded_by_distinct_values() {
        let mut t = StalenessTracker::new(0);
        for i in 0..100_000u64 {
            // The top six bits of a Fibonacci hash: scattered over 0..64.
            t.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58);
        }
        assert!(t.counts().count() <= 64);
        assert_eq!(t.counts().map(|(_, count)| count).sum::<u64>(), 100_000);
    }

    #[test]
    fn recording_the_largest_staleness_allocates_one_entry() {
        let t = tracker_of(&[u64::MAX]);
        assert_eq!(t.counts().collect::<Vec<_>>(), [(u64::MAX, 1)]);
        assert_eq!(t.percentile(99.7), Some(u64::MAX));
    }

    #[test]
    fn restored_counts_continue_the_live_history() {
        let values = [5, 0, 5, 9, 2, 5, 9];
        let live = tracker_of(&values);
        let mut restored = StalenessTracker::new(0);
        restored.restore_counts(live.counts().collect());
        assert_eq!(restored, live);
    }

    proptest! {
        #[test]
        fn prop_percentile_is_monotone(values in proptest::collection::vec(0u64..100, 1..200)) {
            let t = tracker_of(&values);
            let p50 = t.percentile(50.0).unwrap();
            let p90 = t.percentile(90.0).unwrap();
            let p99 = t.percentile(99.0).unwrap();
            prop_assert!(p50 <= p90);
            prop_assert!(p90 <= p99);
            prop_assert!(values.contains(&p99));
        }

        #[test]
        fn prop_counts_match_the_sorting_oracle(
            draws in proptest::collection::vec((0u8..4, 0u64..8, any::<u64>()), 1..300),
            random in 0.0f64..=100.0,
        ) {
            // Zero, the largest staleness, dense small values and values
            // scattered over the whole range (wide gaps between them).
            let values: Vec<u64> = draws
                .iter()
                .map(|&(kind, small, wide)| match kind {
                    0 => 0,
                    1 => u64::MAX,
                    2 => small,
                    _ => wide,
                })
                .collect();
            let t = tracker_of(&values);
            for percentile in [0.0, 50.0, 99.0, 99.7, 100.0, random] {
                prop_assert_eq!(
                    t.percentile(percentile),
                    sorted_percentile(&values, percentile),
                    "percentile {}",
                    percentile
                );
            }
        }
    }
}
