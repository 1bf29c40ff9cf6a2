//! HDR-style fixed-bucket histograms for latency and depth distributions.
//!
//! The bucket layout is log-linear with `SUB_BITS` significant bits:
//! values below 2^SUB_BITS get one bucket each (exact), and every further
//! power-of-two range is split into 2^SUB_BITS equal sub-buckets, so a
//! recorded value is represented with a relative error of at most
//! `1 / 2^SUB_BITS` (≈ 3.1%). The whole `u64` range fits in a fixed array
//! of `BUCKET_COUNT` counters allocated once at construction:
//! [`Histogram::record`] is two shifts, a mask and an increment — no
//! allocation, no branching on history, deterministic by construction
//! (unlike sampling reservoirs).
//!
//! Percentile queries return the **upper bound** of the bucket holding the
//! rank, clamped to the exactly-tracked `[min, max]` — so
//! `value_at_percentile(p)` is always ≥ the true order statistic and within
//! the bucket's relative error above it. The property tests pit this
//! against a naive sort-based reference.

/// Significant bits of resolution (sub-bucket precision).
const SUB_BITS: u32 = 5;
/// Sub-buckets per power-of-two range.
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Total fixed bucket count covering all of `u64`.
pub(crate) const BUCKET_COUNT: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// Bucket index of a value (see the module docs for the layout).
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT as u64 {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros();
        let sub = ((value >> (exp - SUB_BITS)) as usize) & (SUB_COUNT - 1);
        SUB_COUNT + (exp - SUB_BITS) as usize * SUB_COUNT + sub
    }
}

/// Largest value mapping to the bucket (inclusive upper bound).
fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUB_COUNT {
        index as u64
    } else {
        let offset = index - SUB_COUNT;
        let exp = SUB_BITS + (offset / SUB_COUNT) as u32;
        let sub = (offset % SUB_COUNT) as u64;
        let width = 1u64 << (exp - SUB_BITS);
        (1u64 << exp) + sub * width + (width - 1)
    }
}

/// A fixed-bucket log-linear histogram of `u64` samples (typically
/// nanoseconds). See the module docs for precision and determinism.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKET_COUNT]>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram. The single allocation lives here; recording is
    /// allocation-free.
    pub(crate) fn new() -> Self {
        Self {
            counts: vec![0u64; BUCKET_COUNT]
                .into_boxed_slice()
                .try_into()
                .expect("BUCKET_COUNT-sized box"),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub(crate) fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub(crate) fn count(&self) -> u64 {
        self.total
    }

    /// Exact smallest recorded sample (0 when empty).
    pub(crate) fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample (0 when empty).
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (0.0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at the given percentile (0 < `pct` ≤ 100): the upper bound
    /// of the bucket holding the `ceil(pct/100 · count)`-th smallest sample,
    /// clamped to the exact `[min, max]`. Returns 0 when empty.
    pub(crate) fn value_at_percentile(&self, pct: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((pct / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_upper_bound(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// A plain-data copy of the summary statistics.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.value_at_percentile(50.0),
            p99: self.value_at_percentile(99.0),
            p999: self.value_at_percentile(99.9),
        }
    }
}

/// Summary statistics of a [`Histogram`], as plain data for reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Exact mean.
    pub mean: f64,
    /// Exact minimum.
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// 50th percentile (bucket upper bound).
    pub p50: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// 99.9th percentile (bucket upper bound).
    pub p999: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive reference: `sorted[ceil(p/100·n) − 1]`.
    fn naive_percentile(sorted: &[u64], pct: f64) -> u64 {
        let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.value_at_percentile(50.0), 15);
        assert_eq!(h.value_at_percentile(100.0), 31);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_percentile(99.0), 0);
    }

    #[test]
    fn bucket_bounds_invert_the_index() {
        // Every bucket's upper bound maps back to that bucket, and the
        // successor value starts the next bucket.
        for index in 0..BUCKET_COUNT {
            let hi = bucket_upper_bound(index);
            assert_eq!(bucket_index(hi), index, "upper bound of {index}");
            if hi < u64::MAX {
                assert_eq!(bucket_index(hi + 1), index + 1, "successor of {index}");
            } else {
                assert_eq!(index, BUCKET_COUNT - 1);
            }
        }
    }

    #[test]
    fn extreme_values_fit() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.value_at_percentile(100.0), u64::MAX);
    }

    #[test]
    fn percentile_relative_error_is_bounded() {
        // Deterministic pseudo-random stream; the percentile must sit within
        // one sub-bucket (1/32 relative) above the sorted reference.
        let mut h = Histogram::new();
        let mut values = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 50_000_000;
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        for pct in [50.0, 90.0, 99.0, 99.9, 100.0] {
            let reference = naive_percentile(&values, pct);
            let approx = h.value_at_percentile(pct);
            assert!(approx >= reference, "p{pct}: {approx} < {reference}");
            assert!(
                approx as f64 <= reference as f64 * (1.0 + 1.0 / 32.0) + 1.0,
                "p{pct}: {approx} too far above {reference}"
            );
        }
    }

    proptest::proptest! {
        /// For arbitrary value streams, every reported percentile sits at
        /// or above the sort-based reference and within one sub-bucket
        /// (1/32 relative) of it — the histogram's accuracy contract.
        #[test]
        fn percentiles_match_sorted_reference(
            values in proptest::collection::vec(0u64..u64::MAX / 2, 1..500),
            pcts in proptest::collection::vec(0.1f64..100.0, 1..8),
        ) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for &pct in &pcts {
                let reference = naive_percentile(&sorted, pct);
                let approx = h.value_at_percentile(pct);
                proptest::prop_assert!(
                    approx >= reference,
                    "p{}: {} < reference {}",
                    pct, approx, reference
                );
                proptest::prop_assert!(
                    approx as f64 <= reference as f64 * (1.0 + 1.0 / 32.0) + 1.0,
                    "p{}: {} too far above reference {}",
                    pct, approx, reference
                );
            }
        }
    }
}
