//! Helpers for evaluating profiler accuracy against an SLO
//! (the deviation statistics reported in Figs. 12 and 13 of the paper).

/// Absolute deviations of measured costs from an SLO target.
pub(crate) fn deviations(measured: &[f32], slo: f32) -> Vec<f32> {
    measured.iter().map(|&m| (m - slo).abs()).collect()
}

/// The `p`-th percentile (0–100) of a set of values using nearest-rank
/// interpolation. Returns 0.0 for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub(crate) fn percentile(values: &[f32], p: f32) -> f32 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f32> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p / 100.0 * (sorted.len() - 1) as f32).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Summary statistics of SLO deviations for one profiler.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviationStats {
    /// Mean absolute deviation.
    pub mean: f32,
    /// Median absolute deviation.
    pub p50: f32,
    /// 90th-percentile absolute deviation (the headline number of §3.3).
    pub p90: f32,
    /// Maximum absolute deviation.
    pub max: f32,
    /// Number of learning tasks measured.
    pub count: usize,
}

impl DeviationStats {
    /// Computes the statistics of `measured` costs against an SLO target.
    pub fn from_measurements(measured: &[f32], slo: f32) -> Self {
        let devs = deviations(measured, slo);
        if devs.is_empty() {
            return Self::default();
        }
        Self {
            mean: devs.iter().sum::<f32>() / devs.len() as f32,
            p50: percentile(&devs, 50.0),
            p90: percentile(&devs, 90.0),
            max: devs.iter().cloned().fold(0.0, f32::max),
            count: devs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviations_are_absolute() {
        assert_eq!(deviations(&[2.0, 4.0], 3.0), vec![1.0, 1.0]);
    }

    #[test]
    fn percentile_basics() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&a, 90.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_percentile_panics() {
        percentile(&[1.0], 150.0);
    }

    #[test]
    fn stats_from_measurements() {
        let stats = DeviationStats::from_measurements(&[2.0, 3.0, 4.0, 10.0], 3.0);
        assert_eq!(stats.count, 4);
        assert_eq!(stats.max, 7.0);
        assert!((stats.mean - (1.0 + 0.0 + 1.0 + 7.0) / 4.0).abs() < 1e-6);
        assert!(stats.p90 >= stats.p50);
    }

    #[test]
    fn empty_measurements_give_default() {
        assert_eq!(
            DeviationStats::from_measurements(&[], 3.0),
            DeviationStats::default()
        );
    }
}
