//! Order statistics over small sample vectors.

/// The `q`-quantile (`0.0..=1.0`) of `values` by nearest rank; sorts in place.
///
/// # Panics
///
/// Panics on an empty slice: every caller has measured at least once.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_unstable_by(f64::total_cmp);
    let rank = (q * (values.len() - 1) as f64).round() as usize;
    values[rank.min(values.len() - 1)]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The interquartile mean: the mean of what is left after dropping the
/// lowest and the highest quarter (rounded down) of the samples. Rounds on a
/// shared two-core host fall into two modes, depending on where the
/// scheduler puts a connection's two threads; a median flips between the
/// modes from run to run, a mean follows one bad round, this does neither.
pub fn midmean(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "midmean of no samples");
    values.sort_unstable_by(f64::total_cmp);
    let drop = values.len() / 4;
    let kept = &values[drop..values.len() - drop];
    kept.iter().sum::<f64>() / kept.len() as f64
}

pub fn median_ns(samples: &[u64]) -> f64 {
    let mut values: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    median(&mut values)
}

/// The highest percentile that still has at least ten samples beyond it
/// (p99 needs 1000 samples, p90 needs 100), and its value.
pub fn supported_tail(samples: &[u64]) -> (f64, f64) {
    let mut values: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    let q = if values.len() >= 1000 {
        0.99
    } else if values.len() >= 100 {
        0.90
    } else {
        0.5
    };
    (q, quantile(&mut values, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        // Nearest rank rounds the half-way index up.
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn midmean_drops_a_quarter_at_each_end() {
        assert_eq!(midmean(&mut [5.0]), 5.0);
        assert_eq!(midmean(&mut [1.0, 2.0, 6.0]), 3.0);
        assert_eq!(midmean(&mut [100.0, 2.0, 4.0, 0.0]), 3.0);
        assert_eq!(
            midmean(&mut [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
            5.0
        );
    }

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        let few: Vec<u64> = (0..50).collect();
        assert_eq!(supported_tail(&few).0, 0.5);
        let some: Vec<u64> = (0..200).collect();
        assert_eq!(supported_tail(&some).0, 0.90);
        let many: Vec<u64> = (0..2000).collect();
        let (q, value) = supported_tail(&many);
        assert_eq!(q, 0.99);
        assert_eq!(value, 1979.0);
    }
}
