//! Deriving the staleness distribution from task timestamps and round-trip
//! latencies (the methodology behind Fig. 7 of the paper).
//!
//! Every learning task pulls the model when it starts and pushes its gradient
//! when its round-trip (computation + network) completes. With K = 1 the
//! model advances by one step per pushed gradient, so the staleness of a task
//! equals the number of *other* tasks that complete while it is in flight.

use fleet_device::RoundTripModel;

/// Computes per-task staleness values.
///
/// `start_times` are the task start timestamps in seconds (not necessarily
/// sorted); one round-trip latency is drawn from `round_trip` per task.
pub fn staleness_from_timestamps(start_times: &[f64], round_trip: &mut RoundTripModel) -> Vec<u64> {
    let mut tasks: Vec<(f64, f64)> = start_times
        .iter()
        .map(|&start| {
            let finish = start + round_trip.sample();
            (start, finish)
        })
        .collect();
    // Completion times of all tasks, sorted, for counting via binary search.
    let mut completions: Vec<f64> = tasks.iter().map(|&(_, f)| f).collect();
    completions.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

    tasks
        .iter_mut()
        .map(|&mut (start, finish)| {
            let before_finish = partition_point(&completions, |&c| c < finish);
            let before_start = partition_point(&completions, |&c| c <= start);
            // Exclude the task's own completion (it lies in the interval).
            (before_finish - before_start).saturating_sub(1) as u64
        })
        .collect()
}

/// Builds a normalised histogram of staleness values with unit-width bins up
/// to `max_bin` (inclusive); the last bin aggregates everything larger.
pub fn histogram(values: &[u64], max_bin: usize) -> Vec<f64> {
    let mut bins = vec![0.0f64; max_bin + 2];
    for &v in values {
        let idx = (v as usize).min(max_bin + 1);
        bins[idx] += 1.0;
    }
    if !values.is_empty() {
        for b in &mut bins {
            *b /= values.len() as f64;
        }
    }
    bins
}

fn partition_point(sorted: &[f64], pred: impl Fn(&f64) -> bool) -> usize {
    let mut lo = 0;
    let mut hi = sorted.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if pred(&sorted[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Generates bursty task start times resembling tweet activity: a base rate
/// with periodic peak hours at `peak_multiplier` times the base rate.
pub fn bursty_start_times(
    total_tasks: usize,
    base_interval_seconds: f64,
    peak_multiplier: f64,
    peak_period: usize,
    peak_length: usize,
) -> Vec<f64> {
    let mut times = Vec::with_capacity(total_tasks);
    let mut now = 0.0;
    for i in 0..total_tasks {
        let in_peak = peak_period > 0 && (i / peak_length).is_multiple_of(peak_period);
        let interval = if in_peak {
            base_interval_seconds / peak_multiplier.max(1.0)
        } else {
            base_interval_seconds
        };
        now += interval;
        times.push(now);
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_arrivals_give_gaussian_like_staleness() {
        // Tasks arriving every second with ~8.45 s round trips should overlap
        // with roughly 7-9 other tasks on average.
        let starts: Vec<f64> = (0..2000).map(|i| i as f64).collect();
        let mut rt = RoundTripModel::paper_defaults(1);
        let staleness = staleness_from_timestamps(&starts, &mut rt);
        let mean = staleness.iter().sum::<u64>() as f64 / staleness.len() as f64;
        assert!((6.0..11.0).contains(&mean), "mean staleness {mean}");
    }

    #[test]
    fn bursty_arrivals_produce_a_long_tail() {
        let starts = bursty_start_times(3000, 2.0, 40.0, 10, 100);
        let mut rt = RoundTripModel::paper_defaults(2);
        let staleness = staleness_from_timestamps(&starts, &mut rt);
        let mean = staleness.iter().sum::<u64>() as f64 / staleness.len() as f64;
        let max = *staleness.iter().max().unwrap();
        assert!(
            max as f64 > 4.0 * mean,
            "long tail expected: max {max}, mean {mean}"
        );
    }

    #[test]
    fn no_overlap_means_zero_staleness() {
        // Tasks spaced far apart never overlap.
        let starts: Vec<f64> = (0..50).map(|i| i as f64 * 10_000.0).collect();
        let mut rt = RoundTripModel::paper_defaults(3);
        let staleness = staleness_from_timestamps(&starts, &mut rt);
        assert!(staleness.iter().all(|&s| s == 0));
    }

    #[test]
    fn histogram_is_normalised() {
        let values = vec![0, 1, 1, 2, 5, 100];
        let h = histogram(&values, 10);
        assert_eq!(h.len(), 12);
        let total: f64 = h.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((h[1] - 2.0 / 6.0).abs() < 1e-9);
        // The overflow bin catches the 100.
        assert!((h[11] - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let mut rt = RoundTripModel::paper_defaults(4);
        assert!(staleness_from_timestamps(&[], &mut rt).is_empty());
        assert!(histogram(&[], 5).iter().all(|&v| v == 0.0));
    }
}
