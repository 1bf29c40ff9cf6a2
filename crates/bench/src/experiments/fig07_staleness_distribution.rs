//! Figure 7: the staleness distribution induced by exponential round-trip
//! latencies over bursty task arrivals — a Gaussian body with a long tail.

use crate::{bursty_start_times, histogram, staleness_from_timestamps, ExperimentWriter, Scale};
use fleet_device::RoundTripModel;

/// Generates task arrivals, samples round-trip latencies with the paper's
/// exponential model (min 7.1 s, mean 8.45 s) and reports the staleness
/// histogram.
pub fn run(scale: Scale) {
    let mut out = ExperimentWriter::new("fig07_staleness_distribution");
    out.comment("Figure 7: staleness distribution (Gaussian body + long tail from peak hours)");

    let tasks = scale.pick(5_000, 50_000);
    let starts = bursty_start_times(tasks, 1.0, 30.0, 12, 400);
    let mut round_trip = RoundTripModel::paper_defaults(29);
    let staleness = staleness_from_timestamps(&starts, &mut round_trip);

    let max_bin = 300;
    let bins = histogram(&staleness, max_bin);
    out.row("staleness,probability");
    for (tau, p) in bins.iter().enumerate() {
        if *p > 0.0 {
            out.row(format!("{tau},{p:.6}"));
        }
    }
    let mean = staleness.iter().sum::<u64>() as f64 / staleness.len().max(1) as f64;
    let max = staleness.iter().max().copied().unwrap_or(0);
    out.comment(format!(
        "mean={mean:.2} max={max} (paper: Gaussian body below ~65, long tail up to ~300)"
    ));
    out.finish();
}
