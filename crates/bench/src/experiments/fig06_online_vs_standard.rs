//! Figure 6: Online FL vs Standard FL vs the most-popular baseline on the
//! temporal hashtag-recommendation workload (F1-score @ top-5 per 1-hour
//! chunk; the paper reports a 2.3x average boost for Online FL).

use crate::{ExperimentWriter, Scale};
use fleet_data::{HashtagStream, StreamSpec};
use fleet_server::{run_online_vs_standard, OnlineFlConfig};

/// Runs the comparison over a synthetic 13-day stream.
pub fn run(scale: Scale) {
    let mut out = ExperimentWriter::new("fig06_online_vs_standard");
    out.comment("Figure 6: Online FL vs Standard FL, F1@top-5 per hourly chunk");

    let spec = StreamSpec {
        days: scale.pick(4, 13),
        posts_per_hour: scale.pick(30, 60),
        num_users: 50,
        vocab_size: 100,
        feature_dim: 16,
        trend_lifetime_hours: 6.0,
        concurrent_trends: 5,
    };
    let stream = HashtagStream::generate(&spec, 23);
    let result = run_online_vs_standard(&stream, OnlineFlConfig::default());

    out.row("hour,online_f1,standard_f1,most_popular_f1");
    for c in &result.chunks {
        out.row(format!(
            "{},{:.4},{:.4},{:.4}",
            c.hour, c.online_f1, c.standard_f1, c.most_popular_f1
        ));
    }
    out.comment(format!(
        "mean online={:.4} standard={:.4} most_popular={:.4} boost={:.2}x (paper: 2.3x)",
        result.mean_online(),
        result.mean_standard(),
        result.mean_most_popular(),
        result.quality_boost()
    ));
    out.finish();
}
