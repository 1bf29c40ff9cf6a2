//! The paper's motivating scenario (§1, Fig. 1): Bob reads news in the
//! morning, and Online FL folds his clicks into the model quickly enough to
//! improve Alice's recommendations minutes later — while Standard FL waits
//! until the phones are idle, charging and on WiFi at night.
//!
//! This example runs the hashtag/news-recommendation workload over a synthetic
//! temporal stream and reports the hourly F1@top-5 of Online FL, Standard FL
//! and the most-popular baseline (the Fig. 6 comparison).
//!
//! Run with: `cargo run --release -p fleet-examples --example online_news_recommender`

use fleet_data::{HashtagStream, StreamSpec};
use fleet_server::{run_online_vs_standard, OnlineFlConfig};

fn main() {
    let spec = StreamSpec {
        days: 6,
        posts_per_hour: 40,
        num_users: 40,
        vocab_size: 80,
        feature_dim: 16,
        trend_lifetime_hours: 6.0,
        concurrent_trends: 5,
    };
    println!(
        "Generating {} days of synthetic news/hashtag activity from {} users...",
        spec.days, spec.num_users
    );
    let stream = HashtagStream::generate(&spec, 2024);
    let result = run_online_vs_standard(&stream, OnlineFlConfig::default());

    println!("\nhour | online F1 | standard F1 | most-popular F1");
    for chunk in result.chunks.iter().step_by(6) {
        println!(
            "{:4} |   {:.3}   |    {:.3}    |      {:.3}",
            chunk.hour, chunk.online_f1, chunk.standard_f1, chunk.most_popular_f1
        );
    }
    println!("\nAverages over {} evaluated hours:", result.chunks.len());
    println!("  Online FL      : {:.3}", result.mean_online());
    println!("  Standard FL    : {:.3}", result.mean_standard());
    println!("  Most popular   : {:.3}", result.mean_most_popular());
    println!(
        "  Quality boost  : {:.2}x (the paper reports 2.3x on its Twitter crawl)",
        result.quality_boost()
    );
}
