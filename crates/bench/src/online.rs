//! Online FL versus Standard FL on the temporal hashtag-recommendation
//! workload (§3.1, Fig. 6).
//!
//! Both setups perform exactly the same gradient computations (one per user
//! per hour of data); they differ only in *when* the model is updated:
//!
//! * **Online FL** updates the model every hour with the previous hour's
//!   gradients and serves the next hour with the fresh model.
//! * **Standard FL** accumulates a whole day and updates once every 24 hours
//!   (the paper's observation that devices only qualify for Standard FL at
//!   night), so most of the day is served by a model that is up to a day old.
//!
//! The model is reset at the beginning of every 2-day shard, exactly as in the
//! paper's evaluation procedure.

use fleet_data::{HashtagStream, Post};
use fleet_ml::metrics::mean_f1_at_k;
use fleet_ml::{Gradient, HashtagRecommender, MostPopularRecommender, Tensor};

/// Configuration of the hashtag-recommendation comparison.
#[derive(Debug, Clone, Copy)]
pub struct OnlineFlConfig {
    /// Hidden-layer width of the recommender.
    pub hidden: usize,
    /// Learning rate applied to each user gradient.
    pub learning_rate: f32,
    /// Number of recommended hashtags (the paper uses top-5).
    pub top_k: usize,
    /// Model-initialisation seed.
    pub seed: u64,
}

impl Default for OnlineFlConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            learning_rate: 0.5,
            top_k: 5,
            seed: 0,
        }
    }
}

/// Per-chunk (hourly) F1 scores of the three approaches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkScore {
    /// Absolute hour index of the evaluated chunk.
    pub hour: usize,
    /// F1-score @ top-k of Online FL.
    pub online_f1: f32,
    /// F1-score @ top-k of Standard FL.
    pub standard_f1: f32,
    /// F1-score @ top-k of the most-popular baseline.
    pub most_popular_f1: f32,
}

/// Result of the comparison over a whole stream.
#[derive(Debug, Clone, Default)]
pub struct OnlineVsStandardResult {
    /// One entry per evaluated hour.
    pub chunks: Vec<ChunkScore>,
}

impl OnlineVsStandardResult {
    /// Mean F1 of Online FL across all evaluated chunks.
    pub fn mean_online(&self) -> f32 {
        mean(self.chunks.iter().map(|c| c.online_f1))
    }

    /// Mean F1 of Standard FL across all evaluated chunks.
    pub fn mean_standard(&self) -> f32 {
        mean(self.chunks.iter().map(|c| c.standard_f1))
    }

    /// Mean F1 of the most-popular baseline.
    pub fn mean_most_popular(&self) -> f32 {
        mean(self.chunks.iter().map(|c| c.most_popular_f1))
    }

    /// The quality boost of Online over Standard FL (the paper reports 2.3x
    /// on its Twitter crawl).
    pub fn quality_boost(&self) -> f32 {
        let standard = self.mean_standard();
        if standard <= 0.0 {
            f32::INFINITY
        } else {
            self.mean_online() / standard
        }
    }
}

fn mean(values: impl Iterator<Item = f32>) -> f32 {
    let collected: Vec<f32> = values.collect();
    if collected.is_empty() {
        0.0
    } else {
        collected.iter().sum::<f32>() / collected.len() as f32
    }
}

/// Runs the Online-vs-Standard comparison over a generated hashtag stream.
pub fn run_online_vs_standard(
    stream: &HashtagStream,
    config: OnlineFlConfig,
) -> OnlineVsStandardResult {
    let spec = stream.spec();
    let mut result = OnlineVsStandardResult::default();

    for (shard_start, shard_end) in stream.shards() {
        // Fresh models at every shard boundary, as in the paper.
        let mut online = HashtagRecommender::new(
            spec.feature_dim,
            spec.vocab_size,
            config.hidden,
            config.seed,
        );
        let mut standard = HashtagRecommender::new(
            spec.feature_dim,
            spec.vocab_size,
            config.hidden,
            config.seed,
        );
        let mut popular = MostPopularRecommender::new(spec.vocab_size);
        // Gradients accumulated by Standard FL since its last daily update.
        let mut standard_backlog: Vec<Gradient> = Vec::new();

        for hour in shard_start..shard_end {
            // Standard FL updates once per day, using everything collected
            // since the previous update.
            if hour > shard_start && (hour - shard_start) % 24 == 0 {
                for gradient in standard_backlog.drain(..) {
                    let _ = standard.apply_gradient(&gradient, config.learning_rate);
                }
            }

            // Evaluate on the current hour *before* training on it.
            if hour > shard_start {
                let chunk = stream.chunk(hour);
                if !chunk.is_empty() {
                    let online_f1 = evaluate(&mut online, &chunk, config.top_k);
                    let standard_f1 = evaluate(&mut standard, &chunk, config.top_k);
                    let popular_top = popular.top_k(config.top_k);
                    let popular_pairs: Vec<(Vec<usize>, Vec<usize>)> = chunk
                        .iter()
                        .map(|p| (popular_top.clone(), p.hashtags.clone()))
                        .collect();
                    result.chunks.push(ChunkScore {
                        hour,
                        online_f1,
                        standard_f1,
                        most_popular_f1: mean_f1_at_k(&popular_pairs),
                    });
                }
            }

            // Train on the current hour's data: one gradient per user.
            let chunk = stream.chunk(hour);
            for (_, posts) in stream.group_by_user(&chunk) {
                let (features, labels) = batch_from_posts(&posts);
                if labels.is_empty() {
                    continue;
                }
                // Online FL: apply immediately.
                if let Ok((_, gradient)) = online.compute_gradient(&features, &labels) {
                    let _ = online.apply_gradient(&gradient, config.learning_rate);
                }
                // Standard FL: same gradient computation, deferred application.
                if let Ok((_, gradient)) = standard.compute_gradient(&features, &labels) {
                    standard_backlog.push(gradient);
                }
                for p in &posts {
                    popular.observe(&p.hashtags);
                }
            }
        }
    }
    result
}

/// Builds a training batch from a user's posts. The softmax recommender
/// takes one label per example, so a post's primary (first) hashtag is its
/// training label; evaluation still scores all of its hashtags.
fn batch_from_posts(posts: &[&Post]) -> (Tensor, Vec<usize>) {
    let feature_dim = posts.first().map(|p| p.features.len()).unwrap_or(1);
    let mut data = Vec::with_capacity(posts.len() * feature_dim);
    let mut labels = Vec::with_capacity(posts.len());
    for p in posts {
        data.extend_from_slice(&p.features);
        labels.push(p.hashtags[0]);
    }
    (Tensor::from_vec(data, &[posts.len(), feature_dim]), labels)
}

fn evaluate(model: &mut HashtagRecommender, chunk: &[&Post], top_k: usize) -> f32 {
    let (features, _) = batch_from_posts(chunk);
    match model.recommend_top_k(&features, top_k) {
        Ok(recommendations) => {
            let pairs: Vec<(Vec<usize>, Vec<usize>)> = recommendations
                .into_iter()
                .zip(chunk.iter())
                .map(|(rec, post)| (rec, post.hashtags.clone()))
                .collect();
            mean_f1_at_k(&pairs)
        }
        Err(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_data::StreamSpec;

    fn small_stream() -> HashtagStream {
        HashtagStream::generate(
            &StreamSpec {
                days: 4,
                posts_per_hour: 30,
                num_users: 20,
                vocab_size: 30,
                feature_dim: 12,
                trend_lifetime_hours: 5.0,
                concurrent_trends: 4,
            },
            17,
        )
    }

    #[test]
    fn comparison_produces_scores_for_most_hours() {
        let stream = small_stream();
        let result = run_online_vs_standard(&stream, OnlineFlConfig::default());
        // 4 days = 2 shards x 48 hours, minus the first hour of each shard.
        assert!(result.chunks.len() >= 90, "chunks {}", result.chunks.len());
        assert!(result
            .chunks
            .iter()
            .all(|c| c.online_f1 >= 0.0 && c.online_f1 <= 1.0));
    }

    #[test]
    fn online_fl_beats_standard_fl_on_temporal_data() {
        let stream = small_stream();
        let result = run_online_vs_standard(&stream, OnlineFlConfig::default());
        assert!(
            result.mean_online() > result.mean_standard(),
            "online {} should beat standard {}",
            result.mean_online(),
            result.mean_standard()
        );
        assert!(result.quality_boost() > 1.0);
    }

    #[test]
    fn online_fl_beats_most_popular_baseline() {
        let stream = small_stream();
        let result = run_online_vs_standard(&stream, OnlineFlConfig::default());
        assert!(result.mean_online() > result.mean_most_popular());
    }

    #[test]
    fn empty_result_statistics_are_safe() {
        let empty = OnlineVsStandardResult::default();
        assert_eq!(empty.mean_online(), 0.0);
        assert!(empty.quality_boost().is_infinite());
    }
}
