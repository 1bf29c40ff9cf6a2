//! Hashtag recommender used by the Online-vs-Standard-FL experiment (§3.1).
//!
//! The paper trains a small recurrent network over tweet text and evaluates
//! F1-score @ top-5 of the predicted hashtags. The tweet crawl is not
//! available (`fleet_data::twitter` generates a synthetic stream instead),
//! so our substitution keeps the essential structure: a softmax model over
//! the hashtag vocabulary trained online from user mini-batches, whose input
//! is a context feature vector, plus the "most popular" baseline of the
//! paper.

use crate::gradient::Gradient;
use crate::model::Sequential;
use crate::models::mlp_classifier;
use crate::tensor::Tensor;
use crate::Result;

/// A trainable top-k hashtag recommender backed by a softmax classifier.
#[derive(Debug)]
pub struct HashtagRecommender {
    model: Sequential,
}

impl HashtagRecommender {
    /// Creates a recommender for `vocab_size` hashtags over `feature_dim`
    /// context features. A single hidden layer keeps the parameter count in
    /// the same order of magnitude as the paper's 123 k-parameter RNN.
    pub fn new(feature_dim: usize, vocab_size: usize, hidden: usize, seed: u64) -> Self {
        Self {
            model: mlp_classifier(feature_dim, &[hidden], vocab_size, seed),
        }
    }

    /// Computes the gradient of one user mini-batch without applying it
    /// (what a FLeet worker does), returning `(loss, gradient)`.
    ///
    /// # Errors
    ///
    /// Propagates shape/label errors.
    pub fn compute_gradient(
        &mut self,
        features: &Tensor,
        hashtags: &[usize],
    ) -> Result<(f32, Gradient)> {
        self.model.compute_gradient(features, hashtags)
    }

    /// Applies a (possibly dampened) gradient with the given learning rate.
    ///
    /// # Errors
    ///
    /// Returns an error when the gradient length does not match.
    pub fn apply_gradient(&mut self, gradient: &Gradient, learning_rate: f32) -> Result<()> {
        self.model.apply_gradient(gradient, learning_rate)
    }

    /// Recommends the top-`k` hashtags for each row of `features`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the forward pass.
    pub fn recommend_top_k(&mut self, features: &Tensor, k: usize) -> Result<Vec<Vec<usize>>> {
        Ok(self.model.forward(features)?.topk_rows(k))
    }
}

/// The paper's baseline recommender: always recommend the `k` globally most
/// popular hashtags seen so far.
#[derive(Debug, Clone, Default)]
pub struct MostPopularRecommender {
    counts: Vec<u64>,
}

impl MostPopularRecommender {
    /// Creates a baseline over a vocabulary of `vocab_size` hashtags.
    pub fn new(vocab_size: usize) -> Self {
        Self {
            counts: vec![0; vocab_size],
        }
    }

    /// Records observed hashtags (training data for the baseline).
    pub fn observe(&mut self, hashtags: &[usize]) {
        for &h in hashtags {
            if h < self.counts.len() {
                self.counts[h] += 1;
            }
        }
    }

    /// The `k` most popular hashtags, most popular first.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.counts.len()).collect();
        idx.sort_by(|&a, &b| self.counts[b].cmp(&self.counts[a]).then(a.cmp(&b)));
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommender_shapes() {
        let mut rec = HashtagRecommender::new(8, 20, 16, 0);
        let recs = rec.recommend_top_k(&Tensor::zeros(&[3, 8]), 5).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].len(), 5);
    }

    #[test]
    fn training_learns_dominant_hashtag() {
        let mut rec = HashtagRecommender::new(4, 6, 8, 1);
        // Context feature 0 active => hashtag 2.
        let features = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[1, 4]);
        for _ in 0..100 {
            let (_, gradient) = rec.compute_gradient(&features, &[2]).unwrap();
            rec.apply_gradient(&gradient, 0.5).unwrap();
        }
        let top = rec.recommend_top_k(&features, 1).unwrap();
        assert_eq!(top[0][0], 2);
    }

    #[test]
    fn most_popular_tracks_counts() {
        let mut baseline = MostPopularRecommender::new(5);
        baseline.observe(&[1, 1, 1, 3, 3, 4]);
        assert_eq!(baseline.top_k(2), vec![1, 3]);
        // Out-of-range observations are ignored.
        baseline.observe(&[99]);
        assert_eq!(baseline.top_k(1), vec![1]);
    }

    #[test]
    fn most_popular_ties_broken_by_index() {
        let baseline = MostPopularRecommender::new(3);
        assert_eq!(baseline.top_k(3), vec![0, 1, 2]);
    }
}
