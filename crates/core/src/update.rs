//! The unit of work a FLeet worker sends back to the server.

use fleet_data::LabelDistribution;
use fleet_ml::Gradient;
use serde::{Deserialize, Serialize};

/// A gradient received from a worker, together with the metadata the
/// aggregation algorithms need (step 5 of Fig. 2 in the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerUpdate {
    /// The flat gradient computed on the worker's local mini-batch.
    pub gradient: Gradient,
    /// Staleness `τ = t − t_i`: the number of model updates that happened
    /// between the worker pulling the model and pushing this gradient.
    pub staleness: u64,
    /// Label distribution of the mini-batch the gradient was computed on
    /// (only label *indices* are revealed to the server, §2.3).
    pub label_distribution: LabelDistribution,
    /// Number of samples in the mini-batch.
    pub num_samples: usize,
    /// Identifier of the worker that produced the update.
    pub worker_id: u64,
    /// The per-shard vector clock observed when the worker pulled the model:
    /// entry `s` is the applied-update count of shard `s` at read time, so
    /// the server can attribute a *per-shard* staleness
    /// `τ_s = clock_s − read_clock[s]` to the gradient. `None` falls back to
    /// the scalar [`WorkerUpdate::staleness`] for every shard.
    pub read_clock: Option<Vec<u64>>,
}

impl WorkerUpdate {
    /// Creates an update.
    pub fn new(
        gradient: Gradient,
        staleness: u64,
        label_distribution: LabelDistribution,
        num_samples: usize,
        worker_id: u64,
    ) -> Self {
        Self {
            gradient,
            staleness,
            label_distribution,
            num_samples,
            worker_id,
            read_clock: None,
        }
    }

    /// Attaches the per-shard vector clock the worker observed when it pulled
    /// the model (see [`WorkerUpdate::read_clock`]).
    pub fn with_read_clock(mut self, read_clock: Vec<u64>) -> Self {
        self.read_clock = Some(read_clock);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_populate_fields() {
        let g = Gradient::from_vec(vec![1.0, 2.0]);
        let ld = LabelDistribution::uniform(4);
        let u = WorkerUpdate::new(g.clone(), 7, ld.clone(), 32, 99);
        assert_eq!(u.staleness, 7);
        assert_eq!(u.worker_id, 99);
        assert_eq!(u.num_samples, 32);
        assert_eq!(u.gradient, g);
        assert_eq!(u.read_clock, None);
    }

    #[test]
    fn read_clock_rides_along() {
        let u = WorkerUpdate::new(
            Gradient::from_vec(vec![1.0]),
            0,
            LabelDistribution::uniform(2),
            4,
            0,
        )
        .with_read_clock(vec![3, 5]);
        assert_eq!(u.read_clock.as_deref(), Some(&[3, 5][..]));
    }
}
