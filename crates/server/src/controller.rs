//! The controller of Fig. 2: decides whether a learning task is worth
//! executing before any energy is spent on it (§2.4, §3.5).

use crate::protocol::RejectionReason;
use serde::{Deserialize, Serialize};

/// Thresholds the controller enforces before handing out a learning task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ControllerThresholds {
    /// Minimum mini-batch size worth computing (Fig. 3 motivates this: tiny
    /// batches from weak devices add noise that can cancel the benefit of the
    /// strong ones). `0` disables the check.
    pub min_batch_size: usize,
    /// Maximum similarity (Bhattacharyya coefficient with the global label
    /// distribution) a task may have. Tasks that are *more* similar than this
    /// carry little new information and are pruned. `None` disables the check.
    pub max_similarity: Option<f32>,
}

/// The controller: applies [`ControllerThresholds`] and keeps acceptance
/// statistics (used by the A/B-style threshold tuning described in §2.4).
#[derive(Debug, Clone, Default)]
pub struct Controller {
    thresholds: ControllerThresholds,
    accepted: u64,
    rejected_size: u64,
    rejected_similarity: u64,
    rejected_overload: u64,
}

/// The controller's acceptance counters, exported for checkpointing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerCounters {
    /// Accepted tasks.
    pub accepted: u64,
    /// Rejected: batch too small.
    pub rejected_size: u64,
    /// Rejected: data too similar.
    pub rejected_similarity: u64,
    /// Rejected: server overloaded (backpressure).
    pub rejected_overload: u64,
}

impl Controller {
    /// Creates a controller with the given thresholds.
    pub(crate) fn new(thresholds: ControllerThresholds) -> Self {
        Self {
            thresholds,
            ..Self::default()
        }
    }

    /// Decides whether a task with the proposed mini-batch size and
    /// similarity should run. Returns `Ok(())` to accept or the rejection
    /// reason.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectionReason`] when a threshold is violated.
    pub(crate) fn admit(
        &mut self,
        batch_size: usize,
        similarity: f32,
    ) -> Result<(), RejectionReason> {
        if self.thresholds.min_batch_size > 0 && batch_size < self.thresholds.min_batch_size {
            self.rejected_size += 1;
            return Err(RejectionReason::BatchTooSmall {
                proposed: batch_size,
                minimum: self.thresholds.min_batch_size,
            });
        }
        if let Some(max_sim) = self.thresholds.max_similarity {
            if similarity > max_sim {
                self.rejected_similarity += 1;
                return Err(RejectionReason::TooSimilar);
            }
        }
        self.accepted += 1;
        Ok(())
    }

    /// Number of accepted tasks.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Number of tasks shed because the server was overloaded. The overload
    /// check happens *before* admission (no point scoring a task the server
    /// cannot absorb), so the caller reports it here rather than through
    /// [`Controller::admit`].
    pub(crate) fn note_overload(&mut self) {
        self.rejected_overload += 1;
    }

    /// Total number of rejected tasks.
    pub fn rejected(&self) -> u64 {
        self.rejected_size + self.rejected_similarity + self.rejected_overload
    }

    /// Exports the acceptance counters for checkpointing.
    pub(crate) fn counters(&self) -> ControllerCounters {
        ControllerCounters {
            accepted: self.accepted,
            rejected_size: self.rejected_size,
            rejected_similarity: self.rejected_similarity,
            rejected_overload: self.rejected_overload,
        }
    }

    /// Restores counters captured with [`Controller::counters`].
    pub(crate) fn restore_counters(&mut self, counters: ControllerCounters) {
        self.accepted = counters.accepted;
        self.rejected_size = counters.rejected_size;
        self.rejected_similarity = counters.rejected_similarity;
        self.rejected_overload = counters.rejected_overload;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permissive_controller_accepts_everything() {
        let mut c = Controller::default();
        assert!(c.admit(1, 1.0).is_ok());
        assert!(c.admit(0, 0.0).is_ok());
        assert_eq!(c.accepted(), 2);
        assert_eq!(c.rejected(), 0);
    }

    #[test]
    fn size_threshold_rejects_small_batches() {
        let mut c = Controller::new(ControllerThresholds {
            min_batch_size: 10,
            max_similarity: None,
        });
        assert_eq!(
            c.admit(5, 0.5),
            Err(RejectionReason::BatchTooSmall {
                proposed: 5,
                minimum: 10
            })
        );
        assert!(c.admit(10, 0.5).is_ok());
        assert_eq!(c.rejected_size, 1);
    }

    #[test]
    fn similarity_threshold_rejects_redundant_tasks() {
        let mut c = Controller::new(ControllerThresholds {
            min_batch_size: 0,
            max_similarity: Some(0.9),
        });
        assert_eq!(c.admit(100, 0.95), Err(RejectionReason::TooSimilar));
        assert!(c.admit(100, 0.85).is_ok());
        assert_eq!(c.rejected_similarity, 1);
    }

    #[test]
    fn overload_counts_as_a_rejection() {
        let mut c = Controller::default();
        assert!(c.admit(5, 0.1).is_ok());
        c.note_overload();
        c.note_overload();
        assert_eq!(c.rejected_overload, 2);
        assert_eq!(c.rejected(), 2);
        assert_eq!(c.accepted(), 1);
    }

    #[test]
    fn counters_roundtrip_through_checkpoint() {
        let mut c = Controller::new(ControllerThresholds {
            min_batch_size: 10,
            max_similarity: Some(0.9),
        });
        let _ = c.admit(5, 0.5);
        let _ = c.admit(100, 0.95);
        let _ = c.admit(100, 0.5);
        c.note_overload();
        let counters = c.counters();
        let mut restored = Controller::new(c.thresholds);
        restored.restore_counters(counters);
        assert_eq!(restored.counters(), counters);
        assert_eq!(restored.accepted(), 1);
        assert_eq!(restored.rejected(), 3);
    }
}
