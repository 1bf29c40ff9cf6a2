//! The outstanding-task lease table: at-most-once result application.
//!
//! Every accepted task gets a strictly monotonic id and an *outstanding
//! lease* with a logical-round deadline (see the [`crate::protocol`] module
//! docs for the lifecycle). The table classifies each uploaded result into a
//! [`ResultDisposition`]; only [`ResultDisposition::Applied`] results may
//! touch the model. The table is plain data — no clocks of its own, no
//! randomness — so it checkpoints and replays deterministically.

use crate::protocol::ResultDisposition;
use std::collections::{BTreeMap, BTreeSet};

/// One outstanding lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The worker the task was assigned to.
    pub worker_id: u64,
    /// The logical round the task was issued in.
    pub issued_round: u64,
    /// First round at which the lease counts as expired: a result must
    /// arrive at a round strictly below this to be applied.
    pub deadline_round: u64,
}

/// Checkpointed state of a [`TaskTable`] (it *is* the table — the table
/// holds no transient state — but kept as a separate type so the wire
/// checkpoint codec has a stable surface).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaskTableState {
    /// The next id to issue.
    pub next_id: u64,
    /// Outstanding leases as `(task_id, worker_id, issued_round,
    /// deadline_round)`, sorted by id.
    pub outstanding: Vec<(u64, u64, u64, u64)>,
    /// Ids of completed (applied) tasks, sorted.
    pub completed: Vec<u64>,
    /// Ids of reclaimed (expired) tasks, sorted.
    pub expired: Vec<u64>,
}

/// The lease table (see module docs).
#[derive(Debug, Clone, Default)]
pub struct TaskTable {
    next_id: u64,
    outstanding: BTreeMap<u64, Lease>,
    completed: BTreeSet<u64>,
    expired: BTreeSet<u64>,
}

impl TaskTable {
    /// Creates an empty table; the first issued id is 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues a new lease for `worker_id` at `round`, expiring at
    /// `round + lease_rounds`. Returns the task id.
    ///
    /// # Panics
    ///
    /// Panics if `lease_rounds` is zero — a lease that expires the round it
    /// is issued could never be completed.
    pub fn issue(&mut self, worker_id: u64, round: u64, lease_rounds: u64) -> u64 {
        assert!(lease_rounds > 0, "a lease must last at least one round");
        let task_id = self.next_id;
        self.next_id += 1;
        self.outstanding.insert(
            task_id,
            Lease {
                worker_id,
                issued_round: round,
                deadline_round: round.saturating_add(lease_rounds),
            },
        );
        task_id
    }

    /// Moves every lease whose deadline is `<= round` to the expired set and
    /// returns them as `(task_id, lease)`, in id order. The freed workers
    /// can immediately be handed new tasks.
    pub fn reclaim_expired(&mut self, round: u64) -> Vec<(u64, Lease)> {
        let reclaimed: Vec<(u64, Lease)> = self
            .outstanding
            .iter()
            .filter(|(_, lease)| lease.deadline_round <= round)
            .map(|(&id, &lease)| (id, lease))
            .collect();
        for &(id, _) in &reclaimed {
            self.outstanding.remove(&id);
            self.expired.insert(id);
        }
        reclaimed
    }

    /// Force-reclaims one outstanding lease regardless of its deadline,
    /// returning it — the transport calls this when the connection that was
    /// issued the task dies, so the work re-enters the pool immediately
    /// instead of waiting out the logical deadline. Completed, already
    /// expired and unknown ids are left untouched (`None`): a result that
    /// raced the disconnect and got applied stays applied.
    pub(crate) fn reclaim(&mut self, task_id: u64) -> Option<Lease> {
        let lease = self.outstanding.remove(&task_id)?;
        self.expired.insert(task_id);
        Some(lease)
    }

    /// Classifies a result for `task_id` from `worker_id`, updating the
    /// table: an outstanding lease held by that worker completes
    /// ([`ResultDisposition::Applied`]); everything else leaves the table
    /// unchanged and reports why the result must be discarded.
    pub fn classify(&mut self, task_id: u64, worker_id: u64) -> ResultDisposition {
        if self.completed.contains(&task_id) {
            return ResultDisposition::Duplicate;
        }
        if self.expired.contains(&task_id) {
            return ResultDisposition::Expired;
        }
        match self.outstanding.get(&task_id) {
            Some(lease) if lease.worker_id == worker_id => {
                self.outstanding.remove(&task_id);
                self.completed.insert(task_id);
                ResultDisposition::Applied
            }
            // A result for someone else's lease (or an id the server never
            // issued) must not complete the real assignee's task.
            _ => ResultDisposition::Unsolicited,
        }
    }

    /// Number of outstanding leases.
    pub fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }

    /// Exports the table for checkpointing (all sets in sorted order).
    pub(crate) fn export_state(&self) -> TaskTableState {
        TaskTableState {
            next_id: self.next_id,
            outstanding: self
                .outstanding
                .iter()
                .map(|(&id, lease)| {
                    (
                        id,
                        lease.worker_id,
                        lease.issued_round,
                        lease.deadline_round,
                    )
                })
                .collect(),
            completed: self.completed.iter().copied().collect(),
            expired: self.expired.iter().copied().collect(),
        }
    }

    /// Rebuilds a table from a state captured with
    /// [`TaskTable::export_state`].
    pub(crate) fn from_state(state: TaskTableState) -> Self {
        Self {
            next_id: state.next_id,
            outstanding: state
                .outstanding
                .into_iter()
                .map(|(id, worker_id, issued_round, deadline_round)| {
                    (
                        id,
                        Lease {
                            worker_id,
                            issued_round,
                            deadline_round,
                        },
                    )
                })
                .collect(),
            completed: state.completed.into_iter().collect(),
            expired: state.expired.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_strictly_monotonic() {
        let mut table = TaskTable::new();
        let a = table.issue(1, 0, 4);
        let b = table.issue(2, 0, 4);
        let c = table.issue(1, 3, 4);
        assert!(a < b && b < c);
        assert_eq!(table.outstanding_len(), 3);
    }

    #[test]
    fn first_result_applies_then_duplicates_are_rejected() {
        let mut table = TaskTable::new();
        let id = table.issue(7, 0, 4);
        assert_eq!(table.classify(id, 7), ResultDisposition::Applied);
        assert_eq!(table.classify(id, 7), ResultDisposition::Duplicate);
        assert_eq!(table.classify(id, 7), ResultDisposition::Duplicate);
        assert_eq!(table.completed.len(), 1);
        assert_eq!(table.outstanding_len(), 0);
    }

    #[test]
    fn wrong_worker_cannot_complete_someone_elses_lease() {
        let mut table = TaskTable::new();
        let id = table.issue(7, 0, 4);
        assert_eq!(table.classify(id, 8), ResultDisposition::Unsolicited);
        // The rightful assignee can still complete it.
        assert_eq!(table.classify(id, 7), ResultDisposition::Applied);
    }

    #[test]
    fn unknown_ids_are_unsolicited() {
        let mut table = TaskTable::new();
        assert_eq!(table.classify(999, 1), ResultDisposition::Unsolicited);
    }

    #[test]
    fn expiry_reclaims_at_the_deadline_not_before() {
        let mut table = TaskTable::new();
        let id = table.issue(3, 10, 5); // deadline round 15
        assert!(table.reclaim_expired(14).is_empty());
        let reclaimed = table.reclaim_expired(15);
        assert_eq!(reclaimed.len(), 1);
        assert_eq!(reclaimed[0].0, id);
        assert_eq!(reclaimed[0].1.worker_id, 3);
        // The straggler's late result is rejected, not applied.
        assert_eq!(table.classify(id, 3), ResultDisposition::Expired);
        assert_eq!(table.expired.len(), 1);
    }

    #[test]
    fn reclaim_is_idempotent_and_ordered() {
        let mut table = TaskTable::new();
        let a = table.issue(1, 0, 2);
        let b = table.issue(2, 0, 2);
        table.issue(3, 0, 99);
        let reclaimed = table.reclaim_expired(2);
        assert_eq!(
            reclaimed.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![a, b]
        );
        assert!(table.reclaim_expired(2).is_empty());
        assert_eq!(table.outstanding_len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_round_leases_are_rejected() {
        TaskTable::new().issue(1, 0, 0);
    }

    #[test]
    fn forced_reclaim_expires_an_outstanding_lease_before_its_deadline() {
        let mut table = TaskTable::new();
        let id = table.issue(4, 0, 99);
        let lease = table.reclaim(id).expect("outstanding lease reclaims");
        assert_eq!(lease.worker_id, 4);
        assert_eq!(table.outstanding_len(), 0);
        assert_eq!(table.expired.len(), 1);
        // The dead worker's late retransmission is a straggler now.
        assert_eq!(table.classify(id, 4), ResultDisposition::Expired);
    }

    #[test]
    fn forced_reclaim_leaves_completed_and_unknown_ids_alone() {
        let mut table = TaskTable::new();
        let id = table.issue(4, 0, 99);
        assert_eq!(table.classify(id, 4), ResultDisposition::Applied);
        // A result that raced the disconnect and won stays applied.
        assert_eq!(table.reclaim(id), None);
        assert_eq!(table.classify(id, 4), ResultDisposition::Duplicate);
        assert_eq!(table.reclaim(999), None);
        // Reclaiming twice is a no-op, not a panic.
        let other = table.issue(5, 0, 99);
        assert!(table.reclaim(other).is_some());
        assert_eq!(table.reclaim(other), None);
    }

    #[test]
    fn state_roundtrip_preserves_every_set() {
        let mut table = TaskTable::new();
        let a = table.issue(1, 0, 4);
        let b = table.issue(2, 1, 2);
        table.issue(3, 2, 9);
        assert_eq!(table.classify(a, 1), ResultDisposition::Applied);
        table.reclaim_expired(3); // expires b

        let state = table.export_state();
        let mut restored = TaskTable::from_state(state.clone());
        assert_eq!(restored.export_state(), state);
        // Semantics survive: duplicate, expired, fresh issue.
        assert_eq!(restored.classify(a, 1), ResultDisposition::Duplicate);
        assert_eq!(restored.classify(b, 2), ResultDisposition::Expired);
        assert_eq!(restored.issue(9, 5, 4), table.issue(9, 5, 4));
    }
}
