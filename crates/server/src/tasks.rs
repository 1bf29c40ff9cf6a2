//! The outstanding-task lease table: at-most-once result application.
//!
//! Every accepted task gets a strictly monotonic id and an *outstanding
//! lease*: the server's record of what it issued — the worker, a
//! logical-round deadline, the model version and vector clock the task
//! reads, and the device model its cost trains (see the [`crate::protocol`]
//! module docs for the lifecycle). [`TaskTable::complete`] matches each
//! uploaded result to its lease, and only a result that completes one may
//! touch the model; [`Lease::into_update`] then weighs it by what the lease
//! recorded, never by what the result says it read. The table is plain data
//! — no clocks of its own, no randomness — so it checkpoints and replays
//! deterministically.
//!
//! It logs no completed ids: every issued id is outstanding, expired or
//! completed, so one that is neither of the first two was completed.

use crate::protocol::{ResultDisposition, TaskResult};
use fleet_core::WorkerUpdate;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// One outstanding lease: what the server issued with a task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The worker the task was assigned to.
    pub worker_id: u64,
    /// First round at which the lease counts as expired: a result must
    /// arrive at a round strictly below this to be applied.
    pub deadline_round: u64,
    /// The model version (server clock) the task computes on.
    pub model_version: u64,
    /// The per-shard vector clock the task reads, for per-shard staleness;
    /// `None` weighs every shard at the scalar staleness.
    pub read_clock: Option<Box<[u64]>>,
    /// The device model the request named: the I-Prof model the task's
    /// measured cost trains.
    pub device_model: String,
}

impl Lease {
    /// The update a result that completed this lease submits at server
    /// clock `clock`: the staleness is `clock − model_version` and the read
    /// clock is the lease's, whatever the result claims.
    pub fn into_update(self, result: TaskResult, clock: u64) -> WorkerUpdate {
        let mut update = WorkerUpdate::new(
            result.gradient,
            clock.saturating_sub(self.model_version),
            result.label_distribution,
            result.num_samples,
            self.worker_id,
        );
        update.read_clock = self.read_clock.map(Vec::from);
        update
    }
}

/// Checkpointed state of a [`TaskTable`] (it *is* the table — the table
/// holds no transient state — but kept as a separate type so the wire
/// checkpoint codec has a stable surface).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaskTableState {
    /// The next id to issue.
    pub next_id: u64,
    /// Outstanding leases by task id, sorted by id.
    pub outstanding: Vec<(u64, Lease)>,
    /// Ids of reclaimed (expired) tasks, sorted.
    pub expired: Vec<u64>,
}

/// The lease table (see module docs).
#[derive(Debug, Clone, Default)]
pub struct TaskTable {
    next_id: u64,
    outstanding: BTreeMap<u64, Lease>,
    expired: BTreeSet<u64>,
}

impl TaskTable {
    /// Creates an empty table; the first issued id is 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues a lease for `worker_id` at `round`, expiring at
    /// `round + lease_rounds`, recording the model version and read clock
    /// the task computes on and the worker's device model. Returns the task
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if `lease_rounds` is zero — a lease that expires the round it
    /// is issued could never be completed.
    pub fn issue(
        &mut self,
        worker_id: u64,
        round: u64,
        lease_rounds: u64,
        model_version: u64,
        read_clock: Option<Box<[u64]>>,
        device_model: String,
    ) -> u64 {
        assert!(lease_rounds > 0, "a lease must last at least one round");
        let task_id = self.next_id;
        self.next_id += 1;
        self.outstanding.insert(
            task_id,
            Lease {
                worker_id,
                deadline_round: round.saturating_add(lease_rounds),
                model_version,
                read_clock,
                device_model,
            },
        );
        task_id
    }

    /// Moves every lease whose deadline is `<= round` to the expired set and
    /// returns how many moved. The freed workers can immediately be handed
    /// new tasks.
    pub fn reclaim_expired(&mut self, round: u64) -> usize {
        let before = self.outstanding.len();
        self.outstanding.retain(|&id, lease| {
            let live = lease.deadline_round > round;
            if !live {
                self.expired.insert(id);
            }
            live
        });
        before - self.outstanding.len()
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

    /// Completes the lease a result from `worker_id` names and returns it:
    /// only the id of an outstanding lease held by that worker completes
    /// one. Anything else leaves the table unchanged and returns why the
    /// result must be discarded; a result with no task id is always
    /// [`ResultDisposition::Unsolicited`].
    pub fn complete(
        &mut self,
        task_id: Option<u64>,
        worker_id: u64,
    ) -> Result<Lease, ResultDisposition> {
        let Some(task_id) = task_id else {
            return Err(ResultDisposition::Unsolicited);
        };
        match self.outstanding.entry(task_id) {
            Entry::Occupied(lease) if lease.get().worker_id == worker_id => Ok(lease.remove()),
            // A result for someone else's lease must not complete the real
            // assignee's task.
            Entry::Occupied(_) => Err(ResultDisposition::Unsolicited),
            Entry::Vacant(_) if self.expired.contains(&task_id) => Err(ResultDisposition::Expired),
            // Issued, neither outstanding nor expired: completed already.
            Entry::Vacant(_) if task_id < self.next_id => Err(ResultDisposition::Duplicate),
            Entry::Vacant(_) => Err(ResultDisposition::Unsolicited),
        }
    }

    /// Number of outstanding leases.
    pub fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }

    /// Number of completed tasks: the issued ids neither outstanding nor
    /// expired.
    #[cfg(test)]
    pub(crate) fn completed_len(&self) -> usize {
        self.next_id as usize - self.outstanding.len() - self.expired.len()
    }

    /// Exports the table for checkpointing (all sets in sorted order).
    pub(crate) fn export_state(&self) -> TaskTableState {
        TaskTableState {
            next_id: self.next_id,
            outstanding: self
                .outstanding
                .iter()
                .map(|(&id, lease)| (id, lease.clone()))
                .collect(),
            expired: self.expired.iter().copied().collect(),
        }
    }

    /// Rebuilds a table from a state captured with
    /// [`TaskTable::export_state`].
    pub(crate) fn from_state(state: TaskTableState) -> Self {
        Self {
            next_id: state.next_id,
            outstanding: state.outstanding.into_iter().collect(),
            expired: state.expired.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl TaskTable {
        /// Issues a lease that records nothing but its worker and deadline.
        fn lease(&mut self, worker_id: u64, round: u64, lease_rounds: u64) -> u64 {
            self.issue(worker_id, round, lease_rounds, round, None, String::new())
        }

        /// The disposition `complete` reports for a result with `task_id`.
        fn disposition_of(&mut self, task_id: u64, worker_id: u64) -> ResultDisposition {
            self.complete(Some(task_id), worker_id)
                .map_or_else(|disposition| disposition, |_| ResultDisposition::Applied)
        }
    }

    #[test]
    fn ids_are_strictly_monotonic() {
        let mut table = TaskTable::new();
        let a = table.lease(1, 0, 4);
        let b = table.lease(2, 0, 4);
        let c = table.lease(1, 3, 4);
        assert!(a < b && b < c);
        assert_eq!(table.outstanding_len(), 3);
    }

    #[test]
    fn first_result_applies_then_duplicates_are_rejected() {
        let mut table = TaskTable::new();
        let id = table.lease(7, 0, 4);
        assert_eq!(table.disposition_of(id, 7), ResultDisposition::Applied);
        assert_eq!(table.disposition_of(id, 7), ResultDisposition::Duplicate);
        assert_eq!(table.disposition_of(id, 7), ResultDisposition::Duplicate);
        assert_eq!(table.completed_len(), 1);
        assert_eq!(table.outstanding_len(), 0);
    }

    #[test]
    fn wrong_worker_cannot_complete_someone_elses_lease() {
        let mut table = TaskTable::new();
        let id = table.lease(7, 0, 4);
        assert_eq!(table.disposition_of(id, 8), ResultDisposition::Unsolicited);
        // The rightful assignee can still complete it.
        assert_eq!(table.disposition_of(id, 7), ResultDisposition::Applied);
    }

    #[test]
    fn a_completed_lease_is_what_was_issued() {
        let mut table = TaskTable::new();
        let id = table.issue(7, 3, 4, 2, Some(vec![2, 1].into()), "pixel-3".into());
        let lease = Lease {
            worker_id: 7,
            deadline_round: 7,
            model_version: 2,
            read_clock: Some(vec![2, 1].into()),
            device_model: "pixel-3".into(),
        };
        assert_eq!(table.complete(Some(id), 7), Ok(lease));
    }

    #[test]
    fn id_less_results_never_complete_a_lease() {
        let mut table = TaskTable::new();
        let id = table.lease(7, 0, 4);
        for _ in 0..3 {
            assert_eq!(table.complete(None, 7), Err(ResultDisposition::Unsolicited));
        }
        assert_eq!(table.outstanding_len(), 1);
        assert_eq!(table.disposition_of(id, 7), ResultDisposition::Applied);
    }

    #[test]
    fn unknown_ids_are_unsolicited() {
        let mut table = TaskTable::new();
        assert_eq!(table.disposition_of(999, 1), ResultDisposition::Unsolicited);
        // The next id is not issued yet either.
        let id = table.lease(1, 0, 4);
        assert_eq!(
            table.disposition_of(id + 1, 1),
            ResultDisposition::Unsolicited
        );
    }

    #[test]
    fn expiry_reclaims_at_the_deadline_not_before() {
        let mut table = TaskTable::new();
        let id = table.lease(3, 10, 5); // deadline round 15
        assert_eq!(table.reclaim_expired(14), 0);
        assert_eq!(table.reclaim_expired(15), 1);
        assert_eq!(table.export_state().expired, vec![id]);
        // The straggler's late result is rejected, not applied.
        assert_eq!(table.disposition_of(id, 3), ResultDisposition::Expired);
        assert_eq!(table.expired.len(), 1);
    }

    #[test]
    fn reclaim_is_idempotent_and_ordered() {
        let mut table = TaskTable::new();
        let a = table.lease(1, 0, 2);
        let b = table.lease(2, 0, 2);
        table.lease(3, 0, 99);
        assert_eq!(table.reclaim_expired(2), 2);
        assert_eq!(table.export_state().expired, vec![a, b]);
        assert_eq!(table.reclaim_expired(2), 0);
        assert_eq!(table.outstanding_len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_round_leases_are_rejected() {
        TaskTable::new().lease(1, 0, 0);
    }

    #[test]
    fn forced_reclaim_expires_an_outstanding_lease_before_its_deadline() {
        let mut table = TaskTable::new();
        let id = table.lease(4, 0, 99);
        let lease = table.reclaim(id).expect("outstanding lease reclaims");
        assert_eq!(lease.worker_id, 4);
        assert_eq!(table.outstanding_len(), 0);
        assert_eq!(table.expired.len(), 1);
        // The dead worker's late retransmission is a straggler now.
        assert_eq!(table.disposition_of(id, 4), ResultDisposition::Expired);
    }

    #[test]
    fn forced_reclaim_leaves_completed_and_unknown_ids_alone() {
        let mut table = TaskTable::new();
        let id = table.lease(4, 0, 99);
        assert_eq!(table.disposition_of(id, 4), ResultDisposition::Applied);
        // A result that raced the disconnect and won stays applied.
        assert_eq!(table.reclaim(id), None);
        assert_eq!(table.disposition_of(id, 4), ResultDisposition::Duplicate);
        assert_eq!(table.reclaim(999), None);
        // Reclaiming twice is a no-op, not a panic.
        let other = table.lease(5, 0, 99);
        assert!(table.reclaim(other).is_some());
        assert_eq!(table.reclaim(other), None);
    }

    #[test]
    fn state_roundtrip_preserves_every_set() {
        let mut table = TaskTable::new();
        let a = table.lease(1, 0, 4);
        let b = table.lease(2, 1, 2);
        table.lease(3, 2, 9);
        assert_eq!(table.disposition_of(a, 1), ResultDisposition::Applied);
        table.reclaim_expired(3); // expires b

        let state = table.export_state();
        let mut restored = TaskTable::from_state(state.clone());
        assert_eq!(restored.export_state(), state);
        // Semantics survive: duplicate, expired, fresh issue.
        assert_eq!(restored.disposition_of(a, 1), ResultDisposition::Duplicate);
        assert_eq!(restored.disposition_of(b, 2), ResultDisposition::Expired);
        assert_eq!(restored.lease(9, 5, 4), table.lease(9, 5, 4));
    }

    /// A reference table that logs every completed id and checks that log
    /// first in `complete`; issue, expiry and reclaim are the table's own.
    #[derive(Default)]
    struct LoggingTable {
        table: TaskTable,
        completed: BTreeSet<u64>,
    }

    impl LoggingTable {
        fn complete(&mut self, task_id: u64, worker_id: u64) -> Result<Lease, ResultDisposition> {
            let lease = self.table.outstanding.get(&task_id);
            if self.completed.contains(&task_id) {
                Err(ResultDisposition::Duplicate)
            } else if self.table.expired.contains(&task_id) {
                Err(ResultDisposition::Expired)
            } else if lease.is_some_and(|lease| lease.worker_id == worker_id) {
                self.completed.insert(task_id);
                Ok(self
                    .table
                    .outstanding
                    .remove(&task_id)
                    .expect("checked above"))
            } else {
                Err(ResultDisposition::Unsolicited)
            }
        }
    }

    proptest! {
        /// Random issue, complete (ids up to three past the last issued),
        /// reclaim, expiry and export → restore sequences give the
        /// completed leases, dispositions, leases and expired ids of the
        /// logging table.
        #[test]
        fn prop_derived_duplicates_match_the_logging_table(
            ops in proptest::collection::vec((0u8..6, any::<u64>(), 0u64..4, 1u64..6), 1..80),
        ) {
            let (mut table, mut reference) = (TaskTable::new(), LoggingTable::default());
            let mut round = 0;
            for &(op, pick, worker, rounds) in &ops {
                let id = pick % (table.next_id + 4);
                // Half the time the rightful assignee, when there is one.
                let assignee = table.outstanding.get(&id).filter(|_| pick >> 63 == 0);
                let worker = assignee.map_or(worker, |lease| lease.worker_id);
                match op {
                    0 | 1 => prop_assert_eq!(
                        table.lease(worker, round, rounds),
                        reference.table.lease(worker, round, rounds)
                    ),
                    2 => prop_assert_eq!(table.complete(Some(id), worker), reference.complete(id, worker)),
                    3 => prop_assert_eq!(table.reclaim(id), reference.table.reclaim(id)),
                    4 => {
                        round += rounds;
                        let reclaimed = reference.table.reclaim_expired(round);
                        prop_assert_eq!(table.reclaim_expired(round), reclaimed);
                    }
                    _ => table = TaskTable::from_state(table.export_state()),
                }
                prop_assert_eq!(&table.outstanding, &reference.table.outstanding);
                prop_assert_eq!(&table.expired, &reference.table.expired);
            }
        }
    }
}
