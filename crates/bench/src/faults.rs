//! Deterministic fault injection for the simulation harness.
//!
//! A [`FaultPlan`] is a *pure function* of `(seed, round, worker)`: every
//! fault decision is a stateless hash, so evaluating the plan consumes no
//! RNG stream and perturbs nothing else in the simulation. Two consequences
//! the test-suite leans on:
//!
//! * a zero-probability plan is byte-identical to not having the fault layer
//!   at all — the pinned fault-free digests cannot move, and
//! * a faulty run is bit-stable across thread counts, because the faults
//!   fall on the same `(round, worker)` coordinates no matter how the work
//!   is scheduled.
//!
//! The plan models the fault classes of the wire protocol's fault model
//! (see [`fleet_server::protocol`]): dropped requests, dropped / duplicated /
//! delayed (straggler) results, and worker crash-restarts.

/// What the (simulated) network does to an uploaded result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResultFate {
    /// The result reaches the server exactly once.
    Deliver,
    /// The result is lost; the lease will expire and be reclaimed.
    Drop,
    /// The result reaches the server twice back-to-back (retransmission
    /// after a lost ack); the second copy must be acked as a duplicate.
    Duplicate,
    /// The result is held back and arrives this many rounds later — the
    /// straggler case; its staleness grows while it is in flight.
    Delay(u64),
}

/// A seeded, deterministic schedule of faults over `(round, worker)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every decision hash.
    pub seed: u64,
    /// Probability a worker's task *request* is lost (the server never sees
    /// it; the worker computes nothing that round).
    pub drop_request: f64,
    /// Probability an uploaded result is lost.
    pub drop_result: f64,
    /// Probability an uploaded result is delivered twice.
    pub duplicate_result: f64,
    /// Probability an uploaded result is delayed.
    pub delay_result: f64,
    /// How many rounds a delayed result is held back.
    pub delay_rounds: u64,
    /// Rounds a task lease lasts before the server reclaims it.
    pub lease_rounds: u64,
    /// Crash-restarts as `(round, worker)`: at the start of that round the
    /// worker loses its in-flight uploads (queued delayed results are
    /// discarded) and rejoins immediately.
    pub crash_restarts: Vec<(u64, u64)>,
}

impl FaultPlan {
    /// The fault-free plan: every probability zero, no crashes. Running
    /// under this plan is byte-identical to running without fault injection.
    pub(crate) fn none() -> Self {
        Self {
            seed: 0,
            drop_request: 0.0,
            drop_result: 0.0,
            duplicate_result: 0.0,
            delay_result: 0.0,
            delay_rounds: 0,
            lease_rounds: u64::MAX,
            crash_restarts: Vec::new(),
        }
    }

    /// The chaos plan the CI sweep pins digests for: 10% dropped requests,
    /// 10% dropped results, 5% duplicated, 5% delayed by three rounds, and
    /// one crash-restart of worker 1 at round 12.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            drop_request: 0.10,
            drop_result: 0.10,
            duplicate_result: 0.05,
            delay_result: 0.05,
            delay_rounds: 3,
            lease_rounds: 6,
            crash_restarts: vec![(12, 1)],
        }
    }

    /// Whether the plan can never fire: all probabilities zero and no
    /// crash-restarts scheduled.
    pub(crate) fn is_none(&self) -> bool {
        self.drop_request == 0.0
            && self.drop_result == 0.0
            && self.duplicate_result == 0.0
            && self.delay_result == 0.0
            && self.crash_restarts.is_empty()
    }

    /// Whether `worker`'s task request in `round` is lost.
    pub(crate) fn drops_request(&self, round: u64, worker: u64) -> bool {
        self.decide(round, worker, 0x71ea_c8b1, self.drop_request)
    }

    /// What happens to `worker`'s uploaded result in `round`. The three
    /// result faults are mutually exclusive; drop wins over duplicate wins
    /// over delay (each carved out of the same uniform draw, so the marginal
    /// probabilities are exactly the configured ones).
    pub(crate) fn result_fate(&self, round: u64, worker: u64) -> ResultFate {
        let u = self.uniform(round, worker, 0x3c6e_f372);
        if u < self.drop_result {
            ResultFate::Drop
        } else if u < self.drop_result + self.duplicate_result {
            ResultFate::Duplicate
        } else if u < self.drop_result + self.duplicate_result + self.delay_result {
            ResultFate::Delay(self.delay_rounds.max(1))
        } else {
            ResultFate::Deliver
        }
    }

    /// Workers that crash-restart at the start of `round`, in ascending
    /// worker order.
    pub(crate) fn crashes_at(&self, round: u64) -> Vec<u64> {
        let mut workers: Vec<u64> = self
            .crash_restarts
            .iter()
            .filter(|&&(r, _)| r == round)
            .map(|&(_, w)| w)
            .collect();
        workers.sort_unstable();
        workers.dedup();
        workers
    }

    fn decide(&self, round: u64, worker: u64, salt: u64, probability: f64) -> bool {
        probability > 0.0 && self.uniform(round, worker, salt) < probability
    }

    /// A uniform draw in `[0, 1)` that is a pure function of
    /// `(seed, round, worker, salt)` — splitmix64-style finalizer over the
    /// mixed coordinates.
    fn uniform(&self, round: u64, worker: u64, salt: u64) -> f64 {
        let mut h = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(round.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(worker.wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add(salt);
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        // 53 mantissa bits -> uniform in [0, 1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Counters of what a faulty run actually injected and how the server
/// classified the fallout; reported on the training history so tests can
/// assert the plan really fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Task requests lost before reaching the server.
    pub dropped_requests: u64,
    /// Results lost in flight.
    pub dropped_results: u64,
    /// Second copies of duplicated results rejected by dedup.
    pub duplicates_rejected: u64,
    /// Delayed results eventually delivered.
    pub delayed_delivered: u64,
    /// Results rejected because their lease had expired.
    pub expired_rejected: u64,
    /// In-flight uploads discarded by crash-restarts.
    pub crash_discarded: u64,
    /// Results applied to the model.
    pub applied: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let plan = FaultPlan::chaos(42);
        for round in 0..50 {
            for worker in 0..10 {
                assert_eq!(
                    plan.drops_request(round, worker),
                    plan.drops_request(round, worker)
                );
                assert_eq!(
                    plan.result_fate(round, worker),
                    plan.result_fate(round, worker)
                );
            }
        }
        // A clone decides identically: no hidden state.
        let clone = plan.clone();
        assert_eq!(plan.result_fate(7, 3), clone.result_fate(7, 3));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::chaos(1);
        let b = FaultPlan::chaos(2);
        let differs = (0..200).any(|round| {
            (0..8).any(|worker| {
                a.drops_request(round, worker) != b.drops_request(round, worker)
                    || a.result_fate(round, worker) != b.result_fate(round, worker)
            })
        });
        assert!(differs, "seeds 1 and 2 produced identical schedules");
    }

    #[test]
    fn empirical_rates_match_configuration() {
        let plan = FaultPlan::chaos(7);
        let n = 100_000u64;
        let mut dropped_req = 0u64;
        let mut dropped = 0u64;
        let mut duplicated = 0u64;
        let mut delayed = 0u64;
        for round in 0..n / 10 {
            for worker in 0..10 {
                if plan.drops_request(round, worker) {
                    dropped_req += 1;
                }
                match plan.result_fate(round, worker) {
                    ResultFate::Drop => dropped += 1,
                    ResultFate::Duplicate => duplicated += 1,
                    ResultFate::Delay(r) => {
                        assert_eq!(r, 3);
                        delayed += 1;
                    }
                    ResultFate::Deliver => {}
                }
            }
        }
        let rate = |count: u64| count as f64 / n as f64;
        assert!(
            (rate(dropped_req) - 0.10).abs() < 0.01,
            "{}",
            rate(dropped_req)
        );
        assert!((rate(dropped) - 0.10).abs() < 0.01, "{}", rate(dropped));
        assert!(
            (rate(duplicated) - 0.05).abs() < 0.01,
            "{}",
            rate(duplicated)
        );
        assert!((rate(delayed) - 0.05).abs() < 0.01, "{}", rate(delayed));
    }

    #[test]
    fn zero_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert!(!FaultPlan::chaos(0).is_none());
        for round in 0..100 {
            assert!(plan.crashes_at(round).is_empty());
            for worker in 0..10 {
                assert!(!plan.drops_request(round, worker));
                assert_eq!(plan.result_fate(round, worker), ResultFate::Deliver);
            }
        }
    }

    #[test]
    fn crashes_fire_exactly_on_their_round() {
        let mut plan = FaultPlan::none();
        plan.crash_restarts = vec![(5, 2), (5, 1), (9, 0), (5, 2)];
        assert_eq!(plan.crashes_at(5), vec![1, 2]);
        assert_eq!(plan.crashes_at(9), vec![0]);
        assert!(plan.crashes_at(4).is_empty());
        assert!(plan.crashes_at(6).is_empty());
    }

    #[test]
    fn delay_of_zero_rounds_is_bumped_to_one() {
        let mut plan = FaultPlan::chaos(3);
        plan.delay_rounds = 0;
        let delayed = (0..500)
            .flat_map(|r| (0..8).map(move |w| (r, w)))
            .find_map(|(r, w)| match plan.result_fate(r, w) {
                ResultFate::Delay(rounds) => Some(rounds),
                _ => None,
            });
        assert_eq!(delayed, Some(1), "a zero-round delay would be a deliver");
    }
}
