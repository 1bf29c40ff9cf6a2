//! The asynchronous parameter server applying weighted worker gradients
//! (Eq. 3 of the paper), range-partitioned into shards with their own
//! clocks.
//!
//! # Shard layout
//!
//! The global model is one flat `Vec<f32>`, range-partitioned into
//! `num_shards` contiguous segments of near-equal length (the first
//! `len % num_shards` shards hold one extra element). Each shard owns a
//! pending buffer of scaled gradient segments and its own logical clock.
//!
//! # Apply schedule
//!
//! Each shard owns its apply trigger: its own pending buffer reaching `K`,
//! or an explicit [`ParameterServer::flush_shard`]. The shard clocks form a
//! *vector clock*, and staleness is defined **per shard** as the
//! applied-update count on that shard between the worker's read (the
//! [`crate::update::WorkerUpdate::read_clock`] snapshot) and its write:
//! `τ_s = clock_s − read_clock[s]`. Λ(τ_s) — and the dampening floor — are
//! evaluated per shard slice with the same clamp, via
//! [`crate::aggregator::Aggregator::scaling_factor_at`]. An update without
//! a read clock is weighed at its scalar staleness `τ = t − t_i` on every
//! shard. The global clock is a *round counter*: it advances on every K-th
//! submission, whatever the individual shards did, while
//! [`ParameterServer::shard_clocks`] carries the per-shard state.
//!
//! Without flushes every shard reaches `K` on the same submission, so every
//! shard clock equals the global clock, a coherent read clock gives every
//! slice the scalar staleness, and the shard count changes nothing
//! observable.
//!
//! # Determinism contract
//!
//! [`ParameterServer::submit`] splits each incoming gradient by shard range,
//! scales every element exactly once, and applies each shard's pending
//! buffer *in submission order*, element by element, visiting the shards in
//! order on the calling thread. Shards are disjoint ranges, so the
//! per-element sequence of floating-point operations is identical to the
//! single-shard loop. Without flushes, model parameters are therefore
//! **bit-for-bit identical for any shard count** (the workspace digest tests
//! sweep {1, 2, 8} shards, and ci.sh runs them under
//! `FLEET_NUM_THREADS=1/4/7`). Once flushes diverge the clocks the *shard
//! count is part of the semantics* (each shard slice carries its own τ), but
//! results remain a function of the shard count and the submission schedule
//! alone: applies are ordered on (shard, submission index) — never on
//! wall-clock arrival — and flushes are caller-ordered.

use crate::aggregator::{Aggregator, AggregatorState};
use crate::config::CoreConfig;
use crate::update::WorkerUpdate;

/// How shard applies are scheduled. There is one schedule (see the module
/// docs); the type stays only because the frozen benchmark names it, and it
/// goes in the next `[benchmark]` PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ApplyMode {
    /// Each shard applies on its own trigger (pending reaching K, or an
    /// explicit flush); staleness is evaluated per shard against the vector
    /// clock.
    #[default]
    PerShard,
}

/// The full mutable state of a [`ParameterServer`], exported as plain data
/// for checkpoint/restore (the byte encoding lives with the wire codec in
/// `fleet-server`). Configuration — learning rate, K, shard count — is
/// *not* part of the state: restore targets a server constructed
/// with the same configuration, and [`ParameterServer::restore_state`]
/// asserts the shapes agree.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterServerState {
    /// The flat model parameters.
    pub parameters: Vec<f32>,
    /// Per-shard pending buffers of scaled gradient segments, in shard order.
    pub shard_pending: Vec<Vec<Vec<f32>>>,
    /// Per-shard logical clocks (the vector clock), in shard order.
    pub shard_clocks: Vec<u64>,
    /// Per-shard applied-gradient counts, in shard order.
    pub shard_applied: Vec<u64>,
    /// Submissions since the last K-trigger (the global pending count).
    pub pending_count: usize,
    /// The global logical clock.
    pub clock: u64,
    /// Total gradients received.
    pub updates_received: u64,
    /// Per-shard staleness of the most recent submission.
    pub last_shard_staleness: Vec<u64>,
    /// Per-shard weights of the most recent submission.
    pub last_shard_weights: Vec<f32>,
    /// The aggregator's exported state.
    pub aggregator: AggregatorState,
}

/// Result of submitting one worker update to the [`ParameterServer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmitOutcome {
    /// The weight `min(1, Λ(τ)·1/sim)` that was attached to the gradient at
    /// the update's *scalar* staleness, as the aggregator computed it in f64.
    /// Each shard slice may carry a different weight (see
    /// [`ParameterServer::last_shard_weights`]); this field reports the
    /// scalar-staleness reference value.
    pub scaling_factor: f64,
    /// The f32 weight actually multiplied into the gradient (at the scalar
    /// staleness): the f64 `scaling_factor` cast to f32 and clamped at
    /// `f32::MIN_POSITIVE`, so the dampening floor survives the cast (an
    /// unclamped cast underflows to an exact 0.0 around staleness 10⁴,
    /// nullifying the gradient — precisely what the floor exists to
    /// prevent). Per-shard weights get the identical clamp.
    pub applied_weight: f32,
    /// Whether this submission triggered a model update: whether *any*
    /// shard applied on it.
    pub applied: bool,
    /// The server's global logical clock after the submission.
    pub clock: u64,
}

/// One range-partitioned shard: a contiguous segment of the flat parameter
/// vector, its pending buffer of scaled gradient segments, and its own
/// logical clock.
#[derive(Debug)]
struct Shard {
    /// First parameter index of the shard's range.
    start: usize,
    /// Number of parameters in the shard's range.
    len: usize,
    /// Scaled gradient segments awaiting the shard's apply trigger, in
    /// submission order.
    pending: Vec<Vec<f32>>,
    /// Number of model updates this shard has applied (the shard's entry in
    /// the vector clock).
    clock: u64,
    /// Number of gradient segments folded into this shard's range.
    applied: u64,
}

/// A parameter server holding the flat model parameters — range-partitioned
/// into shards — a global logical clock and an aggregation buffer of `K`
/// gradients per update (§2.3: `K` can be 1 for maximum update frequency, or
/// larger / time-window based). [`ParameterServer::new`] starts with a single
/// shard; [`ParameterServer::with_shards`] (or
/// [`ParameterServer::from_config`]) re-partitions it into shards with their
/// own pending buffers and clocks. See the module docs for the layout, the
/// apply schedule and the determinism contract.
#[derive(Debug)]
pub struct ParameterServer<A: Aggregator> {
    parameters: Vec<f32>,
    shards: Vec<Shard>,
    aggregator: A,
    learning_rate: f32,
    aggregation_k: usize,
    max_pending: usize,
    pending_count: usize,
    clock: u64,
    updates_received: u64,
    /// Per-shard staleness values attributed to the most recent submission.
    last_shard_staleness: Vec<u64>,
    /// Per-shard f32 weights applied to the most recent submission.
    last_shard_weights: Vec<f32>,
}

impl<A: Aggregator> ParameterServer<A> {
    /// Creates a server over an initial flat parameter vector, with a single
    /// shard.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not positive or `aggregation_k` is zero.
    pub fn new(
        initial_parameters: Vec<f32>,
        aggregator: A,
        learning_rate: f32,
        aggregation_k: usize,
    ) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        assert!(
            aggregation_k > 0,
            "aggregation parameter K must be positive"
        );
        let mut server = Self {
            parameters: initial_parameters,
            shards: Vec::new(),
            aggregator,
            learning_rate,
            aggregation_k,
            max_pending: 0,
            pending_count: 0,
            clock: 0,
            updates_received: 0,
            last_shard_staleness: Vec::new(),
            last_shard_weights: Vec::new(),
        };
        server.partition(1);
        server
    }

    /// Creates a server from a bundled [`CoreConfig`]. Validate it first
    /// with [`CoreConfig::validate`] to get a typed
    /// [`ConfigError`](crate::ConfigError) instead of the panics below.
    ///
    /// # Panics
    ///
    /// Panics if the config's learning rate is not positive or its `K` or
    /// shard count is zero.
    pub fn from_config(initial_parameters: Vec<f32>, aggregator: A, config: &CoreConfig) -> Self {
        Self::new(
            initial_parameters,
            aggregator,
            config.learning_rate,
            config.aggregation_k,
        )
        .with_shards(config.shards)
        .with_max_pending(config.max_pending)
    }

    /// Sets the backpressure bound on per-shard pending buffers (see
    /// [`CoreConfig::max_pending`]). `0` disables the bound.
    pub(crate) fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending;
        self
    }

    /// Re-partitions the parameters into `num_shards` near-equal contiguous
    /// ranges. Shard counts above the parameter length leave the excess
    /// shards empty (harmless no-ops). Without flushes the partition does
    /// not affect results — outputs are bit-for-bit identical for every
    /// shard count; once flushes diverge the clocks the shard count is part
    /// of the semantics (each shard carries its own τ).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or gradients are pending (re-partition
    /// before submitting, not mid-round).
    pub fn with_shards(mut self, num_shards: usize) -> Self {
        assert!(num_shards > 0, "shard count must be positive");
        assert!(
            !self.has_pending(),
            "cannot re-partition with pending gradients"
        );
        self.partition(num_shards);
        self
    }

    fn has_pending(&self) -> bool {
        self.pending_count != 0 || self.shards.iter().any(|s| !s.pending.is_empty())
    }

    fn partition(&mut self, num_shards: usize) {
        let len = self.parameters.len();
        let base = len / num_shards;
        let extra = len % num_shards;
        // Seed the new shards from the most advanced existing clock, not the
        // global one: the global clock is only a round counter, and a
        // flush-diverged shard may sit *above* it. Resetting
        // to the round counter would move the vector clock backwards, and a
        // worker holding a pre-partition read snapshot would then be
        // attributed spuriously fresh per-shard staleness (saturating_sub of
        // a regressed clock). Monotone-but-collapsed is the sound choice: a
        // re-partition redraws the shard boundaries, so the only staleness
        // every new shard can honestly inherit is the maximum any slice of
        // it may have reached.
        let clock = self
            .shards
            .iter()
            .map(|s| s.clock)
            .max()
            .unwrap_or(self.clock);
        let applied = self.updates_applied();
        self.shards.clear();
        let mut start = 0;
        for i in 0..num_shards {
            let shard_len = base + usize::from(i < extra);
            self.shards.push(Shard {
                start,
                len: shard_len,
                pending: Vec::new(),
                clock,
                applied,
            });
            start += shard_len;
        }
    }

    /// The current flat model parameters (what a worker pulls in step 4 of
    /// Fig. 2). Contiguous regardless of the shard count.
    pub fn parameters(&self) -> &[f32] {
        &self.parameters
    }

    /// The server's global logical clock `t`: a round counter that advances
    /// on every K-th submission, whatever the individual shards did.
    /// Without flushes it is also the number of model updates so far;
    /// [`Self::shard_clocks`] carries the per-shard state.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The apply schedule, which is always [`ApplyMode::PerShard`]. Kept
    /// only because the frozen benchmark calls it; it goes in the next
    /// `[benchmark]` PR.
    pub fn apply_mode(&self) -> ApplyMode {
        ApplyMode::PerShard
    }

    /// Number of shards the parameters are partitioned into.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The full vector clock, in shard order — what a worker snapshots at
    /// model-read time so the server can attribute per-shard staleness to
    /// its gradient. Without flushes every entry equals [`Self::clock`];
    /// flushes make the shards advance independently.
    pub fn shard_clocks(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.clock).collect()
    }

    /// The per-shard staleness values `τ_s` attributed to the most recent
    /// submission (empty before the first submission).
    pub fn last_shard_staleness(&self) -> &[u64] {
        &self.last_shard_staleness
    }

    /// The per-shard f32 weights applied to the most recent submission
    /// (empty before the first submission).
    pub fn last_shard_weights(&self) -> &[f32] {
        &self.last_shard_weights
    }

    /// Number of gradients that have been folded into the model on *every*
    /// shard — the fully-applied frontier. Without flushes all shards apply
    /// together, so this is simply the number of applied gradients; after a
    /// flush, a gradient applied on some shards but still pending on others
    /// does not count yet.
    pub fn updates_applied(&self) -> u64 {
        self.shards.iter().map(|s| s.applied).min().unwrap_or(0)
    }

    /// Every shard's pending-buffer depth, in shard order — the queue-depth
    /// signal telemetry sinks sample after each submission.
    pub fn shard_pending_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.pending.len()).collect()
    }

    /// Every shard's applied-gradient count, in shard order — the
    /// per-shard apply-rate signal for telemetry.
    pub fn shard_applied_counts(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.applied).collect()
    }

    /// The first shard whose pending buffer has reached the
    /// [`CoreConfig::max_pending`] bound, if any — the overload
    /// signal an admission layer turns into backpressure (shed the task now
    /// rather than queue a gradient the saturated shard cannot absorb).
    /// Always `None` when the bound is disabled.
    pub fn saturated_shard(&self) -> Option<usize> {
        if self.max_pending == 0 {
            return None;
        }
        self.shards
            .iter()
            .position(|s| s.pending.len() >= self.max_pending)
    }

    /// Exports the server's full mutable state (parameters, per-shard pending
    /// buffers and clocks, counters, aggregator state) for checkpointing.
    pub fn export_state(&self) -> ParameterServerState {
        ParameterServerState {
            parameters: self.parameters.clone(),
            shard_pending: self.shards.iter().map(|s| s.pending.clone()).collect(),
            shard_clocks: self.shards.iter().map(|s| s.clock).collect(),
            shard_applied: self.shards.iter().map(|s| s.applied).collect(),
            pending_count: self.pending_count,
            clock: self.clock,
            updates_received: self.updates_received,
            last_shard_staleness: self.last_shard_staleness.clone(),
            last_shard_weights: self.last_shard_weights.clone(),
            aggregator: self.aggregator.export_state(),
        }
    }

    /// Restores state captured with [`ParameterServer::export_state`] into a
    /// server constructed with the same configuration (learning rate, K,
    /// shard count). After the restore, every subsequent submission
    /// produces bit-for-bit the outputs the checkpointed server would have
    /// produced.
    ///
    /// # Panics
    ///
    /// Panics if the state's parameter length or shard count does not match
    /// this server's partition, or a pending segment's length does not match
    /// its shard's range.
    pub fn restore_state(&mut self, state: ParameterServerState) {
        assert_eq!(
            state.parameters.len(),
            self.parameters.len(),
            "checkpoint parameter length does not match the server's"
        );
        assert_eq!(
            state.shard_pending.len(),
            self.shards.len(),
            "checkpoint shard count does not match the server's partition"
        );
        assert_eq!(state.shard_clocks.len(), self.shards.len());
        assert_eq!(state.shard_applied.len(), self.shards.len());
        self.parameters = state.parameters;
        for (i, shard) in self.shards.iter_mut().enumerate() {
            for segment in &state.shard_pending[i] {
                assert_eq!(
                    segment.len(),
                    shard.len,
                    "pending segment length does not match shard {i}'s range"
                );
            }
            shard.pending = state.shard_pending[i].clone();
            shard.clock = state.shard_clocks[i];
            shard.applied = state.shard_applied[i];
        }
        self.pending_count = state.pending_count;
        self.clock = state.clock;
        self.updates_received = state.updates_received;
        self.last_shard_staleness = state.last_shard_staleness;
        self.last_shard_weights = state.last_shard_weights;
        self.aggregator.import_state(state.aggregator);
    }

    /// Access to the aggregator (e.g. to inspect `τ_thres`).
    pub fn aggregator(&self) -> &A {
        &self.aggregator
    }

    /// Submits one worker update. The gradient is split by shard range,
    /// scaled by its shard slice's weight and buffered per shard; each shard
    /// applies its pending run (in submission order) when its own pending
    /// count reaches K. See the module docs for the determinism contract.
    ///
    /// # Panics
    ///
    /// Panics if the gradient length differs from the parameter length, or
    /// if the update carries a [`WorkerUpdate::read_clock`] whose length
    /// differs from the shard count.
    pub fn submit(&mut self, update: WorkerUpdate) -> SubmitOutcome {
        assert_eq!(
            update.gradient.len(),
            self.parameters.len(),
            "gradient length {} does not match parameter length {}",
            update.gradient.len(),
            self.parameters.len()
        );
        let scaling = self.aggregator.scaling_factor(&update);
        // `DampeningPolicy::factor` floors the f64 weight at
        // `f64::MIN_POSITIVE`, but the floor dies in the f32 cast (anything
        // below f32's subnormal range becomes an exact 0.0). Clamp again
        // after the cast so extreme staleness keeps a nonzero weight.
        let weight = (scaling as f32).max(f32::MIN_POSITIVE);
        // Per-shard staleness and weights must be evaluated against the same
        // aggregator state as the scalar factor — i.e. *before* `record`
        // refreshes the staleness statistics and global label distribution —
        // or a coherent read clock would weigh differently from the scalar
        // staleness.
        let (taus, weights) = self.shard_staleness_weights(&update, weight);
        self.aggregator.record(&update);
        self.updates_received += 1;

        self.pending_count += 1;
        // The global clock is a deterministic round counter: it advances on
        // every K-th submission. Without flushes that is also every shard's
        // apply trigger, and the shard clocks advance with it.
        let round_complete = self.pending_count >= self.aggregation_k;
        let aggregation_k = self.aggregation_k;
        let applied = self
            .shards
            .iter()
            .any(|s| s.pending.len() + 1 >= aggregation_k);
        let learning_rate = self.learning_rate;
        // Each shard's share of the submission, in shard order. Applies are
        // ordered on (shard, submission index) — a shard's pending segments
        // drain in the order they were submitted — so without flushes the
        // result is bit-for-bit the single-shard run (the `shard` and
        // `chaos_l*` digests in the ci.sh sweep pin it; `pershard` and
        // `chaos_p*` pin the flushed schedule).
        for (shard, &weight) in self.shards.iter_mut().zip(&weights) {
            let range = shard.start..shard.start + shard.len;
            let segment = &mut self.parameters[range.clone()];
            let incoming = &update.gradient.as_slice()[range];
            if shard.pending.len() + 1 >= aggregation_k {
                // Drain the shard's pending run in submission order, then
                // fold the incoming gradient in directly: per element the op
                // sequence (scale, then scaled-subtract) is identical to
                // buffering it first, without allocating a segment that would
                // be freed immediately (on the default K = 1 hot path nothing
                // is ever buffered).
                for scaled in &shard.pending {
                    for (p, g) in segment.iter_mut().zip(scaled) {
                        *p -= learning_rate * g;
                    }
                }
                shard.applied += shard.pending.len() as u64 + 1;
                shard.pending.clear();
                for (p, g) in segment.iter_mut().zip(incoming) {
                    *p -= learning_rate * (g * weight);
                }
                shard.clock += 1;
            } else {
                shard
                    .pending
                    .push(incoming.iter().map(|g| g * weight).collect());
            }
        }
        if round_complete {
            self.pending_count = 0;
            self.clock += 1;
        }
        self.last_shard_staleness = taus;
        self.last_shard_weights = weights;
        SubmitOutcome {
            scaling_factor: scaling,
            applied_weight: weight,
            applied,
            clock: self.clock,
        }
    }

    /// Attributes a staleness `τ_s` and an Eq. 3 weight to every shard slice
    /// of `update`, against the current vector clock: `τ_s` is the number of
    /// updates shard `s` applied since the worker's read
    /// ([`WorkerUpdate::read_clock`]; a missing read clock falls back to the
    /// scalar staleness for every shard, so wire peers that predate vector
    /// clocks keep working). `scalar_weight` is the clamped weight at the
    /// update's scalar staleness, which any slice at that τ reuses. The
    /// weight gets the same post-cast clamp as the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if the update carries a read clock whose length differs from
    /// the shard count.
    fn shard_staleness_weights(
        &self,
        update: &WorkerUpdate,
        scalar_weight: f32,
    ) -> (Vec<u64>, Vec<f32>) {
        if let Some(read_clock) = update.read_clock.as_deref() {
            assert_eq!(
                read_clock.len(),
                self.shards.len(),
                "read clock length {} does not match shard count {}",
                read_clock.len(),
                self.shards.len()
            );
        }
        let mut taus = Vec::with_capacity(self.shards.len());
        let mut weights = Vec::with_capacity(self.shards.len());
        // Evaluate Λ(τ) once per *distinct* τ, not once per shard: for
        // AdaSGD a single evaluation computes the label similarity over every
        // class (and reads τ_thres off the staleness counts), so per-shard
        // calls would multiply that cost by the shard count. The cache starts
        // with the scalar staleness — `scaling_factor` is `scaling_factor_at`
        // the update's own staleness, same bits — so an undiverged submit
        // evaluates Λ once in all. Shard counts are small, so a linear scan
        // beats hashing.
        let mut distinct: Vec<(u64, f32)> = vec![(update.staleness, scalar_weight)];
        for (i, shard) in self.shards.iter().enumerate() {
            let tau = match update.read_clock.as_deref() {
                Some(read_clock) => shard.clock.saturating_sub(read_clock[i]),
                None => update.staleness,
            };
            let shard_weight = match distinct.iter().find(|(t, _)| *t == tau) {
                Some(&(_, w)) => w,
                None => {
                    let w = (self.aggregator.scaling_factor_at(update, tau) as f32)
                        .max(f32::MIN_POSITIVE);
                    distinct.push((tau, w));
                    w
                }
            };
            taus.push(tau);
            weights.push(shard_weight);
        }
        (taus, weights)
    }

    /// Applies one shard's pending run immediately (in submission order),
    /// without waiting for its pending buffer to reach K — the shard's
    /// second apply trigger. Advances the shard's clock when anything was
    /// pending; an empty flush is a no-op (the clock counts applied updates,
    /// not trigger attempts). Returns whether the shard applied anything.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn flush_shard(&mut self, shard: usize) -> bool {
        let learning_rate = self.learning_rate;
        let s = &mut self.shards[shard];
        if s.pending.is_empty() {
            return false;
        }
        let segment = &mut self.parameters[s.start..s.start + s.len];
        for scaled in &s.pending {
            for (p, g) in segment.iter_mut().zip(scaled) {
                *p -= learning_rate * g;
            }
        }
        s.applied += s.pending.len() as u64;
        s.pending.clear();
        s.clock += 1;
        true
    }

    /// Flushes every shard's pending run (see [`Self::flush_shard`]), in
    /// shard order. Returns the number of shards that applied anything.
    pub fn flush(&mut self) -> usize {
        (0..self.shards.len())
            .filter(|&i| self.flush_shard(i))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::{AdaSgd, DynSgd, FedAvg};
    use fleet_data::LabelDistribution;
    use fleet_ml::Gradient;
    use proptest::prelude::*;

    fn update(gradient: Vec<f32>, staleness: u64) -> WorkerUpdate {
        WorkerUpdate::new(
            Gradient::from_vec(gradient),
            staleness,
            LabelDistribution::uniform(4),
            10,
            0,
        )
    }

    #[test]
    fn k1_applies_immediately() {
        let mut server = ParameterServer::new(vec![1.0, 1.0], FedAvg::new(), 0.5, 1);
        let outcome = server.submit(update(vec![1.0, -1.0], 0));
        assert!(outcome.applied);
        assert_eq!(outcome.clock, 1);
        assert_eq!(server.parameters(), &[0.5, 1.5]);
    }

    #[test]
    fn k3_buffers_until_full() {
        let mut server = ParameterServer::new(vec![0.0], FedAvg::new(), 1.0, 3);
        assert!(!server.submit(update(vec![1.0], 0)).applied);
        assert!(!server.submit(update(vec![1.0], 0)).applied);
        assert_eq!(server.clock(), 0);
        assert_eq!(server.parameters(), &[0.0]);
        let third = server.submit(update(vec![1.0], 0));
        assert!(third.applied);
        assert_eq!(server.clock(), 1);
        assert_eq!(server.parameters(), &[-3.0]);
        assert_eq!(server.updates_applied(), 3);
        assert_eq!(server.updates_received, 3);
    }

    #[test]
    fn stale_gradients_are_dampened_by_dynsgd() {
        let mut server = ParameterServer::new(vec![0.0], DynSgd::new(), 1.0, 1);
        server.submit(update(vec![1.0], 9)); // weight 0.1
        assert!((server.parameters()[0] + 0.1).abs() < 1e-6);
    }

    #[test]
    fn adasgd_server_end_to_end() {
        let mut server = ParameterServer::new(vec![0.0, 0.0], AdaSgd::new(4, 99.7), 0.1, 1);
        for i in 0..50 {
            let outcome = server.submit(update(vec![0.5, -0.5], i % 5));
            assert!(outcome.applied);
            assert!(outcome.scaling_factor > 0.0 && outcome.scaling_factor <= 1.0);
        }
        assert_eq!(server.clock(), 50);
        // The parameters moved in the gradient-descent direction.
        assert!(server.parameters()[0] < 0.0);
        assert!(server.parameters()[1] > 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match parameter length")]
    fn mismatched_gradient_length_panics() {
        let mut server = ParameterServer::new(vec![0.0, 0.0], FedAvg::new(), 0.1, 1);
        server.submit(update(vec![1.0], 0));
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn non_positive_learning_rate_panics() {
        let _ = ParameterServer::new(vec![0.0], FedAvg::new(), 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "aggregation parameter K must be positive")]
    fn zero_k_panics() {
        let _ = ParameterServer::new(vec![0.0], FedAvg::new(), 0.1, 0);
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_panics() {
        let _ = ParameterServer::new(vec![0.0], FedAvg::new(), 0.1, 1).with_shards(0);
    }

    #[test]
    fn shard_ranges_partition_the_parameters() {
        for (len, shards) in [(10, 3), (7, 7), (5, 8), (1, 1), (64, 4)] {
            let server =
                ParameterServer::new(vec![0.0; len], FedAvg::new(), 0.1, 1).with_shards(shards);
            assert_eq!(server.num_shards(), shards);
            let ranges: Vec<_> = server
                .shards
                .iter()
                .map(|s| s.start..s.start + s.len)
                .collect();
            let mut next = 0;
            for range in &ranges {
                assert_eq!(range.start, next, "ranges must be contiguous");
                next = range.end;
            }
            assert_eq!(next, len, "ranges must cover every parameter");
            // Near-equal: lengths differ by at most one.
            let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let min = lens.iter().min().unwrap();
            let max = lens.iter().max().unwrap();
            assert!(max - min <= 1, "lens {lens:?}");
        }
    }

    #[test]
    fn shard_clocks_advance_in_lockstep_with_global_clock() {
        let mut server = ParameterServer::new(vec![0.0; 10], FedAvg::new(), 0.1, 2).with_shards(4);
        for i in 0..6 {
            server.submit(update(vec![0.1; 10], i));
        }
        assert_eq!(server.clock(), 3);
        assert_eq!(server.shard_clocks(), vec![3; 4]);
        // No read clock: every slice carries the scalar staleness.
        assert_eq!(server.last_shard_staleness(), &[5; 4]);
        assert_eq!(server.last_shard_weights(), &[1.0; 4]);
    }

    /// The acceptance criterion in miniature: identical submission sequences
    /// produce bit-for-bit identical parameters at every shard count.
    #[test]
    fn sharded_submit_matches_single_shard_reference() {
        let len = 37;
        let make = |shards: usize| {
            ParameterServer::new(
                (0..len).map(|i| (i as f32 * 0.37).sin()).collect(),
                DynSgd::new(),
                0.05,
                3,
            )
            .with_shards(shards)
        };
        for shards in [2, 8, 64] {
            let mut reference = make(1);
            let mut sharded = make(shards);
            for step in 0..12u64 {
                let gradient: Vec<f32> = (0..len)
                    .map(|i| ((i as f32 + step as f32) * 0.91).cos())
                    .collect();
                let a = reference.submit(update(gradient.clone(), step % 5));
                let b = sharded.submit(update(gradient, step % 5));
                assert_eq!(a, b);
                assert_eq!(
                    reference.parameters(),
                    sharded.parameters(),
                    "shards={shards} step={step}"
                );
            }
            assert_eq!(reference.clock(), sharded.clock());
            assert_eq!(reference.updates_applied(), sharded.updates_applied());
        }
    }

    /// Regression test for the dampening-floor underflow: at staleness
    /// ≈ 10_000 the exponential Λ(τ) underflows f64 (floored at
    /// `f64::MIN_POSITIVE` by `DampeningPolicy::factor`), and the old
    /// `scaled(scaling as f32)` cast turned that floor into an exact 0.0
    /// weight — nullifying the gradient the floor was meant to preserve.
    #[test]
    fn dampening_floor_survives_the_f32_cast() {
        let aggregator = AdaSgd::new(4, 99.7).with_fixed_tau_thres(12);
        let mut server = ParameterServer::new(vec![0.0, 0.0], aggregator, 1.0, 1);
        let outcome = server.submit(update(vec![1.0, -1.0], 10_000));
        // The f64 floor held, but an unclamped f32 cast of it is exactly 0.
        assert!(outcome.scaling_factor > 0.0);
        assert_eq!(outcome.scaling_factor as f32, 0.0);
        // The clamp keeps the applied weight (and the parameter trace) nonzero.
        assert!(outcome.applied_weight > 0.0);
        assert!(
            server.parameters()[0] < 0.0 && server.parameters()[1] > 0.0,
            "an extremely stale gradient must still leave a nonzero trace, got {:?}",
            server.parameters()
        );
    }

    /// The per-shard path gets the identical post-cast clamp, per slice: a
    /// shard whose τ_s underflows the f32 weight keeps `f32::MIN_POSITIVE`
    /// while a fresh shard keeps full weight.
    #[test]
    fn dampening_floor_survives_per_shard_too() {
        // Pinned τ_thres (no percentile sorting) and no boost, so the weight
        // is exactly Λ(τ_s) — which underflows the f32 cast around τ = 10⁴.
        let aggregator = AdaSgd::new(4, 99.7)
            .with_fixed_tau_thres(12)
            .without_similarity_boost();
        let mut server = ParameterServer::new(vec![0.0, 0.0], aggregator, 1.0, 1).with_shards(2);
        // Drive both shard clocks to 10_000 with zero gradients (K = 1: every
        // submission applies immediately on both shards).
        for _ in 0..10_000 {
            server.submit(update(vec![0.0, 0.0], 0).with_read_clock(server.shard_clocks()));
        }
        assert_eq!(server.shard_clocks(), vec![10_000, 10_000]);
        // A worker whose read of shard 0 is 10_000 updates old while its read
        // of shard 1 is current: τ = [10_000, 0].
        let stale = update(vec![1.0, -1.0], 0).with_read_clock(vec![0, 10_000]);
        let raw = server.aggregator().scaling_factor_at(&stale, 10_000);
        assert!(raw > 0.0 && raw as f32 == 0.0, "cast must underflow");
        server.submit(stale);
        assert_eq!(server.last_shard_staleness(), &[10_000, 0]);
        assert_eq!(
            server.last_shard_weights(),
            &[f32::MIN_POSITIVE, 1.0],
            "the floor must survive the cast on the stale shard slice"
        );
        // The extremely stale slice still leaves a (tiny) nonzero trace.
        assert!(server.parameters()[0] < 0.0);
        assert_eq!(server.parameters()[1], 1.0);
    }

    #[test]
    fn fresh_updates_keep_full_weight_after_the_clamp() {
        let mut server = ParameterServer::new(vec![0.0], FedAvg::new(), 1.0, 1);
        let outcome = server.submit(update(vec![1.0], 0));
        assert_eq!(outcome.applied_weight, 1.0);
    }

    /// Without clock divergence (no flushes) a coherent read clock weighs
    /// exactly as the scalar staleness, bit for bit: every shard's τ_s
    /// equals it, so every slice gets the identical weight. The `lockstep`
    /// reference is the same server fed no read clock, which weighs every
    /// shard at the one scalar staleness.
    #[test]
    fn per_shard_without_divergence_matches_lockstep_bitwise() {
        let len = 41;
        let init: Vec<f32> = (0..len).map(|i| (i as f32 * 0.23).sin()).collect();
        for k in [1usize, 3] {
            let mut scalar =
                ParameterServer::new(init.clone(), DynSgd::new(), 0.05, k).with_shards(4);
            let mut per_shard =
                ParameterServer::new(init.clone(), DynSgd::new(), 0.05, k).with_shards(4);
            for step in 0..12u64 {
                let gradient: Vec<f32> = (0..len)
                    .map(|i| ((i as f32 + step as f32) * 0.7).cos())
                    .collect();
                // Clamp like the simulation planner: a worker cannot have
                // read a model more updates old than have happened.
                let staleness = (step % 4).min(scalar.clock());
                // The read clock is coherent: every entry lags by the scalar
                // staleness.
                let read_clock: Vec<u64> = per_shard
                    .shard_clocks()
                    .iter()
                    .map(|c| c - staleness)
                    .collect();
                let a = scalar.submit(update(gradient.clone(), staleness));
                let b = per_shard.submit(update(gradient, staleness).with_read_clock(read_clock));
                assert_eq!(a, b, "k={k} step={step}");
                assert_eq!(scalar.parameters(), per_shard.parameters());
                assert_eq!(
                    scalar.last_shard_staleness(),
                    per_shard.last_shard_staleness()
                );
                assert_eq!(scalar.last_shard_weights(), per_shard.last_shard_weights());
            }
            assert_eq!(scalar.updates_applied(), per_shard.updates_applied());
        }
    }

    /// Counts `scaling_factor_at` calls (Λ evaluations) of a wrapped
    /// `DynSgd`.
    #[derive(Debug, Default)]
    struct CountingDynSgd {
        inner: DynSgd,
        calls: std::cell::Cell<usize>,
    }

    impl Aggregator for CountingDynSgd {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn scaling_factor_at(&self, update: &WorkerUpdate, staleness: u64) -> f64 {
            self.calls.set(self.calls.get() + 1);
            self.inner.scaling_factor_at(update, staleness)
        }

        fn record(&mut self, update: &WorkerUpdate) {
            self.inner.record(update);
        }
    }

    /// An undiverged submit evaluates Λ once, not once for the scalar
    /// factor and once more for the shard slices — with or without a
    /// coherent read clock.
    #[test]
    fn undiverged_submit_evaluates_lambda_once() {
        let mut server =
            ParameterServer::new(vec![0.0; 8], CountingDynSgd::default(), 0.1, 1).with_shards(4);
        server.submit(update(vec![1.0; 8], 0));
        assert_eq!(server.aggregator().calls.get(), 1, "no read clock");
        let read_clock = server.shard_clocks().iter().map(|c| c - 1).collect();
        server.submit(update(vec![1.0; 8], 1).with_read_clock(read_clock));
        assert_eq!(server.aggregator().calls.get(), 2, "coherent read clock");
        assert_eq!(server.last_shard_weights(), &[0.5; 4]);
    }

    /// A diverged submit evaluates Λ once per distinct τ: the scalar one,
    /// shared by the shards that did not move, plus the flushed shard's.
    #[test]
    fn diverged_submit_evaluates_lambda_once_per_distinct_tau() {
        let mut server =
            ParameterServer::new(vec![0.0; 8], CountingDynSgd::default(), 1.0, 2).with_shards(4);
        server.submit(update(vec![1.0; 8], 0).with_read_clock(vec![0; 4]));
        assert!(server.flush_shard(0));
        assert_eq!(server.shard_clocks(), vec![1, 0, 0, 0]);
        let calls = server.aggregator().calls.get();
        server.submit(update(vec![1.0; 8], 0).with_read_clock(vec![0; 4]));
        assert_eq!(server.aggregator().calls.get() - calls, 2);
        assert_eq!(server.last_shard_staleness(), &[1, 0, 0, 0]);
        assert_eq!(server.last_shard_weights(), &[0.5, 1.0, 1.0, 1.0]);
    }

    /// The scripted-divergence core of the per-shard semantics: flushing one
    /// shard twice makes the vector clock diverge by 2, and a subsequent
    /// submission is weighted per shard — exact values asserted.
    #[test]
    fn flushes_diverge_shard_clocks_and_staleness() {
        let mut server = ParameterServer::new(vec![0.0; 2], DynSgd::new(), 1.0, 3).with_shards(2);

        // Two submissions, flushing shard 0 after each: shard 0 applies each
        // buffered segment immediately, shard 1 keeps buffering.
        server.submit(update(vec![1.0, 1.0], 0).with_read_clock(vec![0, 0]));
        assert!(server.flush_shard(0));
        server.submit(update(vec![1.0, 1.0], 0).with_read_clock(vec![0, 0]));
        assert!(server.flush_shard(0));
        assert_eq!(server.shard_clocks(), vec![2, 0], "diverged by 2 ticks");

        // The second submission already saw the divergence: shard 0 had
        // applied once since the read, shard 1 had not.
        assert_eq!(server.last_shard_staleness(), &[1, 0]);
        assert_eq!(server.last_shard_weights(), &[0.5, 1.0]);

        // A third submission against the same read snapshot: shard 0 is two
        // updates ahead (τ=2, weight 1/3), shard 1 still fresh (τ=0, weight
        // 1) — and it is the K=3rd pending on shard 1, which applies.
        let outcome = server.submit(update(vec![1.0, 1.0], 0).with_read_clock(vec![0, 0]));
        assert_eq!(server.last_shard_staleness(), &[2, 0]);
        assert_eq!(
            server.last_shard_weights(),
            &[(1.0f64 / 3.0) as f32, 1.0],
            "DynSGD per-shard weights must be exactly 1/(τ_s+1)"
        );
        assert!(outcome.applied, "shard 1 reached K on this submission");
        assert_eq!(server.shard_clocks(), vec![2, 1]);
        // Shard 1 applied its three buffered segments at weight 1 each
        // (lr=1): parameter trace is exactly -3. Shard 0 applied the first at
        // weight 1 and the second at weight 1/2 via the flushes; the third is
        // pending (weight 1/3).
        assert_eq!(server.parameters()[1], -3.0);
        assert_eq!(server.parameters()[0], -1.5);
        assert_eq!(server.updates_applied(), 2, "fully-applied frontier");

        // An explicit flush drains shard 0's remaining pending segment.
        assert_eq!(server.flush(), 1);
        assert_eq!(server.shard_clocks(), vec![3, 1]);
        assert_eq!(server.parameters()[0], -1.5 - (1.0f64 / 3.0) as f32);
        assert_eq!(server.updates_applied(), 3);
        // Flushing with nothing pending is a no-op.
        assert_eq!(server.flush(), 0);
        assert_eq!(server.shard_clocks(), vec![3, 1]);
    }

    #[test]
    #[should_panic(expected = "read clock length")]
    fn mismatched_read_clock_panics() {
        let mut server = ParameterServer::new(vec![0.0; 4], FedAvg::new(), 0.1, 1).with_shards(2);
        server.submit(update(vec![0.0; 4], 0).with_read_clock(vec![0, 0, 0]));
    }

    #[test]
    fn from_config_wires_every_knob() {
        let config = CoreConfig {
            learning_rate: 0.25,
            aggregation_k: 2,
            shards: 3,
            max_pending: 5,
        };
        config.validate().expect("valid config");
        let server = ParameterServer::from_config(vec![0.0; 9], FedAvg::new(), &config);
        assert_eq!(server.learning_rate, 0.25);
        assert_eq!(server.num_shards(), 3);
        assert_eq!(server.apply_mode(), ApplyMode::PerShard);
        assert_eq!(server.max_pending, 5);
    }

    /// A missing read clock falls back to the scalar staleness on every
    /// shard (wire peers predating vector clocks).
    #[test]
    fn missing_read_clock_falls_back_to_scalar_staleness() {
        let mut server = ParameterServer::new(vec![0.0; 4], DynSgd::new(), 1.0, 1).with_shards(2);
        server.submit(update(vec![1.0; 4], 9));
        assert_eq!(server.last_shard_staleness(), &[9, 9]);
        assert_eq!(server.last_shard_weights(), &[0.1, 0.1]);
    }

    #[test]
    fn saturation_reports_the_full_pending_buffer() {
        let mut server =
            ParameterServer::new(vec![0.0; 4], FedAvg::new(), 1.0, 3).with_max_pending(2);
        assert_eq!(server.saturated_shard(), None);
        server.submit(update(vec![1.0; 4], 0));
        assert_eq!(server.saturated_shard(), None);
        server.submit(update(vec![1.0; 4], 0));
        assert_eq!(server.saturated_shard(), Some(0));
        assert_eq!(server.shard_pending_depths(), vec![2]);
        // The third submission reaches K and drains the buffer.
        server.submit(update(vec![1.0; 4], 0));
        assert_eq!(server.saturated_shard(), None);
        assert_eq!(server.shard_pending_depths(), vec![0]);
    }

    #[test]
    fn unbounded_server_never_saturates() {
        let mut server = ParameterServer::new(vec![0.0; 2], FedAvg::new(), 1.0, 100);
        for _ in 0..50 {
            server.submit(update(vec![1.0; 2], 0));
        }
        assert_eq!(server.max_pending, 0);
        assert_eq!(server.saturated_shard(), None);
    }

    /// Exporting state mid-round (pending buffers non-empty, clocks diverged)
    /// and restoring it into a fresh server reproduces the remainder of the
    /// run bit for bit.
    #[test]
    fn state_roundtrip_resumes_bitwise() {
        let config = CoreConfig {
            learning_rate: 0.5,
            aggregation_k: 3,
            shards: 3,
            max_pending: 0,
        };
        config.validate().expect("valid config");
        let build = || ParameterServer::from_config(vec![0.1; 7], AdaSgd::new(4, 99.0), &config);
        let updates: Vec<WorkerUpdate> = (0..11)
            .map(|i| update(vec![(i as f32 * 0.3).sin(); 7], i % 4))
            .collect();

        // Uninterrupted reference run.
        let mut reference = build();
        for u in &updates {
            reference.submit(u.clone().with_read_clock(reference.shard_clocks()));
        }
        reference.flush_shard(1);
        for u in &updates {
            reference.submit(u.clone().with_read_clock(reference.shard_clocks()));
        }

        // Interrupted run: checkpoint mid-stream, restore into a new server.
        let mut first = build();
        for u in &updates {
            first.submit(u.clone().with_read_clock(first.shard_clocks()));
        }
        first.flush_shard(1);
        let state = first.export_state();
        assert!(state.shard_pending.iter().any(|p| !p.is_empty()));
        drop(first);
        let mut resumed = build();
        resumed.restore_state(state);
        for u in &updates {
            resumed.submit(u.clone().with_read_clock(resumed.shard_clocks()));
        }

        assert_eq!(
            reference
                .parameters()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>(),
            resumed
                .parameters()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(reference.shard_clocks(), resumed.shard_clocks());
        assert_eq!(reference.updates_received, resumed.updates_received);
        assert_eq!(reference.updates_applied(), resumed.updates_applied());
        assert_eq!(reference.export_state(), resumed.export_state());
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn restore_rejects_mismatched_partition() {
        let server = ParameterServer::new(vec![0.0; 4], FedAvg::new(), 1.0, 1).with_shards(2);
        let state = server.export_state();
        let mut other = ParameterServer::new(vec![0.0; 4], FedAvg::new(), 1.0, 1).with_shards(4);
        other.restore_state(state);
    }

    proptest! {
        /// Bit-for-bit equivalence of the sharded submit against the
        /// single-shard reference, over random models, K, shard counts and
        /// staleness sequences.
        #[test]
        fn prop_sharded_submit_is_bitwise_equivalent(
            len in 1usize..80,
            shards in 1usize..12,
            k in 1usize..5,
            seeds in proptest::collection::vec((0u64..50, -2.0f32..2.0), 1..20),
        ) {
            let init: Vec<f32> = (0..len).map(|i| (i as f32 * 0.11).cos()).collect();
            let mut reference = ParameterServer::new(init.clone(), DynSgd::new(), 0.1, k);
            let mut sharded =
                ParameterServer::new(init, DynSgd::new(), 0.1, k).with_shards(shards);
            for &(staleness, scale) in &seeds {
                let gradient: Vec<f32> =
                    (0..len).map(|i| scale * ((i as f32) * 0.7).sin()).collect();
                let a = reference.submit(update(gradient.clone(), staleness));
                let b = sharded.submit(update(gradient, staleness));
                prop_assert_eq!(a, b);
                prop_assert_eq!(reference.parameters(), sharded.parameters());
            }
        }

        /// A coherent (undiverged) read clock weighs exactly as the scalar
        /// staleness, which a server fed no read clock uses on every shard
        /// — bit for bit, over random schedules.
        #[test]
        fn prop_per_shard_coherent_reads_match_lockstep(
            len in 1usize..60,
            shards in 1usize..8,
            k in 1usize..4,
            seeds in proptest::collection::vec((0u64..20, -1.0f32..1.0), 1..16),
        ) {
            let init: Vec<f32> = (0..len).map(|i| (i as f32 * 0.19).cos()).collect();
            let mut scalar =
                ParameterServer::new(init.clone(), DynSgd::new(), 0.1, k).with_shards(shards);
            let mut per_shard =
                ParameterServer::new(init, DynSgd::new(), 0.1, k).with_shards(shards);
            for &(staleness, scale) in &seeds {
                let gradient: Vec<f32> =
                    (0..len).map(|i| scale * ((i as f32) * 0.5).sin()).collect();
                // Clamp like the simulation planner: staleness cannot exceed
                // the number of updates that have happened.
                let staleness = staleness.min(scalar.clock());
                let read_clock: Vec<u64> = per_shard
                    .shard_clocks()
                    .iter()
                    .map(|c| c - staleness)
                    .collect();
                let a = scalar.submit(update(gradient.clone(), staleness));
                let b = per_shard.submit(update(gradient, staleness).with_read_clock(read_clock));
                prop_assert_eq!(a, b);
                prop_assert_eq!(scalar.parameters(), per_shard.parameters());
                prop_assert_eq!(scalar.last_shard_weights(), per_shard.last_shard_weights());
            }
        }
    }
}
