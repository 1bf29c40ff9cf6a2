//! Controlled-staleness asynchronous training simulation (§3.2).
//!
//! The paper evaluates AdaSGD against DynSGD/FedAvg/SSGD by *controlling* the
//! staleness of worker updates: each gradient applied at global step `t` with
//! staleness `τ` was computed against the model as it was at step `t − τ`,
//! where `τ` is drawn from a Gaussian (D1 = N(6,2), D2 = N(12,4)) or forced
//! for specific classes (the long-tail experiment of Fig. 9). The simulation
//! keeps a bounded history of past model versions so the gradient can be
//! computed against exactly the right snapshot.
//!
//! # Fault injection
//!
//! A [`FaultPlan`] on the config turns the simulation into a deterministic
//! chaos harness: requests are dropped before the worker computes, uploaded
//! results are dropped, duplicated or delayed (stragglers), and workers
//! crash-restart, losing their in-flight uploads. Every planned task carries
//! a server-issued lease in a [`TaskTable`]; results ship through the v3 wire
//! codec with their task id and are classified on delivery — duplicates and
//! expired leases never touch the model. Fault decisions are pure hashes of
//! `(seed, round, worker)`, so they consume no RNG stream: a run under
//! [`FaultPlan::none`] is byte-identical to a run without the fault layer,
//! and a faulty run is bit-stable across thread counts.

use crate::faults::{FaultPlan, FaultStats, ResultFate};
use bytes::Bytes;
use fleet_core::{Aggregator, ConfigError, CoreConfig, ParameterServer, WorkerUpdate};
use fleet_data::partition::UserPartition;
use fleet_data::sampling::MiniBatchSampler;
use fleet_data::{Dataset, LabelDistribution};
use fleet_dp::GaussianMechanism;
use fleet_ml::metrics::{accuracy, class_accuracy};
use fleet_ml::Sequential;
use fleet_server::protocol::{ResultDisposition, TaskResult};
use fleet_server::{wire, TaskTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Distribution the per-update staleness is drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StalenessDistribution {
    /// No staleness (the synchronous SSGD baseline).
    None,
    /// A fixed staleness for every update.
    Constant(u64),
    /// Gaussian staleness (rounded and clamped at zero), the paper's D1/D2.
    Gaussian {
        /// Mean staleness μ.
        mean: f64,
        /// Standard deviation σ.
        std: f64,
    },
}

impl StalenessDistribution {
    /// The paper's D1 = N(6, 2).
    pub fn d1() -> Self {
        StalenessDistribution::Gaussian {
            mean: 6.0,
            std: 2.0,
        }
    }

    /// The paper's D2 = N(12, 4).
    pub fn d2() -> Self {
        StalenessDistribution::Gaussian {
            mean: 12.0,
            std: 4.0,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            StalenessDistribution::None => 0,
            StalenessDistribution::Constant(v) => v,
            StalenessDistribution::Gaussian { mean, std } => {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (mean + std * z).round().max(0.0) as u64
            }
        }
    }
}

/// Configuration of one asynchronous training run.
///
/// The learning-rate / K / shards cluster lives in the embedded
/// [`CoreConfig`] (shared with the FLeet server);
/// [`SimulationConfig::builder`] flattens those knobs. The engine ignores
/// `core.max_pending` — the simulation has no admission layer to shed load.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// The shared core knobs: learning rate γ, aggregation parameter K and
    /// shard count.
    pub core: CoreConfig,
    /// Number of global model updates (steps).
    pub steps: usize,
    /// Mini-batch size per learning task (the paper uses 100).
    pub batch_size: usize,
    /// Staleness distribution of worker updates.
    pub staleness: StalenessDistribution,
    /// Forces the staleness of every task whose mini-batch contains the given
    /// class to the given value (the Fig. 9 long-tail straggler setup).
    pub class_straggler: Option<(usize, u64)>,
    /// Differential-privacy noise: `(clip_norm, noise_multiplier)`; `None`
    /// disables the Gaussian mechanism.
    pub dp: Option<(f32, f32)>,
    /// Evaluate the model on the test set every this many steps.
    pub eval_every: usize,
    /// Number of test examples used per evaluation (caps evaluation cost).
    pub eval_examples: usize,
    /// Track the accuracy of this class separately (Fig. 9a).
    pub track_class: Option<usize>,
    /// Flush one shard (round-robin) after the first submission of every
    /// `flush_every`-th round — a deterministic stand-in for the divergent
    /// shard cadences a deployed scheduler would produce under uneven load,
    /// which is what makes the vector clock actually diverge in a simulation
    /// whose submissions all span the full model. Workers echo their read
    /// vector clock if and only if this is nonzero: without flushes the
    /// planned staleness, counted in rounds, is the experiment's control
    /// variable, and under faults the vector clock (which counts applies)
    /// would disagree with it. `0` disables. Needs `aggregation_k ≥ 2` to
    /// have any effect on the model (with K = 1 nothing is ever pending to
    /// flush).
    pub flush_every: usize,
    /// The fault-injection schedule. `FaultPlan::none()` (the default) is
    /// byte-identical to running without the fault layer; fault decisions
    /// are stateless hashes, so they never perturb the RNG streams.
    pub faults: FaultPlan,
    /// RNG seed for user selection, mini-batch sampling and staleness.
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            core: CoreConfig::default(),
            steps: 500,
            batch_size: 100,
            staleness: StalenessDistribution::d1(),
            class_straggler: None,
            dp: None,
            eval_every: 50,
            eval_examples: 512,
            track_class: None,
            flush_every: 0,
            faults: FaultPlan::none(),
            seed: 0,
        }
    }
}

impl SimulationConfig {
    /// A builder over the defaults.
    pub fn builder() -> SimulationConfigBuilder {
        SimulationConfigBuilder {
            config: SimulationConfig::default(),
        }
    }

    /// Checks the combined invariants (core cluster plus the simulation
    /// knobs) and returns the first violation.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        self.core.validate()?;
        if self.steps == 0 {
            return Err(ConfigError::ZeroSteps);
        }
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if self.eval_every == 0 {
            return Err(ConfigError::ZeroEvalEvery);
        }
        Ok(())
    }
}

/// Builder for [`SimulationConfig`]; `build` validates and returns a typed
/// [`ConfigError`]. The core-cluster setters (`learning_rate`,
/// `aggregation_k`, `shards`) are flattened into this builder.
#[derive(Debug, Clone)]
pub struct SimulationConfigBuilder {
    config: SimulationConfig,
}

impl SimulationConfigBuilder {
    /// Sets the learning rate γ.
    pub fn learning_rate(mut self, value: f32) -> Self {
        self.config.core.learning_rate = value;
        self
    }

    /// Sets the aggregation parameter K.
    pub fn aggregation_k(mut self, value: usize) -> Self {
        self.config.core.aggregation_k = value;
        self
    }

    /// Sets the parameter-server shard count.
    pub fn shards(mut self, value: usize) -> Self {
        self.config.core.shards = value;
        self
    }

    /// Sets the number of global steps.
    pub fn steps(mut self, value: usize) -> Self {
        self.config.steps = value;
        self
    }

    /// Sets the mini-batch size per learning task.
    pub fn batch_size(mut self, value: usize) -> Self {
        self.config.batch_size = value;
        self
    }

    /// Sets the staleness distribution of worker updates.
    pub fn staleness(mut self, value: StalenessDistribution) -> Self {
        self.config.staleness = value;
        self
    }

    /// Forces the staleness of tasks containing `class` to `staleness`.
    pub fn class_straggler(mut self, class: usize, staleness: u64) -> Self {
        self.config.class_straggler = Some((class, staleness));
        self
    }

    /// Enables the Gaussian DP mechanism with `(clip_norm, noise_multiplier)`.
    pub fn dp(mut self, clip_norm: f32, noise_multiplier: f32) -> Self {
        self.config.dp = Some((clip_norm, noise_multiplier));
        self
    }

    /// Sets the evaluation cadence in steps.
    pub fn eval_every(mut self, value: usize) -> Self {
        self.config.eval_every = value;
        self
    }

    /// Caps the number of test examples per evaluation.
    pub fn eval_examples(mut self, value: usize) -> Self {
        self.config.eval_examples = value;
        self
    }

    /// Tracks the accuracy of one class separately.
    pub fn track_class(mut self, class: usize) -> Self {
        self.config.track_class = Some(class);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, value: u64) -> Self {
        self.config.seed = value;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<SimulationConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// One evaluation point of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// Global step at which the evaluation happened.
    pub step: usize,
    /// Top-1 accuracy on the (capped) test set.
    pub accuracy: f32,
    /// Accuracy restricted to the tracked class, if configured.
    pub class_accuracy: Option<f32>,
}

/// The result of a training run.
///
/// `PartialEq` compares bit-for-bit (accuracies and scaling factors), which
/// is what the reproducibility tests rely on: two runs with the same seed
/// must produce equal histories, parallel or not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingHistory {
    /// Name of the aggregation algorithm that produced this history.
    pub algorithm: &'static str,
    /// Evaluation points, in step order.
    pub evals: Vec<EvalPoint>,
    /// The weight attached to every applied gradient, in submission order.
    pub scaling_factors: Vec<f64>,
    /// What the fault plan injected and how deliveries were classified.
    /// All-zero except `applied` under `FaultPlan::none()`.
    pub faults: FaultStats,
}

impl TrainingHistory {
    /// The last recorded accuracy (0.0 when no evaluation happened).
    pub fn final_accuracy(&self) -> f32 {
        self.evals.last().map(|e| e.accuracy).unwrap_or(0.0)
    }

    /// The first step at which the accuracy reached `target`, if any.
    pub fn steps_to_accuracy(&self, target: f32) -> Option<usize> {
        self.evals
            .iter()
            .find(|e| e.accuracy >= target)
            .map(|e| e.step)
    }

    /// The best accuracy observed during the run.
    pub fn best_accuracy(&self) -> f32 {
        self.evals.iter().map(|e| e.accuracy).fold(0.0, f32::max)
    }
}

/// One pre-sampled worker task of an aggregation round: everything phase 2
/// needs to compute the gradient without touching the (serial) RNG streams.
#[derive(Debug)]
struct PlannedTask {
    user: usize,
    inputs: fleet_ml::Tensor,
    labels: Vec<usize>,
    staleness: u64,
    snapshot_index: usize,
    /// The leased task id; `None` when the fault plan dropped the request
    /// (the worker never received an assignment that round).
    task_id: Option<u64>,
}

/// A result held back by the fault plan, delivered at a later round start.
#[derive(Debug)]
struct DelayedResult {
    due_step: u64,
    seq: u64,
    worker: u64,
    bytes: Bytes,
}

/// The asynchronous training simulation engine.
#[derive(Debug)]
pub struct AsyncSimulation<'a> {
    train: &'a Dataset,
    test: &'a Dataset,
    users: &'a UserPartition,
    config: SimulationConfig,
}

/// The mutable state of a run in flight (see the phase comments in
/// [`Engine::round`]).
struct Engine<'s, 'a, A: Aggregator> {
    sim: &'s AsyncSimulation<'a>,
    rng: StdRng,
    sampler: MiniBatchSampler,
    dp: Option<GaussianMechanism>,
    server: ParameterServer<A>,
    ship_read_clock: bool,
    max_history: usize,
    history: VecDeque<Vec<f32>>,
    clock_history: VecDeque<Vec<u64>>,
    tasks_table: TaskTable,
    delayed: Vec<DelayedResult>,
    next_seq: u64,
    result: TrainingHistory,
    eval_inputs: fleet_ml::Tensor,
    eval_labels: Vec<usize>,
}

impl<'s, 'a, A: Aggregator> Engine<'s, 'a, A> {
    fn new(sim: &'s AsyncSimulation<'a>, model: &Sequential, aggregator: A) -> Self {
        let cfg = &sim.config;
        let algorithm = aggregator.name();
        let server = ParameterServer::new(
            model.parameters(),
            aggregator,
            cfg.core.learning_rate,
            cfg.core.aggregation_k,
        )
        .with_shards(cfg.core.shards.max(1));
        let ship_read_clock = cfg.flush_every > 0;

        // Bounded history of past parameter snapshots; index 0 is the oldest.
        let max_history = sim.max_history();
        let mut history: VecDeque<Vec<f32>> = VecDeque::with_capacity(max_history);
        history.push_back(server.parameters().to_vec());
        // With flushes, the shard vector clock at each snapshot — what a
        // worker pulling that snapshot observed, kept index-aligned with
        // `history` so the read clock ships with the gradient.
        let mut clock_history: VecDeque<Vec<u64>> = VecDeque::new();
        if ship_read_clock {
            clock_history.push_back(server.shard_clocks());
        }

        let (eval_inputs, eval_labels) = sim.eval_batch();
        Self {
            sim,
            rng: StdRng::seed_from_u64(cfg.seed),
            sampler: MiniBatchSampler::new(cfg.seed.wrapping_add(1)),
            dp: cfg
                .dp
                .map(|(clip, sigma)| GaussianMechanism::new(clip, sigma, cfg.seed.wrapping_add(2))),
            server,
            ship_read_clock,
            max_history,
            history,
            clock_history,
            tasks_table: TaskTable::new(),
            delayed: Vec::new(),
            next_seq: 0,
            result: TrainingHistory {
                algorithm,
                ..TrainingHistory::default()
            },
            eval_inputs,
            eval_labels,
        }
    }

    /// Delivers one encoded result to the server: decode, classify against
    /// the lease table, and submit only `Applied` results. Duplicates and
    /// expired leases bump their counters and never touch the model.
    fn deliver(&mut self, bytes: Bytes, was_delayed: bool) {
        let decoded =
            wire::decode_result(bytes).expect("self-encoded worker results always decode");
        let task_id = decoded
            .task_id
            .expect("simulation results always carry a task id");
        match self.tasks_table.classify(task_id, decoded.worker_id) {
            ResultDisposition::Applied => {
                // Staleness as the server derives it in the real protocol:
                // clock now minus the model version the gradient was computed
                // on. For immediate deliveries within a round the clock is
                // constant (the model only updates on the round's last
                // submission), so this equals the planned staleness exactly;
                // delayed deliveries naturally pick up the rounds they spent
                // in flight.
                let staleness = self.server.clock() - decoded.model_version;
                let mut update = WorkerUpdate::new(
                    decoded.gradient,
                    staleness,
                    decoded.label_distribution,
                    decoded.num_samples,
                    decoded.worker_id,
                );
                update.read_clock = decoded.read_clock;
                let outcome = self.server.submit(update);
                self.result.scaling_factors.push(outcome.scaling_factor);
                self.result.faults.applied += 1;
                if was_delayed {
                    self.result.faults.delayed_delivered += 1;
                }
            }
            ResultDisposition::Duplicate => self.result.faults.duplicates_rejected += 1,
            ResultDisposition::Expired => self.result.faults.expired_rejected += 1,
            // The simulation only replays results it leased itself, so this
            // arm is unreachable in practice; counting keeps it honest.
            _ => self.result.faults.expired_rejected += 1,
        }
    }

    /// Runs one aggregation round (global step).
    fn round(&mut self, model: &mut Sequential, step: usize) {
        let cfg = &self.sim.config;
        let plan = &cfg.faults;
        let round = step as u64;

        // Phase 0 — the fault preamble. Skipped entirely under a fault-free
        // plan (nothing can be queued or expire), keeping the fast path
        // byte-identical to the pre-fault engine.
        if !plan.is_none() {
            // Deliver due delayed results in (due round, send order).
            self.delayed.sort_by_key(|d| (d.due_step, d.seq));
            let split = self.delayed.partition_point(|d| d.due_step <= round);
            let due: Vec<DelayedResult> = self.delayed.drain(..split).collect();
            for d in due {
                self.deliver(d.bytes, true);
            }
            // Crash-restarts: the worker loses whatever it still had in
            // flight, then rejoins immediately.
            for worker in plan.crashes_at(round) {
                let before = self.delayed.len();
                self.delayed.retain(|d| d.worker != worker);
                self.result.faults.crash_discarded += (before - self.delayed.len()) as u64;
            }
            // Reclaim expired leases so late results classify as `Expired`.
            let _ = self.tasks_table.reclaim_expired(round);
        }

        // Phase 1 — plan the round's K worker tasks *serially*, consuming
        // the RNG streams in exactly the order the sequential engine did.
        // Within a round the server clock and the snapshot history are
        // constant (the model only updates on the K-th submission), so
        // planning commutes with gradient computation bit-for-bit. Fault
        // decisions are stateless hashes — they consume nothing.
        let clock = self.server.clock();
        let mut tasks = Vec::with_capacity(cfg.core.aggregation_k);
        for _ in 0..cfg.core.aggregation_k {
            // Pick a user with local data.
            let user = loop {
                let candidate = self.rng.gen_range(0..self.sim.users.len());
                if !self.sim.users[candidate].is_empty() {
                    break candidate;
                }
            };
            let batch_indices = self.sampler.sample(&self.sim.users[user], cfg.batch_size);
            let (inputs, labels) = self.sim.train.batch(&batch_indices);

            // Staleness: sampled, then possibly overridden for straggler classes.
            let mut staleness = cfg.staleness.sample(&mut self.rng);
            if let Some((class, forced)) = cfg.class_straggler {
                if labels.contains(&class) {
                    staleness = forced;
                }
            }
            staleness = staleness.min(clock).min(self.history.len() as u64 - 1);
            let snapshot_index = self.history.len() - 1 - staleness as usize;
            // A dropped request never reaches the server: no lease is issued
            // and the worker computes nothing that round.
            let task_id = if plan.drops_request(round, user as u64) {
                None
            } else {
                Some(
                    self.tasks_table
                        .issue(user as u64, round, plan.lease_rounds),
                )
            };
            tasks.push(PlannedTask {
                user,
                inputs,
                labels,
                staleness,
                snapshot_index,
                task_id,
            });
        }

        // Phase 2 — compute the K independent worker gradients: each fan-out
        // slot clones one model replica and reuses it across its contiguous
        // run of tasks (one slot, inline, at one thread), and each gradient
        // runs whole on its slot's thread — this fan-out across tasks is the
        // only one. Gradient computation is deterministic (no RNG) and
        // compute_gradient zeroes accumulated state first, so replica reuse
        // and fan-out both preserve results bit-for-bit. (Tasks whose request
        // was dropped are computed and discarded — filtering them here would
        // complicate the fan-out for no observable difference.)
        let history = &self.history;
        let replica_of = &*model;
        let gradients: Vec<fleet_ml::Gradient> = fleet_parallel::parallel_map_with(
            &tasks,
            || replica_of.clone(),
            |replica, task| {
                replica
                    .set_parameters(&history[task.snapshot_index])
                    .expect("history snapshots always match the architecture");
                let (_, gradient) = replica
                    .compute_gradient(&task.inputs, &task.labels)
                    .expect("training batches always match the architecture");
                gradient
            },
        );

        // Phase 3 — privatise (worker-side DP noise), ship each result
        // through the versioned wire codec exactly as the deployed
        // protocol does, route it through the fault plan, and submit in
        // fixed worker-index order so noise draws and aggregator state
        // updates replay identically. Serialization cost is therefore part
        // of every simulation bench.
        for (index, (task, mut gradient)) in tasks.into_iter().zip(gradients).enumerate() {
            if let Some(task_id) = task.task_id {
                if let Some(mechanism) = self.dp.as_mut() {
                    mechanism.privatize(gradient.as_mut_slice(), task.labels.len());
                }
                let task_result = TaskResult {
                    worker_id: task.user as u64,
                    // The worker pulled the model `task.staleness` updates ago
                    // (planning clamps staleness to the clock, so this cannot
                    // underflow).
                    model_version: clock - task.staleness,
                    gradient,
                    label_distribution: LabelDistribution::from_labels(
                        &task.labels,
                        self.sim.train.num_classes(),
                    ),
                    num_samples: task.labels.len(),
                    computation_seconds: 0.0,
                    energy_pct: 0.0,
                    // With flushes, ship the vector clock the worker observed
                    // at its snapshot, exactly as a deployed worker echoes
                    // `TaskAssignment::shard_clocks`.
                    read_clock: self
                        .ship_read_clock
                        .then(|| self.clock_history[task.snapshot_index].clone()),
                    task_id: Some(task_id),
                };
                let encoded = wire::encode_result(&task_result);
                match plan.result_fate(round, task.user as u64) {
                    ResultFate::Deliver => self.deliver(encoded, false),
                    ResultFate::Drop => self.result.faults.dropped_results += 1,
                    ResultFate::Duplicate => {
                        // The network delivers the same bytes twice
                        // back-to-back; dedup must reject the second copy.
                        self.deliver(encoded.clone(), false);
                        self.deliver(encoded, false);
                    }
                    ResultFate::Delay(rounds) => {
                        self.delayed.push(DelayedResult {
                            due_step: round + rounds,
                            seq: self.next_seq,
                            worker: task.user as u64,
                            bytes: encoded,
                        });
                        self.next_seq += 1;
                    }
                }
            } else {
                self.result.faults.dropped_requests += 1;
            }

            // The deterministic divergence schedule: after the round's
            // first task resolves (delivered or not), flush one shard
            // round-robin every `flush_every`-th round. The flushed shard
            // applies its pending run early and its clock pulls ahead — the
            // scripted stand-in for shards draining at different cadences.
            if cfg.flush_every > 0 && index == 0 && (step + 1).is_multiple_of(cfg.flush_every) {
                let target = (step + 1) / cfg.flush_every % self.server.num_shards();
                self.server.flush_shard(target);
            }
        }

        self.history.push_back(self.server.parameters().to_vec());
        if self.ship_read_clock {
            self.clock_history.push_back(self.server.shard_clocks());
        }
        if self.history.len() > self.max_history {
            self.history.pop_front();
            if self.ship_read_clock {
                self.clock_history.pop_front();
            }
        }

        if (step + 1).is_multiple_of(cfg.eval_every) || step + 1 == cfg.steps {
            model
                .set_parameters(self.server.parameters())
                .expect("server parameters always match the architecture");
            let predictions = model
                .predict(&self.eval_inputs)
                .expect("evaluation batch always matches the architecture");
            self.result.evals.push(EvalPoint {
                step: step + 1,
                accuracy: accuracy(&predictions, &self.eval_labels),
                class_accuracy: cfg
                    .track_class
                    .and_then(|c| class_accuracy(&predictions, &self.eval_labels, c)),
            });
        }
    }

    fn finish(self, model: &mut Sequential) -> TrainingHistory {
        model
            .set_parameters(self.server.parameters())
            .expect("server parameters always match the architecture");
        self.result
    }
}

impl<'a> AsyncSimulation<'a> {
    /// Creates a simulation over a train/test split and a user partition.
    ///
    /// # Panics
    ///
    /// Panics if the partition is empty or the config has zero steps.
    pub fn new(
        train: &'a Dataset,
        test: &'a Dataset,
        users: &'a UserPartition,
        config: SimulationConfig,
    ) -> Self {
        assert!(!users.is_empty(), "user partition must not be empty");
        assert!(config.steps > 0, "steps must be positive");
        Self {
            train,
            test,
            users,
            config,
        }
    }

    /// Runs the simulation with the given aggregator, starting from `model`'s
    /// current parameters. The model is left holding the final parameters.
    pub fn run<A: Aggregator>(&self, model: &mut Sequential, aggregator: A) -> TrainingHistory {
        let mut engine = Engine::new(self, model, aggregator);
        for step in 0..self.config.steps {
            engine.round(model, step);
        }
        engine.finish(model)
    }

    /// Pre-builds the (deterministic) evaluation batch.
    fn eval_batch(&self) -> (fleet_ml::Tensor, Vec<usize>) {
        let eval_indices: Vec<usize> =
            (0..self.test.len().min(self.config.eval_examples.max(1))).collect();
        self.test.batch(&eval_indices)
    }

    fn max_history(&self) -> usize {
        let from_distribution = match self.config.staleness {
            StalenessDistribution::None => 1,
            StalenessDistribution::Constant(v) => v as usize + 1,
            StalenessDistribution::Gaussian { mean, std } => (mean + 6.0 * std).ceil() as usize + 1,
        };
        let from_straggler = self
            .config
            .class_straggler
            .map(|(_, s)| s as usize + 1)
            .unwrap_or(1);
        from_distribution.max(from_straggler).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_core::{AdaSgd, DynSgd, FedAvg, Ssgd};
    use fleet_data::partition::{iid_partition, non_iid_shards};
    use fleet_data::synthetic::{generate, SyntheticSpec};
    use fleet_ml::models::mlp_classifier;

    fn world() -> (Dataset, Dataset, UserPartition) {
        let data = generate(&SyntheticSpec::vector(5, 8, 600), 3);
        let (train, test) = data.split(0.2);
        let users = non_iid_shards(&train, 12, 2, 1);
        (train, test, users)
    }

    fn fast_config(staleness: StalenessDistribution) -> SimulationConfig {
        SimulationConfig {
            core: CoreConfig {
                learning_rate: 0.1,
                ..CoreConfig::default()
            },
            steps: 150,
            batch_size: 20,
            eval_every: 50,
            eval_examples: 120,
            staleness,
            seed: 9,
            ..SimulationConfig::default()
        }
    }

    #[test]
    fn ssgd_learns_on_iid_data() {
        let data = generate(&SyntheticSpec::vector(4, 6, 400), 1);
        let (train, test) = data.split(0.25);
        let users = iid_partition(&train, 8, 0);
        let sim = AsyncSimulation::new(
            &train,
            &test,
            &users,
            fast_config(StalenessDistribution::None),
        );
        let mut model = mlp_classifier(6, &[16], 4, 0);
        let history = sim.run(&mut model, Ssgd::new());
        assert_eq!(history.algorithm, "SSGD");
        assert!(
            history.final_accuracy() > 0.5,
            "accuracy {}",
            history.final_accuracy()
        );
        assert!(history.scaling_factors.iter().all(|&s| s == 1.0));
        assert_eq!(history.faults.applied, 150);
        assert_eq!(history.faults.dropped_requests, 0);
    }

    #[test]
    fn staleness_aware_beats_unaware_under_heavy_staleness() {
        let (train, test, users) = world();
        let cfg = fast_config(StalenessDistribution::Gaussian {
            mean: 10.0,
            std: 3.0,
        });
        let sim = AsyncSimulation::new(&train, &test, &users, cfg);

        let mut ada_model = mlp_classifier(8, &[16], 5, 7);
        let ada = sim.run(&mut ada_model, AdaSgd::new(5, 99.7));
        let mut fed_model = mlp_classifier(8, &[16], 5, 7);
        let fed = sim.run(&mut fed_model, FedAvg::new());
        assert!(
            ada.final_accuracy() >= fed.final_accuracy(),
            "AdaSGD {} should be at least as good as FedAvg {}",
            ada.final_accuracy(),
            fed.final_accuracy()
        );
    }

    #[test]
    fn histories_record_expected_number_of_points() {
        let (train, test, users) = world();
        let sim = AsyncSimulation::new(
            &train,
            &test,
            &users,
            fast_config(StalenessDistribution::d1()),
        );
        let mut model = mlp_classifier(8, &[16], 5, 1);
        let history = sim.run(&mut model, DynSgd::new());
        assert_eq!(history.evals.len(), 3);
        assert_eq!(history.scaling_factors.len(), 150);
        assert!(history.best_accuracy() >= history.evals[0].accuracy);
    }

    #[test]
    fn class_straggler_overrides_staleness() {
        let (train, test, users) = world();
        let mut cfg = fast_config(StalenessDistribution::Constant(2));
        cfg.class_straggler = Some((0, 30));
        cfg.track_class = Some(0);
        let sim = AsyncSimulation::new(&train, &test, &users, cfg);
        let mut model = mlp_classifier(8, &[16], 5, 2);
        let history = sim.run(&mut model, AdaSgd::new(5, 99.7));
        // Scaling factors of straggler updates are well below the constant-2
        // dampening of the others, so the distribution must be bimodal.
        let min = history
            .scaling_factors
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = history.scaling_factors.iter().cloned().fold(0.0, f64::max);
        assert!(min < 0.3 && max > 0.3, "min {min}, max {max}");
        assert!(history.evals.iter().any(|e| e.class_accuracy.is_some()));
    }

    #[test]
    fn dp_noise_slows_convergence() {
        let data = generate(&SyntheticSpec::vector(4, 6, 400), 5);
        let (train, test) = data.split(0.25);
        let users = iid_partition(&train, 8, 0);
        let mut clean_cfg = fast_config(StalenessDistribution::Constant(3));
        clean_cfg.steps = 200;
        let mut noisy_cfg = clean_cfg.clone();
        // Heavy noise (σ = 60 on a clip of 1.0 over batches of 20) keeps the
        // noisy run close to chance level while the clean run converges.
        noisy_cfg.dp = Some((1.0, 60.0));

        let sim_clean = AsyncSimulation::new(&train, &test, &users, clean_cfg);
        let sim_noisy = AsyncSimulation::new(&train, &test, &users, noisy_cfg);
        let mut m1 = mlp_classifier(6, &[16], 4, 3);
        let mut m2 = mlp_classifier(6, &[16], 4, 3);
        let clean = sim_clean.run(&mut m1, AdaSgd::new(4, 99.7));
        let noisy = sim_noisy.run(&mut m2, AdaSgd::new(4, 99.7));
        assert!(
            clean.final_accuracy() > noisy.final_accuracy() + 0.05,
            "clean {} vs noisy {}",
            clean.final_accuracy(),
            noisy.final_accuracy()
        );
    }

    #[test]
    fn same_seed_gives_identical_history() {
        // The parallel worker fan-out must keep runs bit-for-bit reproducible:
        // two runs with one seed produce equal histories and equal final
        // parameters, whatever the thread count.
        let (train, test, users) = world();
        let mut cfg = fast_config(StalenessDistribution::d1());
        cfg.core.aggregation_k = 4;
        cfg.steps = 40;
        let sim = AsyncSimulation::new(&train, &test, &users, cfg);

        let mut model_a = mlp_classifier(8, &[16], 5, 3);
        let mut model_b = mlp_classifier(8, &[16], 5, 3);
        let history_a = sim.run(&mut model_a, AdaSgd::new(5, 99.7));
        let history_b = sim.run(&mut model_b, AdaSgd::new(5, 99.7));
        assert_eq!(history_a, history_b);
        assert_eq!(model_a.parameters(), model_b.parameters());
    }

    #[test]
    fn shard_count_does_not_change_results() {
        // The sharded parameter server's determinism contract, end to end:
        // training histories and final parameters are bit-for-bit identical
        // across {1, 2, 8} shards for a fixed seed.
        let (train, test, users) = world();
        let mut histories = Vec::new();
        let mut params = Vec::new();
        for shards in [1usize, 2, 8] {
            let mut cfg = fast_config(StalenessDistribution::d1());
            cfg.core.aggregation_k = 4;
            cfg.steps = 30;
            cfg.core.shards = shards;
            let sim = AsyncSimulation::new(&train, &test, &users, cfg);
            let mut model = mlp_classifier(8, &[16], 5, 3);
            histories.push(sim.run(&mut model, AdaSgd::new(5, 99.7)));
            params.push(model.parameters());
        }
        assert_eq!(histories[0], histories[1]);
        assert_eq!(histories[0], histories[2]);
        assert_eq!(params[0], params[1]);
        assert_eq!(params[0], params[2]);
    }

    #[test]
    fn per_shard_without_flushes_matches_lockstep_bitwise() {
        // With no flush firing the shard clocks never diverge, every τ_s a
        // shipped read clock yields equals the scalar staleness, and the
        // whole engine — vector clocks through the wire codec included —
        // reproduces the run that ships none (whose shards weigh in
        // lockstep at the scalar staleness) bit for bit. A cadence longer
        // than the run ships the clocks without ever flushing.
        let (train, test, users) = world();
        let mut runs = Vec::new();
        for flush_every in [0, 31] {
            let mut cfg = fast_config(StalenessDistribution::d1());
            cfg.core.aggregation_k = 4;
            cfg.steps = 30;
            cfg.core.shards = 4;
            cfg.flush_every = flush_every;
            let sim = AsyncSimulation::new(&train, &test, &users, cfg);
            let mut model = mlp_classifier(8, &[16], 5, 3);
            runs.push((
                sim.run(&mut model, AdaSgd::new(5, 99.7)),
                model.parameters(),
            ));
        }
        assert_eq!(runs[0].0, runs[1].0);
        assert_eq!(runs[0].1, runs[1].1);
    }

    #[test]
    fn per_shard_flush_schedule_diverges_and_replays() {
        // The scripted flush schedule makes the shard clocks genuinely
        // diverge — the run must differ from the unflushed one — while
        // staying bit-for-bit reproducible for the fixed seed.
        let (train, test, users) = world();
        let run = |flush_every: usize| {
            let mut cfg = fast_config(StalenessDistribution::d1());
            cfg.core.aggregation_k = 4;
            cfg.steps = 30;
            cfg.core.shards = 4;
            cfg.flush_every = flush_every;
            let sim = AsyncSimulation::new(&train, &test, &users, cfg);
            let mut model = mlp_classifier(8, &[16], 5, 3);
            (
                sim.run(&mut model, AdaSgd::new(5, 99.7)),
                model.parameters(),
            )
        };
        let unflushed = run(0);
        let a = run(2);
        let b = run(2);
        assert_eq!(a, b, "flushed runs must replay exactly");
        assert_ne!(
            a.1, unflushed.1,
            "flush-diverged shard clocks must change the trajectory"
        );
    }

    #[test]
    fn dp_runs_are_reproducible_too() {
        // DP noise is drawn in the ordered apply phase; it must replay.
        let (train, test, users) = world();
        let mut cfg = fast_config(StalenessDistribution::Constant(2));
        cfg.core.aggregation_k = 3;
        cfg.steps = 30;
        cfg.dp = Some((1.0, 0.5));
        let sim = AsyncSimulation::new(&train, &test, &users, cfg);
        let mut m1 = mlp_classifier(8, &[16], 5, 4);
        let mut m2 = mlp_classifier(8, &[16], 5, 4);
        assert_eq!(
            sim.run(&mut m1, DynSgd::new()),
            sim.run(&mut m2, DynSgd::new())
        );
    }

    #[test]
    fn staleness_distribution_samples_are_sane() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = StalenessDistribution::d2();
        let samples: Vec<u64> = (0..2000).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((mean - 12.0).abs() < 1.0, "mean {mean}");
        assert_eq!(StalenessDistribution::None.sample(&mut rng), 0);
        assert_eq!(StalenessDistribution::Constant(7).sample(&mut rng), 7);
    }

    #[test]
    fn chaos_plan_fires_and_replays_exactly() {
        // A faulty run must (a) actually inject every fault class, (b) be
        // bit-for-bit reproducible, and (c) differ from the clean run.
        let (train, test, users) = world();
        let mut cfg = fast_config(StalenessDistribution::d1());
        cfg.core.aggregation_k = 4;
        cfg.steps = 40;
        cfg.faults = FaultPlan::chaos(7);
        let sim = AsyncSimulation::new(&train, &test, &users, cfg.clone());

        let mut m1 = mlp_classifier(8, &[16], 5, 3);
        let mut m2 = mlp_classifier(8, &[16], 5, 3);
        let a = sim.run(&mut m1, AdaSgd::new(5, 99.7));
        let b = sim.run(&mut m2, AdaSgd::new(5, 99.7));
        assert_eq!(a, b, "faulty runs must replay exactly");
        assert_eq!(m1.parameters(), m2.parameters());

        let stats = a.faults;
        assert!(stats.dropped_requests > 0, "{stats:?}");
        assert!(stats.dropped_results > 0, "{stats:?}");
        assert!(stats.duplicates_rejected > 0, "{stats:?}");
        assert!(stats.delayed_delivered > 0, "{stats:?}");
        assert!(stats.applied > 0, "{stats:?}");
        // Every duplicated delivery was rejected exactly once: applied
        // submissions equal the scaling factors recorded.
        assert_eq!(stats.applied as usize, a.scaling_factors.len());

        let mut clean_cfg = cfg;
        clean_cfg.faults = FaultPlan::none();
        let clean_sim = AsyncSimulation::new(&train, &test, &users, clean_cfg);
        let mut m3 = mlp_classifier(8, &[16], 5, 3);
        clean_sim.run(&mut m3, AdaSgd::new(5, 99.7));
        assert_ne!(
            m1.parameters(),
            m3.parameters(),
            "the chaos plan must perturb the trajectory"
        );
    }

    #[test]
    fn zero_fault_plan_is_byte_identical_to_no_fault_layer() {
        // FaultPlan::none() must not perturb anything: same history, same
        // parameters as the default config (which is FaultPlan::none() —
        // this guards the invariant that fault decisions consume no RNG).
        let (train, test, users) = world();
        let mut cfg = fast_config(StalenessDistribution::d1());
        cfg.core.aggregation_k = 4;
        cfg.steps = 30;
        let mut explicit = cfg.clone();
        explicit.faults = FaultPlan::none();

        let sim_a = AsyncSimulation::new(&train, &test, &users, cfg);
        let sim_b = AsyncSimulation::new(&train, &test, &users, explicit);
        let mut m1 = mlp_classifier(8, &[16], 5, 3);
        let mut m2 = mlp_classifier(8, &[16], 5, 3);
        let a = sim_a.run(&mut m1, AdaSgd::new(5, 99.7));
        let b = sim_b.run(&mut m2, AdaSgd::new(5, 99.7));
        assert_eq!(a, b);
        assert_eq!(m1.parameters(), m2.parameters());
    }

    #[test]
    fn adasgd_absorbs_chaos_churn() {
        // The Fig. 8-style robustness claim under churn: with 10% dropped
        // requests, 10% dropped results, 5% duplicates and 5% stragglers,
        // AdaSGD's staleness dampening keeps the final accuracy within a
        // modest margin of the fault-free run.
        let (train, test, users) = world();
        let mut cfg = fast_config(StalenessDistribution::d1());
        cfg.core.aggregation_k = 4;
        cfg.steps = 150;
        let mut chaos_cfg = cfg.clone();
        chaos_cfg.faults = FaultPlan::chaos(5);

        let clean_sim = AsyncSimulation::new(&train, &test, &users, cfg);
        let chaos_sim = AsyncSimulation::new(&train, &test, &users, chaos_cfg);
        let mut m1 = mlp_classifier(8, &[16], 5, 3);
        let mut m2 = mlp_classifier(8, &[16], 5, 3);
        let clean = clean_sim.run(&mut m1, AdaSgd::new(5, 99.7));
        let chaos = chaos_sim.run(&mut m2, AdaSgd::new(5, 99.7));
        assert!(
            chaos.final_accuracy() >= clean.final_accuracy() - 0.12,
            "chaos {} vs clean {}",
            chaos.final_accuracy(),
            clean.final_accuracy()
        );
    }

    #[test]
    fn duplicates_never_advance_the_clock() {
        // Satellite: for any fault plan, what the model sees equals the
        // applied-once schedule — `applied` (the dedup-surviving deliveries)
        // exactly matches the scaling factors and the server clock the
        // history reflects; duplicate copies contribute nothing.
        let (train, test, users) = world();
        for seed in [1u64, 2, 3] {
            let mut cfg = fast_config(StalenessDistribution::d1());
            cfg.core.aggregation_k = 4;
            cfg.steps = 30;
            let mut plan = FaultPlan::chaos(seed);
            // Exaggerate duplication so the test bites.
            plan.duplicate_result = 0.5;
            plan.drop_result = 0.0;
            plan.drop_request = 0.0;
            plan.delay_result = 0.0;
            plan.crash_restarts.clear();
            cfg.faults = plan;
            let sim = AsyncSimulation::new(&train, &test, &users, cfg);
            let mut model = mlp_classifier(8, &[16], 5, 3);
            let history = sim.run(&mut model, AdaSgd::new(5, 99.7));
            let stats = history.faults;
            assert!(stats.duplicates_rejected > 0, "{stats:?}");
            // Every result was delivered at least once and duplicates were
            // all rejected: applied == planned tasks, scaling factors match.
            assert_eq!(stats.applied, 30 * 4);
            assert_eq!(history.scaling_factors.len(), 30 * 4);
            assert_eq!(
                stats.applied + stats.duplicates_rejected,
                30 * 4 + stats.duplicates_rejected
            );
        }
    }
}
