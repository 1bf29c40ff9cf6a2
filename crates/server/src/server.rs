//! The FLeet server: glues I-Prof, the controller and AdaSGD together behind
//! the request/result protocol of Fig. 2.

use crate::controller::{Controller, ControllerCounters, ControllerThresholds};
use crate::protocol::{
    RejectionReason, ResultAck, ResultDisposition, TaskAssignment, TaskRequest, TaskResponse,
    TaskResult,
};
use crate::tasks::{TaskTable, TaskTableState};
use crate::wire::{self, WireError};
use bytes::Bytes;
use fleet_core::{
    AdaSgd, ApplyMode, ConfigError, CoreConfig, ParameterServer, ParameterServerState, WorkerUpdate,
};
use fleet_device::NetworkKind;
use fleet_profiler::{IProf, IProfState, Slo, WorkloadProfiler};
use fleet_telemetry::{Counter, TelemetryHandle};
use std::collections::BTreeMap;

/// Configuration of a [`FleetServer`].
///
/// The learning-rate / K / shards / apply-mode / backpressure cluster lives
/// in the embedded [`CoreConfig`] (shared with the simulation and the load
/// harness); [`FleetServerConfig::builder`] flattens those knobs so callers
/// write `.shards(8)` rather than reaching through `core`.
#[derive(Debug, Clone)]
pub struct FleetServerConfig {
    /// The shared core knobs: learning rate γ, aggregation parameter K,
    /// shard count and apply mode, plus the `max_pending` backpressure bound
    /// (when a shard sits at the bound, new task requests are rejected with
    /// [`RejectionReason::Overloaded`] instead of queueing gradients the
    /// server cannot absorb).
    pub core: CoreConfig,
    /// Expected percentage of non-stragglers (AdaSGD's s%).
    pub s_percentile: f64,
    /// Number of classes of the learning task (for the global label
    /// distribution).
    pub num_classes: usize,
    /// The per-task SLO handed to I-Prof.
    pub slo: Slo,
    /// Controller thresholds.
    pub thresholds: ControllerThresholds,
    /// The network the lease deadline budgets model transfer time for.
    pub network: NetworkKind,
    /// Floor on a task lease, in logical rounds: even an instant prediction
    /// leaves the worker this long before the lease is reclaimed.
    pub lease_min_rounds: u64,
    /// Conversion from predicted wall-clock seconds (compute + transfer) to
    /// logical lease rounds.
    pub lease_rounds_per_second: f64,
}

impl Default for FleetServerConfig {
    fn default() -> Self {
        Self {
            core: CoreConfig::default(),
            s_percentile: 99.7,
            num_classes: 10,
            slo: Slo::paper_latency_default(),
            thresholds: ControllerThresholds::default(),
            network: NetworkKind::Lte4G,
            lease_min_rounds: 4,
            lease_rounds_per_second: 1.0,
        }
    }
}

impl FleetServerConfig {
    /// A builder over the defaults.
    pub fn builder() -> FleetServerConfigBuilder {
        FleetServerConfigBuilder {
            config: FleetServerConfig::default(),
        }
    }

    /// A builder seeded from this configuration.
    pub fn to_builder(&self) -> FleetServerConfigBuilder {
        FleetServerConfigBuilder {
            config: self.clone(),
        }
    }

    /// Checks the combined invariants (core cluster plus the server-level
    /// knobs) and returns the first violation.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        self.core.validate()?;
        if self.num_classes == 0 {
            return Err(ConfigError::ZeroNumClasses);
        }
        if !(self.s_percentile > 0.0 && self.s_percentile <= 100.0) {
            return Err(ConfigError::SPercentileOutOfRange {
                value: self.s_percentile as f32,
            });
        }
        if !(self.lease_rounds_per_second >= 0.0 && self.lease_rounds_per_second.is_finite()) {
            return Err(ConfigError::LeaseRateInvalid {
                value: self.lease_rounds_per_second,
            });
        }
        Ok(())
    }
}

/// Builder for [`FleetServerConfig`]; `build` validates and returns a typed
/// [`ConfigError`]. Core-cluster setters (`learning_rate`, `aggregation_k`,
/// `shards`, `apply_mode`, `max_pending`) are flattened into this builder.
#[derive(Debug, Clone)]
pub struct FleetServerConfigBuilder {
    config: FleetServerConfig,
}

impl FleetServerConfigBuilder {
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

    /// Sets the shard apply-scheduling mode.
    pub fn apply_mode(mut self, value: ApplyMode) -> Self {
        self.config.core.apply_mode = value;
        self
    }

    /// Sets the per-shard backpressure bound (0 disables shedding).
    pub fn max_pending(mut self, value: usize) -> Self {
        self.config.core.max_pending = value;
        self
    }

    /// Sets the number of classes of the learning task.
    pub fn num_classes(mut self, value: usize) -> Self {
        self.config.num_classes = value;
        self
    }

    /// Sets the lease floor in logical rounds.
    pub fn lease_min_rounds(mut self, value: u64) -> Self {
        self.config.lease_min_rounds = value;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<FleetServerConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A full checkpoint of a [`FleetServer`]'s mutable state. Restoring it into
/// a server built with the same [`FleetServerConfig`] resumes the run
/// bit-for-bit (see [`FleetServer::restore_checkpoint`]). The binary
/// encoding is [`crate::encode_checkpoint`] / [`crate::decode_checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetServerState {
    /// Parameter-server state (parameters, pending buffers, clocks,
    /// aggregator).
    pub parameter_server: ParameterServerState,
    /// I-Prof state (global + personalised slope models).
    pub iprof: IProfState,
    /// Controller acceptance counters.
    pub controller: ControllerCounters,
    /// The lease table.
    pub tasks: TaskTableState,
    /// Worker → device-model routing, sorted by worker id (the server keeps
    /// it in a `BTreeMap`, so registration order never reaches the export).
    pub device_models: Vec<(u64, String)>,
}

/// The FLeet middleware server.
#[derive(Debug)]
pub struct FleetServer {
    parameter_server: ParameterServer<AdaSgd>,
    iprof: IProf,
    controller: Controller,
    /// Outstanding-task leases, completed and expired sets (dedup).
    tasks: TaskTable,
    /// Device model of each worker, remembered from its last request so that
    /// result feedback can be routed to the right personalised I-Prof model.
    device_models: BTreeMap<u64, String>,
    config: FleetServerConfig,
    /// Where protocol events are reported; disabled (one branch per event
    /// site, no clock reads) unless a sink is installed via
    /// [`FleetServer::set_telemetry`].
    telemetry: TelemetryHandle,
}

impl FleetServer {
    /// Creates a server around an initial flat model parameter vector.
    pub fn new(initial_parameters: Vec<f32>, config: FleetServerConfig) -> Self {
        let aggregator = AdaSgd::new(config.num_classes, config.s_percentile);
        let core = CoreConfig {
            shards: config.core.shards.max(1),
            ..config.core.clone()
        };
        Self {
            parameter_server: ParameterServer::from_config(initial_parameters, aggregator, &core),
            iprof: IProf::new(config.slo),
            controller: Controller::new(config.thresholds),
            tasks: TaskTable::new(),
            device_models: BTreeMap::new(),
            config,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Installs a telemetry sink; all protocol events from here on are
    /// reported through it. Pass [`TelemetryHandle::disabled`] to turn
    /// reporting back off.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// The current global model parameters.
    pub fn parameters(&self) -> &[f32] {
        self.parameter_server.parameters()
    }

    /// The server's logical clock (number of model updates so far in
    /// lockstep mode; the aggregation-round counter in per-shard mode).
    pub fn clock(&self) -> u64 {
        self.parameter_server.clock()
    }

    /// Access to the controller statistics.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Handles a learning-task request (steps 1–4 of Fig. 2), plus the
    /// fault-tolerance envelope: expired leases are reclaimed, overload is
    /// shed before admission, and accepted tasks get a lease whose deadline
    /// budgets I-Prof's predicted compute time plus the modelled network
    /// transfer.
    pub fn handle_request(&mut self, request: &TaskRequest) -> TaskResponse {
        let reclaimed = self.tasks.reclaim_expired(self.parameter_server.clock());
        if let Some(sink) = self.telemetry.get() {
            sink.add(Counter::Requests, 1);
            sink.add(Counter::TasksReclaimed, reclaimed.len() as u64);
        }
        self.device_models
            .insert(request.worker_id, request.device_model.clone());

        // Backpressure: shed the task before spending any admission work on
        // it when a shard's pending buffer is already at its bound.
        if let Some(shard) = self.parameter_server.saturated_shard() {
            self.controller.note_overload();
            if let Some(sink) = self.telemetry.get() {
                sink.add(Counter::RejectedOverloaded, 1);
            }
            return TaskResponse::Rejected(RejectionReason::Overloaded { shard });
        }

        // Step 2: I-Prof bounds the workload (and predicts its cost, which
        // sizes the task lease below).
        let prediction = self
            .iprof
            .predict_batch(&request.device_model, &request.device_features);
        let batch = prediction.batch_size;
        // Step 3: AdaSGD computes the similarity with past learning tasks.
        let similarity = self
            .parameter_server
            .aggregator()
            .similarity_of(&request.label_distribution) as f32;
        // Step 4: the controller decides whether the task is worth running.
        match self.controller.admit(batch, similarity) {
            Ok(()) => {
                let task_id = self.tasks.issue(
                    request.worker_id,
                    self.parameter_server.clock(),
                    self.lease_rounds(&prediction),
                );
                if let Some(sink) = self.telemetry.get() {
                    sink.add(Counter::Assignments, 1);
                }
                TaskResponse::Assignment(TaskAssignment {
                    task_id,
                    model_parameters: self.parameter_server.parameters().to_vec(),
                    model_version: self.parameter_server.clock(),
                    // Per-shard servers hand out the vector clock so the
                    // worker can echo it back and get per-shard staleness
                    // attribution; lockstep assignments stay as before
                    // (empty).
                    shard_clocks: match self.config.core.apply_mode {
                        ApplyMode::Lockstep => Vec::new(),
                        ApplyMode::PerShard => self.parameter_server.shard_clocks(),
                    },
                    mini_batch_size: batch,
                })
            }
            Err(reason) => {
                if let Some(sink) = self.telemetry.get() {
                    sink.add(
                        match reason {
                            RejectionReason::BatchTooSmall { .. } => Counter::RejectedBatchTooSmall,
                            RejectionReason::TooSimilar => Counter::RejectedTooSimilar,
                            RejectionReason::Overloaded { .. } => Counter::RejectedOverloaded,
                        },
                        1,
                    );
                }
                TaskResponse::Rejected(reason)
            }
        }
    }

    /// Lease duration for a task: the predicted compute time plus the
    /// network transfer of the model, converted to logical rounds, floored
    /// at [`FleetServerConfig::lease_min_rounds`]. A slow device on a slow
    /// network gets proportionally more time before reclaim.
    fn lease_rounds(&self, prediction: &fleet_profiler::BatchPrediction) -> u64 {
        let transfer = self
            .config
            .network
            .transfer_seconds(self.parameter_server.parameters().len());
        let seconds = prediction.predicted_seconds as f64 + transfer;
        let rounds = (seconds * self.config.lease_rounds_per_second).ceil() as u64;
        rounds.max(self.config.lease_min_rounds).max(1)
    }

    /// Handles a wire-encoded learning-task request: the byte-level entry
    /// point a transport (HTTP body, socket frame) would call.
    ///
    /// # Errors
    ///
    /// Returns the [`WireError`] when the buffer is truncated, has an unknown
    /// version, or contains malformed fields.
    pub fn handle_request_wire(&mut self, raw: Bytes) -> Result<TaskResponse, WireError> {
        Ok(self.handle_request(&wire::decode_request(raw)?))
    }

    /// Handles a wire-encoded worker result: the byte-level entry point a
    /// transport would call for step 5.
    ///
    /// # Errors
    ///
    /// Returns the [`WireError`] when the buffer is truncated, has an unknown
    /// version, or contains malformed fields — including a gradient whose
    /// length is not the model's parameter count
    /// ([`WireError::LengthOutOfBounds`]). The check runs before any state is
    /// touched: the lease stays outstanding, so the worker's corrected retry
    /// still applies.
    pub fn handle_result_wire(&mut self, raw: Bytes) -> Result<ResultAck, WireError> {
        let result = wire::decode_result(raw)?;
        if result.gradient.len() != self.parameter_server.parameters().len() {
            return Err(WireError::LengthOutOfBounds(result.gradient.len()));
        }
        Ok(self.handle_result(result))
    }

    /// Handles a worker result (step 5): classifies it against the lease
    /// table, and — only when it is the first result for an outstanding
    /// lease — feeds the measured costs back to I-Prof and folds the
    /// gradient into the model with AdaSGD's weight. Duplicates, stragglers
    /// whose lease expired, and unsolicited uploads are acknowledged (so the
    /// worker stops retrying) but never touch the model: the handler is
    /// idempotent.
    pub fn handle_result(&mut self, result: TaskResult) -> ResultAck {
        let reclaimed = self.tasks.reclaim_expired(self.parameter_server.clock());
        if let Some(sink) = self.telemetry.get() {
            sink.add(Counter::Results, 1);
            sink.add(Counter::TasksReclaimed, reclaimed.len() as u64);
        }
        let disposition = match result.task_id {
            Some(task_id) => self.tasks.classify(task_id, result.worker_id),
            // Legacy id-less results (wire v1/v2 peers) bypass dedup, but a
            // result from a worker that never sent a request is still
            // rejected — it used to be applied and train I-Prof under a
            // fabricated "unknown" device model.
            None if self.device_models.contains_key(&result.worker_id) => {
                ResultDisposition::Applied
            }
            None => ResultDisposition::Unsolicited,
        };
        if disposition != ResultDisposition::Applied {
            if let Some(sink) = self.telemetry.get() {
                sink.add(
                    match disposition {
                        ResultDisposition::Duplicate => Counter::Duplicates,
                        ResultDisposition::Expired => Counter::Expired,
                        _ => Counter::Unsolicited,
                    },
                    1,
                );
            }
            return ResultAck {
                staleness: 0,
                scaling_factor: 0.0,
                model_updated: false,
                clock: self.parameter_server.clock(),
                disposition,
            };
        }
        let device_model = self
            .device_models
            .get(&result.worker_id)
            .cloned()
            .expect("an applied result implies a recorded request");
        // Feed the observation back into I-Prof. The features at request time
        // are approximated by the ones the device would report now; in the
        // real system the request features are cached server-side.
        let staleness = self
            .parameter_server
            .clock()
            .saturating_sub(result.model_version);
        let mut update = WorkerUpdate::new(
            result.gradient,
            staleness,
            result.label_distribution,
            result.num_samples,
            result.worker_id,
        );
        // A result carrying the read-time vector clock gets per-shard
        // staleness attribution (per-shard mode; a lockstep server ignores
        // it). Results from v1 peers fall back to the scalar staleness.
        if self.config.core.apply_mode == ApplyMode::PerShard
            && result
                .read_clock
                .as_ref()
                .is_some_and(|rc| rc.len() == self.parameter_server.num_shards())
        {
            update.read_clock = result.read_clock;
        }
        let applied_before = if self.telemetry.is_enabled() {
            self.parameter_server.shard_applied_counts()
        } else {
            Vec::new()
        };
        let outcome = self.parameter_server.submit(update);
        if let Some(sink) = self.telemetry.get() {
            sink.add(Counter::Applied, 1);
            if outcome.applied {
                sink.add(Counter::ModelUpdates, 1);
            }
            let applied_after = self.parameter_server.shard_applied_counts();
            for (shard, (after, before)) in
                applied_after.iter().zip(applied_before.iter()).enumerate()
            {
                if after > before {
                    sink.shard_applies(shard, after - before);
                }
            }
            for (shard, depth) in self
                .parameter_server
                .shard_pending_depths()
                .iter()
                .enumerate()
            {
                sink.queue_depth(shard, *depth as u64);
            }
        }
        // Record the execution for the profiler (device features omitted from
        // the result message; use the slope directly via a synthetic feature
        // observation keyed by the device model).
        self.iprof.observe(
            &device_model,
            &fleet_device::DeviceFeatures::default(),
            result.num_samples,
            result.computation_seconds,
            result.energy_pct,
        );
        ResultAck {
            staleness,
            scaling_factor: outcome.scaling_factor,
            model_updated: outcome.applied,
            clock: outcome.clock,
            disposition,
        }
    }

    /// The lease table (outstanding / completed / expired task counts).
    pub fn tasks(&self) -> &TaskTable {
        &self.tasks
    }

    /// Force-reclaims an outstanding task lease, returning whether anything
    /// was reclaimed. The socket transport calls this for every lease still
    /// in flight on a connection that disconnected (or blew its deadline):
    /// the dead worker's task re-enters the pool immediately through the
    /// same expired-set path a timed-out lease takes, so a straggler result
    /// from a resurrected worker is classified `Expired`, never applied.
    pub fn reclaim_task(&mut self, task_id: u64) -> bool {
        let reclaimed = self.tasks.reclaim(task_id).is_some();
        if reclaimed {
            if let Some(sink) = self.telemetry.get() {
                sink.add(Counter::TasksReclaimed, 1);
            }
        }
        reclaimed
    }

    /// Drains the parameter server ahead of a shutdown: in per-shard mode
    /// every shard with buffered gradients is flushed (applied) so the
    /// checkpoint captures their effect; in lockstep mode partially
    /// aggregated gradients are part of the deterministic trajectory and are
    /// checkpointed as pending instead. Returns the number of shards
    /// flushed.
    pub fn drain(&mut self) -> usize {
        match self.config.core.apply_mode {
            ApplyMode::Lockstep => 0,
            ApplyMode::PerShard => (0..self.parameter_server.num_shards())
                .filter(|&shard| self.parameter_server.flush_shard(shard))
                .count(),
        }
    }

    /// Captures the server's full mutable state. Restoring it into a server
    /// built with the same [`FleetServerConfig`] resumes the run bit-for-bit
    /// — parameters, pending gradients, vector clocks, lease table, I-Prof
    /// models and controller counters all continue where they left off.
    pub fn checkpoint(&self) -> FleetServerState {
        FleetServerState {
            parameter_server: self.parameter_server.export_state(),
            iprof: self.iprof.export_state(),
            controller: self.controller.counters(),
            tasks: self.tasks.export_state(),
            device_models: self
                .device_models
                .iter()
                .map(|(&id, model)| (id, model.clone()))
                .collect(),
        }
    }

    /// Restores state captured with [`FleetServer::checkpoint`].
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's parameter length or shard count does not
    /// match this server's configuration.
    pub fn restore_checkpoint(&mut self, state: FleetServerState) {
        self.parameter_server.restore_state(state.parameter_server);
        self.iprof.import_state(state.iprof);
        self.controller.restore_counters(state.controller);
        self.tasks = TaskTable::from_state(state.tasks);
        self.device_models = state.device_models.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::Worker;
    use fleet_data::partition::non_iid_shards;
    use fleet_data::synthetic::{generate, SyntheticSpec};
    use fleet_device::profile::catalogue;
    use fleet_device::Device;
    use fleet_ml::models::mlp_classifier;
    use std::sync::Arc;

    fn build_world(num_workers: usize) -> (FleetServer, Vec<Worker>, Arc<fleet_data::Dataset>) {
        let dataset = Arc::new(generate(&SyntheticSpec::vector(4, 6, 200), 1));
        let users = non_iid_shards(&dataset, num_workers, 2, 2);
        let model = mlp_classifier(6, &[8], 4, 0);
        let server = FleetServer::new(
            model.parameters(),
            FleetServerConfig::builder()
                .num_classes(4)
                .learning_rate(0.05)
                .build()
                .expect("valid config"),
        );
        let profiles = catalogue();
        let workers: Vec<Worker> = users
            .into_iter()
            .enumerate()
            .map(|(i, indices)| {
                Worker::new(
                    i as u64,
                    Device::new(profiles[i % profiles.len()].clone(), i as u64),
                    Arc::clone(&dataset),
                    indices,
                    mlp_classifier(6, &[8], 4, 0),
                    i as u64 + 100,
                )
            })
            .collect();
        (server, workers, dataset)
    }

    #[test]
    fn request_result_roundtrip_advances_the_model() {
        let (mut server, mut workers, _) = build_world(4);
        let before = server.parameters().to_vec();
        let mut updates = 0;
        for round in 0..3 {
            for worker in workers.iter_mut() {
                let request = worker.request();
                match server.handle_request(&request) {
                    TaskResponse::Assignment(assignment) => {
                        let result = worker.execute(&assignment).unwrap();
                        let ack = server.handle_result(result);
                        assert!(ack.scaling_factor > 0.0);
                        updates += 1;
                    }
                    TaskResponse::Rejected(reason) => {
                        panic!("permissive controller rejected a task in round {round}: {reason:?}")
                    }
                }
            }
        }
        assert_eq!(server.clock(), updates);
        assert_ne!(server.parameters(), before.as_slice());
    }

    #[test]
    fn staleness_is_derived_from_model_versions() {
        let (mut server, mut workers, _) = build_world(2);
        // Worker 0 pulls the model but is slow: worker 1 completes two tasks
        // in the meantime.
        let slow_request = workers[0].request();
        let slow_assignment = match server.handle_request(&slow_request) {
            TaskResponse::Assignment(a) => a,
            TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
        };
        for _ in 0..2 {
            let request = workers[1].request();
            if let TaskResponse::Assignment(a) = server.handle_request(&request) {
                let result = workers[1].execute(&a).unwrap();
                server.handle_result(result);
            }
        }
        let slow_result = workers[0].execute(&slow_assignment).unwrap();
        let ack = server.handle_result(slow_result);
        assert_eq!(ack.staleness, 2);
        // The weight is dampened by staleness but may be boosted back up to
        // (at most) 1.0 when the slow worker's labels are novel.
        assert!(ack.scaling_factor > 0.0 && ack.scaling_factor <= 1.0);
    }

    #[test]
    fn wire_entry_points_drive_the_full_protocol() {
        let (mut server, mut workers, _) = build_world(4);
        let before = server.parameters().to_vec();
        for worker in workers.iter_mut() {
            let response = server
                .handle_request_wire(worker.request_wire())
                .expect("self-encoded request");
            match response {
                TaskResponse::Assignment(assignment) => {
                    let raw = worker.execute_wire(&assignment).unwrap();
                    let ack = server.handle_result_wire(raw).expect("self-encoded result");
                    assert!(ack.scaling_factor > 0.0);
                }
                TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
            }
        }
        assert_eq!(server.clock(), 4);
        assert_ne!(server.parameters(), before.as_slice());
        // Malformed bytes surface as wire errors, not panics.
        assert!(server.handle_result_wire(Bytes::from(vec![9u8])).is_err());
    }

    #[test]
    fn sharded_server_matches_single_shard_reference() {
        let (mut sharded, mut workers, _) = build_world(4);
        let mut reference = FleetServer::new(
            sharded.parameters().to_vec(),
            sharded.config.to_builder().shards(1).build().unwrap(),
        );
        sharded = FleetServer::new(
            sharded.parameters().to_vec(),
            sharded.config.to_builder().shards(8).build().unwrap(),
        );
        for _ in 0..3 {
            for worker in workers.iter_mut() {
                let request = worker.request();
                let (a, b) = (
                    reference.handle_request(&request),
                    sharded.handle_request(&request),
                );
                assert_eq!(a, b);
                if let TaskResponse::Assignment(assignment) = a {
                    let result = worker.execute(&assignment).unwrap();
                    let ack_ref = reference.handle_result(result.clone());
                    let ack_sharded = sharded.handle_result(result);
                    assert_eq!(ack_ref, ack_sharded);
                    assert_eq!(reference.parameters(), sharded.parameters());
                }
            }
        }
        assert_eq!(reference.clock(), sharded.clock());
    }

    #[test]
    fn per_shard_mode_attributes_vector_clock_staleness_end_to_end() {
        let (base, mut workers, _) = build_world(2);
        let mut server = FleetServer::new(
            base.parameters().to_vec(),
            base.config
                .to_builder()
                .shards(4)
                .aggregation_k(2)
                .apply_mode(ApplyMode::PerShard)
                .build()
                .unwrap(),
        );
        // Both workers pull at vector clock [0, 0, 0, 0].
        let pull = |server: &mut FleetServer, worker: &mut Worker| {
            let request = worker.request();
            match server.handle_request(&request) {
                TaskResponse::Assignment(a) => a,
                TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
            }
        };
        let a0 = pull(&mut server, &mut workers[0]);
        let a1 = pull(&mut server, &mut workers[1]);
        assert_eq!(a0.shard_clocks, vec![0; 4]);

        // First result buffers on every shard (K = 2) ...
        let r0 = workers[0].execute(&a0).unwrap();
        assert!(r0.read_clock.is_some(), "worker must echo the vector clock");
        let ack0 = server.handle_result(r0);
        assert!(!ack0.model_updated);
        // ... then shard 0 is drained ahead of its K-th submission.
        assert!(server.parameter_server.flush_shard(0));
        assert_eq!(server.parameter_server.shard_clocks(), vec![1, 0, 0, 0]);

        // The second result sees the divergence: shard 0 applied one update
        // since the worker's read, the others none.
        let r1 = workers[1].execute(&a1).unwrap();
        let ack1 = server.handle_result(r1);
        assert!(ack1.model_updated, "shards 1–3 reach K on this result");
        assert_eq!(
            server.parameter_server.last_shard_staleness(),
            &[1, 0, 0, 0]
        );
        assert_eq!(server.parameter_server.shard_clocks(), vec![1, 1, 1, 1]);
        assert!(ack1.scaling_factor > 0.0 && ack1.scaling_factor <= 1.0);
    }

    #[test]
    fn controller_thresholds_reject_small_batches() {
        let dataset = Arc::new(generate(&SyntheticSpec::vector(4, 6, 40), 3));
        let model = mlp_classifier(6, &[8], 4, 0);
        let mut server = FleetServer::new(
            model.parameters(),
            FleetServerConfig {
                num_classes: 4,
                thresholds: ControllerThresholds {
                    min_batch_size: usize::MAX,
                    max_similarity: None,
                },
                ..FleetServerConfig::default()
            },
        );
        let mut worker = Worker::new(
            0,
            Device::new(catalogue()[0].clone(), 0),
            dataset,
            (0..40).collect(),
            mlp_classifier(6, &[8], 4, 0),
            1,
        );
        let request = worker.request();
        match server.handle_request(&request) {
            TaskResponse::Rejected(_) => {}
            TaskResponse::Assignment(_) => panic!("expected rejection"),
        }
        assert_eq!(server.controller().rejected(), 1);
    }

    #[test]
    fn training_improves_accuracy_end_to_end() {
        let (mut server, mut workers, dataset) = build_world(6);
        let mut eval_model = mlp_classifier(6, &[8], 4, 0);
        let (inputs, labels) = dataset.batch(&(0..dataset.len()).collect::<Vec<_>>());

        eval_model.set_parameters(server.parameters()).unwrap();
        let before = fleet_ml::metrics::accuracy(&eval_model.predict(&inputs).unwrap(), &labels);

        for _ in 0..30 {
            for worker in workers.iter_mut() {
                let request = worker.request();
                if let TaskResponse::Assignment(mut a) = server.handle_request(&request) {
                    // Keep the batches small so the test stays fast.
                    a.mini_batch_size = a.mini_batch_size.min(32);
                    let result = worker.execute(&a).unwrap();
                    server.handle_result(result);
                }
            }
        }
        eval_model.set_parameters(server.parameters()).unwrap();
        let after = fleet_ml::metrics::accuracy(&eval_model.predict(&inputs).unwrap(), &labels);
        assert!(
            after > before + 0.1,
            "accuracy should improve: {before} -> {after}"
        );
    }

    fn forged_result(server: &FleetServer, worker_id: u64) -> TaskResult {
        TaskResult {
            worker_id,
            model_version: 0,
            gradient: fleet_ml::Gradient::from_vec(vec![1.0; server.parameters().len()]),
            label_distribution: fleet_data::LabelDistribution::from_labels(&[0, 1], 4),
            num_samples: 2,
            computation_seconds: 1.0,
            energy_pct: 0.5,
            read_clock: None,
            task_id: None,
        }
    }

    #[test]
    fn unsolicited_results_are_rejected() {
        // Regression: an id-less result from a worker that never sent a
        // request used to be applied — and trained I-Prof under a fabricated
        // "unknown" device model. It must be rejected without side effects.
        let (mut server, _, _) = build_world(2);
        let before = server.parameters().to_vec();
        let ack = server.handle_result(forged_result(&server, 999));
        assert_eq!(ack.disposition, ResultDisposition::Unsolicited);
        assert!(!ack.model_updated);
        assert_eq!(ack.scaling_factor, 0.0);
        assert_eq!(server.clock(), 0);
        assert_eq!(server.parameters(), before.as_slice());
        assert!(
            server.checkpoint().iprof.latency.personal.is_empty(),
            "a rejected result must not train I-Prof"
        );
    }

    #[test]
    fn legacy_idless_results_from_known_workers_still_apply() {
        // Wire v1/v2 peers carry no task id; their results bypass dedup but
        // stay accepted as long as the worker has actually registered.
        let (mut server, mut workers, _) = build_world(2);
        let request = workers[0].request();
        assert!(matches!(
            server.handle_request(&request),
            TaskResponse::Assignment(_)
        ));
        let ack = server.handle_result(forged_result(&server, request.worker_id));
        assert_eq!(ack.disposition, ResultDisposition::Applied);
        assert!(ack.model_updated);
    }

    #[test]
    fn wire_duplicate_replay_is_rejected() {
        // The same wire bytes delivered twice: the first copy applies, the
        // second is acknowledged as a duplicate and the model is untouched.
        let (mut server, mut workers, _) = build_world(2);
        let response = server
            .handle_request_wire(workers[0].request_wire())
            .expect("self-encoded request");
        let assignment = match response {
            TaskResponse::Assignment(a) => a,
            TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
        };
        let raw = workers[0].execute_wire(&assignment).unwrap();
        let first = server.handle_result_wire(raw.clone()).unwrap();
        assert_eq!(first.disposition, ResultDisposition::Applied);
        assert!(first.model_updated);

        let after_first = server.parameters().to_vec();
        let clock_after_first = server.clock();
        let second = server.handle_result_wire(raw).unwrap();
        assert_eq!(second.disposition, ResultDisposition::Duplicate);
        assert!(!second.model_updated);
        assert_eq!(second.scaling_factor, 0.0);
        assert_eq!(server.clock(), clock_after_first);
        assert_eq!(server.parameters(), after_first.as_slice());
        assert_eq!(server.tasks().export_state().completed.len(), 1);
    }

    #[test]
    fn wire_result_with_wrong_gradient_length_is_refused_before_the_lease_completes() {
        let (mut server, mut workers, _) = build_world(2);
        let response = server
            .handle_request_wire(workers[0].request_wire())
            .expect("self-encoded request");
        let assignment = match response {
            TaskResponse::Assignment(a) => a,
            TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
        };
        let honest = workers[0].execute(&assignment).unwrap();
        let mut short = honest.clone();
        short.gradient = fleet_ml::Gradient::zeros(honest.gradient.len() - 1);
        let before = server.parameters().to_vec();

        assert_eq!(
            server.handle_result_wire(wire::encode_result(&short)),
            Err(WireError::LengthOutOfBounds(honest.gradient.len() - 1))
        );
        assert_eq!(server.tasks().outstanding_len(), 1);
        assert_eq!(server.tasks().export_state().completed.len(), 0);
        assert_eq!(server.clock(), 0);
        assert_eq!(server.parameters(), before.as_slice());

        // The honest retry of the same lease is not a duplicate.
        let ack = server
            .handle_result_wire(wire::encode_result(&honest))
            .unwrap();
        assert_eq!(ack.disposition, ResultDisposition::Applied);
        assert_eq!(server.tasks().outstanding_len(), 0);
    }

    #[test]
    fn expired_leases_reject_straggler_results() {
        let (base, mut workers, _) = build_world(2);
        // A one-round lease: zero rounds-per-second budget floored at 1.
        let mut server = FleetServer::new(
            base.parameters().to_vec(),
            FleetServerConfig {
                lease_min_rounds: 1,
                lease_rounds_per_second: 0.0,
                ..base.config.clone()
            },
        );
        let slow_assignment = match server.handle_request(&workers[0].request()) {
            TaskResponse::Assignment(a) => a,
            TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
        };
        // Worker 1 completes a task, advancing the clock past the deadline.
        if let TaskResponse::Assignment(a) = server.handle_request(&workers[1].request()) {
            server.handle_result(workers[1].execute(&a).unwrap());
        }
        assert_eq!(server.clock(), 1);
        let straggler = workers[0].execute(&slow_assignment).unwrap();
        let before = server.parameters().to_vec();
        let ack = server.handle_result(straggler);
        assert_eq!(ack.disposition, ResultDisposition::Expired);
        assert!(!ack.model_updated);
        assert_eq!(server.parameters(), before.as_slice());
        assert_eq!(server.tasks().export_state().expired.len(), 1);
    }

    #[test]
    fn overload_backpressure_sheds_requests() {
        let (base, mut workers, _) = build_world(3);
        // K = 100 means nothing ever applies; max_pending = 1 saturates the
        // single shard after one buffered gradient.
        let mut server = FleetServer::new(
            base.parameters().to_vec(),
            base.config
                .to_builder()
                .aggregation_k(100)
                .max_pending(1)
                .build()
                .unwrap(),
        );
        let a = match server.handle_request(&workers[0].request()) {
            TaskResponse::Assignment(a) => a,
            TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
        };
        let ack = server.handle_result(workers[0].execute(&a).unwrap());
        assert_eq!(ack.disposition, ResultDisposition::Applied);
        assert!(!ack.model_updated, "K = 100 only buffers");

        match server.handle_request(&workers[1].request()) {
            TaskResponse::Rejected(RejectionReason::Overloaded { shard }) => {
                assert_eq!(shard, 0);
            }
            other => panic!("expected overload rejection, got {other:?}"),
        }
        assert_eq!(server.controller().counters().rejected_overload, 1);
        assert_eq!(server.controller().rejected(), 1);
    }

    #[test]
    fn reclaimed_tasks_reject_the_dead_workers_straggler() {
        // A worker disconnects mid-task: the transport reclaims its lease,
        // and a late upload (the worker came back) is Expired, not applied.
        let (mut server, mut workers, _) = build_world(2);
        let assignment = match server.handle_request(&workers[0].request()) {
            TaskResponse::Assignment(a) => a,
            TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
        };
        assert!(server.reclaim_task(assignment.task_id));
        assert!(!server.reclaim_task(assignment.task_id), "idempotent");
        assert_eq!(server.tasks().outstanding_len(), 0);
        assert_eq!(server.tasks().export_state().expired.len(), 1);

        let straggler = workers[0].execute(&assignment).unwrap();
        let before = server.parameters().to_vec();
        let ack = server.handle_result(straggler);
        assert_eq!(ack.disposition, ResultDisposition::Expired);
        assert_eq!(server.parameters(), before.as_slice());

        // The freed worker immediately gets a fresh lease.
        assert!(matches!(
            server.handle_request(&workers[0].request()),
            TaskResponse::Assignment(_)
        ));
    }

    #[test]
    fn drain_flushes_per_shard_pending_and_noops_in_lockstep() {
        let (base, mut workers, _) = build_world(2);
        let mut lockstep = FleetServer::new(
            base.parameters().to_vec(),
            base.config.to_builder().aggregation_k(2).build().unwrap(),
        );
        if let TaskResponse::Assignment(a) = lockstep.handle_request(&workers[0].request()) {
            lockstep.handle_result(workers[0].execute(&a).unwrap());
        }
        let before = lockstep.parameters().to_vec();
        assert_eq!(lockstep.drain(), 0, "lockstep pending is checkpointable");
        assert_eq!(lockstep.parameters(), before.as_slice());

        let mut per_shard = FleetServer::new(
            base.parameters().to_vec(),
            base.config
                .to_builder()
                .aggregation_k(2)
                .shards(2)
                .apply_mode(ApplyMode::PerShard)
                .build()
                .unwrap(),
        );
        if let TaskResponse::Assignment(a) = per_shard.handle_request(&workers[1].request()) {
            per_shard.handle_result(workers[1].execute(&a).unwrap());
        }
        let before = per_shard.parameters().to_vec();
        assert_eq!(per_shard.drain(), 2, "both shards held a buffered gradient");
        assert_ne!(
            per_shard.parameters(),
            before.as_slice(),
            "the flushed gradient reaches the model before the checkpoint"
        );
        assert_eq!(per_shard.drain(), 0, "nothing left to flush");
    }

    #[test]
    fn lease_straddling_a_checkpoint_survives_restore() {
        // Audit regression: a lease outstanding at checkpoint time must
        // travel through the checkpoint codec intact — a restore must
        // neither orphan the issued task id (the upload would come back
        // `Unsolicited`) nor forget the dedup/expiry bookkeeping around it.
        let (mut server, mut workers, _) = build_world(2);
        let assignment = match server.handle_request(&workers[0].request()) {
            TaskResponse::Assignment(a) => a,
            TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
        };
        let encoded = crate::checkpoint::encode_checkpoint(&server.checkpoint());
        let state = crate::checkpoint::decode_checkpoint(encoded).expect("roundtrip");
        assert_eq!(state.tasks.outstanding.len(), 1, "lease must be captured");

        let mut restored =
            FleetServer::new(vec![0.0; server.parameters().len()], server.config.clone());
        restored.restore_checkpoint(state.clone());
        assert_eq!(restored.tasks().outstanding_len(), 1);

        // The pre-checkpoint upload applies exactly once after restore.
        let result = workers[0].execute(&assignment).unwrap();
        let ack = restored.handle_result(result.clone());
        assert_eq!(ack.disposition, ResultDisposition::Applied);
        assert_eq!(
            restored.handle_result(result.clone()).disposition,
            ResultDisposition::Duplicate
        );
        assert_eq!(restored.tasks().outstanding_len(), 0);
        assert_eq!(restored.tasks().export_state().completed.len(), 1);

        // Task-id continuity: the restored table never reuses the id.
        match restored.handle_request(&workers[1].request()) {
            TaskResponse::Assignment(next) => assert!(next.task_id > assignment.task_id),
            TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
        }

        // The other deterministic fate: a restore that reclaims the lease
        // (worker presumed dead) classifies the straggler Expired.
        let mut reclaimed =
            FleetServer::new(vec![0.0; server.parameters().len()], server.config.clone());
        reclaimed.restore_checkpoint(state);
        assert!(reclaimed.reclaim_task(assignment.task_id));
        let straggler = workers[0].execute(&assignment).unwrap();
        assert_eq!(
            reclaimed.handle_result(straggler).disposition,
            ResultDisposition::Expired
        );
    }

    #[test]
    fn checkpoint_restore_resumes_bitwise() {
        // Crash-restart the server mid-run: encode the checkpoint through
        // the binary codec, restore into a freshly built server, and both
        // must stay bit-identical under the same subsequent traffic.
        let (mut server, mut workers, _) = build_world(4);
        for worker in workers.iter_mut() {
            if let TaskResponse::Assignment(a) = server.handle_request(&worker.request()) {
                server.handle_result(worker.execute(&a).unwrap());
            }
        }
        let encoded = crate::checkpoint::encode_checkpoint(&server.checkpoint());
        let state = crate::checkpoint::decode_checkpoint(encoded).expect("roundtrip");
        assert_eq!(state, server.checkpoint());

        let mut restored =
            FleetServer::new(vec![0.0; server.parameters().len()], server.config.clone());
        restored.restore_checkpoint(state);
        assert_eq!(restored.parameters(), server.parameters());

        for worker in workers.iter_mut() {
            let request = worker.request();
            let (a, b) = (
                server.handle_request(&request),
                restored.handle_request(&request),
            );
            assert_eq!(a, b);
            if let TaskResponse::Assignment(assignment) = a {
                let result = worker.execute(&assignment).unwrap();
                assert_eq!(
                    server.handle_result(result.clone()),
                    restored.handle_result(result)
                );
            }
        }
        assert_eq!(server.parameters(), restored.parameters());
        assert_eq!(server.checkpoint(), restored.checkpoint());
    }

    proptest::proptest! {
        #[test]
        fn prop_duplicate_replays_never_advance_the_model(
            dup_counts in proptest::collection::vec(1usize..4, 4),
        ) {
            // For any duplication schedule — including late replays after
            // the clock has advanced — the model evolves exactly as in the
            // applied-once schedule.
            let (mut duplicated, mut workers, _) = build_world(4);
            let mut reference = FleetServer::new(
                duplicated.parameters().to_vec(),
                duplicated.config.clone(),
            );
            let mut sent = Vec::new();
            for (worker, dups) in workers.iter_mut().zip(dup_counts) {
                let request = worker.request();
                let (a, b) = (
                    duplicated.handle_request(&request),
                    reference.handle_request(&request),
                );
                proptest::prop_assert_eq!(&a, &b);
                if let TaskResponse::Assignment(mut assignment) = a {
                    // Keep the batches small so the 64 proptest cases stay fast.
                    assignment.mini_batch_size = assignment.mini_batch_size.min(8);
                    let result = worker.execute(&assignment).unwrap();
                    let ack = reference.handle_result(result.clone());
                    proptest::prop_assert_eq!(ack.disposition, ResultDisposition::Applied);
                    for copy in 0..dups {
                        let ack = duplicated.handle_result(result.clone());
                        let expected = if copy == 0 {
                            ResultDisposition::Applied
                        } else {
                            ResultDisposition::Duplicate
                        };
                        proptest::prop_assert_eq!(ack.disposition, expected);
                    }
                    sent.push(result);
                }
            }
            // A full late replay of everything: all duplicates, no effect.
            for result in sent {
                let ack = duplicated.handle_result(result);
                proptest::prop_assert_eq!(ack.disposition, ResultDisposition::Duplicate);
            }
            proptest::prop_assert_eq!(duplicated.clock(), reference.clock());
            proptest::prop_assert_eq!(duplicated.parameter_server.updates_applied(), reference.parameter_server.updates_applied());
            proptest::prop_assert_eq!(duplicated.parameters(), reference.parameters());
        }
    }
}
