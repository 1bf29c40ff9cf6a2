//! The FLeet server: glues I-Prof, the controller and AdaSGD together behind
//! the request/result protocol of Fig. 2.

use crate::controller::{Controller, ControllerCounters, ControllerThresholds};
use crate::protocol::{
    RejectionReason, ResultAck, ResultDisposition, TaskAssignment, TaskGrant, TaskRequest,
    TaskResponse, TaskResult,
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
use std::fmt;

/// Configuration of a [`FleetServer`].
///
/// The learning-rate / K / shards / backpressure cluster lives
/// in the embedded [`CoreConfig`] (shared with the simulation and the load
/// harness); [`FleetServerConfig::builder`] flattens those knobs so callers
/// write `.shards(8)` rather than reaching through `core`.
#[derive(Debug, Clone)]
pub struct FleetServerConfig {
    /// The shared core knobs: learning rate γ, aggregation parameter K and
    /// shard count, plus the `max_pending` backpressure bound
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
/// `shards`, `max_pending`) are flattened into this builder.
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

    /// Accepts the one apply schedule, [`ApplyMode::PerShard`], and changes
    /// nothing. Kept only because the frozen benchmark calls it; it goes in
    /// the next `[benchmark]` PR.
    pub fn apply_mode(self, _value: ApplyMode) -> Self {
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
    /// The current parameters as an assignment's encoded model field; see
    /// [`FleetServer::published_model`].
    published: Published,
}

/// The published model: encoded on the first assignment of a parameter
/// version, dropped at every parameter change. Its `Debug` shows the length
/// only, never the body.
#[derive(Default)]
struct Published(Option<Bytes>);

impl fmt::Debug for Published {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Published")
            .field("bytes", &self.0.as_ref().map(Bytes::len))
            .finish()
    }
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
            published: Published::default(),
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

    /// The server's logical clock: the aggregation-round counter (without
    /// flushes, the number of model updates so far).
    pub fn clock(&self) -> u64 {
        self.parameter_server.clock()
    }

    /// Access to the controller statistics.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// The current parameters encoded as an assignment's model field
    /// (`wire::encode_assignment`'s body): a shared view, not a copy.
    ///
    /// The first call after a parameter change encodes the model; every
    /// later call for the same version clones the view. Applying a result
    /// that moves the model, a [`FleetServer::drain`] that flushes a shard,
    /// and [`FleetServer::restore_checkpoint`] drop the published body, so
    /// the server holds at most one; a body still being written to a socket
    /// lives until its last view is dropped.
    pub fn published_model(&mut self) -> Bytes {
        let parameters = self.parameter_server.parameters();
        self.published
            .0
            .get_or_insert_with(|| wire::encode_model(parameters))
            .clone()
    }

    /// Handles a learning-task request (steps 1–4 of Fig. 2) and hands the
    /// model out by value.
    ///
    /// The assignment owns a copy of the parameters, made here on every
    /// accepted request; the in-process drivers compute on it directly. The
    /// socket server does not pay for it: it calls
    /// [`FleetServer::admit_request`] and sends
    /// [`FleetServer::published_model`], encoded once per model version.
    pub fn handle_request(&mut self, request: &TaskRequest) -> TaskResponse {
        match self.admit_request(request) {
            Ok(TaskGrant {
                task_id,
                model_version,
                shard_clocks,
                mini_batch_size,
            }) => TaskResponse::Assignment(TaskAssignment {
                task_id,
                model_parameters: self.parameter_server.parameters().to_vec(),
                model_version,
                shard_clocks,
                mini_batch_size,
            }),
            Err(reason) => TaskResponse::Rejected(reason),
        }
    }

    /// Admits or rejects a learning-task request (steps 1–4 of Fig. 2)
    /// without touching the model, plus the fault-tolerance envelope:
    /// expired leases are reclaimed, overload is shed before admission, and
    /// accepted tasks get a lease whose deadline budgets I-Prof's predicted
    /// compute time plus the modelled network transfer.
    ///
    /// Every request path runs through here: [`FleetServer::handle_request`]
    /// attaches a copy of the model, the socket server the published body,
    /// and journal replay nothing at all.
    ///
    /// # Errors
    ///
    /// The [`RejectionReason`] when the task is shed or refused.
    pub fn admit_request(&mut self, request: &TaskRequest) -> Result<TaskGrant, RejectionReason> {
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
            return Err(RejectionReason::Overloaded { shard });
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
                Ok(TaskGrant {
                    task_id,
                    model_version: self.parameter_server.clock(),
                    // The vector clock, which the worker echoes back for
                    // per-shard staleness attribution.
                    shard_clocks: self.parameter_server.shard_clocks(),
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
                Err(reason)
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
        self.handle_result_checked(wire::decode_result(raw)?)
    }

    /// Handles a result decoded from the wire: [`FleetServer::handle_result`]
    /// behind the check [`FleetServer::handle_result_wire`] documents, for a
    /// transport that decodes before it takes the server.
    ///
    /// # Errors
    ///
    /// [`WireError::LengthOutOfBounds`] when the gradient's length is not
    /// the model's parameter count; no state is touched.
    pub fn handle_result_checked(&mut self, result: TaskResult) -> Result<ResultAck, WireError> {
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
        // staleness attribution. The clock comes from outside, so one of the
        // wrong length is ignored rather than trusted; results from v1 peers
        // fall back to the scalar staleness.
        if result
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
        if outcome.applied {
            self.published = Published::default();
        }
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

    /// Drains the parameter server ahead of a shutdown: every shard with
    /// buffered gradients is flushed (applied) so the checkpoint captures
    /// their effect. Returns the number of shards flushed.
    pub fn drain(&mut self) -> usize {
        let flushed = self.parameter_server.flush();
        if flushed > 0 {
            self.published = Published::default();
        }
        flushed
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
        self.published = Published::default();
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
                match (
                    reference.handle_request(&request),
                    sharded.handle_request(&request),
                ) {
                    (TaskResponse::Assignment(a), TaskResponse::Assignment(b)) => {
                        // Every field but the vector clock, which has one
                        // entry per shard, and every entry is the clock.
                        assert_eq!(a.shard_clocks, vec![a.model_version]);
                        assert_eq!(b.shard_clocks, vec![a.model_version; 8]);
                        let strip = |x: &TaskAssignment| TaskAssignment {
                            shard_clocks: Vec::new(),
                            ..x.clone()
                        };
                        assert_eq!(strip(&a), strip(&b));
                        let result = worker.execute(&a).unwrap();
                        let mut sharded_result = result.clone();
                        sharded_result.read_clock = Some(b.shard_clocks);
                        let ack_ref = reference.handle_result(result);
                        let ack_sharded = sharded.handle_result(sharded_result);
                        assert_eq!(ack_ref, ack_sharded);
                        assert_eq!(reference.parameters(), sharded.parameters());
                    }
                    (a, b) => assert_eq!(a, b),
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
    fn drain_flushes_pending_gradients() {
        let (base, mut workers, _) = build_world(2);
        for (shards, worker) in [1, 2].into_iter().zip(workers.iter_mut()) {
            // The default config at K = 2, with one and with two shards.
            let mut server = FleetServer::new(
                base.parameters().to_vec(),
                base.config
                    .to_builder()
                    .aggregation_k(2)
                    .shards(shards)
                    .build()
                    .unwrap(),
            );
            if let TaskResponse::Assignment(a) = server.handle_request(&worker.request()) {
                server.handle_result(worker.execute(&a).unwrap());
            }
            let before = server.parameters().to_vec();
            assert_eq!(
                server.drain(),
                shards,
                "every shard held a buffered gradient"
            );
            assert_ne!(
                server.parameters(),
                before.as_slice(),
                "the flushed gradient reaches the model before the checkpoint"
            );
            assert_eq!(server.drain(), 0, "nothing left to flush");
        }
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

    /// Crash-restarts `server` mid-run: one warm-up round, `before_checkpoint`,
    /// then every worker pulls a task, the checkpoint goes through the binary
    /// codec into a freshly built server, and both must stay bit-identical
    /// under the same subsequent traffic — the uploads of the tasks assigned
    /// before the checkpoint first, then a fresh round.
    fn assert_checkpoint_restore_resumes_bitwise(
        mut server: FleetServer,
        workers: &mut [Worker],
        before_checkpoint: impl FnOnce(&mut FleetServer),
    ) -> FleetServerState {
        let pull = |server: &mut FleetServer, worker: &mut Worker| match server
            .handle_request(&worker.request())
        {
            TaskResponse::Assignment(a) => a,
            TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
        };
        for worker in workers.iter_mut() {
            let assignment = pull(&mut server, worker);
            server.handle_result(worker.execute(&assignment).unwrap());
        }
        before_checkpoint(&mut server);
        let in_flight: Vec<_> = workers
            .iter_mut()
            .map(|worker| pull(&mut server, worker))
            .collect();

        let checkpoint = server.checkpoint();
        let encoded = crate::checkpoint::encode_checkpoint(&checkpoint);
        let state = crate::checkpoint::decode_checkpoint(encoded).expect("roundtrip");
        assert_eq!(state, checkpoint);

        let mut restored =
            FleetServer::new(vec![0.0; server.parameters().len()], server.config.clone());
        restored.restore_checkpoint(state);
        assert_eq!(restored.parameters(), server.parameters());

        for (worker, assignment) in workers.iter_mut().zip(&in_flight) {
            let result = worker.execute(assignment).unwrap();
            let ack = server.handle_result(result.clone());
            assert_eq!(ack.disposition, ResultDisposition::Applied);
            assert_eq!(ack, restored.handle_result(result));
        }
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
        checkpoint
    }

    #[test]
    fn checkpoint_restore_resumes_bitwise() {
        // The default single-shard, K = 1 server.
        let (server, mut workers, _) = build_world(4);
        let checkpoint = assert_checkpoint_restore_resumes_bitwise(server, &mut workers, |_| {});
        assert_eq!(checkpoint.tasks.outstanding.len(), 4);
    }

    #[test]
    fn per_shard_checkpoint_restore_resumes_bitwise() {
        // Per-shard apply, two shards, K = 2: the checkpoint must carry a
        // pending segment and diverged shard clocks, and the in-flight
        // uploads echo read clocks taken before it.
        let (base, mut workers, _) = build_world(3);
        let server = FleetServer::new(
            base.parameters().to_vec(),
            base.config
                .to_builder()
                .shards(2)
                .aggregation_k(2)
                .build()
                .unwrap(),
        );
        let checkpoint =
            assert_checkpoint_restore_resumes_bitwise(server, &mut workers, |server| {
                // Three warm-up uploads at K = 2 leave one segment pending per
                // shard; draining shard 0 alone pulls its clock ahead.
                assert!(server.parameter_server.flush_shard(0));
            });
        let core = &checkpoint.parameter_server;
        assert_eq!(core.shard_clocks, vec![2, 1]);
        assert!(core.shard_pending[0].is_empty());
        assert_eq!(core.shard_pending[1].len(), 1);
        assert_eq!(checkpoint.tasks.outstanding.len(), 3);
    }

    /// SplitMix64: the seeded stream that picks the next operation.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Hands the same seeded interleaving of requests, results, drains,
    /// checkpoints and restores to two servers: one answers with
    /// `handle_request`'s copied assignment, the other with the grant plus
    /// the published body. Every assignment's parts must concatenate to the
    /// copied assignment's `encode_response` and decode to the current
    /// parameters — a body published before a change must never be sent
    /// after it.
    fn assert_published_model_stays_coherent(k: usize, seed: u64) {
        let (base, mut workers, _) = build_world(3);
        let config = base
            .config
            .to_builder()
            .shards(2)
            .aggregation_k(k)
            .build()
            .unwrap();
        let mut copied = FleetServer::new(base.parameters().to_vec(), config.clone());
        let mut shared = FleetServer::new(base.parameters().to_vec(), config);
        let mut snapshot = copied.checkpoint();
        let mut in_flight: Vec<TaskResult> = Vec::new();
        let mut rng = seed;
        let mut assignments = 0;
        for _ in 0..80 {
            match next(&mut rng) % 8 {
                0..=3 => {
                    let worker = next(&mut rng) as usize % workers.len();
                    let request = workers[worker].request();
                    match (
                        copied.handle_request(&request),
                        shared.admit_request(&request),
                    ) {
                        (TaskResponse::Assignment(assignment), Ok(grant)) => {
                            let parts = wire::encode_assignment(&grant, shared.published_model());
                            let sent: Vec<u8> =
                                parts.iter().flat_map(|part| part.iter().copied()).collect();
                            let whole = TaskResponse::Assignment(assignment.clone());
                            assert_eq!(sent, wire::encode_response(&whole).to_vec());
                            assert_eq!(wire::decode_response(Bytes::from(sent)), Ok(whole));
                            assert_eq!(assignment.model_parameters, shared.parameters());
                            assignments += 1;
                            let mut result = forged_result(&shared, request.worker_id);
                            let scale = (next(&mut rng) % 1000) as f32 * 1e-3;
                            result.gradient = fleet_ml::Gradient::from_vec(
                                (0..shared.parameters().len())
                                    .map(|i| scale * (i as f32).sin())
                                    .collect(),
                            );
                            result.model_version = assignment.model_version;
                            result.task_id = Some(assignment.task_id);
                            result.read_clock = Some(assignment.shard_clocks);
                            in_flight.push(result);
                        }
                        (TaskResponse::Rejected(a), Err(b)) => assert_eq!(a, b),
                        (a, b) => panic!("the servers diverged: {a:?} against {b:?}"),
                    }
                }
                4 | 5 if !in_flight.is_empty() => {
                    let result = in_flight.swap_remove(next(&mut rng) as usize % in_flight.len());
                    assert_eq!(
                        copied.handle_result(result.clone()),
                        shared.handle_result(result)
                    );
                }
                6 => assert_eq!(copied.drain(), shared.drain()),
                7 if next(&mut rng).is_multiple_of(2) => snapshot = copied.checkpoint(),
                7 => {
                    copied.restore_checkpoint(snapshot.clone());
                    shared.restore_checkpoint(snapshot.clone());
                }
                _ => {}
            }
            assert_eq!(copied.parameters(), shared.parameters());
        }
        assert!(assignments > 10, "K = {k}: too few assignments");
        assert_eq!(copied.checkpoint(), shared.checkpoint());
    }

    #[test]
    fn published_model_stays_coherent_under_seeded_interleavings() {
        for k in 1..=3 {
            for seed in [42, 7, 2024] {
                assert_published_model_stays_coherent(k, seed);
            }
        }
    }

    #[test]
    fn debug_output_names_the_published_body_without_printing_it() {
        let (mut server, _, _) = build_world(1);
        assert!(format!("{server:?}").contains("Published { bytes: None }"));
        let body = server.published_model();
        assert_eq!(body.len(), 4 + 4 * server.parameters().len());
        assert!(
            format!("{server:?}").contains(&format!("Published {{ bytes: Some({}) }}", body.len()))
        );
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
