//! The FLeet worker runtime: executes learning tasks on a (simulated) mobile
//! device against locally collected data.

use crate::protocol::{TaskAssignment, TaskRequest, TaskResult};
use crate::wire;
use bytes::Bytes;
use fleet_data::sampling::MiniBatchSampler;
use fleet_data::{Dataset, LabelDistribution};
use fleet_device::Device;
use fleet_ml::{MlError, Sequential};
use std::sync::Arc;

/// A worker: one user's device, local data, and model replica.
///
/// The worker never ships its raw data anywhere — it only reveals label
/// indices/counts with its requests and flat gradients with its results
/// (the privacy contract of §2.1).
#[derive(Debug)]
pub struct Worker {
    id: u64,
    device: Device,
    dataset: Arc<Dataset>,
    local_indices: Vec<usize>,
    sampler: MiniBatchSampler,
    model: Sequential,
}

impl Worker {
    /// Creates a worker.
    ///
    /// `model` must have the same architecture as the server's global model;
    /// its parameters are overwritten by every assignment.
    pub fn new(
        id: u64,
        device: Device,
        dataset: Arc<Dataset>,
        local_indices: Vec<usize>,
        model: Sequential,
        seed: u64,
    ) -> Self {
        Self {
            id,
            device,
            dataset,
            local_indices,
            sampler: MiniBatchSampler::new(seed),
            model,
        }
    }

    /// The worker's identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The simulated device the worker runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Label distribution of the worker's full local dataset.
    pub(crate) fn local_label_distribution(&self) -> LabelDistribution {
        let labels: Vec<usize> = self
            .local_indices
            .iter()
            .map(|&i| self.dataset.label(i))
            .collect();
        LabelDistribution::from_labels(&labels, self.dataset.num_classes())
    }

    /// Builds the learning-task request (step 1 of Fig. 2).
    pub fn request(&mut self) -> TaskRequest {
        TaskRequest {
            worker_id: self.id,
            device_model: self.device.profile().name.clone(),
            device_features: self.device.features(),
            label_distribution: self.local_label_distribution(),
            available_samples: self.local_indices.len(),
        }
    }

    /// Builds the learning-task request already encoded for the wire: the
    /// bytes a real device would put on the network for step 1.
    pub fn request_wire(&mut self) -> Bytes {
        wire::encode_request(&self.request())
    }

    /// Executes an assignment and returns the result encoded for the wire
    /// (step 5 as the device actually ships it).
    ///
    /// # Errors
    ///
    /// Returns an [`MlError`] when the assigned parameters do not match the
    /// worker's model architecture or the local data is unusable.
    pub fn execute_wire(&mut self, assignment: &TaskAssignment) -> Result<Bytes, MlError> {
        Ok(wire::encode_result(&self.execute(assignment)?))
    }

    /// Executes an assignment (step 5): samples a mini-batch of the requested
    /// size, computes the gradient against the assigned model parameters, and
    /// simulates the computation on the device to obtain latency and energy.
    ///
    /// # Errors
    ///
    /// Returns an [`MlError`] when the assigned parameters do not match the
    /// worker's model architecture or the local data is unusable.
    pub fn execute(&mut self, assignment: &TaskAssignment) -> Result<TaskResult, MlError> {
        if self.local_indices.is_empty() {
            return Err(MlError::InvalidArgument(
                "worker has no local data".to_string(),
            ));
        }
        self.model.set_parameters(&assignment.model_parameters)?;
        let batch_indices = self
            .sampler
            .sample(&self.local_indices, assignment.mini_batch_size.max(1));
        let (inputs, labels) = self.dataset.batch(&batch_indices);
        let (_, gradient) = self.model.compute_gradient(&inputs, &labels)?;
        let execution = self.device.execute_task(batch_indices.len());
        Ok(TaskResult {
            worker_id: self.id,
            model_version: assignment.model_version,
            gradient,
            label_distribution: LabelDistribution::from_labels(&labels, self.dataset.num_classes()),
            num_samples: batch_indices.len(),
            computation_seconds: execution.computation_seconds,
            energy_pct: execution.energy_pct,
            // Echo the model version and per-shard vector clock the
            // assignment carried. The server weighs the gradient by what the
            // task's lease recorded, so these are informational.
            read_clock: (!assignment.shard_clocks.is_empty())
                .then(|| assignment.shard_clocks.clone()),
            // Echo the task id: the lease the result completes, and how the
            // server deduplicates retransmissions.
            task_id: Some(assignment.task_id),
        })
    }
}

/// Deterministic bounded-retry policy for a worker whose request was shed
/// with [`crate::protocol::RejectionReason::Overloaded`]: exponential backoff
/// (`base · 2^attempt`, capped) with no jitter, so a simulated run schedules
/// retries identically every time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff of the first retry, in logical rounds.
    pub base_rounds: u64,
    /// Upper bound on any single backoff.
    pub max_backoff_rounds: u64,
    /// Retries before the worker gives the task up.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// The default policy: backoffs 1, 2, 4, 8 rounds, then give up.
    pub fn new() -> Self {
        Self {
            base_rounds: 1,
            max_backoff_rounds: 8,
            max_attempts: 4,
        }
    }

    /// Backoff before retry number `attempt` (0-based), or `None` when the
    /// attempts are exhausted and the worker should drop the task.
    pub fn backoff_rounds(&self, attempt: u32) -> Option<u64> {
        if attempt >= self.max_attempts {
            return None;
        }
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        Some(
            self.base_rounds
                .saturating_mul(factor)
                .min(self.max_backoff_rounds),
        )
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_data::synthetic::{generate, SyntheticSpec};
    use fleet_device::profile::by_name;
    use fleet_ml::models::mlp_classifier;

    fn worker() -> Worker {
        let dataset = Arc::new(generate(&SyntheticSpec::vector(4, 6, 80), 1));
        let indices: Vec<usize> = (0..40).collect();
        let model = mlp_classifier(6, &[8], 4, 0);
        Worker::new(
            7,
            Device::new(by_name("Galaxy S7").unwrap(), 3),
            dataset,
            indices,
            model,
            11,
        )
    }

    fn assignment(worker: &Worker, batch: usize) -> TaskAssignment {
        // Build a compatible parameter vector from a fresh replica.
        let replica = mlp_classifier(6, &[8], 4, 5);
        let _ = worker;
        TaskAssignment {
            task_id: 21,
            model_parameters: replica.parameters(),
            model_version: 3,
            shard_clocks: Vec::new(),
            mini_batch_size: batch,
        }
    }

    #[test]
    fn request_carries_label_distribution_and_device_state() {
        let mut w = worker();
        let req = w.request();
        assert_eq!(req.worker_id, 7);
        assert_eq!(req.device_model, "Galaxy S7");
        assert_eq!(req.available_samples, 40);
        let sum: f32 = req.label_distribution.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn execute_produces_gradient_and_costs() {
        let mut w = worker();
        let a = assignment(&w, 16);
        let result = w.execute(&a).unwrap();
        assert_eq!(result.worker_id, 7);
        assert_eq!(result.model_version, 3);
        assert_eq!(result.num_samples, 16);
        assert!(result.gradient.l2_norm() > 0.0);
        assert!(result.computation_seconds > 0.0);
        assert!(result.energy_pct > 0.0);
    }

    #[test]
    fn execute_caps_batch_at_available_data_without_failing() {
        let mut w = worker();
        let a = assignment(&w, 1000);
        let result = w.execute(&a).unwrap();
        assert_eq!(result.num_samples, 1000); // sampled with replacement
    }

    #[test]
    fn execute_rejects_mismatched_parameters() {
        let mut w = worker();
        let a = TaskAssignment {
            task_id: 0,
            model_parameters: vec![0.0; 3],
            model_version: 0,
            shard_clocks: Vec::new(),
            mini_batch_size: 8,
        };
        assert!(w.execute(&a).is_err());
    }

    #[test]
    fn worker_with_no_data_errors() {
        let dataset = Arc::new(generate(&SyntheticSpec::vector(4, 6, 10), 1));
        let model = mlp_classifier(6, &[8], 4, 0);
        let mut w = Worker::new(
            1,
            Device::new(by_name("Pixel").unwrap(), 1),
            dataset,
            Vec::new(),
            model,
            1,
        );
        let a = TaskAssignment {
            task_id: 0,
            model_parameters: mlp_classifier(6, &[8], 4, 0).parameters(),
            model_version: 0,
            shard_clocks: Vec::new(),
            mini_batch_size: 8,
        };
        assert!(w.execute(&a).is_err());
    }

    #[test]
    fn wire_request_and_result_roundtrip() {
        let mut w = worker();
        let request = crate::wire::decode_request(w.request_wire()).unwrap();
        assert_eq!(request.worker_id, 7);
        assert_eq!(request.device_model, "Galaxy S7");

        let a = assignment(&w, 8);
        let encoded = w.execute_wire(&a).unwrap();
        let result = crate::wire::decode_result(encoded).unwrap();
        assert_eq!(result.worker_id, 7);
        assert_eq!(result.model_version, 3);
        assert_eq!(result.num_samples, 8);
    }

    #[test]
    fn shard_clocks_are_echoed_as_read_clock() {
        let mut w = worker();
        let mut a = assignment(&w, 8);
        assert_eq!(w.execute(&a).unwrap().read_clock, None);
        a.shard_clocks = vec![4, 2, 3];
        let result = w.execute(&a).unwrap();
        assert_eq!(result.read_clock.as_deref(), Some(&[4, 2, 3][..]));
        // And it survives the wire roundtrip.
        let raw = w.execute_wire(&a).unwrap();
        let decoded = crate::wire::decode_result(raw).unwrap();
        assert_eq!(decoded.read_clock.as_deref(), Some(&[4, 2, 3][..]));
    }

    #[test]
    fn results_echo_the_assignments_task_id() {
        let mut w = worker();
        let a = assignment(&w, 8);
        assert_eq!(w.execute(&a).unwrap().task_id, Some(21));
        // And it survives the wire roundtrip (v3 bytes).
        let raw = w.execute_wire(&a).unwrap();
        let decoded = crate::wire::decode_result(raw).unwrap();
        assert_eq!(decoded.task_id, Some(21));
    }

    #[test]
    fn retry_backoff_doubles_then_caps_then_gives_up() {
        let policy = RetryPolicy::new();
        assert_eq!(policy.backoff_rounds(0), Some(1));
        assert_eq!(policy.backoff_rounds(1), Some(2));
        assert_eq!(policy.backoff_rounds(2), Some(4));
        assert_eq!(policy.backoff_rounds(3), Some(8));
        assert_eq!(policy.backoff_rounds(4), None);

        let capped = RetryPolicy {
            base_rounds: 3,
            max_backoff_rounds: 5,
            max_attempts: 64,
        };
        assert_eq!(capped.backoff_rounds(0), Some(3));
        assert_eq!(capped.backoff_rounds(1), Some(5));
        assert_eq!(
            capped.backoff_rounds(63),
            Some(5),
            "shift must not overflow"
        );
    }

    #[test]
    fn retry_policy_is_deterministic() {
        let a = RetryPolicy::new();
        let b = RetryPolicy::default();
        for attempt in 0..6 {
            assert_eq!(a.backoff_rounds(attempt), b.backoff_rounds(attempt));
        }
    }

    #[test]
    fn repeated_tasks_drain_battery() {
        let mut w = worker();
        let a = assignment(&w, 64);
        for _ in 0..5 {
            w.execute(&a).unwrap();
        }
        assert!(w.device().battery_pct() < 100.0);
        assert_eq!(w.device().tasks_executed(), 5);
    }
}
