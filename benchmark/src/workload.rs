//! The four workloads and everything generated from the seed: the event
//! schedule, the fleet of real workers, the replay templates and the server
//! configuration. Nothing here reads a clock.

use fleet_core::ApplyMode;
use fleet_data::partition::{iid_partition, non_iid_shards};
use fleet_data::synthetic::{generate, SyntheticSpec};
use fleet_data::Dataset;
use fleet_device::profile::catalogue;
use fleet_device::Device;
use fleet_loadgen::{EventKind, FleetShape, Schedule, WorkloadSpec};
use fleet_ml::models::{mlp_classifier, table1_cifar100_cnn, table1_mnist_cnn};
use fleet_ml::Sequential;
use fleet_server::protocol::{TaskAssignment, TaskRequest, TaskResult};
use fleet_server::{FleetServer, FleetServerConfig, Worker};
use std::sync::Arc;

/// Client connections of a throughput pass: this host's `nproc`, fixed so
/// that results from different hosts describe the same load.
pub const CONNECTIONS: usize = 2;
/// Mini-batch every gradient in the benchmark is computed on.
pub const BATCH: usize = 32;
/// Share of a pass's events that run before timing starts.
pub const WARMUP_SHARE: f64 = 0.10;

/// The model a workload's parameter vector and gradients come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `FleetShape::default()`: the 6→8→4 MLP, 92 parameters.
    TinyMlp,
    /// `table1_mnist_cnn`, 11 786 parameters, 1×28×28 inputs.
    MnistCnn,
    /// `table1_cifar100_cnn`, 324 516 parameters, 3×32×32 inputs.
    CifarCnn,
}

impl ModelKind {
    /// A fresh model replica with the seed-0 initialisation every worker and
    /// the server share.
    pub fn build(self) -> Sequential {
        match self {
            ModelKind::TinyMlp => {
                let shape = FleetShape::default();
                mlp_classifier(shape.feature_dim, &[8], shape.num_classes, 0)
            }
            ModelKind::MnistCnn => table1_mnist_cnn(0),
            ModelKind::CifarCnn => table1_cifar100_cnn(0),
        }
    }

    pub fn num_classes(self) -> usize {
        match self {
            ModelKind::TinyMlp => FleetShape::default().num_classes,
            ModelKind::MnistCnn => 10,
            ModelKind::CifarCnn => 100,
        }
    }

    fn feature_shape(self) -> Vec<usize> {
        match self {
            ModelKind::TinyMlp => vec![FleetShape::default().feature_dim],
            ModelKind::MnistCnn => vec![1, 28, 28],
            ModelKind::CifarCnn => vec![3, 32, 32],
        }
    }

    /// Multiply-accumulates of one sample's forward pass, one entry per layer
    /// with weights, computed from the layer shapes.
    fn forward_macs(self) -> Vec<u64> {
        // conv: out_h · out_w · out_c · (k · k · in_c); dense: in · out.
        match self {
            ModelKind::TinyMlp => vec![6 * 8, 8 * 4],
            ModelKind::MnistCnn => vec![24 * 24 * 8 * 25, 4 * 4 * 48 * (25 * 8), 192 * 10],
            ModelKind::CifarCnn => vec![
                30 * 30 * 16 * (9 * 3),
                12 * 12 * 64 * (9 * 16),
                576 * 384,
                384 * 192,
                192 * 100,
            ],
        }
    }

    /// Floating-point operations of one gradient on `batch` samples: forward
    /// plus weight-gradient for every layer, plus input-gradient for every
    /// layer but the first, two operations per multiply-accumulate.
    pub fn gradient_flops(self, batch: usize) -> f64 {
        let macs = self.forward_macs();
        let total: u64 = macs.iter().sum::<u64>() * 3 - macs[0];
        2.0 * total as f64 * batch as f64
    }
}

/// One workload: what is driven, how much of it, and through which path.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub model: ModelKind,
    pub workers: usize,
    pub ops_per_worker: usize,
    /// `TransportConfig::builder().durable(dir)` with the shipped defaults.
    pub durable: bool,
    /// No socket: the handlers and a real `Worker::execute` in one thread.
    pub inproc: bool,
}

/// The fixed operation counts. A pass drives `workers × ops_per_worker`
/// tasks; a run repeats passes until `--seconds` have been measured.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_tiny",
        model: ModelKind::TinyMlp,
        workers: 256,
        ops_per_worker: 48,
        durable: false,
        inproc: false,
    },
    Workload {
        name: "serve_cifar",
        model: ModelKind::CifarCnn,
        workers: 32,
        ops_per_worker: 16,
        durable: false,
        inproc: false,
    },
    Workload {
        name: "serve_durable",
        model: ModelKind::MnistCnn,
        workers: 128,
        ops_per_worker: 24,
        durable: true,
        inproc: false,
    },
    Workload {
        name: "train_inproc",
        model: ModelKind::MnistCnn,
        workers: 64,
        ops_per_worker: 20,
        durable: false,
        inproc: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The smoke-mode variant: an eighth of the operations.
    pub fn reduced(mut self) -> Workload {
        self.ops_per_worker = (self.ops_per_worker / 8).max(2);
        self
    }

    pub fn tasks(&self) -> usize {
        self.workers * self.ops_per_worker
    }

    /// The event order of a pass. `share_divisor` 1 is the full schedule, 4
    /// the first quarter of every worker's operations: a worker's stream is
    /// generated sequentially from its own seed, so the shorter schedule is
    /// a prefix of the longer one per worker.
    pub fn schedule(&self, seed: u64, share_divisor: usize, parameters: usize) -> Schedule {
        let spec = WorkloadSpec {
            workers: self.workers,
            ops_per_worker: (self.ops_per_worker / share_divisor).max(1),
            batch_size: BATCH,
            model_len: parameters,
            seed,
            ..WorkloadSpec::default()
        };
        Schedule::generate(&spec).expect("workload counts are non-zero")
    }

    /// The server configuration every workload shares (as
    /// `examples/fleet_load.rs`): per-shard apply over four shards, K = 2,
    /// and leases long enough that none expires during a pass.
    pub fn server_config(&self) -> FleetServerConfig {
        FleetServerConfig::builder()
            .num_classes(self.model.num_classes())
            .shards(4)
            .aggregation_k(2)
            .apply_mode(ApplyMode::PerShard)
            .max_pending(64)
            .lease_min_rounds(1 << 20)
            .build()
            .expect("benchmark server config is valid")
    }

    pub fn new_server(&self, parameters: &[f32]) -> FleetServer {
        FleetServer::new(parameters.to_vec(), self.server_config())
    }
}

/// One schedule event, with the worker resolved to its fleet index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub worker: u32,
    pub submit: bool,
}

pub fn steps(schedule: &Schedule) -> Vec<Step> {
    schedule
        .events()
        .iter()
        .map(|e| Step {
            worker: e.worker,
            submit: e.kind == EventKind::Submit,
        })
        .collect()
}

/// The seeded dataset and the real workers over a non-IID partition of it.
pub struct Fleet {
    pub workers: Vec<Worker>,
    /// The examples the workers hold, and which worker holds which.
    pub dataset: Arc<Dataset>,
    pub partitions: Vec<Vec<usize>>,
    /// Examples no worker holds, for the accuracy check.
    pub held_out: Dataset,
    /// The server's (and every replica's) initial parameters.
    pub parameters: Vec<f32>,
}

/// Builds the fleet from the seed: one shared synthetic dataset of the
/// model's input shape, a non-IID partition, device profiles cycling
/// through the paper's catalogue (the construction of
/// `fleet_loadgen::build_fleet`, generalised over the model).
pub fn build_fleet(workload: &Workload, seed: u64) -> Fleet {
    let model = workload.model;
    // Every worker holds at least a batch; a tenth more is held out.
    let per_worker = match model {
        ModelKind::TinyMlp => 4,
        ModelKind::MnistCnn => BATCH,
        ModelKind::CifarCnn => 8,
    };
    let train = workload.workers * per_worker;
    let spec = SyntheticSpec {
        num_classes: model.num_classes(),
        feature_shape: model.feature_shape(),
        num_examples: train + train / 10,
        cluster_std: 0.1,
        cluster_spread: 1.0,
    };
    let (train_set, held_out) = generate(&spec, seed ^ 0x6f6c_6461).split(1.0 / 11.0);
    let dataset = Arc::new(train_set);
    // The serving fleets are non-IID like `fleet_loadgen`'s (two label shards
    // per worker). `train_inproc` checks that the model learns, and within
    // the ~640 updates of a pass this CNN only does so reliably from IID
    // workers on well-separated clusters.
    let users = if workload.inproc {
        iid_partition(&dataset, workload.workers, seed ^ 0x7368_6472)
    } else {
        non_iid_shards(&dataset, workload.workers, 2, seed ^ 0x7368_6472)
    };
    let profiles = catalogue();
    let workers = users
        .iter()
        .enumerate()
        .map(|(i, indices)| {
            Worker::new(
                i as u64,
                Device::new(profiles[i % profiles.len()].clone(), seed ^ i as u64),
                Arc::clone(&dataset),
                indices.clone(),
                model.build(),
                sampler_seed(seed, i),
            )
        })
        .collect();
    Fleet {
        workers,
        dataset,
        partitions: users,
        held_out,
        parameters: model.build().parameters(),
    }
}

/// The seed of worker `index`'s mini-batch sampler.
pub fn sampler_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_add(0x1000)
}

/// What a replay worker keeps of an assignment: the three fields a result
/// must echo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    pub task_id: u64,
    pub model_version: u64,
    pub shard_clocks: Vec<u64>,
}

impl From<TaskAssignment> for Lease {
    fn from(assignment: TaskAssignment) -> Self {
        Lease {
            task_id: assignment.task_id,
            model_version: assignment.model_version,
            shard_clocks: assignment.shard_clocks,
        }
    }
}

/// A worker whose gradient was computed once, at set-up: every submit
/// re-stamps the template with the assignment it answers, so the phone's
/// gradient computation never competes with the server for this host's
/// cores during a timed pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayWorker {
    pub request: TaskRequest,
    template: TaskResult,
    /// The outstanding assignment and the nanoseconds its request exchange
    /// took.
    pub pending: Option<(Lease, u64)>,
}

impl ReplayWorker {
    /// Computes the worker's one real gradient against the initial model.
    pub fn new(worker: &mut Worker, parameters: &[f32]) -> ReplayWorker {
        let request = worker.request();
        let template = worker
            .execute(&TaskAssignment {
                task_id: 0,
                model_parameters: parameters.to_vec(),
                model_version: 0,
                shard_clocks: Vec::new(),
                mini_batch_size: BATCH,
            })
            .expect("the fleet's replicas share the served architecture");
        ReplayWorker {
            request,
            template,
            pending: None,
        }
    }

    pub fn template(&self) -> &TaskResult {
        &self.template
    }

    /// The template, echoing `lease` the way `Worker::execute` echoes an
    /// assignment.
    pub fn stamp(&mut self, lease: Lease) -> &TaskResult {
        self.template.task_id = Some(lease.task_id);
        self.template.model_version = lease.model_version;
        self.template.read_clock = Some(lease.shard_clocks);
        &self.template
    }
}

/// FNV-1a, one word at a time: the digest every "identical across runs"
/// check uses.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, word| {
        (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn digest(bytes: &[u8]) -> u64 {
    fnv1a(bytes.iter().map(|&b| u64::from(b)))
}

pub fn parameter_digest(parameters: &[f32]) -> u64 {
    fnv1a(parameters.iter().map(|p| u64::from(p.to_bits())))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fleet_server::wire;

    /// A fleet small enough for a unit test, on the tiny model.
    pub(crate) fn small(durable: bool) -> Workload {
        Workload {
            name: "test",
            model: ModelKind::TinyMlp,
            workers: 6,
            ops_per_worker: 8,
            durable,
            inproc: false,
        }
    }

    pub(crate) fn replay_fleet(workload: &Workload, seed: u64) -> (Vec<ReplayWorker>, Vec<f32>) {
        let fleet = build_fleet(workload, seed);
        let workers = fleet
            .workers
            .into_iter()
            .map(|mut worker| ReplayWorker::new(&mut worker, &fleet.parameters))
            .collect();
        (workers, fleet.parameters)
    }

    #[test]
    fn a_restamped_result_round_trips_equal_to_its_template_but_for_the_echo() {
        let (mut workers, _) = replay_fleet(&small(false), 7);
        let worker = &mut workers[2];
        let template = worker.template().clone();
        let lease = Lease {
            task_id: 41,
            model_version: 9,
            shard_clocks: vec![3, 1, 4, 1],
        };
        let raw = wire::encode_result(worker.stamp(lease.clone()));
        let decoded = wire::decode_result(raw).expect("own encoding decodes");
        assert_eq!(decoded.task_id, Some(lease.task_id));
        assert_eq!(decoded.model_version, lease.model_version);
        assert_eq!(decoded.read_clock, Some(lease.shard_clocks));
        // Every other field is the template's.
        let echo_reset = TaskResult {
            task_id: template.task_id,
            model_version: template.model_version,
            read_clock: template.read_clock.clone(),
            ..decoded
        };
        assert_eq!(echo_reset, template);
    }

    #[test]
    fn two_generations_from_one_seed_give_identical_inputs() {
        let workload = small(false);
        let (a, parameters_a) = replay_fleet(&workload, 11);
        let (b, parameters_b) = replay_fleet(&workload, 11);
        assert_eq!(a, b);
        assert_eq!(parameters_a, parameters_b);
        assert_eq!(
            steps(&workload.schedule(11, 1, parameters_a.len())),
            steps(&workload.schedule(11, 1, parameters_b.len()))
        );
        let (c, _) = replay_fleet(&workload, 12);
        assert_ne!(a, c, "another seed gives other inputs");
        assert_ne!(
            steps(&workload.schedule(11, 1, 92)),
            steps(&workload.schedule(12, 1, 92))
        );
    }

    #[test]
    fn the_quarter_schedule_is_each_workers_first_quarter() {
        let workload = small(false);
        let full = steps(&workload.schedule(5, 1, 92));
        let quarter = steps(&workload.schedule(5, 4, 92));
        assert_eq!(full.len(), workload.tasks() * 2);
        assert_eq!(quarter.len(), workload.tasks() / 4 * 2);
        // Restricted to every worker's first two operations, the full
        // schedule is the quarter schedule.
        let mut seen = vec![0usize; workload.workers];
        let prefix: Vec<Step> = full
            .into_iter()
            .filter(|step| {
                let count = &mut seen[step.worker as usize];
                *count += 1;
                *count <= 2 * (workload.ops_per_worker / 4)
            })
            .collect();
        assert_eq!(prefix, quarter);
    }

    #[test]
    fn gradient_flops_follow_the_layer_shapes() {
        // 6→8→4 MLP: forward 80 MACs; backward weight grads 80, input grads
        // for the second layer only, 32.
        assert_eq!(
            ModelKind::TinyMlp.gradient_flops(1),
            2.0 * (80.0 + 80.0 + 32.0)
        );
    }
}
