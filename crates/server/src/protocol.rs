//! Messages exchanged between FLeet workers and the server (Fig. 2), plus
//! the fault-tolerance envelope around them.
//!
//! # Fault model
//!
//! Workers are mobile devices on flaky radio links: any message can be
//! *dropped*, *duplicated* (retransmission after a lost ack), or *delayed*
//! (straggler), and a worker can *crash and restart* between pulling a model
//! and pushing its gradient. The server must stay correct under all four:
//! a gradient must be applied **at most once**, a lost task must eventually
//! be reissued, and a result from a worker the server never assigned a task
//! to must not poison I-Prof's per-device models. None of this may perturb
//! the fault-free path — a run with no faults is bit-identical to one built
//! without the fault layer.
//!
//! # Lease lifecycle
//!
//! Every accepted [`TaskAssignment`] carries a server-issued, strictly
//! monotonic [`TaskAssignment::task_id`] and registers an *outstanding
//! lease*. The lease's deadline is a logical round derived from I-Prof's
//! predicted computation time plus the device's modelled network transfer
//! time — a fast phone on LTE gets a short lease, a slow phone on 3G a long
//! one. A lease ends in exactly one of two ways:
//!
//! * a result with its `task_id` arrives before the deadline — the lease
//!   moves to the *completed* set, and
//! * the deadline passes — the lease is *reclaimed* (moved to the *expired*
//!   set), freeing the server to hand the work to someone else; a straggler
//!   result arriving later is acknowledged but **not** applied.
//!
//! # Result dispositions
//!
//! [`ResultAck::disposition`] tells the worker what happened to its upload:
//!
//! | disposition    | condition                                  | applied? |
//! |----------------|--------------------------------------------|----------|
//! | `Applied`      | first result for an outstanding lease      | yes      |
//! | `Duplicate`    | `task_id` already in the completed set     | no       |
//! | `Expired`      | `task_id` reclaimed before the result came | no       |
//! | `Unsolicited`  | unknown `task_id`, or wrong worker, or a   | no       |
//! |                | legacy (id-less) result from a worker with |          |
//! |                | no recorded request                        |          |
//!
//! Only `Applied` results reach the parameter server and I-Prof; everything
//! else is acknowledged (so the worker stops retrying) and discarded.
//!
//! # Wire-format versions
//!
//! The binary codec ([`crate::wire`]) is append-only and the encoder always
//! emits the *oldest* version able to carry the message:
//!
//! | version | adds over previous            | emitted when                  |
//! |---------|-------------------------------|-------------------------------|
//! | v1      | baseline request/result       | no read clock, no task id     |
//! | v2      | `read_clock` vector clock     | `read_clock` present, no id   |
//! | v3      | `task_id` + explicit clock    | `task_id` present             |
//! |         | presence flag                 |                               |
//!
//! A v1 peer keeps decoding every result that carries neither a vector
//! clock nor a task id; v3 is only on the wire once the server actually
//! issues task ids.
//!
//! The server→worker messages have their own single-version line
//! (`RESPONSE_WIRE_VERSION` in [`crate::wire`]) covering [`TaskResponse`]
//! and [`ResultAck`] — they never cross a version boundary the
//! request/result line doesn't.
//!
//! # Connection-level events
//!
//! Over a real transport (`fleet-transport`), the fault model extends from
//! messages to *connections*. The dispositions above stay the single source
//! of truth; connection events only decide when leases are force-reclaimed
//! and when a peer is cut off:
//!
//! | event                              | server reaction                    |
//! |------------------------------------|------------------------------------|
//! | disconnect (clean close or crash)  | every lease issued over that       |
//! |                                    | connection is force-reclaimed; a   |
//! |                                    | straggler upload gets `Expired`    |
//! | torn frame (EOF mid-frame)         | connection dropped; leases         |
//! |                                    | reclaimed as above                 |
//! | malformed/oversized frame, unknown | best-effort `Error` frame, then    |
//! | kind, undecodable payload          | the connection is dropped          |
//! | frame stalled past the read budget | connection dropped (slow-loris     |
//! |                                    | defence); *idle between frames is  |
//! |                                    | not a fault — workers compute*     |
//! | saturated shard at request time    | `Overloaded` rejection travels the |
//! |                                    | wire as an ordinary `TaskResponse` |
//! | server drain/shutdown              | pending shard gradients flushed,   |
//! |                                    | checkpoint written, socket closed  |
//! | server process death (SIGKILL,     | with durability on                 |
//! | power loss) mid-run                | (`fleet-transport`'s               |
//! |                                    | `DurabilityOptions`): every        |
//! |                                    | applied submission is already in   |
//! |                                    | the write-ahead journal, so the    |
//! |                                    | restarted process replays to the   |
//! |                                    | exact pre-crash state              |
//! | upload acked `Applied` before the  | the journal entry is written       |
//! | crash, ack lost                    | *before* the ack, so replay        |
//! |                                    | re-applies it and the worker's     |
//! |                                    | retransmission gets `Duplicate`    |
//! | request answered, response lost to | lease recovered from the journal,  |
//! | the crash                          | left to expire; the worker's retry |
//! |                                    | gets a fresh assignment            |
//!
//! No event in this table can take down the accept loop or another
//! connection, and none of them perturbs the model trajectory: a reclaimed
//! lease is the same logical event as a timed-out one, an `Overloaded`
//! rejection leaves no trace in the parameter server, and a crash-restart
//! with durability on reproduces the uninterrupted trajectory bit-for-bit
//! (CI pins this as the `chaos_kill` digest).

use fleet_data::LabelDistribution;
use fleet_device::DeviceFeatures;
use fleet_ml::Gradient;
use serde::{Deserialize, Serialize};

/// Step 1: a worker asks for a learning task, sending its device state and
/// the label information of its locally collected data (only label indices
/// and counts — never the raw data, §2.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskRequest {
    /// The worker's identifier.
    pub worker_id: u64,
    /// The device model name (key for I-Prof's personalised models).
    pub device_model: String,
    /// Observable device state.
    pub device_features: DeviceFeatures,
    /// Label distribution of the worker's local data.
    pub label_distribution: LabelDistribution,
    /// Number of locally available samples.
    pub available_samples: usize,
}

/// Steps 2–4: the server's answer to a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskResponse {
    /// The task was accepted; the worker should compute a gradient.
    Assignment(TaskAssignment),
    /// The task was rejected by the controller.
    Rejected(RejectionReason),
}

/// The learning task handed to the worker: the current model and the workload
/// bound chosen by I-Prof.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskAssignment {
    /// Server-issued, strictly monotonic task identifier. The worker echoes
    /// it back as [`TaskResult::task_id`]; the server uses it to deduplicate
    /// retransmitted results and to reclaim tasks whose lease expired.
    pub task_id: u64,
    /// Flat model parameters the gradient must be computed against.
    pub model_parameters: Vec<f32>,
    /// The server's logical clock at the time the model was handed out.
    pub model_version: u64,
    /// The per-shard vector clock at hand-out time, one entry per parameter
    /// shard (shards apply asynchronously, so it can say more than
    /// [`TaskAssignment::model_version`]). The worker echoes it back as
    /// [`TaskResult::read_clock`] so the server can attribute a *per-shard*
    /// staleness to the gradient.
    pub shard_clocks: Vec<u64>,
    /// The mini-batch size the worker should process.
    pub mini_batch_size: usize,
}

/// An admitted learning task: everything a [`TaskAssignment`] carries except
/// the model. Admission grants it; the model is attached afterwards, either
/// copied into a [`TaskAssignment`] or shared as the server's published
/// encoding (`FleetServer::published_model`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskGrant {
    /// See [`TaskAssignment::task_id`].
    pub task_id: u64,
    /// See [`TaskAssignment::model_version`].
    pub model_version: u64,
    /// See [`TaskAssignment::shard_clocks`].
    pub shard_clocks: Vec<u64>,
    /// See [`TaskAssignment::mini_batch_size`].
    pub mini_batch_size: usize,
}

/// Why the controller refused to hand out a learning task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectionReason {
    /// The mini-batch size I-Prof proposed is below the controller's
    /// size threshold (the gradient would be too noisy to help, Fig. 3).
    BatchTooSmall {
        /// The proposed size.
        proposed: usize,
        /// The minimum the controller accepts.
        minimum: usize,
    },
    /// The worker's data is too similar to what the model has already seen
    /// (low expected utility).
    TooSimilar,
    /// The server is shedding load: a parameter shard's pending buffer has
    /// reached its configured bound, so accepting the task would queue a
    /// gradient the server cannot absorb. The worker should back off and
    /// retry (see `worker::RetryPolicy`).
    Overloaded {
        /// The saturated shard.
        shard: usize,
    },
}

/// Step 5: the worker's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskResult {
    /// The worker that produced the result.
    pub worker_id: u64,
    /// The model version the gradient was computed on.
    pub model_version: u64,
    /// The gradient itself.
    pub gradient: Gradient,
    /// Label distribution of the mini-batch actually used.
    pub label_distribution: LabelDistribution,
    /// Number of samples in the mini-batch actually used.
    pub num_samples: usize,
    /// Measured computation time on the device, in seconds (fed back to
    /// I-Prof).
    pub computation_seconds: f32,
    /// Measured energy, in percent of battery (fed back to I-Prof).
    pub energy_pct: f32,
    /// The per-shard vector clock the worker observed when it pulled the
    /// model (echoed from [`TaskAssignment::shard_clocks`]); `None` when the
    /// assignment carried no clock, or from wire peers that predate vector
    /// clocks (wire format v1).
    pub read_clock: Option<Vec<u64>>,
    /// The task identifier echoed from [`TaskAssignment::task_id`]; `None`
    /// from wire peers that predate leases (wire formats v1/v2). Id-less
    /// results bypass dedup — they are applied if (and only if) the worker
    /// has a recorded request, preserving the legacy protocol.
    pub task_id: Option<u64>,
}

/// What the server did with an uploaded [`TaskResult`] (see the module docs
/// for the full disposition table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResultDisposition {
    /// First result for an outstanding lease — the gradient was applied.
    Applied,
    /// The task was already completed; this retransmission was discarded.
    Duplicate,
    /// The task's lease expired before the result arrived; the straggler
    /// gradient was discarded.
    Expired,
    /// The result matches no known task (unknown id, wrong worker, or an
    /// id-less result from a worker with no recorded request); discarded.
    Unsolicited,
}

/// The server's acknowledgement of a result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResultAck {
    /// The staleness the server attributed to the gradient.
    pub staleness: u64,
    /// The weight AdaSGD applied to it.
    pub scaling_factor: f64,
    /// Whether the model advanced as a result.
    pub model_updated: bool,
    /// The server's logical clock after processing the result.
    pub clock: u64,
    /// What the server did with the result; anything but
    /// [`ResultDisposition::Applied`] means the gradient was discarded
    /// (staleness and scaling factor are reported as zero).
    pub disposition: ResultDisposition,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_reasons_are_comparable() {
        let a = RejectionReason::BatchTooSmall {
            proposed: 3,
            minimum: 10,
        };
        let b = RejectionReason::TooSimilar;
        let c = RejectionReason::Overloaded { shard: 2 };
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(c, RejectionReason::Overloaded { shard: 3 });
    }

    #[test]
    fn dispositions_are_comparable() {
        assert_ne!(ResultDisposition::Applied, ResultDisposition::Duplicate);
        assert_ne!(ResultDisposition::Expired, ResultDisposition::Unsolicited);
        // Copy semantics: an ack can be passed around by value.
        let ack = ResultAck {
            staleness: 1,
            scaling_factor: 0.5,
            model_updated: true,
            clock: 9,
            disposition: ResultDisposition::Applied,
        };
        let copy = ack;
        assert_eq!(copy, ack);
    }

    #[test]
    fn task_response_variants() {
        let assignment = TaskAssignment {
            task_id: 12,
            model_parameters: vec![0.0; 4],
            model_version: 7,
            shard_clocks: vec![7, 7],
            mini_batch_size: 100,
        };
        let resp = TaskResponse::Assignment(assignment.clone());
        match resp {
            TaskResponse::Assignment(a) => assert_eq!(a, assignment),
            TaskResponse::Rejected(_) => panic!("expected assignment"),
        }
    }
}
