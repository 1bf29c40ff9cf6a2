//! The transport's core: the one [`FleetServer`] every connection shares,
//! its cross-process step counter and, when durable, its journal.
//!
//! Everything that reaches the core is an [`Event`]: a request or a result
//! off a socket, the reclaim of a lease whose connection died, or one of
//! those read back from the journal. [`Event::decode`] decodes each and
//! [`Core::apply`], the one place that calls the `FleetServer` and moves the
//! step counter, applies it. A live event is then journaled by
//! [`Core::journal`], which also snapshots the core and rotates the journal
//! when a cadence checkpoint is due; the store's writer thread writes the
//! container, and a write error surfaces from the next cadence checkpoint.
//!
//! [`Core::recover`] replays the journal through the same two functions, so
//! a recovered core equals the crashed one because both ran one function on
//! one event sequence, sourced once from sockets and once from disk. That is
//! what makes a kill-restart run reproduce the uninterrupted run's digest
//! bit-for-bit. Only the live path publishes a model for a grant.

use bytes::Bytes;
use fleet_durability::{DurabilityOptions, DurableStore, EventKind, Recovered};
use fleet_server::protocol::{RejectionReason, ResultAck, TaskGrant, TaskRequest, TaskResult};
use fleet_server::wire::{self, WireError};
use fleet_server::{decode_checkpoint, encode_checkpoint, FleetServer, ResultDisposition};
use std::io;

/// One thing that happens to the core, whatever its source.
#[derive(Debug)]
pub(crate) enum Event {
    /// A worker asks for a learning task.
    Request(TaskRequest),
    /// A worker uploads a task's result.
    Result(TaskResult),
    /// The lease on this task id returns to the pool: its connection died.
    Reclaim(u64),
}

impl Event {
    /// Decodes an event from its raw bytes: a frame's payload or a journal
    /// record's. A reclaim is the 8-byte little-endian task id.
    pub(crate) fn decode(kind: EventKind, raw: Bytes) -> Result<Event, WireError> {
        match kind {
            EventKind::Request => wire::decode_request(raw).map(Event::Request),
            EventKind::Result => wire::decode_result(raw).map(Event::Result),
            EventKind::Reclaim => <[u8; 8]>::try_from(&*raw)
                .map(|id| Event::Reclaim(u64::from_le_bytes(id)))
                .map_err(|_| WireError::LengthOutOfBounds(raw.len())),
        }
    }
}

/// What [`Core::apply`] answered.
#[derive(Debug)]
pub(crate) enum Outcome {
    /// A request's admission: a grant, or why not.
    Admission(Result<TaskGrant, RejectionReason>),
    /// A result's acknowledgement.
    Ack(ResultAck),
    /// Whether a reclaim found the lease still outstanding.
    Reclaimed(bool),
}

/// The durable store and its checkpoint cadence.
pub(crate) struct Journal {
    store: DurableStore,
    /// Applied steps between cadence checkpoints (0 = startup and shutdown
    /// only).
    checkpoint_every: u64,
    /// The step counter when the last checkpoint was started.
    steps_at_checkpoint: u64,
}

/// The mutable core every connection thread shares, behind one mutex so
/// journal order is exactly apply order.
pub(crate) struct Core {
    pub(crate) server: FleetServer,
    /// Completed protocol steps: applied results + terminal (non-overload)
    /// rejections. See [`crate::ServerStatus::steps`].
    pub(crate) steps: u64,
    /// The durable store, when configured.
    pub(crate) durable: Option<Journal>,
}

impl Core {
    /// A core that keeps nothing on disk.
    pub(crate) fn new(server: FleetServer) -> Core {
        Core {
            server,
            steps: 0,
            durable: None,
        }
    }

    /// Recovers `server` from the durable directory: restores the newest
    /// valid checkpoint, replays the journal suffix through
    /// [`Event::decode`] and [`Core::apply`], then seals the result as a
    /// fresh checkpoint generation — on disk before this returns — so the
    /// journal never grows without bound across restarts.
    ///
    /// Replay is forgiving the same way the on-disk readers are: a record the
    /// core rejects ends the replay there (everything after it depended on
    /// state this build cannot reconstruct) instead of failing startup.
    pub(crate) fn recover(server: FleetServer, options: &DurabilityOptions) -> io::Result<Core> {
        let (
            mut store,
            Recovered {
                checkpoint,
                records,
            },
        ) = DurableStore::open(options)?;
        let mut core = Core::new(server);
        let mut covered_seq = 0u64;
        if let Some(doc) = checkpoint {
            let state = decode_checkpoint(doc.payload)
                .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
            core.server.restore_checkpoint(state);
            core.steps = doc.steps;
            covered_seq = doc.seq;
        }
        for record in records {
            let event = Event::decode(record.kind, record.payload);
            if event.and_then(|event| core.apply(event)).is_err() {
                break;
            }
            covered_seq = record.seq;
        }
        store.begin(
            encode_checkpoint(&core.server.checkpoint()),
            covered_seq,
            core.steps,
        )?;
        core.durable = Some(Journal {
            store,
            checkpoint_every: options.checkpoint_every,
            steps_at_checkpoint: core.steps,
        });
        Ok(core)
    }

    /// Applies one event to the server and counts the step it completes.
    ///
    /// An applied result completes a step, and so does a terminal rejection,
    /// which consumes the worker's turn. A grant does not: its step is taken
    /// when the result is applied. Neither does an overload rejection, which
    /// is backpressure: the worker still owes the exchange.
    ///
    /// # Errors
    ///
    /// A result whose gradient does not fit the model; nothing is touched.
    pub(crate) fn apply(&mut self, event: Event) -> Result<Outcome, WireError> {
        let (outcome, takes_step) = match event {
            Event::Request(request) => {
                let admission = self.server.admit_request(&request);
                let terminal = matches!(
                    admission,
                    Err(reason) if !matches!(reason, RejectionReason::Overloaded { .. })
                );
                (Outcome::Admission(admission), terminal)
            }
            Event::Result(result) => {
                let ack = self.server.handle_result_checked(result)?;
                let applied = ack.disposition == ResultDisposition::Applied;
                (Outcome::Ack(ack), applied)
            }
            Event::Reclaim(task_id) => {
                (Outcome::Reclaimed(self.server.reclaim_task(task_id)), false)
            }
        };
        self.steps += u64::from(takes_step);
        Ok(outcome)
    }

    /// Journals an applied event's raw bytes and starts the cadence
    /// checkpoint when one is due; returns whether one was started. Called
    /// before the reply leaves, so a reply never outlives its record. A
    /// no-op on a volatile core.
    ///
    /// # Errors
    ///
    /// The failed append or checkpoint, as the message of the `Fatal` frame
    /// that answers the exchange. After a failed append the store is
    /// fail-stop, so every later exchange fails the same way.
    pub(crate) fn journal(&mut self, kind: EventKind, raw: Bytes) -> Result<bool, String> {
        let Some(durable) = &mut self.durable else {
            return Ok(false);
        };
        durable
            .store
            .append(kind, raw)
            .map_err(|err| format!("journal append failed: {err}"))?;
        if durable.checkpoint_every == 0
            || self.steps.saturating_sub(durable.steps_at_checkpoint) < durable.checkpoint_every
        {
            return Ok(false);
        }
        durable
            .store
            .checkpoint(encode_checkpoint(&self.server.checkpoint()), self.steps)
            .map_err(|err| format!("checkpoint failed: {err}"))?;
        durable.steps_at_checkpoint = self.steps;
        Ok(true)
    }

    /// Seals the core's state as a checkpoint and waits until it is on disk
    /// (the shutdown path); a no-op on a volatile core.
    pub(crate) fn seal(&mut self) -> io::Result<()> {
        let Some(durable) = &mut self.durable else {
            return Ok(());
        };
        durable
            .store
            .checkpoint(encode_checkpoint(&self.server.checkpoint()), self.steps)?;
        durable.store.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_data::partition::non_iid_shards;
    use fleet_data::synthetic::{generate, SyntheticSpec};
    use fleet_device::profile::catalogue;
    use fleet_device::Device;
    use fleet_durability::FsyncPolicy;
    use fleet_ml::models::mlp_classifier;
    use fleet_server::protocol::{TaskAssignment, TaskResponse};
    use fleet_server::{FleetServerConfig, Worker};
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    /// The socket tests' world: a small MLP over the synthetic 4-class,
    /// 6-feature task, here with K = 2 over two shards.
    fn server() -> FleetServer {
        let config = FleetServerConfig::builder()
            .num_classes(4)
            .aggregation_k(2)
            .shards(2)
            .build()
            .expect("config is valid");
        FleetServer::new(mlp_classifier(6, &[8], 4, 0).parameters(), config)
    }

    fn workers(count: usize) -> Vec<Worker> {
        let dataset = Arc::new(generate(&SyntheticSpec::vector(4, 6, 160), 11));
        let profiles = catalogue();
        non_iid_shards(&dataset, count, 2, 12)
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
            .collect()
    }

    /// A checkpoint every two steps, so generations rotate mid-run.
    fn options(dir: &Path) -> DurabilityOptions {
        let mut options = DurabilityOptions::new(dir.to_path_buf());
        options.checkpoint_every = 2;
        options.fsync = FsyncPolicy::Never;
        options
    }

    /// One event as a connection runs it: decode, apply, journal.
    fn step(core: &mut Core, kind: EventKind, raw: Bytes) -> Outcome {
        let event = Event::decode(kind, raw.clone()).expect("decode");
        let outcome = core.apply(event).expect("apply");
        core.journal(kind, raw).expect("journal");
        outcome
    }

    /// The assignment a worker receives for `grant`, encoded as the live
    /// path encodes it.
    fn assignment(core: &mut Core, grant: &TaskGrant) -> TaskAssignment {
        let parts = wire::encode_assignment(grant, core.server.published_model());
        let frame: Vec<u8> = parts.iter().flat_map(|part| part.iter().copied()).collect();
        match wire::decode_response(Bytes::from(frame)).expect("decode response") {
            TaskResponse::Assignment(assignment) => assignment,
            TaskResponse::Rejected(reason) => panic!("a grant encoded a rejection: {reason:?}"),
        }
    }

    /// Copies the store directory as a crash would find it. The checkpoint
    /// writer thread may rename a `.tmp` or prune an old generation while
    /// this runs; a file that vanishes mid-copy is skipped, since a crash
    /// can leave the directory with or without it.
    fn copy_dir(from: &Path, to: &Path) {
        fs::create_dir_all(to).expect("create copy");
        for entry in fs::read_dir(from).expect("list store") {
            let entry = entry.expect("list store");
            match fs::copy(entry.path(), to.join(entry.file_name())) {
                Ok(_) => {}
                Err(err) if err.kind() == io::ErrorKind::NotFound => {}
                Err(err) => panic!("copy {}: {err}", entry.path().display()),
            }
        }
    }

    /// A copy of the live directory, with the live state it must recover to.
    struct CrashPoint {
        dir: PathBuf,
        checkpoint: Bytes,
        steps: u64,
    }

    fn crash_point(core: &Core, live: &Path, dir: PathBuf) -> CrashPoint {
        copy_dir(live, &dir);
        CrashPoint {
            dir,
            checkpoint: encode_checkpoint(&core.server.checkpoint()),
            steps: core.steps,
        }
    }

    #[test]
    fn replay_equals_live_at_every_crash_point() {
        let root = std::env::temp_dir().join(format!("fleet-core-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let live = root.join("live");
        let mut core = Core::recover(server(), &options(&live)).expect("fresh core");
        let mut points = vec![crash_point(&core, &live, root.join("0"))];
        let mut fleet = workers(3);
        for round in 0..3 {
            for (i, worker) in fleet.iter_mut().enumerate() {
                let grant = match step(&mut core, EventKind::Request, worker.request_wire()) {
                    Outcome::Admission(Ok(grant)) => grant,
                    other => panic!("expected a grant, got {other:?}"),
                };
                points.push(crash_point(
                    &core,
                    &live,
                    root.join(points.len().to_string()),
                ));
                let outcome = if round == 1 && i == 0 {
                    // This worker's connection dies: its lease comes back.
                    let raw = Bytes::from(grant.task_id.to_le_bytes().to_vec());
                    step(&mut core, EventKind::Reclaim, raw)
                } else {
                    let assignment = assignment(&mut core, &grant);
                    let raw = worker.execute_wire(&assignment).expect("execute");
                    step(&mut core, EventKind::Result, raw)
                };
                assert!(
                    matches!(
                        outcome,
                        Outcome::Reclaimed(true)
                            | Outcome::Ack(ResultAck {
                                disposition: ResultDisposition::Applied,
                                ..
                            })
                    ),
                    "{outcome:?}"
                );
                points.push(crash_point(
                    &core,
                    &live,
                    root.join(points.len().to_string()),
                ));
            }
        }
        assert_eq!(core.steps, 8);
        for (at, point) in points.iter().enumerate() {
            let recovered = Core::recover(server(), &options(&point.dir)).expect("recover");
            assert_eq!(recovered.steps, point.steps, "crash point {at}");
            assert!(
                encode_checkpoint(&recovered.server.checkpoint()) == point.checkpoint,
                "the state recovered at crash point {at} is not the live one"
            );
        }
        drop(core);
        fs::remove_dir_all(&root).expect("remove scratch");
    }
}
