//! Glue between the [`TransportServer`] core and [`fleet_durability`]: crash
//! recovery on startup and the journal/checkpoint bookkeeping the apply path
//! carries per event.
//!
//! Inside the core mutex an exchange appends its record and, on the cadence,
//! snapshots the core into a checkpoint payload and rotates the journal;
//! the container is written by the store's writer thread while the next
//! exchanges run. A write error surfaces from the next cadence checkpoint.
//! Recovery and shutdown seal a generation and wait for it, so `bind` and
//! `shutdown` return with it on disk.
//!
//! The replay contract mirrors the live `handle_frame` path exactly — same
//! decoders, same core calls, same step accounting — so `recover` is the
//! live path run against journaled bytes instead of socket bytes, minus the
//! replies. That is what makes a kill-restart run reproduce the
//! uninterrupted run's digest bit-for-bit: the core never sees a different
//! event sequence, only a differently sourced one.
//!
//! [`TransportServer`]: crate::server::TransportServer

use crate::server::{ack_takes_step, admission_takes_step};
use bytes::Bytes;
use fleet_durability::{DurabilityOptions, DurableStore, EventKind, Recovered};
use fleet_server::wire::decode_request;
use fleet_server::{decode_checkpoint, encode_checkpoint, FleetServer};
use std::io;

/// The durable half of the transport core, living inside the core mutex so
/// journal order is exactly apply order.
pub(crate) struct Durable {
    pub(crate) store: DurableStore,
    /// Applied steps between policy-driven checkpoints (0 = startup and
    /// shutdown only).
    pub(crate) checkpoint_every: u64,
    /// The step counter when the last checkpoint was written.
    pub(crate) steps_at_checkpoint: u64,
}

impl Durable {
    /// Journals one applied event. Called *before* the reply frame is sent,
    /// so an acknowledged exchange is always on disk (or in the kernel, per
    /// fsync policy) — a reply can never outlive its journal entry.
    pub(crate) fn append(&mut self, kind: EventKind, payload: Bytes) -> io::Result<u64> {
        self.store.append(kind, payload)
    }

    /// Starts a cadence checkpoint when enough steps have passed since the
    /// last one; returns whether one was started. Its container is written
    /// off this thread; the error of the previous one, if any, comes back
    /// here.
    pub(crate) fn maybe_checkpoint(
        &mut self,
        server: &FleetServer,
        steps: u64,
    ) -> io::Result<bool> {
        if self.checkpoint_every == 0
            || steps.saturating_sub(self.steps_at_checkpoint) < self.checkpoint_every
        {
            return Ok(false);
        }
        self.checkpoint(server, steps)?;
        Ok(true)
    }

    /// Seals a checkpoint unconditionally and waits until it is on disk
    /// (shutdown path).
    pub(crate) fn seal(&mut self, server: &FleetServer, steps: u64) -> io::Result<()> {
        self.checkpoint(server, steps)?;
        self.store.wait()
    }

    fn checkpoint(&mut self, server: &FleetServer, steps: u64) -> io::Result<()> {
        self.store
            .checkpoint(encode_checkpoint(&server.checkpoint()), steps)?;
        self.steps_at_checkpoint = steps;
        Ok(())
    }
}

/// Recovers `server` from the durable directory and returns the live
/// [`Durable`] plus the recovered step counter.
///
/// Recovery = restore the newest valid checkpoint, then replay the journal
/// suffix through the same decoders and core calls the live path uses (with
/// the same step accounting), then seal the result as a fresh checkpoint
/// generation — on disk before this returns — so the journal never grows
/// without bound across restarts.
///
/// Replay is forgiving the same way the on-disk readers are: a record the
/// core rejects ends the replay there (everything after it depended on state
/// this build cannot reconstruct) instead of failing startup.
pub(crate) fn recover(
    server: &mut FleetServer,
    options: &DurabilityOptions,
) -> io::Result<(Durable, u64)> {
    let (
        mut store,
        Recovered {
            checkpoint,
            records,
        },
    ) = DurableStore::open(options)?;

    let mut steps = 0u64;
    let mut covered_seq = 0u64;
    if let Some(doc) = checkpoint {
        let state = decode_checkpoint(doc.payload)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
        server.restore_checkpoint(state);
        steps = doc.steps;
        covered_seq = doc.seq;
    }

    for record in records {
        match record.kind {
            // A replayed request is admitted and nothing more: no worker is
            // waiting for the model.
            EventKind::Request => match decode_request(record.payload) {
                Ok(request) => {
                    steps += u64::from(admission_takes_step(&server.admit_request(&request)));
                }
                Err(_) => break,
            },
            EventKind::Result => match server.handle_result_wire(record.payload) {
                Ok(ack) => steps += u64::from(ack_takes_step(&ack)),
                Err(_) => break,
            },
            EventKind::Reclaim => {
                let Ok(raw) = <[u8; 8]>::try_from(&*record.payload) else {
                    break;
                };
                server.reclaim_task(u64::from_le_bytes(raw));
            }
        }
        covered_seq = record.seq;
    }

    store.begin(encode_checkpoint(&server.checkpoint()), covered_seq, steps)?;
    Ok((
        Durable {
            store,
            checkpoint_every: options.checkpoint_every,
            steps_at_checkpoint: steps,
        },
        steps,
    ))
}

/// Encodes a reclaim record payload (8-byte LE task id).
pub(crate) fn reclaim_payload(task_id: u64) -> Bytes {
    Bytes::from(task_id.to_le_bytes().to_vec())
}
