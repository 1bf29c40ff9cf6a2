//! # fleet-durability
//!
//! Durable crash recovery for the FLeet middleware: on-disk checkpoints plus
//! a write-ahead journal, with recovery that is provably equivalent to never
//! having crashed — the same bit-for-bit standard the chaos digests already
//! enforce for in-memory faults.
//!
//! The crate is deliberately payload-agnostic: checkpoints carry an opaque
//! [`bytes::Bytes`] blob (in practice `fleet_server::encode_checkpoint`
//! output) and journal records carry opaque event payloads (in practice the
//! raw request/result wire bytes the transport already holds). Interpreting
//! either is the embedding layer's job; this crate only promises that what
//! comes back after a crash is a *valid prefix* of what was written.
//!
//! ## Durability contract
//!
//! * **Checkpoints are atomic.** [`DurableStore`] writes every checkpoint
//!   container to a temp file, fsyncs (per [`FsyncPolicy`]), then renames it
//!   into place under a strictly monotonic generation number. A torn or
//!   bit-flipped container fails its CRC and recovery falls back to the last
//!   complete generation.
//! * **The journal is torn-tail tolerant.** Records are length-prefixed and
//!   CRC-framed; a crash mid-append leaves a torn tail that recovery
//!   truncates instead of failing on. Records carry a contiguous sequence
//!   number, so replay stops at the first gap — a corrupted record can only
//!   shorten the recovered history, never reorder or skip within it.
//! * **Recovery chains generations.** `load newest valid checkpoint` +
//!   `replay journal records in submission order` — and when the newest
//!   checkpoint itself is lost, the previous generation's checkpoint plus
//!   *both* journals replay seamlessly because the sequence numbers chain
//!   across the rotation boundary.
//!
//! The submission order here is the `(shard, submission-index)` order of the
//! per-shard apply engine: the transport's core mutex already serialises
//! every shard's applies into one total submission sequence, so the single
//! `seq` counter *is* that order flattened.
//!
//! Fault injection for the disk itself is deterministic via
//! [`DiskFaultPlan`] — the same stateless splitmix64 style as the simulation
//! harness's `FaultPlan`, so every corruption scenario is a pure function of
//! `(seed, case)`.

#![forbid(unsafe_code)]

mod codec;
mod crc;
mod faults;
mod journal;
mod store;

pub use codec::{EventKind, JournalRecord};
pub use faults::{DiskFault, DiskFaultPlan};
pub use store::{DurableStore, Recovered};

use std::path::PathBuf;

/// When the store flushes the kernel page cache to stable storage.
///
/// Process death (SIGKILL, panic-abort) never loses written-but-unsynced
/// bytes — the kernel owns them — so `Never` already survives every crash
/// the chaos scenarios inject. The stronger policies matter for machine
/// (power/kernel) failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync the journal after every appended record, plus every checkpoint.
    /// Full single-record durability against machine crashes; the slowest.
    EveryRecord,
    /// fsync only when a checkpoint is written (both the container and the
    /// journal being rotated out). Machine crashes can lose the tail of the
    /// active journal — never a checkpointed prefix.
    OnCheckpoint,
    /// Never fsync. Process-crash-safe only; the benchmark baseline.
    Never,
}

/// Configuration of a [`DurableStore`] and its embedding (the transport's
/// checkpoint cadence rides here so one struct configures the whole
/// durability story).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding the checkpoint containers and journals. Created if
    /// missing; a non-empty directory is recovered from.
    pub dir: PathBuf,
    /// Applied protocol steps between policy-driven checkpoints; `0` writes
    /// checkpoints only at startup and shutdown.
    pub checkpoint_every: u64,
    /// When to flush to stable storage.
    pub fsync: FsyncPolicy,
}

impl DurabilityOptions {
    /// Defaults: checkpoint every 64 applied steps, fsync on checkpoints.
    pub fn new(dir: PathBuf) -> Self {
        DurabilityOptions {
            dir,
            checkpoint_every: 64,
            fsync: FsyncPolicy::OnCheckpoint,
        }
    }
}
