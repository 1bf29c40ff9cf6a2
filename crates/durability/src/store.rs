//! The durable store: a directory of generational checkpoint containers and
//! write-ahead journals, plus the recovery scan that turns whatever a crash
//! left behind into `newest valid checkpoint + contiguous record suffix`.
//!
//! Directory layout (`{gen:020}` so lexicographic order is numeric order):
//!
//! ```text
//! ckpt-00000000000000000003.bin   checkpoint container, generation 3
//! wal-00000000000000000003.log    journal of records after checkpoint 3
//! *.tmp                           in-flight atomic writes; deleted on open
//! ```
//!
//! Writing checkpoint generation `G` rotates the journal: records appended
//! afterwards land in `wal-G`. Sequence numbers chain across rotations, so
//! when checkpoint `G` itself is torn or missing, recovery falls back to
//! `G-1` and replays `wal-(G-1)` *and* `wal-G` seamlessly — the contiguity
//! check is on `seq`, not on file boundaries.
//!
//! ## The checkpoint writer
//!
//! [`DurableStore::checkpoint`] does two things on the caller's thread:
//! it creates `wal-G` and switches appends to it. Everything else — sync the
//! rotated-out `wal-(G-1)`, seal the container, write `ckpt-G.bin.tmp`,
//! fsync, rename, sync the directory, prune — runs on a writer thread the
//! caller does not wait for. The invariants that keep that safe:
//!
//! 1. **At most one write is in flight.** The next checkpoint joins the
//!    previous writer before it starts; that join is the backpressure, and
//!    it bounds memory to one extra payload.
//! 2. **`wal-G` exists before `ckpt-G` can supersede `wal-(G-1)`,** and a
//!    generation whose journal took a record or whose checkpoint was renamed
//!    is never reused. A rotation that fails to create `wal-G` changes
//!    nothing: appends stay in `wal-(G-1)`, which recovery still reads.
//! 3. **Prune counts only completed generations.** A write that renamed
//!    `ckpt-G` prunes what precedes the newest generation completed before
//!    it, so the fallback survives until the next generation is in place,
//!    and a failed write prunes nothing.
//! 4. **Errors still surface,** from the next call that joins the writer:
//!    the next [`DurableStore::checkpoint`], [`DurableStore::begin`] or
//!    [`DurableStore::wait`].
//! 5. **Some calls wait.** `begin` returns with its generation on disk, and
//!    dropping the store joins the writer, so no thread is still writing a
//!    directory its store has let go of. A finished write is also a state a
//!    kill can leave.
//! 6. **A crash between the snapshot and the rename loses nothing:**
//!    `ckpt-(G-1)` plus `wal-(G-1)` plus `wal-G` replay to the same state,
//!    because the `seq` chain already spans journals.

use crate::codec::{decode_doc, encode_doc, CheckpointDoc, EventKind, JournalRecord};
use crate::journal::{read_journal, JournalWriter};
use crate::{DurabilityOptions, FsyncPolicy};
use bytes::Bytes;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// The name affixes of a checkpoint container: `ckpt-{generation:020}.bin`.
pub(crate) const CHECKPOINT: (&str, &str) = ("ckpt-", ".bin");

/// The name affixes of a journal: `wal-{generation:020}.log`.
pub(crate) const JOURNAL: (&str, &str) = ("wal-", ".log");

fn ckpt_name(generation: u64) -> String {
    let (prefix, suffix) = CHECKPOINT;
    format!("{prefix}{generation:020}{suffix}")
}

fn wal_name(generation: u64) -> String {
    let (prefix, suffix) = JOURNAL;
    format!("{prefix}{generation:020}{suffix}")
}

/// The generation in `name`, when it is a file of the kind `affixes` names
/// ([`CHECKPOINT`] or [`JOURNAL`]).
pub(crate) fn parse_generation(name: &str, (prefix, suffix): (&str, &str)) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// What [`DurableStore::open`] recovered from disk: the newest checkpoint
/// that passed its integrity checks (if any) plus the contiguous run of
/// journal records after it. The embedding layer restores the checkpoint
/// payload, replays the records, then calls [`DurableStore::begin`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// Newest valid checkpoint, or `None` for an empty/unrecoverable store.
    pub checkpoint: Option<CheckpointDoc>,
    /// Journal records after the checkpoint, strictly contiguous by `seq`.
    pub records: Vec<JournalRecord>,
}

impl Recovered {
    /// The highest sequence number the recovered state covers (0 when the
    /// store was empty).
    pub fn last_seq(&self) -> u64 {
        self.records
            .last()
            .map(|record| record.seq)
            .or_else(|| self.checkpoint.as_ref().map(|doc| doc.seq))
            .unwrap_or(0)
    }
}

/// A live durable store. Construct with [`DurableStore::open`], restore the
/// [`Recovered`] state, then [`DurableStore::begin`] a fresh generation
/// before the first [`DurableStore::append`].
pub struct DurableStore {
    dir: PathBuf,
    fsync: FsyncPolicy,
    /// Highest generation number present (or ever seen) on disk; the next
    /// checkpoint uses `generation + 1` so even a corrupt newest generation
    /// is never reused.
    generation: u64,
    /// Newest generation whose checkpoint is known to be renamed into place
    /// (0 = none): the fallback the next write's prune keeps.
    completed: u64,
    next_seq: u64,
    writer: Option<JournalWriter>,
    /// The checkpoint write in flight, if any; it returns its generation.
    in_flight: Option<JoinHandle<io::Result<u64>>>,
    /// The kind of the first append error, once one happened: the store is
    /// fail-stop from then on.
    failed: Option<io::ErrorKind>,
}

impl DurableStore {
    /// Opens (creating if needed) the store directory and scans it for the
    /// newest recoverable state. Never fails on corrupt *content* — torn
    /// checkpoints are skipped, torn journal tails truncated — only on I/O
    /// errors reaching the directory itself.
    pub fn open(options: &DurabilityOptions) -> io::Result<(DurableStore, Recovered)> {
        fs::create_dir_all(&options.dir)?;

        let mut checkpoints: Vec<u64> = Vec::new();
        let mut journals: Vec<u64> = Vec::new();
        let mut max_seen = 0u64;
        for entry in fs::read_dir(&options.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                // An in-flight atomic write that never got renamed; dead.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some(generation) = parse_generation(&name, CHECKPOINT) {
                checkpoints.push(generation);
                max_seen = max_seen.max(generation);
            } else if let Some(generation) = parse_generation(&name, JOURNAL) {
                journals.push(generation);
                max_seen = max_seen.max(generation);
            }
        }
        checkpoints.sort_unstable_by(|a, b| b.cmp(a));
        journals.sort_unstable();

        // Newest checkpoint whose container decodes AND whose embedded
        // generation matches its filename (a cross-renamed file is corrupt).
        let mut base: Option<CheckpointDoc> = None;
        for &generation in &checkpoints {
            let Ok(raw) = fs::read(options.dir.join(ckpt_name(generation))) else {
                continue;
            };
            match decode_doc(Bytes::from(raw)) {
                Ok(doc) if doc.generation == generation => {
                    base = Some(doc);
                    break;
                }
                _ => continue,
            }
        }

        let base_generation = base.as_ref().map(|doc| doc.generation).unwrap_or(0);
        let base_seq = base.as_ref().map(|doc| doc.seq).unwrap_or(0);

        // Replay journals from the base generation up, chaining on strict
        // seq contiguity. Any unusable journal or gap ends the history —
        // later records without their predecessors are unusable.
        let mut records: Vec<JournalRecord> = Vec::new();
        let mut expected_seq = base_seq + 1;
        'journals: for &generation in journals.iter().filter(|&&g| g >= base_generation) {
            let Some(read) = read_journal(&options.dir.join(wal_name(generation))) else {
                break;
            };
            if read.generation != generation {
                break;
            }
            for record in read.records {
                if record.seq < expected_seq {
                    // Already folded into the base checkpoint.
                    continue;
                }
                if record.seq != expected_seq {
                    break 'journals;
                }
                expected_seq += 1;
                records.push(record);
            }
        }

        let store = DurableStore {
            dir: options.dir.clone(),
            fsync: options.fsync,
            generation: max_seen,
            completed: base_generation,
            next_seq: 0,
            writer: None,
            in_flight: None,
            failed: None,
        };
        Ok((
            store,
            Recovered {
                checkpoint: base,
                records,
            },
        ))
    }

    /// Seals the recovered (or initial) state into a fresh checkpoint
    /// generation and opens its journal. `seq` is the sequence number the
    /// payload covers through ([`Recovered::last_seq`] after replay); the
    /// first [`DurableStore::append`] gets `seq + 1`. Returns with the
    /// generation on disk.
    pub fn begin(&mut self, state_payload: Bytes, seq: u64, steps: u64) -> io::Result<u64> {
        let generation = self.rotate(state_payload, seq, steps)?;
        self.wait()?;
        Ok(generation)
    }

    /// Appends one event to the active journal, returning its sequence
    /// number. The record is in the kernel (or, under
    /// [`FsyncPolicy::EveryRecord`], on stable storage) before this returns,
    /// so a reply sent afterwards can never outlive the journal entry.
    ///
    /// A failed append leaves the journal's contents unknown, so it makes
    /// the store fail-stop: every later `append`, `checkpoint` and `begin`
    /// returns an error of the same kind.
    pub fn append(&mut self, kind: EventKind, payload: Bytes) -> io::Result<u64> {
        self.check_not_failed()?;
        let writer = self
            .writer
            .as_mut()
            .expect("DurableStore::begin must run before append");
        let seq = self.next_seq;
        if let Err(err) = writer.append(&JournalRecord { seq, kind, payload }) {
            self.failed = Some(err.kind());
            return Err(err);
        }
        self.next_seq += 1;
        Ok(seq)
    }

    fn check_not_failed(&self) -> io::Result<()> {
        match self.failed {
            Some(kind) => Err(io::Error::new(
                kind,
                "an earlier journal append failed; the store is fail-stop",
            )),
            None => Ok(()),
        }
    }

    /// Starts a new checkpoint generation covering everything appended so
    /// far: rotates the journal here, and leaves writing the container (and
    /// pruning generations beyond the retention window) to a writer thread
    /// this call does not wait for. Joins the previous write first; its
    /// error, if any, is returned instead. Returns the new generation
    /// number.
    pub fn checkpoint(&mut self, state_payload: Bytes, steps: u64) -> io::Result<u64> {
        let seq = self.next_seq.saturating_sub(1);
        self.rotate(state_payload, seq, steps)
    }

    /// Waits for the checkpoint write in flight, if any, and returns its
    /// error. Afterwards every generation this store started is on disk or
    /// has reported why not.
    pub fn wait(&mut self) -> io::Result<()> {
        let Some(in_flight) = self.in_flight.take() else {
            return Ok(());
        };
        self.completed = in_flight
            .join()
            .map_err(|_| io::Error::other("checkpoint writer panicked"))??;
        Ok(())
    }

    fn rotate(&mut self, state_payload: Bytes, seq: u64, steps: u64) -> io::Result<u64> {
        self.check_not_failed()?;
        self.wait()?;
        let generation = self.generation + 1;
        let journal =
            JournalWriter::create(&self.dir.join(wal_name(generation)), generation, self.fsync)?;
        if matches!(self.fsync, FsyncPolicy::EveryRecord) {
            // The new journal's directory entry must be stable before the
            // first record appended to it claims to be.
            sync_dir(&self.dir)?;
        }
        let rotated_out = self.writer.replace(journal);
        self.generation = generation;
        self.next_seq = seq + 1;

        let doc = CheckpointDoc {
            generation,
            seq,
            steps,
            payload: state_payload,
        };
        let dir = self.dir.clone();
        let fsync = self.fsync;
        let keep_from = self.completed;
        #[expect(
            clippy::disallowed_methods,
            reason = "the checkpoint writer blocks on write and fsync, off the caller's path: an I/O thread, not compute fan-out"
        )]
        let in_flight = std::thread::Builder::new()
            .name("fleet-checkpoint".into())
            .spawn(move || write_checkpoint(&dir, fsync, rotated_out, &doc, keep_from))?;
        self.in_flight = Some(in_flight);
        Ok(generation)
    }
}

impl Drop for DurableStore {
    fn drop(&mut self) {
        // Nothing may still be writing a directory its store let go of; an
        // error here has no caller left to receive it.
        let _ = self.wait();
    }
}

/// The writer thread's half of a checkpoint: make the journal it supersedes
/// stable, put the container atomically in place, then prune.
fn write_checkpoint(
    dir: &Path,
    fsync: FsyncPolicy,
    rotated_out: Option<JournalWriter>,
    doc: &CheckpointDoc,
    keep_from: u64,
) -> io::Result<u64> {
    if let Some(mut journal) = rotated_out {
        // The rotated-out journal must be stable before the checkpoint that
        // supersedes it claims to cover it.
        journal.sync()?;
    }
    let final_path = dir.join(ckpt_name(doc.generation));
    let tmp_path = dir.join(format!("{}.tmp", ckpt_name(doc.generation)));
    {
        let mut file = fs::File::create(&tmp_path)?;
        io::Write::write_all(&mut file, &encode_doc(doc))?;
        if !matches!(fsync, FsyncPolicy::Never) {
            file.sync_all()?;
        }
    }
    fs::rename(&tmp_path, &final_path)?;
    if !matches!(fsync, FsyncPolicy::Never) {
        sync_dir(dir)?;
    }
    prune(dir, keep_from);
    Ok(doc.generation)
}

/// Deletes checkpoint/journal generations older than `keep_from`, the
/// newest generation completed before the one just renamed: that one and
/// its journals stay as the fallback. Best-effort: a file that cannot be
/// deleted is just retained.
fn prune(dir: &Path, keep_from: u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        let generation =
            parse_generation(&name, CHECKPOINT).or_else(|| parse_generation(&name, JOURNAL));
        if let Some(generation) = generation {
            if generation < keep_from {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fleet-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn options(dir: &Path) -> DurabilityOptions {
        let mut options = DurabilityOptions::new(dir.to_path_buf());
        options.fsync = FsyncPolicy::Never;
        options
    }

    fn payload(tag: u8) -> Bytes {
        Bytes::from(vec![tag; 8])
    }

    #[test]
    fn empty_store_recovers_to_nothing() {
        let dir = scratch("empty");
        let (mut store, recovered) = DurableStore::open(&options(&dir)).unwrap();
        assert_eq!(
            recovered,
            Recovered {
                checkpoint: None,
                records: Vec::new()
            }
        );
        assert_eq!(recovered.last_seq(), 0);
        assert_eq!(store.begin(payload(0), 0, 0).unwrap(), 1);
        assert_eq!(store.next_seq, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_and_checkpoints_chain_across_restart() {
        let dir = scratch("chain");
        {
            let (mut store, _) = DurableStore::open(&options(&dir)).unwrap();
            store.begin(payload(0), 0, 0).unwrap();
            for i in 0..5u8 {
                store.append(EventKind::Request, payload(10 + i)).unwrap();
            }
            assert_eq!(store.checkpoint(payload(1), 5).unwrap(), 2);
            for i in 0..3u8 {
                store.append(EventKind::Result, payload(20 + i)).unwrap();
            }
        }
        let (_store, recovered) = DurableStore::open(&options(&dir)).unwrap();
        let doc = recovered.checkpoint.as_ref().unwrap();
        assert_eq!(doc.generation, 2);
        assert_eq!(doc.seq, 5);
        assert_eq!(doc.steps, 5);
        assert_eq!(doc.payload, payload(1));
        assert_eq!(
            recovered.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![6, 7, 8]
        );
        assert_eq!(recovered.last_seq(), 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_newest_checkpoint_falls_back_across_both_journals() {
        let dir = scratch("fallback");
        {
            let (mut store, _) = DurableStore::open(&options(&dir)).unwrap();
            store.begin(payload(0), 0, 0).unwrap();
            for i in 0..4u8 {
                store.append(EventKind::Request, payload(i)).unwrap();
            }
            store.checkpoint(payload(1), 4).unwrap();
            store.append(EventKind::Result, payload(9)).unwrap();
        }
        // Lose the newest checkpoint entirely: recovery must use generation
        // 1 and replay wal-1 (seqs 1..=4) plus wal-2 (seq 5).
        fs::remove_file(dir.join(ckpt_name(2))).unwrap();
        let (mut store, recovered) = DurableStore::open(&options(&dir)).unwrap();
        assert_eq!(recovered.checkpoint.as_ref().unwrap().generation, 1);
        assert_eq!(
            recovered.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        // A corrupt/lost generation number is never reused.
        assert_eq!(store.begin(payload(2), 5, 5).unwrap(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_checkpoint_is_skipped() {
        let dir = scratch("corrupt");
        {
            let (mut store, _) = DurableStore::open(&options(&dir)).unwrap();
            store.begin(payload(0), 0, 0).unwrap();
            store.append(EventKind::Request, payload(1)).unwrap();
            store.checkpoint(payload(1), 1).unwrap();
        }
        let ckpt = dir.join(ckpt_name(2));
        let mut raw = fs::read(&ckpt).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        fs::write(&ckpt, &raw).unwrap();
        let (_store, recovered) = DurableStore::open(&options(&dir)).unwrap();
        assert_eq!(recovered.checkpoint.as_ref().unwrap().generation, 1);
        assert_eq!(recovered.last_seq(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruning_respects_retention_window() {
        let dir = scratch("prune");
        let (mut store, _) = DurableStore::open(&options(&dir)).unwrap();
        store.begin(payload(0), 0, 0).unwrap();
        for generation in 2..=5u8 {
            store
                .append(EventKind::Request, payload(generation))
                .unwrap();
            store
                .checkpoint(payload(generation), u64::from(generation))
                .unwrap();
        }
        store.wait().unwrap();
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![ckpt_name(4), ckpt_name(5), wal_name(4), wal_name(5)]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seq_gap_ends_replay() {
        let dir = scratch("gap");
        {
            let (mut store, _) = DurableStore::open(&options(&dir)).unwrap();
            store.begin(payload(0), 0, 0).unwrap();
            for i in 0..3u8 {
                store.append(EventKind::Request, payload(i)).unwrap();
            }
        }
        // Hand-build a journal whose records jump from seq 3 to seq 5.
        {
            let mut writer =
                JournalWriter::create(&dir.join(wal_name(1)), 1, FsyncPolicy::Never).unwrap();
            for seq in [1u64, 2, 3, 5, 6] {
                writer
                    .append(&JournalRecord {
                        seq,
                        kind: EventKind::Request,
                        payload: payload(seq as u8),
                    })
                    .unwrap();
            }
        }
        let (_store, recovered) = DurableStore::open(&options(&dir)).unwrap();
        assert_eq!(
            recovered.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    fn recovered_seqs(recovered: &Recovered) -> Vec<u64> {
        recovered.records.iter().map(|r| r.seq).collect()
    }

    #[test]
    fn begin_and_drop_leave_no_write_in_flight() {
        let dir = scratch("settled");
        let (mut store, _) = DurableStore::open(&options(&dir)).unwrap();
        store.begin(payload(0), 0, 0).unwrap();
        // `begin` returns with its generation renamed into place.
        assert!(dir.join(ckpt_name(1)).is_file());
        store.append(EventKind::Request, payload(1)).unwrap();
        store.checkpoint(payload(1), 1).unwrap();
        drop(store);
        // Dropping the store joined the writer: the container is in place
        // and no temp file is left for a thread to finish.
        assert!(dir.join(ckpt_name(2)).is_file());
        assert!(!dir.join(format!("{}.tmp", ckpt_name(2))).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_rotation_loses_no_acknowledged_record() {
        let dir = scratch("rotation");
        let (mut store, _) = DurableStore::open(&options(&dir)).unwrap();
        store.begin(payload(0), 0, 0).unwrap();
        assert_eq!(store.append(EventKind::Request, payload(1)).unwrap(), 1);
        // A directory squatting on the next journal's name makes the
        // rotation fail before anything has changed.
        fs::create_dir(dir.join(wal_name(2))).unwrap();
        assert!(store.checkpoint(payload(1), 1).is_err());
        // The appends after the failure are acknowledged: they must be
        // recoverable.
        assert_eq!(store.append(EventKind::Result, payload(2)).unwrap(), 2);
        assert_eq!(store.append(EventKind::Request, payload(3)).unwrap(), 3);
        drop(store);
        let (_store, recovered) = DurableStore::open(&options(&dir)).unwrap();
        assert_eq!(recovered.checkpoint.as_ref().unwrap().generation, 1);
        assert_eq!(recovered_seqs(&recovered), vec![1, 2, 3]);
        assert_eq!(recovered.last_seq(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_surfaces_on_the_next_join_and_keeps_the_fallback() {
        let dir = scratch("write-fails");
        let (mut store, _) = DurableStore::open(&options(&dir)).unwrap();
        store.begin(payload(0), 0, 0).unwrap();
        store.append(EventKind::Request, payload(1)).unwrap();
        store.append(EventKind::Result, payload(2)).unwrap();
        // A directory squatting on the temp name makes generation 2's writer
        // fail after the journal has rotated.
        let squat = dir.join(format!("{}.tmp", ckpt_name(2)));
        fs::create_dir(&squat).unwrap();
        assert_eq!(store.checkpoint(payload(2), 2).unwrap(), 2);
        store.append(EventKind::Request, payload(3)).unwrap();
        // The next call that joins the writer reports the failure...
        assert!(store.checkpoint(payload(3), 3).is_err());
        store.append(EventKind::Result, payload(4)).unwrap();
        // ...and once reported, it is not reported twice.
        store.wait().unwrap();
        drop(store);
        fs::remove_dir(&squat).unwrap();
        let (_store, recovered) = DurableStore::open(&options(&dir)).unwrap();
        assert_eq!(recovered.checkpoint.as_ref().unwrap().generation, 1);
        assert_eq!(recovered_seqs(&recovered), vec![1, 2, 3, 4]);
        fs::remove_dir_all(&dir).unwrap();

        // The same failure reported by `wait`.
        let dir = scratch("wait-fails");
        let (mut store, _) = DurableStore::open(&options(&dir)).unwrap();
        store.begin(payload(0), 0, 0).unwrap();
        store.append(EventKind::Request, payload(1)).unwrap();
        fs::create_dir(dir.join(format!("{}.tmp", ckpt_name(2)))).unwrap();
        store.checkpoint(payload(1), 1).unwrap();
        store.append(EventKind::Result, payload(2)).unwrap();
        assert!(store.wait().is_err());
        drop(store);
        let (_store, recovered) = DurableStore::open(&options(&dir)).unwrap();
        assert_eq!(recovered.checkpoint.as_ref().unwrap().generation, 1);
        assert_eq!(recovered_seqs(&recovered), vec![1, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_the_last_completed_generation_across_a_failed_write() {
        let dir = scratch("prune-failed");
        let (mut store, _) = DurableStore::open(&options(&dir)).unwrap();
        store.begin(payload(0), 0, 0).unwrap();
        store.append(EventKind::Request, payload(1)).unwrap();
        store.checkpoint(payload(1), 1).unwrap();
        store.wait().unwrap();
        // Generation 3's write fails; generation 4's succeeds.
        store.append(EventKind::Request, payload(2)).unwrap();
        let squat = dir.join(format!("{}.tmp", ckpt_name(3)));
        fs::create_dir(&squat).unwrap();
        store.checkpoint(payload(2), 2).unwrap();
        assert!(store.wait().is_err());
        store.append(EventKind::Request, payload(3)).unwrap();
        store.checkpoint(payload(3), 3).unwrap();
        store.wait().unwrap();
        fs::remove_dir(&squat).unwrap();
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        // Generation 2 was the newest completed one when 4 was started: it
        // stays as 4's fallback, with every journal after it.
        assert_eq!(
            names,
            vec![
                ckpt_name(2),
                ckpt_name(4),
                wal_name(2),
                wal_name(3),
                wal_name(4)
            ]
        );
        drop(store);
        fs::remove_file(dir.join(ckpt_name(4))).unwrap();
        let (_store, recovered) = DurableStore::open(&options(&dir)).unwrap();
        assert_eq!(recovered.checkpoint.as_ref().unwrap().generation, 2);
        assert_eq!(recovered_seqs(&recovered), vec![2, 3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_append_makes_the_store_fail_stop() {
        let dir = scratch("append-fails");
        let (mut store, _) = DurableStore::open(&options(&dir)).unwrap();
        store.begin(payload(0), 0, 0).unwrap();
        assert_eq!(store.append(EventKind::Request, payload(1)).unwrap(), 1);
        assert_eq!(store.append(EventKind::Result, payload(2)).unwrap(), 2);
        // The disk refuses one write, then takes writes again.
        let read_only = JournalWriter::read_only(&dir.join(wal_name(1)), FsyncPolicy::Never);
        let writable = store.writer.replace(read_only.unwrap());
        let failed = store.append(EventKind::Request, payload(3)).unwrap_err();
        store.writer = writable;
        // What reached the journal is unknown now: nothing is acknowledged
        // on top of it.
        let again = store.append(EventKind::Request, payload(4)).unwrap_err();
        assert_eq!(again.kind(), failed.kind());
        assert_eq!(
            store.checkpoint(payload(4), 4).unwrap_err().kind(),
            failed.kind()
        );
        assert_eq!(
            store.begin(payload(4), 4, 4).unwrap_err().kind(),
            failed.kind()
        );
        drop(store);
        let (_store, recovered) = DurableStore::open(&options(&dir)).unwrap();
        assert_eq!(recovered.checkpoint.as_ref().unwrap().generation, 1);
        assert_eq!(recovered_seqs(&recovered), vec![1, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_record_rotation_recovers() {
        let dir = scratch("every-record");
        let mut every_record = options(&dir);
        every_record.fsync = FsyncPolicy::EveryRecord;
        {
            let (mut store, _) = DurableStore::open(&every_record).unwrap();
            store.begin(payload(0), 0, 0).unwrap();
            store.append(EventKind::Request, payload(1)).unwrap();
            store.checkpoint(payload(1), 1).unwrap();
            store.append(EventKind::Result, payload(2)).unwrap();
        }
        let (_store, recovered) = DurableStore::open(&every_record).unwrap();
        assert_eq!(recovered.checkpoint.as_ref().unwrap().generation, 2);
        assert_eq!(recovered_seqs(&recovered), vec![2]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
