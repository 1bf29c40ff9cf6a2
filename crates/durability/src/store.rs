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
//! when checkpoint `G` itself is torn, recovery falls back to `G-1` and
//! replays `wal-(G-1)` *and* `wal-G` seamlessly — the contiguity check is on
//! `seq`, not on file boundaries.

use crate::codec::{decode_doc, encode_doc, CheckpointDoc, EventKind, JournalRecord};
use crate::journal::{read_journal, JournalWriter};
use crate::{DurabilityOptions, FsyncPolicy};
use bytes::Bytes;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Checkpoint generations retained on disk: the newest plus one complete
/// fallback generation behind it.
const KEEP_GENERATIONS: u64 = 2;

fn ckpt_name(generation: u64) -> String {
    format!("ckpt-{generation:020}.bin")
}

fn wal_name(generation: u64) -> String {
    format!("wal-{generation:020}.log")
}

fn parse_generation(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
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
    next_seq: u64,
    writer: Option<JournalWriter>,
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
            if let Some(generation) = parse_generation(&name, "ckpt-", ".bin") {
                checkpoints.push(generation);
                max_seen = max_seen.max(generation);
            } else if let Some(generation) = parse_generation(&name, "wal-", ".log") {
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
            next_seq: 0,
            writer: None,
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
    /// first [`DurableStore::append`] gets `seq + 1`.
    pub fn begin(&mut self, state_payload: Bytes, seq: u64, steps: u64) -> io::Result<u64> {
        self.write_generation(state_payload, seq, steps)
    }

    /// Appends one event to the active journal, returning its sequence
    /// number. The record is in the kernel (or, under
    /// [`FsyncPolicy::EveryRecord`], on stable storage) before this returns,
    /// so a reply sent afterwards can never outlive the journal entry.
    pub fn append(&mut self, kind: EventKind, payload: Bytes) -> io::Result<u64> {
        let writer = self
            .writer
            .as_mut()
            .expect("DurableStore::begin must run before append");
        let seq = self.next_seq;
        writer.append(&JournalRecord { seq, kind, payload })?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Writes a new checkpoint generation covering everything appended so
    /// far, rotates the journal, and prunes generations beyond the retention
    /// window. Returns the new generation number.
    pub fn checkpoint(&mut self, state_payload: Bytes, steps: u64) -> io::Result<u64> {
        if let Some(writer) = self.writer.as_mut() {
            // The rotated-out journal must be stable before the checkpoint
            // that supersedes it claims to cover it.
            writer.sync()?;
        }
        let seq = self.next_seq.saturating_sub(1);
        self.write_generation(state_payload, seq, steps)
    }

    fn write_generation(&mut self, state_payload: Bytes, seq: u64, steps: u64) -> io::Result<u64> {
        let generation = self.generation + 1;
        let doc = CheckpointDoc {
            generation,
            seq,
            steps,
            payload: state_payload,
        };
        let final_path = self.dir.join(ckpt_name(generation));
        let tmp_path = self.dir.join(format!("{}.tmp", ckpt_name(generation)));
        {
            let mut file = fs::File::create(&tmp_path)?;
            io::Write::write_all(&mut file, &encode_doc(&doc))?;
            if !matches!(self.fsync, FsyncPolicy::Never) {
                file.sync_all()?;
            }
        }
        fs::rename(&tmp_path, &final_path)?;
        if !matches!(self.fsync, FsyncPolicy::Never) {
            sync_dir(&self.dir)?;
        }

        self.writer = Some(JournalWriter::create(
            &self.dir.join(wal_name(generation)),
            generation,
            self.fsync,
        )?);
        self.generation = generation;
        self.next_seq = seq + 1;
        self.prune();
        Ok(generation)
    }

    /// Deletes checkpoint/journal generations older than the retention
    /// window. Best-effort: a file that cannot be deleted is just retained.
    fn prune(&self) {
        let cutoff = self.generation.saturating_sub(KEEP_GENERATIONS - 1);
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            let generation = parse_generation(&name, "ckpt-", ".bin")
                .or_else(|| parse_generation(&name, "wal-", ".log"));
            if let Some(generation) = generation {
                if generation < cutoff {
                    let _ = fs::remove_file(entry.path());
                }
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
}
