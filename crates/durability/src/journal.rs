//! The write-ahead journal file layer: a CRC-sealed header naming the
//! generation the journal extends, followed by CRC-framed, length-prefixed
//! record frames.
//!
//! File layout:
//!
//! ```text
//! [8B magic "FLTWAL\0\0"] [u8 version] [u64 generation LE] [u32 crc of the 17 header bytes]
//! repeated: [u32 body_len LE] [body = codec::put_record output] [u32 crc32(body) LE]
//! ```
//!
//! A crash can tear the file anywhere. The reader treats the first frame
//! that is short (its length prefix runs past the end of the file),
//! CRC-broken or undecodable as the end of the journal — a torn tail costs
//! the unacknowledged suffix, never the whole file. Nothing is ever appended after a tear: recovery seals what it
//! replayed into a new checkpoint generation with a fresh journal.

use crate::codec::{decode_record, put_record, record_len, JournalRecord};
use crate::crc::crc32;
use crate::FsyncPolicy;
use bytes::{BufMut, Bytes, BytesMut};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Journal file format version.
pub(crate) const JOURNAL_VERSION: u8 = 1;

/// Magic prefix of a journal file.
pub(crate) const JOURNAL_MAGIC: [u8; 8] = *b"FLTWAL\0\0";

const HEADER_LEN: usize = 8 + 1 + 8 + 4;

fn header_bytes(generation: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&JOURNAL_MAGIC);
    header[8] = JOURNAL_VERSION;
    header[9..17].copy_from_slice(&generation.to_le_bytes());
    let crc = crc32(&header[..17]);
    header[17..21].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Appends record frames to one journal file.
pub(crate) struct JournalWriter {
    file: File,
    fsync: FsyncPolicy,
}

impl JournalWriter {
    /// Creates a fresh journal for `generation`, truncating any existing
    /// file at `path`, and writes the sealed header. The header is not
    /// synced here: the sync that makes a record stable — after each append
    /// under [`FsyncPolicy::EveryRecord`], at rotation under
    /// [`FsyncPolicy::OnCheckpoint`] — carries the header with it.
    pub(crate) fn create(
        path: &Path,
        generation: u64,
        fsync: FsyncPolicy,
    ) -> io::Result<JournalWriter> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&header_bytes(generation))?;
        Ok(JournalWriter { file, fsync })
    }

    /// Appends one record frame. With [`FsyncPolicy::EveryRecord`] the frame
    /// is on stable storage when this returns; otherwise the kernel owns it
    /// (still crash-proof against process death).
    pub(crate) fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        // `[len][body][crc]` built in one buffer, the CRC taken in place.
        let body_len = record_len(record);
        let mut frame = BytesMut::with_capacity(4 + body_len + 4);
        frame.put_u32_le(u32::try_from(body_len).expect("MAX_PAYLOAD_LEN keeps a body in u32"));
        put_record(&mut frame, record);
        let crc = crc32(&frame[4..]);
        frame.put_u32_le(crc);
        self.file.write_all(&frame)?;
        if matches!(self.fsync, FsyncPolicy::EveryRecord) {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// A writer over the journal at `path` opened read-only, so every append
    /// fails: a disk that refuses a write.
    #[cfg(test)]
    pub(crate) fn read_only(path: &Path, fsync: FsyncPolicy) -> io::Result<JournalWriter> {
        Ok(JournalWriter {
            file: File::open(path)?,
            fsync,
        })
    }

    /// Flushes the journal to stable storage regardless of policy (used when
    /// a checkpoint rotates this journal out).
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        if matches!(self.fsync, FsyncPolicy::Never) {
            return Ok(());
        }
        self.file.sync_data()
    }
}

/// What [`read_journal`] recovered from one journal file.
pub(crate) struct ReadJournal {
    /// The generation named in the (valid) header.
    pub generation: u64,
    /// Every record up to the first torn/corrupt frame, in file order.
    pub records: Vec<JournalRecord>,
}

/// Reads a journal file, tolerating a torn tail.
///
/// Returns `None` when the file is missing, shorter than a header, or the
/// header itself fails its magic/version/CRC checks — such a file carries no
/// usable history at all. Otherwise every cleanly framed record before the
/// first tear is returned; the tear itself (a short frame or a length past
/// the end of the file, CRC mismatch, undecodable body) just ends the
/// journal early.
pub(crate) fn read_journal(path: &Path) -> Option<ReadJournal> {
    let mut raw = Vec::new();
    File::open(path).ok()?.read_to_end(&mut raw).ok()?;
    // Shared from here on: every record's payload is a view of this buffer.
    let raw = Bytes::from(raw);
    if raw.len() < HEADER_LEN || raw[..8] != JOURNAL_MAGIC || raw[8] != JOURNAL_VERSION {
        return None;
    }
    let header_crc = u32::from_le_bytes(raw[17..21].try_into().expect("4-byte header crc"));
    if crc32(&raw[..17]) != header_crc {
        return None;
    }
    let generation = u64::from_le_bytes(raw[9..17].try_into().expect("8-byte generation"));

    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    loop {
        if raw.len() - offset < 4 {
            break;
        }
        let body_len =
            u32::from_le_bytes(raw[offset..offset + 4].try_into().expect("4-byte len")) as usize;
        if raw.len() - offset - 4 < body_len + 4 {
            break;
        }
        let body = raw.slice(offset + 4..offset + 4 + body_len);
        let crc_at = offset + 4 + body_len;
        let frame_crc = u32::from_le_bytes(raw[crc_at..crc_at + 4].try_into().expect("4-byte crc"));
        if crc32(&body) != frame_crc {
            break;
        }
        match decode_record(body) {
            Ok(record) => records.push(record),
            Err(_) => break,
        }
        offset = crc_at + 4;
    }
    Some(ReadJournal {
        generation,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::EventKind;

    fn record(seq: u64) -> JournalRecord {
        JournalRecord {
            seq,
            kind: EventKind::Request,
            payload: Bytes::from(vec![seq as u8; 3 + seq as usize % 5]),
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn roundtrips() {
        let path = scratch("roundtrip");
        let mut writer = JournalWriter::create(&path, 3, FsyncPolicy::Never).unwrap();
        for seq in 1..=4 {
            writer.append(&record(seq)).unwrap();
        }
        drop(writer);
        let read = read_journal(&path).unwrap();
        assert_eq!(read.generation, 3);
        assert_eq!(read.records, (1..=4).map(record).collect::<Vec<_>>());
    }

    /// Golden vector captured before `append` built its frame in one buffer:
    /// header, then `[len][record][crc]`, byte for byte.
    #[test]
    fn golden_bytes_of_an_appended_frame() {
        let path = scratch("golden");
        let mut writer = JournalWriter::create(&path, 3, FsyncPolicy::Never).unwrap();
        writer.append(&record(2)).unwrap();
        drop(writer);
        let hex = crate::codec::hex(&std::fs::read(&path).unwrap());
        assert_eq!(hex, "464c5457414c0000010300000000000000804764301300000001020000000000000001050000000202020202ee401ea2");
    }

    /// A record the size of `serve_durable`'s results (47 364 payload
    /// bytes): its frame is long enough for the four-chain CRC.
    fn result_sized_record(seq: u64) -> JournalRecord {
        JournalRecord {
            seq,
            kind: EventKind::Result,
            payload: Bytes::from(
                (0..47_364u32)
                    .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
                    .collect::<Vec<_>>(),
            ),
        }
    }

    #[test]
    fn a_result_sized_record_roundtrips_under_an_unchanged_crc() {
        let path = scratch("result-sized");
        let mut writer = JournalWriter::create(&path, 3, FsyncPolicy::Never).unwrap();
        writer.append(&result_sized_record(1)).unwrap();
        drop(writer);
        let raw = std::fs::read(&path).unwrap();
        // zlib's CRC-32 of the frame body, so the frame's bytes are the
        // single-chain CRC's.
        assert_eq!(raw[raw.len() - 4..], 0xAA12_2386u32.to_le_bytes());
        let read = read_journal(&path).unwrap();
        assert_eq!(read.records, vec![result_sized_record(1)]);
    }

    #[test]
    fn a_bit_flip_in_a_result_sized_payload_ends_the_journal_before_it() {
        let path = scratch("result-sized-flip");
        let mut writer = JournalWriter::create(&path, 1, FsyncPolicy::Never).unwrap();
        writer.append(&record(1)).unwrap();
        let frame_at = std::fs::metadata(&path).unwrap().len() as usize;
        let large = result_sized_record(2);
        writer.append(&large).unwrap();
        writer.append(&record(3)).unwrap();
        drop(writer);
        let full = std::fs::read(&path).unwrap();
        let payload_at = frame_at + 4 + record_len(&large) - large.payload.len();
        let last = large.payload.len() - 1;
        for offset in (0..last).step_by(997).chain([last]) {
            let mut flipped = full.clone();
            flipped[payload_at + offset] ^= 1 << (offset % 8);
            std::fs::write(&path, &flipped).unwrap();
            let read = read_journal(&path).unwrap();
            assert_eq!(
                read.records,
                vec![record(1)],
                "flip at payload byte {offset}"
            );
        }
    }

    #[test]
    fn every_truncation_yields_a_valid_prefix() {
        let path = scratch("truncate");
        let mut writer = JournalWriter::create(&path, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=3 {
            writer.append(&record(seq)).unwrap();
        }
        drop(writer);
        let full = std::fs::read(&path).unwrap();
        for len in 0..full.len() {
            std::fs::write(&path, &full[..len]).unwrap();
            match read_journal(&path) {
                None => assert!(len < HEADER_LEN, "header vanished at length {len}"),
                Some(read) => {
                    assert!(len >= HEADER_LEN);
                    for (i, rec) in read.records.iter().enumerate() {
                        assert_eq!(
                            rec,
                            &record(i as u64 + 1),
                            "prefix diverged at length {len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bit_flips_never_panic_and_only_shorten() {
        let path = scratch("bitflip");
        let mut writer = JournalWriter::create(&path, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=3 {
            writer.append(&record(seq)).unwrap();
        }
        drop(writer);
        let full = std::fs::read(&path).unwrap();
        for byte in 0..full.len() {
            let mut flipped = full.clone();
            flipped[byte] ^= 0x40;
            std::fs::write(&path, &flipped).unwrap();
            if let Some(read) = read_journal(&path) {
                // Whatever survives must be a clean prefix of the original
                // records (a flipped payload byte is caught by the frame CRC).
                for (i, rec) in read.records.iter().enumerate() {
                    assert_eq!(
                        rec,
                        &record(i as u64 + 1),
                        "flip at byte {byte} corrupted replay"
                    );
                }
            }
        }
    }
}
