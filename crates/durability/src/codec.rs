//! Binary codecs for the durable artifacts, in the wire codec's idiom: a
//! one-byte version tag, `u32` little-endian length prefixes bounded by
//! [`MAX_PAYLOAD_LEN`], raw little-endian scalars.
//!
//! Two document types live here:
//!
//! * [`JournalRecord`] — one write-ahead-journal entry: a monotonic
//!   submission sequence number, an [`EventKind`], and the opaque event
//!   payload (the raw wire bytes of the request/result, or a reclaimed task
//!   id). [`put_record`] emits the record *body* only; the journal file
//!   layer ([`crate::journal`]) wraps it in a `[u32 len][body][u32 crc]`
//!   frame so a torn tail is detectable.
//! * [`CheckpointDoc`] — the on-disk checkpoint container: generation,
//!   covered sequence number, the transport step counter and the opaque
//!   state payload, CRC-sealed as one self-contained blob.
//!
//! Both encoders bind their document with an exhaustive struct pattern (no
//! `..`) and both decoders end in a struct literal, so a field added to
//! either struct and forgotten on the encode *or* decode path is a compile
//! error (a field bound but never written trips `unused_variables` below).

#![deny(unused_variables)]

use crate::crc::crc32;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Hard bound on any length-prefixed field: the largest payload whose
/// journal record body (version, seq, kind, length prefix, payload) still
/// fits the journal frame's `u32` length prefix.
///
/// A journal event is one frame the transport accepted, appended under the
/// transport's core mutex, so this bound must cover every frame
/// `fleet_transport::MAX_FRAME_LEN` admits, which the transport asserts at
/// compile time: below it, one in-bound frame would panic the append and
/// poison the mutex. Readers never allocate from a length prefix: they slice
/// the buffer already read, after checking the bytes are there.
pub const MAX_PAYLOAD_LEN: usize = u32::MAX as usize - RECORD_HEADER_LEN;

/// Bytes of a record body before its payload: version, seq, kind and the
/// payload's length prefix.
const RECORD_HEADER_LEN: usize = 1 + 8 + 1 + 4;

/// Journal record body format version.
pub(crate) const RECORD_VERSION: u8 = 1;

/// Checkpoint container format version.
pub(crate) const DOC_VERSION: u8 = 1;

/// Magic prefix of a checkpoint container file.
pub(crate) const DOC_MAGIC: [u8; 8] = *b"FLTCKPT\0";

/// Why a durable artifact failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CodecError {
    /// The buffer ended before the document did.
    Truncated,
    /// The container's magic prefix is wrong — not one of our files.
    BadMagic,
    /// A version byte this build does not understand.
    UnsupportedVersion(u8),
    /// A length prefix exceeding [`MAX_PAYLOAD_LEN`] or the remaining bytes.
    LengthOutOfBounds(usize),
    /// An event-kind byte with no [`EventKind`] mapping.
    UnknownEventKind(u8),
    /// The CRC seal did not match the content.
    CrcMismatch,
    /// Well-formed document followed by garbage bytes.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated durable document"),
            CodecError::BadMagic => write!(f, "bad container magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::LengthOutOfBounds(len) => write!(f, "length {len} out of bounds"),
            CodecError::UnknownEventKind(k) => write!(f, "unknown event kind {k}"),
            CodecError::CrcMismatch => write!(f, "CRC mismatch"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after document"),
        }
    }
}

impl std::error::Error for CodecError {}

/// What a journal record describes. The discriminants are the on-disk bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A state-changing task request (raw request wire bytes). Requests
    /// mutate more than the lease table — controller counters, I-Prof,
    /// device routing — so every successfully decoded request is journaled,
    /// rejections included.
    Request = 1,
    /// An uploaded result (raw result wire bytes), journaled whatever its
    /// disposition: even a `Duplicate` exchange advances the logical clock's
    /// expiry sweep.
    Result = 2,
    /// A lease force-reclaimed by a connection death (8-byte LE task id).
    Reclaim = 3,
}

impl EventKind {
    /// The on-disk discriminant.
    pub(crate) fn as_byte(self) -> u8 {
        self as u8
    }

    /// Parses an on-disk discriminant.
    pub(crate) fn from_byte(byte: u8) -> Option<EventKind> {
        match byte {
            1 => Some(EventKind::Request),
            2 => Some(EventKind::Result),
            3 => Some(EventKind::Reclaim),
            _ => None,
        }
    }
}

/// One write-ahead-journal entry. `seq` numbers are strictly contiguous
/// across the whole store (they chain across journal rotations), which is
/// what lets recovery detect a shortened or gapped history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Position in the total submission order (1-based; a checkpoint's
    /// `seq` says which prefix it already covers).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// The opaque event payload (wire bytes / task id).
    pub payload: Bytes,
}

/// The on-disk checkpoint container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointDoc {
    /// Strictly monotonic checkpoint generation (1-based; generation 0 is
    /// the implicit empty store).
    pub generation: u64,
    /// The journal sequence number this checkpoint covers through: records
    /// with `seq` ≤ this are folded into the payload already.
    pub seq: u64,
    /// The transport's completed-step counter at checkpoint time, so a
    /// restarted server resumes the same step-gated schedule.
    pub steps: u64,
    /// The opaque serialized state (`fleet_server::encode_checkpoint`).
    pub payload: Bytes,
}

fn checked_len(len: usize) -> u32 {
    assert!(
        len <= MAX_PAYLOAD_LEN,
        "durable field of {len} bytes exceeds MAX_PAYLOAD_LEN"
    );
    len as u32
}

fn take_payload(buf: &mut Bytes) -> Result<Bytes, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(CodecError::LengthOutOfBounds(len));
    }
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    Ok(buf.copy_to_bytes(len))
}

/// Encoded size of a record body, as [`put_record`] writes it.
pub(crate) fn record_len(record: &JournalRecord) -> usize {
    RECORD_HEADER_LEN + record.payload.len()
}

/// Appends a journal record body to `buf` — the payload's one copy on its
/// way to disk.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD_LEN`]; such a record could
/// never be read back.
pub(crate) fn put_record(buf: &mut BytesMut, record: &JournalRecord) {
    let JournalRecord { seq, kind, payload } = record;
    buf.put_u8(RECORD_VERSION);
    buf.put_u64_le(*seq);
    buf.put_u8(kind.as_byte());
    buf.put_u32_le(checked_len(payload.len()));
    buf.put_slice(payload);
}

/// Decodes a journal record body produced by [`put_record`].
///
/// # Errors
///
/// [`CodecError`] on truncation, unknown version or kind, an out-of-bounds
/// length, or trailing garbage. CRC validation happens one layer down, in
/// the journal file framing.
pub(crate) fn decode_record(mut buf: Bytes) -> Result<JournalRecord, CodecError> {
    if buf.remaining() < 1 + 8 + 1 {
        return Err(CodecError::Truncated);
    }
    let version = buf.get_u8();
    if version != RECORD_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let seq = buf.get_u64_le();
    let kind_byte = buf.get_u8();
    let kind = EventKind::from_byte(kind_byte).ok_or(CodecError::UnknownEventKind(kind_byte))?;
    let payload = take_payload(&mut buf)?;
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes(buf.remaining()));
    }
    Ok(JournalRecord { seq, kind, payload })
}

/// Encodes a checkpoint container: magic, version, header scalars, payload,
/// CRC-32 seal over everything preceding it.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD_LEN`].
pub(crate) fn encode_doc(doc: &CheckpointDoc) -> Bytes {
    let CheckpointDoc {
        generation,
        seq,
        steps,
        payload,
    } = doc;
    let mut buf = BytesMut::with_capacity(8 + 1 + 3 * 8 + 4 + payload.len() + 4);
    buf.put_slice(&DOC_MAGIC);
    buf.put_u8(DOC_VERSION);
    buf.put_u64_le(*generation);
    buf.put_u64_le(*seq);
    buf.put_u64_le(*steps);
    buf.put_u32_le(checked_len(payload.len()));
    buf.put_slice(payload);
    let seal = crc32(&buf);
    buf.put_u32_le(seal);
    buf.freeze()
}

/// Decodes a checkpoint container produced by [`encode_doc`], validating the
/// CRC seal first — a torn or bit-flipped container is rejected as a whole,
/// never partially trusted.
///
/// # Errors
///
/// [`CodecError`] on any structural or integrity failure.
pub(crate) fn decode_doc(buf: Bytes) -> Result<CheckpointDoc, CodecError> {
    if buf.len() < 8 + 1 + 3 * 8 + 4 + 4 {
        return Err(CodecError::Truncated);
    }
    let (sealed, seal) = buf.split_at(buf.len() - 4);
    let expected = u32::from_le_bytes(seal.try_into().expect("4-byte seal"));
    if crc32(sealed) != expected {
        return Err(CodecError::CrcMismatch);
    }
    let mut buf = buf.slice(0..sealed.len());
    if buf[..8] != DOC_MAGIC {
        return Err(CodecError::BadMagic);
    }
    buf.advance(8);
    let version = buf.get_u8();
    if version != DOC_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let generation = buf.get_u64_le();
    let seq = buf.get_u64_le();
    let steps = buf.get_u64_le();
    let payload = take_payload(&mut buf)?;
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes(buf.remaining()));
    }
    Ok(CheckpointDoc {
        generation,
        seq,
        steps,
        payload,
    })
}

/// Lower-case hex of `bytes`, for the golden-vector tests here and in
/// [`crate::journal`].
#[cfg(test)]
pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record body on its own, as [`put_record`] writes it into a frame.
    fn encode_record(record: &JournalRecord) -> Bytes {
        let mut buf = BytesMut::with_capacity(record_len(record));
        put_record(&mut buf, record);
        buf.freeze()
    }

    fn sample_record() -> JournalRecord {
        JournalRecord {
            seq: 42,
            kind: EventKind::Result,
            payload: Bytes::from(vec![1, 2, 3, 250, 0]),
        }
    }

    fn sample_doc() -> CheckpointDoc {
        CheckpointDoc {
            generation: 7,
            seq: 12,
            steps: 9,
            payload: Bytes::from(b"opaque state".to_vec()),
        }
    }

    #[test]
    fn record_roundtrips() {
        let record = sample_record();
        assert_eq!(decode_record(encode_record(&record)).unwrap(), record);
        let empty = JournalRecord {
            seq: 1,
            kind: EventKind::Reclaim,
            payload: Bytes::from(Vec::new()),
        };
        assert_eq!(decode_record(encode_record(&empty)).unwrap(), empty);
    }

    #[test]
    fn doc_roundtrips() {
        let doc = sample_doc();
        assert_eq!(decode_doc(encode_doc(&doc)).unwrap(), doc);
    }

    /// Golden vectors captured before the single-buffer encoders: journals
    /// and checkpoint containers already on disk must stay readable.
    #[test]
    fn golden_bytes_of_record_and_doc() {
        assert_eq!(
            hex(&encode_record(&sample_record())),
            "012a000000000000000205000000010203fa00"
        );
        assert_eq!(hex(&encode_doc(&sample_doc())), "464c54434b5054000107000000000000000c0000000000000009000000000000000c0000006f70617175652073746174650a131368");
    }

    #[test]
    fn record_truncation_errors_at_every_offset() {
        let encoded = encode_record(&sample_record());
        for len in 0..encoded.len() {
            assert!(
                decode_record(encoded.slice(0..len)).is_err(),
                "record prefix of length {len} decoded successfully"
            );
        }
    }

    #[test]
    fn doc_truncation_errors_at_every_offset() {
        let encoded = encode_doc(&sample_doc());
        for len in 0..encoded.len() {
            assert!(
                decode_doc(encoded.slice(0..len)).is_err(),
                "doc prefix of length {len} decoded successfully"
            );
        }
    }

    #[test]
    fn doc_bit_flips_rejected_everywhere() {
        let encoded = encode_doc(&sample_doc()).to_vec();
        for byte in 0..encoded.len() {
            let mut flipped = encoded.clone();
            flipped[byte] ^= 0x10;
            assert!(
                decode_doc(Bytes::from(flipped)).is_err(),
                "flip at byte {byte} decoded successfully"
            );
        }
    }

    /// A container the size of `serve_durable`'s checkpoints (263 287
    /// payload bytes): its seal takes the four-chain CRC.
    fn checkpoint_sized_doc() -> CheckpointDoc {
        CheckpointDoc {
            generation: 4,
            seq: 3_000,
            steps: 2_944,
            payload: Bytes::from(
                (0..263_287u32)
                    .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
                    .collect::<Vec<_>>(),
            ),
        }
    }

    #[test]
    fn a_checkpoint_sized_doc_roundtrips_under_an_unchanged_seal() {
        let doc = checkpoint_sized_doc();
        let encoded = encode_doc(&doc);
        // zlib's CRC-32 of the sealed bytes, so the seal is the single-chain
        // CRC's.
        assert_eq!(encoded[encoded.len() - 4..], 0x2B7A_A327u32.to_le_bytes());
        assert_eq!(decode_doc(encoded).unwrap(), doc);
    }

    #[test]
    fn a_bit_flip_in_a_checkpoint_sized_doc_fails_its_seal() {
        let encoded = encode_doc(&checkpoint_sized_doc()).to_vec();
        let last = encoded.len() - 1;
        for byte in (0..last).step_by(4_999).chain([last]) {
            let mut flipped = encoded.clone();
            flipped[byte] ^= 1 << (byte % 8);
            assert_eq!(
                decode_doc(Bytes::from(flipped)),
                Err(CodecError::CrcMismatch),
                "flip at byte {byte}"
            );
        }
    }

    #[test]
    fn unknown_kind_and_version_rejected() {
        let mut raw = encode_record(&sample_record()).to_vec();
        raw[0] = 9;
        assert_eq!(
            decode_record(Bytes::from(raw.clone())),
            Err(CodecError::UnsupportedVersion(9))
        );
        raw[0] = RECORD_VERSION;
        raw[9] = 77; // the kind byte
        assert_eq!(
            decode_record(Bytes::from(raw)),
            Err(CodecError::UnknownEventKind(77))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = encode_record(&sample_record()).to_vec();
        raw.push(0);
        assert_eq!(
            decode_record(Bytes::from(raw)),
            Err(CodecError::TrailingBytes(1))
        );
    }
}
