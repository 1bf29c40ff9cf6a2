//! Binary wire encoding of the worker/server protocol.
//!
//! The paper's implementation streams Kryo+Gzip-encoded objects between the
//! Android worker and the HTTP server. Here we provide an explicit,
//! dependency-free binary codec built on [`bytes`]: length-prefixed fields,
//! little-endian scalars, f32 slices packed raw. The format is versioned with
//! a one-byte tag so it can evolve.
//!
//! Each message is written down twice, once per direction, and nowhere
//! else. An encoder writes into a `Sink`; `encode` runs it twice, first
//! into a sink that only counts bytes, then into one buffer allocated at
//! exactly that count, so no encoder keeps its own size. A decoder reads
//! through checked getters (`get_u8`, `get_u64`, `get_f32`, `get_vec`, …)
//! that return [`WireError::UnexpectedEof`] instead of panicking, so no
//! decoder keeps a hand-summed size either. Only a length prefix about to
//! size an allocation is checked against the bytes left (`get_vec`, and
//! `get_counted` in the checkpoint codec).
//!
//! Every encoder binds its message with an exhaustive struct pattern (no
//! `..`) and every decoder ends in a struct literal, so a field added to a
//! protocol type and forgotten on either side fails `cargo build` here:
//! unmentioned in the pattern or literal is an error by itself, bound but
//! never written is the `unused_variables` error below. Field order is what
//! the golden vectors in the tests pin.

#![deny(unused_variables)]

use crate::protocol::{
    RejectionReason, ResultAck, ResultDisposition, TaskAssignment, TaskGrant, TaskRequest,
    TaskResponse, TaskResult,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use fleet_data::LabelDistribution;
use fleet_device::DeviceFeatures;
use fleet_ml::Gradient;
use std::error::Error;
use std::fmt;

/// Baseline wire-format version (requests, and results without a vector
/// clock).
const WIRE_VERSION: u8 = 1;

/// Wire-format version 2: a [`TaskResult`] carrying the per-shard vector
/// clock the worker observed at model-read time (`ApplyMode::PerShard`
/// servers attribute per-shard staleness from it). The encoder emits the
/// *oldest* version able to carry the message — results without a read
/// clock stay byte-identical to v1 — and the decoder accepts both.
const WIRE_VERSION_READ_CLOCK: u8 = 2;

/// Wire-format version 3: a [`TaskResult`] carrying the server-issued
/// `task_id` the worker echoes back for lease accounting and result
/// deduplication. Because the id may be present with or without a read
/// clock, v3 replaces v2's implicit clock with an explicit presence flag:
/// after `energy_pct` come a `u8` flag, the clock vector iff the flag is 1,
/// then the `u64` task id. As with v2, the encoder emits the oldest version
/// able to carry the message, so id-less results stay on v1/v2 bytes.
const WIRE_VERSION_TASK_ID: u8 = 3;

/// Wire-format version of the server→worker messages ([`TaskResponse`] and
/// [`ResultAck`]). These travelled in-process until the socket transport
/// (`crates/transport`) needed them on the wire, so they start their own
/// version line at 1; like the request/result codec, the format is
/// append-only and the version byte comes first.
const RESPONSE_WIRE_VERSION: u8 = 1;

/// Variant tag of [`TaskResponse::Assignment`].
const RESPONSE_TAG_ASSIGNMENT: u8 = 0;
/// Variant tag of [`TaskResponse::Rejected`].
const RESPONSE_TAG_REJECTED: u8 = 1;

/// Variant tags of [`RejectionReason`].
const REJECT_TAG_BATCH_TOO_SMALL: u8 = 0;
const REJECT_TAG_TOO_SIMILAR: u8 = 1;
const REJECT_TAG_OVERLOADED: u8 = 2;

/// Errors produced while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message was complete.
    UnexpectedEof,
    /// The version byte is not understood.
    UnsupportedVersion(u8),
    /// A length field exceeds sane bounds.
    LengthOutOfBounds(usize),
    /// A string field is not valid UTF-8.
    InvalidUtf8,
    /// Well-framed fields whose values the format forbids (named here).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of wire message"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::LengthOutOfBounds(len) => write!(f, "length field {len} out of bounds"),
            WireError::InvalidUtf8 => write!(f, "string field is not valid utf-8"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl Error for WireError {}

/// Upper bound on any length-prefixed field, enforced symmetrically: the
/// decoder rejects longer length prefixes with [`WireError::LengthOutOfBounds`]
/// and the encoder panics rather than emit one (an unchecked `len as u32`
/// cast used to truncate silently, encoding corrupt messages for fields over
/// `u32::MAX` — and fields in `(MAX_FIELD_LEN, u32::MAX]` encoded fine but
/// could never be decoded).
pub const MAX_FIELD_LEN: usize = 64 * 1024 * 1024;

/// Validates a field length on the encode side, mirroring [`get_len`].
///
/// # Panics
///
/// Panics when `len` exceeds [`MAX_FIELD_LEN`]; encoding such a message can
/// only produce garbage (silent `u32` truncation) or an undecodable buffer.
pub(crate) fn checked_field_len(len: usize) -> u32 {
    assert!(
        len <= MAX_FIELD_LEN,
        "wire field length {len} exceeds MAX_FIELD_LEN {MAX_FIELD_LEN}; \
         the message would not survive the roundtrip"
    );
    len as u32
}

/// Elements converted per pass of the bulk slice codec. The conversion
/// buffer lives on the stack (1 KiB of `f32`, 2 KiB of `u64`), small enough
/// to stay in L1 while a megabyte body streams through it.
const BLOCK: usize = 256;

/// Where an encoder writes: a byte count alone (the measuring pass of
/// [`encode`]), or a byte count and the buffer being filled.
pub(crate) struct Sink {
    len: usize,
    buf: Option<BytesMut>,
}

impl Sink {
    fn put_slice(&mut self, raw: &[u8]) {
        self.len += raw.len();
        if let Some(buf) = &mut self.buf {
            buf.put_slice(raw);
        }
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f32(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Writes an element or byte count as a `u32` length prefix.
    ///
    /// # Panics
    ///
    /// Panics when `len` exceeds [`MAX_FIELD_LEN`] — in the measuring pass,
    /// before anything is allocated.
    pub(crate) fn put_len(&mut self, len: usize) {
        self.put_slice(&checked_field_len(len).to_le_bytes());
    }

    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.put_slice(s.as_bytes());
    }

    /// Writes a length-prefixed vector, each element as the `W` bytes
    /// `to_le_bytes` gives. The fill pass converts [`BLOCK`] elements at a
    /// time into a stack buffer and appends each block in one copy.
    pub(crate) fn put_vec<T: Copy, const W: usize>(
        &mut self,
        values: &[T],
        to_le_bytes: impl Fn(T) -> [u8; W],
    ) {
        self.put_len(values.len());
        self.len += W * values.len();
        let Some(buf) = &mut self.buf else { return };
        let mut block = [[0u8; W]; BLOCK];
        for values in values.chunks(BLOCK) {
            let raw = &mut block[..values.len()];
            for (dst, v) in raw.iter_mut().zip(values) {
                *dst = to_le_bytes(*v);
            }
            buf.put_slice(raw.as_flattened());
        }
    }
}

/// Runs the encoder `write` twice: into a [`Sink`] that only counts bytes,
/// then into one buffer allocated at exactly that count, which it returns.
pub(crate) fn encode(write: impl Fn(&mut Sink)) -> Bytes {
    let mut measured = Sink { len: 0, buf: None };
    write(&mut measured);
    let mut filled = Sink {
        len: 0,
        buf: Some(BytesMut::with_capacity(measured.len)),
    };
    write(&mut filled);
    let buf = filled.buf.expect("the fill pass owns a buffer");
    debug_assert_eq!(buf.len(), measured.len, "both passes write the same bytes");
    buf.freeze()
}

/// Reads `N` raw bytes, or reports that the message ended first.
fn get_array<const N: usize>(buf: &mut Bytes) -> Result<[u8; N], WireError> {
    let raw = *buf.first_chunk::<N>().ok_or(WireError::UnexpectedEof)?;
    buf.advance(N);
    Ok(raw)
}

pub(crate) fn get_u8(buf: &mut Bytes) -> Result<u8, WireError> {
    get_array(buf).map(u8::from_le_bytes)
}

pub(crate) fn get_u64(buf: &mut Bytes) -> Result<u64, WireError> {
    get_array(buf).map(u64::from_le_bytes)
}

pub(crate) fn get_f32(buf: &mut Bytes) -> Result<f32, WireError> {
    get_array(buf).map(f32::from_le_bytes)
}

/// Reads a flag byte: 0 or 1, anything else is [`WireError::Malformed`]
/// naming the flag.
pub(crate) fn get_flag(buf: &mut Bytes, what: &'static str) -> Result<bool, WireError> {
    match get_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Malformed(what)),
    }
}

pub(crate) fn get_len(buf: &mut Bytes) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(get_array(buf)?) as usize;
    if len > MAX_FIELD_LEN {
        return Err(WireError::LengthOutOfBounds(len));
    }
    Ok(len)
}

pub(crate) fn need(buf: &Bytes, bytes: usize) -> Result<(), WireError> {
    if buf.remaining() < bytes {
        Err(WireError::UnexpectedEof)
    } else {
        Ok(())
    }
}

/// Reads a vector written by [`Sink::put_vec`]. Its length prefix sizes the
/// allocation only once the bytes it promises are known to be there.
pub(crate) fn get_vec<T, const W: usize>(
    buf: &mut Bytes,
    from_le_bytes: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>, WireError> {
    let len = get_len(buf)?;
    need(buf, len * W)?;
    let (elements, _) = buf.chunk()[..len * W].as_chunks::<W>();
    let values = elements.iter().map(|raw| from_le_bytes(*raw)).collect();
    buf.advance(len * W);
    Ok(values)
}

pub(crate) fn get_string(buf: &mut Bytes) -> Result<String, WireError> {
    let len = get_len(buf)?;
    if buf.remaining() < len {
        return Err(WireError::UnexpectedEof);
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8)
}

/// Reads a probability vector and rebuilds the label distribution by scaling
/// to counts (sufficient precision for similarity computation).
///
/// A genuine encoding only ever carries finite probabilities in `[0, 1]`, so
/// anything else is rejected as corruption. The bound matters beyond hygiene:
/// an adversarial f32 would saturate the count conversion at `u64::MAX` and
/// overflow the total inside `LabelDistribution::from_counts`. After this
/// check each count is at most `1e6` and the vector at most [`MAX_FIELD_LEN`]
/// long, so the sum cannot overflow.
fn get_label_distribution(buf: &mut Bytes) -> Result<LabelDistribution, WireError> {
    let probabilities = get_vec(buf, f32::from_le_bytes)?;
    if probabilities.is_empty() {
        return Err(WireError::LengthOutOfBounds(0));
    }
    if probabilities
        .iter()
        .any(|p| !p.is_finite() || *p < 0.0 || *p > 1.0)
    {
        return Err(WireError::Malformed("label probability outside [0, 1]"));
    }
    let counts: Vec<u64> = probabilities
        .iter()
        .map(|p| (p * 1_000_000.0).round() as u64)
        .collect();
    Ok(LabelDistribution::from_counts(&counts))
}

/// Encodes a [`TaskRequest`] into a byte buffer.
///
/// # Panics
///
/// Panics if a variable-length field (device model, label distribution)
/// exceeds [`MAX_FIELD_LEN`] — such a message could never decode.
pub fn encode_request(request: &TaskRequest) -> Bytes {
    let TaskRequest {
        worker_id,
        device_model,
        device_features:
            DeviceFeatures {
                available_memory_mb,
                total_memory_mb,
                temperature_celsius,
                sum_max_freq_ghz,
                energy_per_cpu_second,
            },
        label_distribution,
        available_samples,
    } = request;
    encode(|s| {
        s.put_u8(WIRE_VERSION);
        s.put_u64(*worker_id);
        s.put_str(device_model);
        for v in [
            available_memory_mb,
            total_memory_mb,
            temperature_celsius,
            sum_max_freq_ghz,
            energy_per_cpu_second,
        ] {
            s.put_f32(*v);
        }
        s.put_vec(label_distribution.as_slice(), f32::to_le_bytes);
        s.put_u64(*available_samples as u64);
    })
}

/// Decodes a [`TaskRequest`] from bytes produced by [`encode_request`].
///
/// # Errors
///
/// Returns a [`WireError`] when the buffer is truncated, has an unknown
/// version, or contains malformed fields.
pub fn decode_request(mut buf: Bytes) -> Result<TaskRequest, WireError> {
    let version = get_u8(&mut buf)?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let worker_id = get_u64(&mut buf)?;
    let device_model = get_string(&mut buf)?;
    let device_features = DeviceFeatures {
        available_memory_mb: get_f32(&mut buf)?,
        total_memory_mb: get_f32(&mut buf)?,
        temperature_celsius: get_f32(&mut buf)?,
        sum_max_freq_ghz: get_f32(&mut buf)?,
        energy_per_cpu_second: get_f32(&mut buf)?,
    };
    let label_distribution = get_label_distribution(&mut buf)?;
    let available_samples = get_u64(&mut buf)? as usize;
    Ok(TaskRequest {
        worker_id,
        device_model,
        device_features,
        label_distribution,
        available_samples,
    })
}

/// Encodes a [`TaskResult`] into a byte buffer.
///
/// # Panics
///
/// Panics if a variable-length field (gradient, label distribution) exceeds
/// [`MAX_FIELD_LEN`] — such a message could never decode.
pub fn encode_result(result: &TaskResult) -> Bytes {
    let TaskResult {
        worker_id,
        model_version,
        gradient,
        label_distribution,
        num_samples,
        computation_seconds,
        energy_pct,
        read_clock,
        task_id,
    } = result;
    encode(|s| {
        // Emit the oldest version able to carry the message: a result
        // without a read clock or task id is byte-identical to the v1
        // encoding, so v1 peers keep decoding everything a lockstep
        // deployment produces.
        s.put_u8(match (task_id, read_clock) {
            (Some(_), _) => WIRE_VERSION_TASK_ID,
            (None, Some(_)) => WIRE_VERSION_READ_CLOCK,
            (None, None) => WIRE_VERSION,
        });
        s.put_u64(*worker_id);
        s.put_u64(*model_version);
        s.put_vec(gradient.as_slice(), f32::to_le_bytes);
        s.put_vec(label_distribution.as_slice(), f32::to_le_bytes);
        s.put_u64(*num_samples as u64);
        s.put_f32(*computation_seconds);
        s.put_f32(*energy_pct);
        match (task_id, read_clock) {
            // v3: explicit clock-presence flag, then the id.
            (Some(task_id), read_clock) => {
                s.put_u8(read_clock.is_some() as u8);
                if let Some(read_clock) = read_clock {
                    s.put_vec(read_clock, u64::to_le_bytes);
                }
                s.put_u64(*task_id);
            }
            (None, Some(read_clock)) => s.put_vec(read_clock, u64::to_le_bytes),
            (None, None) => {}
        }
    })
}

/// Decodes a [`TaskResult`] from bytes produced by [`encode_result`].
///
/// # Errors
///
/// Returns a [`WireError`] when the buffer is truncated, has an unknown
/// version, or contains malformed fields.
pub fn decode_result(mut buf: Bytes) -> Result<TaskResult, WireError> {
    let version = get_u8(&mut buf)?;
    if !matches!(
        version,
        WIRE_VERSION | WIRE_VERSION_READ_CLOCK | WIRE_VERSION_TASK_ID
    ) {
        return Err(WireError::UnsupportedVersion(version));
    }
    let worker_id = get_u64(&mut buf)?;
    let model_version = get_u64(&mut buf)?;
    let gradient = Gradient::from_vec(get_vec(&mut buf, f32::from_le_bytes)?);
    let label_distribution = get_label_distribution(&mut buf)?;
    let num_samples = get_u64(&mut buf)? as usize;
    let computation_seconds = get_f32(&mut buf)?;
    let energy_pct = get_f32(&mut buf)?;
    let (read_clock, task_id) = match version {
        WIRE_VERSION_TASK_ID => {
            let read_clock = get_flag(&mut buf, "read-clock presence flag")?
                .then(|| get_vec(&mut buf, u64::from_le_bytes))
                .transpose()?;
            (read_clock, Some(get_u64(&mut buf)?))
        }
        WIRE_VERSION_READ_CLOCK => (Some(get_vec(&mut buf, u64::from_le_bytes)?), None),
        _ => (None, None),
    };
    Ok(TaskResult {
        worker_id,
        model_version,
        gradient,
        label_distribution,
        num_samples,
        computation_seconds,
        energy_pct,
        read_clock,
        task_id,
    })
}

/// Writes the head of an assignment response: the response version and tag,
/// then the scalars that come before the model.
fn put_assignment_head(s: &mut Sink, task_id: u64, model_version: u64, mini_batch_size: usize) {
    s.put_u8(RESPONSE_WIRE_VERSION);
    s.put_u8(RESPONSE_TAG_ASSIGNMENT);
    s.put_u64(task_id);
    s.put_u64(model_version);
    s.put_u64(mini_batch_size as u64);
}

/// Writes an assignment's model field: a length prefix, then the
/// parameters as little-endian `f32`s.
fn put_model(s: &mut Sink, parameters: &[f32]) {
    s.put_vec(parameters, f32::to_le_bytes);
}

/// Writes the tail of an assignment response: the shard clocks.
fn put_assignment_tail(s: &mut Sink, shard_clocks: &[u64]) {
    s.put_vec(shard_clocks, u64::to_le_bytes);
}

/// Encodes `parameters` as an assignment's model field: the body a server
/// publishes once per model version and shares across the assignments of
/// that version (see [`encode_assignment`]).
///
/// # Panics
///
/// Panics if `parameters` exceeds [`MAX_FIELD_LEN`].
pub(crate) fn encode_model(parameters: &[f32]) -> Bytes {
    encode(|s| put_model(s, parameters))
}

/// Encodes an assignment response in three parts — head, model, tail —
/// whose concatenation is byte for byte what [`encode_response`] writes for
/// the same assignment: both are built from the same field writers.
///
/// `model` is the published body (`FleetServer::published_model`) and is
/// returned as is, so an assignment costs two small buffers and no copy of
/// the model; a frame writer puts the three parts on the wire with one
/// vectored write. Only the first assignment of a model version pays for
/// the model's encoding, when the server publishes it.
pub fn encode_assignment(grant: &TaskGrant, model: Bytes) -> [Bytes; 3] {
    let TaskGrant {
        task_id,
        model_version,
        shard_clocks,
        mini_batch_size,
    } = grant;
    [
        encode(|s| put_assignment_head(s, *task_id, *model_version, *mini_batch_size)),
        model,
        encode(|s| put_assignment_tail(s, shard_clocks)),
    ]
}

/// Decodes a [`TaskAssignment`] written by [`encode_response`].
fn get_assignment(buf: &mut Bytes) -> Result<TaskAssignment, WireError> {
    let task_id = get_u64(buf)?;
    let model_version = get_u64(buf)?;
    let mini_batch_size = get_u64(buf)? as usize;
    let model_parameters = get_vec(buf, f32::from_le_bytes)?;
    let shard_clocks = get_vec(buf, u64::from_le_bytes)?;
    Ok(TaskAssignment {
        task_id,
        model_parameters,
        model_version,
        shard_clocks,
        mini_batch_size,
    })
}

/// Encodes a [`TaskResponse`] (steps 2–4 of Fig. 2 as the server ships them
/// back over a socket).
///
/// An assignment is encoded whole, model included, into one buffer. The
/// socket server sends the same bytes as [`encode_assignment`]'s parts, so
/// that the model is encoded once per version rather than once per task.
///
/// # Panics
///
/// Panics if the assignment's parameter vector exceeds [`MAX_FIELD_LEN`] —
/// such a message could never decode.
pub fn encode_response(response: &TaskResponse) -> Bytes {
    encode(|s| match response {
        TaskResponse::Assignment(TaskAssignment {
            task_id,
            model_parameters,
            model_version,
            shard_clocks,
            mini_batch_size,
        }) => {
            put_assignment_head(s, *task_id, *model_version, *mini_batch_size);
            put_model(s, model_parameters);
            put_assignment_tail(s, shard_clocks);
        }
        TaskResponse::Rejected(reason) => {
            s.put_u8(RESPONSE_WIRE_VERSION);
            s.put_u8(RESPONSE_TAG_REJECTED);
            match *reason {
                RejectionReason::BatchTooSmall { proposed, minimum } => {
                    s.put_u8(REJECT_TAG_BATCH_TOO_SMALL);
                    s.put_u64(proposed as u64);
                    s.put_u64(minimum as u64);
                }
                RejectionReason::TooSimilar => s.put_u8(REJECT_TAG_TOO_SIMILAR),
                RejectionReason::Overloaded { shard } => {
                    s.put_u8(REJECT_TAG_OVERLOADED);
                    s.put_u64(shard as u64);
                }
            }
        }
    })
}

/// Decodes a [`TaskResponse`] from bytes produced by [`encode_response`].
///
/// # Errors
///
/// Returns a [`WireError`] when the buffer is truncated, has an unknown
/// version, or carries an unknown variant tag ([`WireError::Malformed`]
/// naming the tag).
pub fn decode_response(mut buf: Bytes) -> Result<TaskResponse, WireError> {
    let version = get_u8(&mut buf)?;
    if version != RESPONSE_WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    match get_u8(&mut buf)? {
        RESPONSE_TAG_ASSIGNMENT => Ok(TaskResponse::Assignment(get_assignment(&mut buf)?)),
        RESPONSE_TAG_REJECTED => {
            let reason = match get_u8(&mut buf)? {
                REJECT_TAG_BATCH_TOO_SMALL => RejectionReason::BatchTooSmall {
                    proposed: get_u64(&mut buf)? as usize,
                    minimum: get_u64(&mut buf)? as usize,
                },
                REJECT_TAG_TOO_SIMILAR => RejectionReason::TooSimilar,
                REJECT_TAG_OVERLOADED => RejectionReason::Overloaded {
                    shard: get_u64(&mut buf)? as usize,
                },
                _ => return Err(WireError::Malformed("rejection reason tag")),
            };
            Ok(TaskResponse::Rejected(reason))
        }
        _ => Err(WireError::Malformed("response tag")),
    }
}

/// Encodes a [`ResultAck`] (the server's step-5 acknowledgement).
pub fn encode_ack(ack: &ResultAck) -> Bytes {
    let ResultAck {
        staleness,
        scaling_factor,
        model_updated,
        clock,
        disposition,
    } = *ack;
    encode(|s| {
        s.put_u8(RESPONSE_WIRE_VERSION);
        s.put_u64(staleness);
        // The bytes shim carries no f64 accessors; ship the raw IEEE bits.
        s.put_u64(scaling_factor.to_bits());
        s.put_u8(model_updated as u8);
        s.put_u64(clock);
        s.put_u8(match disposition {
            ResultDisposition::Applied => 0,
            ResultDisposition::Duplicate => 1,
            ResultDisposition::Expired => 2,
            ResultDisposition::Unsolicited => 3,
        });
    })
}

/// Decodes a [`ResultAck`] from bytes produced by [`encode_ack`].
///
/// # Errors
///
/// Returns a [`WireError`] when the buffer is truncated, has an unknown
/// version, or carries an out-of-range flag or disposition byte
/// ([`WireError::Malformed`] naming the field).
pub fn decode_ack(mut buf: Bytes) -> Result<ResultAck, WireError> {
    let version = get_u8(&mut buf)?;
    if version != RESPONSE_WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let staleness = get_u64(&mut buf)?;
    let scaling_factor = f64::from_bits(get_u64(&mut buf)?);
    let model_updated = get_flag(&mut buf, "ack model_updated flag")?;
    let clock = get_u64(&mut buf)?;
    let disposition = match get_u8(&mut buf)? {
        0 => ResultDisposition::Applied,
        1 => ResultDisposition::Duplicate,
        2 => ResultDisposition::Expired,
        3 => ResultDisposition::Unsolicited,
        _ => return Err(WireError::Malformed("ack disposition tag")),
    };
    Ok(ResultAck {
        staleness,
        scaling_factor,
        model_updated,
        clock,
        disposition,
    })
}

/// Lower-case hex of `bytes`, for the golden-vector tests here and in
/// [`crate::checkpoint`].
#[cfg(test)]
pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_request() -> TaskRequest {
        TaskRequest {
            worker_id: 42,
            device_model: "Galaxy S7".to_string(),
            device_features: DeviceFeatures::default(),
            label_distribution: LabelDistribution::from_labels(&[0, 1, 1, 3], 5),
            available_samples: 220,
        }
    }

    fn sample_result() -> TaskResult {
        TaskResult {
            worker_id: 42,
            model_version: 17,
            gradient: Gradient::from_vec(vec![0.25, -0.5, 1.0]),
            label_distribution: LabelDistribution::from_labels(&[2, 2, 4], 5),
            num_samples: 3,
            computation_seconds: 2.75,
            energy_pct: 0.06,
            read_clock: None,
            task_id: None,
        }
    }

    #[test]
    fn request_roundtrip() {
        let original = sample_request();
        let decoded = decode_request(encode_request(&original)).unwrap();
        assert_eq!(decoded.worker_id, original.worker_id);
        assert_eq!(decoded.device_model, original.device_model);
        assert_eq!(decoded.available_samples, original.available_samples);
        for (a, b) in decoded
            .label_distribution
            .as_slice()
            .iter()
            .zip(original.label_distribution.as_slice())
        {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn out_of_domain_probabilities_are_rejected_not_summed() {
        // Corrupted-in-flight label distributions used to reach
        // `LabelDistribution::from_counts` as saturated u64 counts and
        // overflow its total; the decoder must reject them instead. Patch
        // each probability slot of a valid encoding in turn.
        let valid = encode_request(&sample_request()).to_vec();
        let dist_len = sample_request().label_distribution.as_slice().len();
        // version(1) + worker_id(8) + model(4 + 9) + features(5*4) + vec len(4)
        let first_prob = 1 + 8 + 4 + "Galaxy S7".len() + 5 * 4 + 4;
        for bad in [f32::MAX, f32::INFINITY, f32::NAN, -0.5, 1.5] {
            for slot in 0..dist_len {
                let mut raw = valid.clone();
                let at = first_prob + slot * 4;
                raw[at..at + 4].copy_from_slice(&bad.to_le_bytes());
                assert_eq!(
                    decode_request(Bytes::from(raw)),
                    Err(WireError::Malformed("label probability outside [0, 1]")),
                    "probability {bad} in slot {slot} must be rejected"
                );
            }
        }
        // In-range probabilities (the real encoding) still decode.
        assert!(decode_request(Bytes::from(valid)).is_ok());
    }

    #[test]
    fn result_roundtrip() {
        let original = sample_result();
        let decoded = decode_result(encode_result(&original)).unwrap();
        assert_eq!(decoded.gradient, original.gradient);
        assert_eq!(decoded.model_version, original.model_version);
        assert_eq!(decoded.num_samples, original.num_samples);
        assert!((decoded.computation_seconds - original.computation_seconds).abs() < 1e-6);
        assert_eq!(decoded.read_clock, None);
        // A read-clock-free result stays on the v1 wire format, byte for
        // byte, so peers that predate vector clocks keep decoding it.
        assert_eq!(encode_result(&original).to_vec()[0], WIRE_VERSION);
    }

    #[test]
    fn result_with_read_clock_roundtrips_as_v2() {
        let mut original = sample_result();
        original.read_clock = Some(vec![17, 15, 18, 17]);
        let encoded = encode_result(&original);
        assert_eq!(encoded.to_vec()[0], WIRE_VERSION_READ_CLOCK);
        let decoded = decode_result(encoded).unwrap();
        assert_eq!(decoded.read_clock, original.read_clock);
        assert_eq!(decoded.gradient, original.gradient);

        // An *empty* vector clock is still "present" (v2), distinct from a
        // v1 result with no clock at all.
        original.read_clock = Some(Vec::new());
        let decoded = decode_result(encode_result(&original)).unwrap();
        assert_eq!(decoded.read_clock, Some(Vec::new()));
    }

    #[test]
    fn result_with_task_id_roundtrips_as_v3() {
        let mut original = sample_result();
        original.task_id = Some(7_341);
        // Without a read clock: flag byte 0, then the id.
        let encoded = encode_result(&original);
        assert_eq!(encoded.to_vec()[0], WIRE_VERSION_TASK_ID);
        let decoded = decode_result(encoded).unwrap();
        assert_eq!(decoded.task_id, Some(7_341));
        assert_eq!(decoded.read_clock, None);
        assert_eq!(decoded.gradient, original.gradient);

        // With a read clock: flag byte 1, clock vector, then the id.
        original.read_clock = Some(vec![4, 2, 4, 4]);
        let decoded = decode_result(encode_result(&original)).unwrap();
        assert_eq!(decoded.task_id, Some(7_341));
        assert_eq!(decoded.read_clock, Some(vec![4, 2, 4, 4]));

        // task_id 0 is a valid id, still v3 — `Some(0)` must not collapse
        // into "absent".
        original.task_id = Some(0);
        original.read_clock = None;
        let encoded = encode_result(&original);
        assert_eq!(encoded.to_vec()[0], WIRE_VERSION_TASK_ID);
        assert_eq!(decode_result(encoded).unwrap().task_id, Some(0));
    }

    #[test]
    fn id_less_results_stay_on_pre_v3_bytes() {
        // The codec bumps only when the new field is present: the id-less
        // encodings must remain byte-identical to what a pre-v3 build emits.
        let mut result = sample_result();
        assert_eq!(encode_result(&result).to_vec()[0], WIRE_VERSION);
        result.read_clock = Some(vec![1, 2]);
        assert_eq!(encode_result(&result).to_vec()[0], WIRE_VERSION_READ_CLOCK);
    }

    #[test]
    fn v3_bad_clock_flag_is_rejected() {
        let mut result = sample_result();
        result.task_id = Some(5);
        let mut raw = encode_result(&result).to_vec();
        // The flag byte sits 9 bytes from the end (flag + u64 id).
        let flag_offset = raw.len() - 9;
        raw[flag_offset] = 2;
        assert_eq!(
            decode_result(Bytes::from(raw)),
            Err(WireError::Malformed("read-clock presence flag"))
        );
    }

    fn sample_assignment() -> TaskAssignment {
        TaskAssignment {
            task_id: 9_001,
            model_parameters: vec![0.5, -1.25, 3.75, 0.0],
            model_version: 12,
            shard_clocks: vec![12, 11, 12],
            mini_batch_size: 96,
        }
    }

    fn sample_ack() -> ResultAck {
        ResultAck {
            staleness: 3,
            scaling_factor: 0.625,
            model_updated: true,
            clock: 41,
            disposition: ResultDisposition::Applied,
        }
    }

    #[test]
    fn response_assignment_roundtrips_exactly() {
        // The assignment's f32 parameters must survive bit-for-bit — the
        // socket transport's digest parity depends on it.
        let original = TaskResponse::Assignment(sample_assignment());
        let decoded = decode_response(encode_response(&original)).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn response_rejections_roundtrip() {
        for reason in [
            RejectionReason::BatchTooSmall {
                proposed: 3,
                minimum: 16,
            },
            RejectionReason::TooSimilar,
            RejectionReason::Overloaded { shard: 5 },
        ] {
            let original = TaskResponse::Rejected(reason);
            assert_eq!(
                decode_response(encode_response(&original)).unwrap(),
                original
            );
        }
    }

    #[test]
    fn ack_roundtrips_for_every_disposition() {
        for disposition in [
            ResultDisposition::Applied,
            ResultDisposition::Duplicate,
            ResultDisposition::Expired,
            ResultDisposition::Unsolicited,
        ] {
            let mut original = sample_ack();
            original.disposition = disposition;
            original.model_updated = disposition == ResultDisposition::Applied;
            assert_eq!(decode_ack(encode_ack(&original)).unwrap(), original);
        }
    }

    #[test]
    fn response_and_ack_reject_unknown_versions_and_tags() {
        let mut raw =
            encode_response(&TaskResponse::Rejected(RejectionReason::TooSimilar)).to_vec();
        raw[0] = 99;
        assert_eq!(
            decode_response(Bytes::from(raw.clone())),
            Err(WireError::UnsupportedVersion(99))
        );
        raw[0] = RESPONSE_WIRE_VERSION;
        raw[1] = 7; // unknown variant tag
        assert_eq!(
            decode_response(Bytes::from(raw.clone())),
            Err(WireError::Malformed("response tag"))
        );
        raw[1] = RESPONSE_TAG_REJECTED;
        raw[2] = 9; // unknown rejection tag
        assert_eq!(
            decode_response(Bytes::from(raw)),
            Err(WireError::Malformed("rejection reason tag"))
        );

        let mut ack_raw = encode_ack(&sample_ack()).to_vec();
        ack_raw[0] = 42;
        assert_eq!(
            decode_ack(Bytes::from(ack_raw.clone())),
            Err(WireError::UnsupportedVersion(42))
        );
        ack_raw[0] = RESPONSE_WIRE_VERSION;
        let flag_offset = 1 + 8 + 8;
        ack_raw[flag_offset] = 2; // model_updated must be 0 or 1
        assert_eq!(
            decode_ack(Bytes::from(ack_raw.clone())),
            Err(WireError::Malformed("ack model_updated flag"))
        );
        ack_raw[flag_offset] = 1;
        let last = ack_raw.len() - 1;
        ack_raw[last] = 4; // disposition out of range
        assert_eq!(
            decode_ack(Bytes::from(ack_raw)),
            Err(WireError::Malformed("ack disposition tag"))
        );
    }

    /// A decoder with its message type erased, so one table holds them all.
    type Decoder = fn(Bytes) -> Result<(), WireError>;

    /// Every shape of every message — the request; results v1, v2, and v3
    /// with and without a clock; the assignment; the three rejections; the
    /// ack — with its name, its decoder and its golden encoding. The vectors were
    /// captured on the element-wise codec (before the bulk path replaced
    /// it): the bytes on the wire are the compatibility contract.
    fn every_message_shape() -> Vec<(&'static str, Bytes, Decoder, &'static str)> {
        let request: Decoder = |raw| decode_request(raw).map(drop);
        let result: Decoder = |raw| decode_result(raw).map(drop);
        let response: Decoder = |raw| decode_response(raw).map(drop);
        let ack: Decoder = |raw| decode_ack(raw).map(drop);
        let v1 = sample_result();
        let v2 = TaskResult {
            read_clock: Some(vec![17, 15, 18]),
            ..v1.clone()
        };
        let v3_with_clock = TaskResult {
            task_id: Some(7_341),
            ..v2.clone()
        };
        let v3 = TaskResult {
            read_clock: None,
            ..v3_with_clock.clone()
        };
        let rejected = |reason| encode_response(&TaskResponse::Rejected(reason));
        vec![
            ("request", encode_request(&sample_request()), request, "012a000000000000000900000047616c61787920533700000045000080450000f04100002041acc5a737050000000000803e0000003f000000000000803e00000000dc00000000000000"),
            ("result v1", encode_result(&v1), result, "012a000000000000001100000000000000030000000000803e000000bf0000803f050000000000000000000000abaa2a3f00000000abaaaa3e0300000000000000000030408fc2753d"),
            ("result v2", encode_result(&v2), result, "022a000000000000001100000000000000030000000000803e000000bf0000803f050000000000000000000000abaa2a3f00000000abaaaa3e0300000000000000000030408fc2753d0300000011000000000000000f000000000000001200000000000000"),
            ("result v3 with clock", encode_result(&v3_with_clock), result, "032a000000000000001100000000000000030000000000803e000000bf0000803f050000000000000000000000abaa2a3f00000000abaaaa3e0300000000000000000030408fc2753d010300000011000000000000000f000000000000001200000000000000ad1c000000000000"),
            ("result v3", encode_result(&v3), result, "032a000000000000001100000000000000030000000000803e000000bf0000803f050000000000000000000000abaa2a3f00000000abaaaa3e0300000000000000000030408fc2753d00ad1c000000000000"),
            (
                "assignment",
                encode_response(&TaskResponse::Assignment(sample_assignment())),
                response,
                "010029230000000000000c000000000000006000000000000000040000000000003f0000a0bf0000704000000000030000000c000000000000000b000000000000000c00000000000000",
            ),
            (
                "rejection batch too small",
                rejected(RejectionReason::BatchTooSmall {
                    proposed: 3,
                    minimum: 16,
                }),
                response,
                "01010003000000000000001000000000000000",
            ),
            ("rejection too similar", rejected(RejectionReason::TooSimilar), response, "010101"),
            (
                "rejection overloaded",
                rejected(RejectionReason::Overloaded { shard: 5 }),
                response,
                "0101020500000000000000",
            ),
            ("ack", encode_ack(&sample_ack()), ack, "010300000000000000000000000000e43f01290000000000000000"),
        ]
    }

    #[test]
    fn golden_bytes_of_every_message_shape() {
        for (_, encoded, decode, golden) in every_message_shape() {
            assert_eq!(hex(&encoded), golden);
            assert_eq!(decode(encoded), Ok(()));
        }
    }

    #[test]
    fn assignment_parts_concatenate_to_the_golden_bytes() {
        let (.., golden) = every_message_shape()
            .into_iter()
            .find(|(name, ..)| *name == "assignment")
            .expect("the assignment shape");
        let TaskAssignment {
            task_id,
            model_parameters,
            model_version,
            shard_clocks,
            mini_batch_size,
        } = sample_assignment();
        let grant = TaskGrant {
            task_id,
            model_version,
            shard_clocks,
            mini_batch_size,
        };
        let parts = encode_assignment(&grant, encode_model(&model_parameters));
        let wire: Vec<u8> = parts.iter().flat_map(|part| part.iter().copied()).collect();
        assert_eq!(hex(&wire), golden);
    }

    /// Every proper prefix of each named shape — a cut inside any field,
    /// length prefix or scalar — errors: never a panic, never a bogus decode.
    fn assert_every_cut_errors(names: &[&str]) {
        let shapes: Vec<_> = every_message_shape()
            .into_iter()
            .filter(|(name, ..)| names.contains(name))
            .collect();
        assert_eq!(shapes.len(), names.len(), "unknown shape in {names:?}");
        for (name, encoded, decode, _) in shapes {
            for cut in 0..encoded.len() {
                assert!(
                    decode(encoded.slice(0..cut)).is_err(),
                    "{name} cut at {cut} should fail"
                );
            }
        }
    }

    #[test]
    fn truncated_buffers_error_cleanly_at_every_field_offset() {
        assert_every_cut_errors(&["request", "result v1"]);
    }

    #[test]
    fn v2_truncation_errors_at_every_offset() {
        assert_every_cut_errors(&["result v2"]);
    }

    #[test]
    fn v3_truncation_errors_at_every_offset() {
        assert_every_cut_errors(&["result v3 with clock", "result v3"]);
    }

    #[test]
    fn response_truncation_errors_at_every_offset() {
        assert_every_cut_errors(&[
            "assignment",
            "rejection batch too small",
            "rejection too similar",
            "rejection overloaded",
        ]);
    }

    #[test]
    fn ack_truncation_errors_at_every_offset() {
        assert_every_cut_errors(&["ack"]);
    }

    #[test]
    fn empty_gradient_roundtrips() {
        let mut result = sample_result();
        result.gradient = Gradient::from_vec(Vec::new());
        let decoded = decode_result(encode_result(&result)).unwrap();
        assert!(decoded.gradient.is_empty());
        assert_eq!(decoded.num_samples, result.num_samples);
    }

    #[test]
    fn empty_device_model_roundtrips() {
        let mut request = sample_request();
        request.device_model = String::new();
        let decoded = decode_request(encode_request(&request)).unwrap();
        assert_eq!(decoded.device_model, "");
    }

    #[test]
    fn checked_field_len_accepts_the_bound_and_zero() {
        assert_eq!(checked_field_len(0), 0);
        assert_eq!(checked_field_len(MAX_FIELD_LEN), MAX_FIELD_LEN as u32);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FIELD_LEN")]
    fn checked_field_len_rejects_over_the_bound() {
        let _ = checked_field_len(MAX_FIELD_LEN + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FIELD_LEN")]
    fn encoding_an_oversized_string_panics_instead_of_truncating() {
        // Before the encode-side check, `len as u32` silently truncated and
        // the message encoded corrupt; now it panics with a clear error.
        let mut request = sample_request();
        request.device_model = "x".repeat(MAX_FIELD_LEN + 1);
        let _ = encode_request(&request);
    }

    #[test]
    fn decoder_rejects_lengths_just_over_the_bound() {
        let mut raw = BytesMut::new();
        raw.put_u8(WIRE_VERSION);
        raw.put_u64_le(1); // worker id
        raw.put_u32_le(MAX_FIELD_LEN as u32 + 1); // device-model length
        assert_eq!(
            decode_request(raw.freeze()),
            Err(WireError::LengthOutOfBounds(MAX_FIELD_LEN + 1))
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u8(99);
        raw.put_u64_le(0);
        assert_eq!(
            decode_request(raw.freeze()),
            Err(WireError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u8(WIRE_VERSION);
        raw.put_u64_le(1); // worker id
        raw.put_u32_le(u32::MAX); // absurd string length
        assert!(matches!(
            decode_request(raw.freeze()),
            Err(WireError::LengthOutOfBounds(_)) | Err(WireError::UnexpectedEof)
        ));
    }

    /// The byte count of `encode`'s measuring pass, checked here in any
    /// build (`encode` compares it with the fill only under debug
    /// assertions).
    fn measured_len(write: impl Fn(&mut Sink)) -> usize {
        let mut measured = Sink { len: 0, buf: None };
        write(&mut measured);
        measured.len
    }

    /// Slice lengths that straddle the bulk codec's conversion block.
    const STRADDLING: [usize; 6] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7];

    /// NaN payloads (quiet, signalling, all-ones), -0.0, both subnormal
    /// extremes and the infinities: patterns a value-level comparison or a
    /// float-typed copy could disturb.
    const AWKWARD_F32_BITS: [u32; 8] = [
        0x7fc0_0001,
        0x7f80_0001,
        0xffff_ffff,
        0x8000_0000,
        0x0000_0001,
        0x807f_ffff,
        0x7f80_0000,
        0xff80_0000,
    ];

    proptest! {
        #[test]
        fn prop_bulk_f32_slices_keep_every_bit(which in 0usize..STRADDLING.len(),
                                               noise in proptest::collection::vec(any::<u32>(), 3 * BLOCK + 7)) {
            let len = STRADDLING[which];
            let bits: Vec<u32> = AWKWARD_F32_BITS.iter().chain(&noise).copied().take(len).collect();
            let values: Vec<f32> = bits.iter().map(|b| f32::from_bits(*b)).collect();
            let write = |s: &mut Sink| s.put_vec(&values, f32::to_le_bytes);
            // The element-wise encoding the bulk path replaced is the format.
            let mut reference = BytesMut::new();
            reference.put_u32_le(len as u32);
            for v in &values {
                reference.put_f32_le(*v);
            }
            prop_assert_eq!(measured_len(write), reference.len());
            let mut encoded = encode(write);
            prop_assert_eq!(&encoded[..], &reference[..]);
            let decoded = get_vec(&mut encoded, f32::from_le_bytes).unwrap();
            prop_assert!(encoded.is_empty());
            prop_assert_eq!(decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits);
        }

        #[test]
        fn prop_bulk_u64_slices_roundtrip(which in 0usize..STRADDLING.len(),
                                          noise in proptest::collection::vec(any::<u64>(), 3 * BLOCK + 7)) {
            let values = &noise[..STRADDLING[which]];
            let write = |s: &mut Sink| s.put_vec(values, u64::to_le_bytes);
            let mut reference = BytesMut::new();
            reference.put_u32_le(values.len() as u32);
            for v in values {
                reference.put_u64_le(*v);
            }
            prop_assert_eq!(measured_len(write), reference.len());
            let mut encoded = encode(write);
            prop_assert_eq!(&encoded[..], &reference[..]);
            prop_assert_eq!(get_vec(&mut encoded, u64::from_le_bytes).unwrap(), values);
            prop_assert!(encoded.is_empty());
        }

        #[test]
        fn prop_result_roundtrip(gradient in proptest::collection::vec(-10.0f32..10.0, 0..128),
                                 version in 0u64..10_000,
                                 samples in 1usize..10_000,
                                 read_clock in proptest::option::of(
                                     proptest::collection::vec(0u64..1_000, 0..16)),
                                 task_id in proptest::option::of(any::<u64>())) {
            let original = TaskResult {
                worker_id: 7,
                model_version: version,
                gradient: Gradient::from_vec(gradient),
                label_distribution: LabelDistribution::uniform(8),
                num_samples: samples,
                computation_seconds: 1.5,
                energy_pct: 0.01,
                read_clock,
                task_id,
            };
            let decoded = decode_result(encode_result(&original)).unwrap();
            prop_assert_eq!(decoded.gradient, original.gradient);
            prop_assert_eq!(decoded.model_version, original.model_version);
            prop_assert_eq!(decoded.num_samples, original.num_samples);
            prop_assert_eq!(decoded.read_clock, original.read_clock);
            prop_assert_eq!(decoded.task_id, original.task_id);
        }

        #[test]
        fn prop_random_bytes_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_request(Bytes::from(raw.clone()));
            let _ = decode_result(Bytes::from(raw.clone()));
            let _ = decode_response(Bytes::from(raw.clone()));
            let _ = decode_ack(Bytes::from(raw));
        }

        #[test]
        fn prop_response_roundtrip(params in proptest::collection::vec(-10.0f32..10.0, 0..128),
                                   task_id in any::<u64>(),
                                   version in 0u64..10_000,
                                   batch in 1usize..10_000,
                                   clocks in proptest::collection::vec(0u64..1_000, 0..16)) {
            let original = TaskResponse::Assignment(TaskAssignment {
                task_id,
                model_parameters: params,
                model_version: version,
                shard_clocks: clocks,
                mini_batch_size: batch,
            });
            let decoded = decode_response(encode_response(&original)).unwrap();
            prop_assert_eq!(decoded, original);
        }

        #[test]
        fn prop_response_truncation_errors(params in proptest::collection::vec(-1.0f32..1.0, 0..32),
                                           cut_seed in any::<u16>()) {
            let mut assignment = sample_assignment();
            assignment.model_parameters = params;
            let encoded = encode_response(&TaskResponse::Assignment(assignment));
            let cut = cut_seed as usize % encoded.len();
            prop_assert!(decode_response(encoded.slice(0..cut)).is_err());
        }

        #[test]
        fn prop_ack_roundtrip(staleness in any::<u64>(),
                              scaling in -1.0f64..1.0,
                              updated in any::<bool>(),
                              clock in any::<u64>()) {
            let original = ResultAck {
                staleness,
                scaling_factor: scaling,
                model_updated: updated,
                clock,
                disposition: ResultDisposition::Applied,
            };
            let decoded = decode_ack(encode_ack(&original)).unwrap();
            prop_assert_eq!(decoded, original);
        }

        #[test]
        fn prop_request_roundtrips_any_device_model(model_len in 0usize..64, samples in 0usize..1_000_000) {
            let mut request = sample_request();
            request.device_model = "m".repeat(model_len);
            request.available_samples = samples;
            let decoded = decode_request(encode_request(&request)).unwrap();
            prop_assert_eq!(decoded.device_model, request.device_model);
            prop_assert_eq!(decoded.available_samples, samples);
        }

        #[test]
        fn prop_truncation_of_random_results_errors(gradient in proptest::collection::vec(-1.0f32..1.0, 0..32), cut_seed in any::<u16>()) {
            let mut result = sample_result();
            result.gradient = Gradient::from_vec(gradient);
            let encoded = encode_result(&result);
            let cut = cut_seed as usize % encoded.len();
            prop_assert!(decode_result(encoded.slice(0..cut)).is_err());
        }
    }
}
