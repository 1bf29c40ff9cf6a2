//! The length-framed message layer: `[u32_le length][u8 kind][payload]`.
//!
//! `length` counts the kind byte plus the payload, so a frame is complete
//! exactly when `length` bytes follow the 4-byte header. The reader
//! distinguishes a *clean* close (EOF on a frame boundary) from a *torn*
//! frame (EOF mid-header or mid-body): the first is how a worker says
//! goodbye, the second is a fault that kills the connection. Oversized
//! length prefixes are rejected before any body byte is read — a malicious
//! or corrupt header cannot make the server allocate unbounded memory.

use std::io::{self, IoSlice, IoSliceMut, Read, Write};

/// Hard bound on a frame's declared length (kind byte + payload).
///
/// Sized so the largest legal wire message still fits: the codec caps any
/// length-prefixed field at 64 Mi *elements*
/// ([`MAX_FIELD_LEN`](fleet_server::wire::MAX_FIELD_LEN)), and the widest
/// element is the 4-byte `f32` of a parameter vector — 256 MiB — plus
/// headroom for the fixed fields around it. Anything larger is a corrupt or
/// hostile header.
pub const MAX_FRAME_LEN: usize = 256 * 1024 * 1024 + 4096;

/// What a frame carries. Kinds 1–4 travel worker→server, 5–8 server→worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A wire-encoded `TaskRequest` (step 1).
    Request = 1,
    /// A wire-encoded `TaskResult` (step 5).
    Result = 2,
    /// An empty status probe; answered with [`FrameKind::StatusReply`].
    Status = 3,
    /// A drain request: the server sets its draining flag (the embedding
    /// process decides when to actually stop) and answers with a
    /// [`FrameKind::StatusReply`].
    Shutdown = 4,
    /// A wire-encoded `TaskResponse` (steps 2–4).
    Response = 5,
    /// A wire-encoded `ResultAck`.
    Ack = 6,
    /// An encoded [`ServerStatus`].
    StatusReply = 7,
    /// A UTF-8 diagnostic; the sender closes the connection right after.
    Error = 8,
}

impl FrameKind {
    /// The kind's on-wire byte.
    pub fn as_byte(self) -> u8 {
        self as u8
    }

    /// Parses an on-wire kind byte.
    pub(crate) fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Result),
            3 => Some(FrameKind::Status),
            4 => Some(FrameKind::Shutdown),
            5 => Some(FrameKind::Response),
            6 => Some(FrameKind::Ack),
            7 => Some(FrameKind::StatusReply),
            8 => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// Why a frame could not be read (or written).
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection on a frame boundary — a clean goodbye.
    Closed,
    /// EOF in the middle of a header or body: the peer died mid-send.
    Torn {
        /// Bytes the current unit (header or body) still needed.
        expected: usize,
        /// Bytes actually received before the EOF.
        got: usize,
    },
    /// The header declared a length over the configured bound; nothing of
    /// the body was read.
    TooLarge(usize),
    /// The kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// The frame is structurally invalid (e.g. zero length — even an empty
    /// payload needs its kind byte).
    Malformed(&'static str),
    /// The underlying socket failed (including read-deadline expiry, which
    /// surfaces as `TimedOut`/`WouldBlock`).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed on a frame boundary"),
            FrameError::Torn { expected, got } => {
                write!(f, "torn frame: got {got} of {expected} bytes before EOF")
            }
            FrameError::TooLarge(len) => write!(f, "frame length {len} exceeds the bound"),
            FrameError::UnknownKind(byte) => write!(f, "unknown frame kind {byte}"),
            FrameError::Malformed(why) => write!(f, "malformed frame: {why}"),
            FrameError::Io(err) => write!(f, "socket error: {err}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(err: io::Error) -> Self {
        FrameError::Io(err)
    }
}

/// Reads as many bytes as possible into `buf`, stopping at EOF. Returns the
/// number of bytes read; errors other than `Interrupted` abort.
fn read_until_eof(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
    Ok(filled)
}

/// Reads one frame.
///
/// The body lands in two places with one vectored read: the kind byte in a
/// local, the payload directly in the buffer that is returned — nothing is
/// copied to strip the kind off, and a reader that forwards `read_vectored`
/// (every socket here does) pays no extra `read` call for the split.
///
/// # Errors
///
/// [`FrameError::Closed`] on a clean EOF between frames; [`FrameError::Torn`]
/// on EOF inside one; [`FrameError::TooLarge`] when the header declares more
/// than `max_len` bytes (the body is left unread); [`FrameError::UnknownKind`]
/// and [`FrameError::Malformed`] on structural garbage; [`FrameError::Io`] on
/// socket failure or deadline expiry.
pub fn read_frame(
    reader: &mut impl Read,
    max_len: usize,
) -> Result<(FrameKind, Vec<u8>), FrameError> {
    let mut header = [0u8; 4];
    let got = read_until_eof(reader, &mut header)?;
    if got == 0 {
        return Err(FrameError::Closed);
    }
    if got < header.len() {
        return Err(FrameError::Torn {
            expected: header.len(),
            got,
        });
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return Err(FrameError::Malformed("zero-length frame has no kind byte"));
    }
    if len > max_len {
        return Err(FrameError::TooLarge(len));
    }
    let mut kind = [0u8; 1];
    let mut payload = vec![0u8; len - 1];
    let mut got = 0;
    while got == 0 {
        let mut body = [IoSliceMut::new(&mut kind), IoSliceMut::new(&mut payload)];
        match reader.read_vectored(&mut body) {
            Ok(0) => return Err(FrameError::Torn { expected: len, got }),
            Ok(n) => got = n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err.into()),
        }
    }
    got += read_until_eof(reader, &mut payload[got - 1..])?;
    if got < len {
        return Err(FrameError::Torn { expected: len, got });
    }
    match FrameKind::from_byte(kind[0]) {
        Some(kind) => Ok((kind, payload)),
        None => Err(FrameError::UnknownKind(kind[0])),
    }
}

/// Writes one frame and flushes. The 5-byte header and the payload go out
/// as one vectored write — one syscall on a socket that takes the whole
/// frame, and no assembly buffer — resumed after a short write or an
/// `Interrupted` until every byte is accepted.
///
/// # Errors
///
/// `InvalidInput` when the payload would exceed [`MAX_FRAME_LEN`] — the peer
/// could never accept it; `WriteZero` when the writer stops accepting bytes
/// mid-frame; or whatever the socket reports.
pub fn write_frame(writer: &mut impl Write, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() + 1;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame length {len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"),
        ));
    }
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&(len as u32).to_le_bytes());
    header[4] = kind.as_byte();
    // Bytes of `header ++ payload` the writer has accepted so far.
    let mut sent = 0;
    while sent < header.len() + payload.len() {
        let head = &header[sent.min(header.len())..];
        let tail = &payload[sent.saturating_sub(header.len())..];
        match writer.write_vectored(&[IoSlice::new(head), IoSlice::new(tail)]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "writer stopped accepting bytes mid-frame",
                ))
            }
            Ok(n) => sent += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    writer.flush()
}

/// A snapshot of the server's progress, answered to [`FrameKind::Status`]
/// probes. The multi-process demo gates each worker's turn on `steps`; a
/// monitoring client watches `outstanding` and `draining`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStatus {
    /// Completed protocol steps: applied results plus terminal (non-overload)
    /// rejections. Overload rejections do *not* count — the shed worker still
    /// owes its exchange.
    pub steps: u64,
    /// The core server's logical clock.
    pub clock: u64,
    /// Outstanding task leases.
    pub outstanding: u64,
    /// Whether a drain has been requested.
    pub draining: bool,
}

/// Encodes a [`ServerStatus`] into a `StatusReply` payload.
///
/// The exhaustive pattern (no `..`) makes a field added to [`ServerStatus`]
/// and not encoded here a compile error; [`decode_status`]'s struct literal
/// does the same on its side.
#[deny(unused_variables)]
pub(crate) fn encode_status(status: &ServerStatus) -> Vec<u8> {
    let ServerStatus {
        steps,
        clock,
        outstanding,
        draining,
    } = *status;
    let mut buf = Vec::with_capacity(25);
    buf.extend_from_slice(&steps.to_le_bytes());
    buf.extend_from_slice(&clock.to_le_bytes());
    buf.extend_from_slice(&outstanding.to_le_bytes());
    buf.push(draining as u8);
    buf
}

/// Decodes a [`ServerStatus`] from a `StatusReply` payload.
///
/// # Errors
///
/// [`FrameError::Malformed`] when the payload is not exactly the encoded
/// shape.
pub(crate) fn decode_status(payload: &[u8]) -> Result<ServerStatus, FrameError> {
    if payload.len() != 25 {
        return Err(FrameError::Malformed("status payload must be 25 bytes"));
    }
    let u64_at = |i: usize| {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&payload[i..i + 8]);
        u64::from_le_bytes(raw)
    };
    let draining = match payload[24] {
        0 => false,
        1 => true,
        _ => return Err(FrameError::Malformed("draining flag must be 0 or 1")),
    };
    Ok(ServerStatus {
        steps: u64_at(0),
        clock: u64_at(8),
        outstanding: u64_at(16),
        draining,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrips_through_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Request, b"hello").unwrap();
        write_frame(&mut wire, FrameKind::Status, b"").unwrap();
        let mut cursor = Cursor::new(wire);
        let (kind, payload) = read_frame(&mut cursor, MAX_FRAME_LEN).unwrap();
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(payload, b"hello");
        let (kind, payload) = read_frame(&mut cursor, MAX_FRAME_LEN).unwrap();
        assert_eq!(kind, FrameKind::Status);
        assert!(payload.is_empty());
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME_LEN),
            Err(FrameError::Closed)
        ));
    }

    /// Golden vector captured on the assemble-then-write path: `[len][kind]
    /// [payload]` is the framing contract.
    #[test]
    fn golden_bytes_of_a_written_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Result, b"fleet").unwrap();
        assert_eq!(wire, [6, 0, 0, 0, 2, b'f', b'l', b'e', b'e', b't']);
    }

    #[test]
    fn every_proper_prefix_is_torn_or_closed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Result, &[7; 13]).unwrap();
        for cut in 0..wire.len() {
            let mut cursor = Cursor::new(&wire[..cut]);
            let err = read_frame(&mut cursor, MAX_FRAME_LEN).unwrap_err();
            if cut == 0 {
                assert!(matches!(err, FrameError::Closed), "cut 0 → {err:?}");
            } else {
                assert!(
                    matches!(err, FrameError::Torn { .. }),
                    "cut {cut} → {err:?}"
                );
            }
        }
    }

    #[test]
    fn oversized_and_zero_length_headers_are_rejected_without_reading_bodies() {
        let mut wire = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        wire.push(FrameKind::Request.as_byte());
        let mut cursor = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME_LEN),
            Err(FrameError::TooLarge(_))
        ));
        // The reader must not have consumed the declared body.
        assert_eq!(cursor.position(), 4);

        let mut cursor = Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME_LEN),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_kind_bytes_are_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.push(200); // no such kind
        wire.push(0);
        assert!(matches!(
            read_frame(&mut Cursor::new(wire), MAX_FRAME_LEN),
            Err(FrameError::UnknownKind(200))
        ));
    }

    #[test]
    fn writer_refuses_payloads_over_the_bound() {
        struct NullSink;
        impl Write for NullSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // Declared length is payload + kind byte, so exactly MAX_FRAME_LEN
        // payload bytes already overflow.
        let err =
            write_frame(&mut NullSink, FrameKind::Result, &vec![0u8; MAX_FRAME_LEN]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// A writer that takes at most `step` bytes per call and `budget` bytes
    /// in all (then `Ok(0)`), optionally failing every other call with
    /// `Interrupted` first. It does not override `write_vectored`, so each
    /// call sees one buffer — the worst case for the resume loop.
    struct Trickle {
        step: usize,
        budget: usize,
        interrupt: bool,
        calls: usize,
        accepted: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt && self.calls % 2 == 1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf
                .len()
                .min(self.step)
                .min(self.budget - self.accepted.len());
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn reference_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut reference = (payload.len() as u32 + 1).to_le_bytes().to_vec();
        reference.push(kind.as_byte());
        reference.extend_from_slice(payload);
        reference
    }

    #[test]
    fn short_and_interrupted_writes_resume_to_the_exact_frame() {
        let payload: Vec<u8> = (0..23u8).collect();
        for step in [1, 2, 3, 5, 4096] {
            for interrupt in [false, true] {
                let mut writer = Trickle {
                    step,
                    budget: usize::MAX,
                    interrupt,
                    calls: 0,
                    accepted: Vec::new(),
                };
                write_frame(&mut writer, FrameKind::Response, &payload).unwrap();
                assert_eq!(
                    writer.accepted,
                    reference_frame(FrameKind::Response, &payload),
                    "step {step}, interrupt {interrupt}"
                );
            }
        }
    }

    #[test]
    fn a_writer_that_stops_accepting_bytes_fails_with_write_zero() {
        // Stalled from the start, inside the header, on the header/payload
        // seam and inside the payload.
        for budget in [0, 3, 5, 8] {
            let mut writer = Trickle {
                step: 2,
                budget,
                interrupt: false,
                calls: 0,
                accepted: Vec::new(),
            };
            let err = write_frame(&mut writer, FrameKind::Ack, b"stalled").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WriteZero, "budget {budget}");
            assert_eq!(
                writer.accepted,
                reference_frame(FrameKind::Ack, b"stalled")[..budget]
            );
        }
    }

    #[test]
    fn short_and_interrupted_reads_resume_to_the_exact_frame() {
        /// Hands out `step` bytes per call through plain `read` (so the
        /// vectored body read degrades to one buffer at a time), failing
        /// every other call with `Interrupted` first.
        struct Drip<'a> {
            step: usize,
            calls: usize,
            rest: &'a [u8],
        }
        impl Read for Drip<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.calls += 1;
                if self.calls % 2 == 1 {
                    return Err(io::ErrorKind::Interrupted.into());
                }
                let n = buf.len().min(self.step).min(self.rest.len());
                buf[..n].copy_from_slice(&self.rest[..n]);
                self.rest = &self.rest[n..];
                Ok(n)
            }
        }
        let payload: Vec<u8> = (0..23u8).collect();
        for payload in [&payload[..], &[]] {
            let wire = reference_frame(FrameKind::Result, payload);
            for step in [1, 2, 3, 5, 4096] {
                let mut reader = Drip {
                    step,
                    calls: 0,
                    rest: &wire,
                };
                let (kind, body) = read_frame(&mut reader, MAX_FRAME_LEN).unwrap();
                assert_eq!((kind, &body[..]), (FrameKind::Result, payload));
                assert!(reader.rest.is_empty());
            }
        }
    }

    #[test]
    fn a_megabyte_frame_crosses_a_real_socket_intact() {
        use std::os::unix::net::UnixStream;
        // Far more than a socket buffer holds, so both the vectored write
        // and the vectored read are resumed part-way many times.
        let payload: Vec<u8> = (0..(1usize << 20) + 13)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        let (mut near, mut far) = UnixStream::pair().unwrap();
        let sent = payload.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "the frame outgrows the socket buffer, so the blocking writer needs its own I/O thread while this one reads; joined below"
        )]
        let writer =
            std::thread::spawn(move || write_frame(&mut near, FrameKind::Result, &sent).unwrap());
        let (kind, received) = read_frame(&mut far, MAX_FRAME_LEN).unwrap();
        assert_eq!(kind, FrameKind::Result);
        assert!(received == payload, "payload differs after the socket");
        // The writer's end is dropped once its frame is out: a clean close
        // on a frame boundary.
        assert!(matches!(
            read_frame(&mut far, MAX_FRAME_LEN),
            Err(FrameError::Closed)
        ));
        writer.join().unwrap();
    }

    #[test]
    fn kind_bytes_roundtrip() {
        for kind in [
            FrameKind::Request,
            FrameKind::Result,
            FrameKind::Status,
            FrameKind::Shutdown,
            FrameKind::Response,
            FrameKind::Ack,
            FrameKind::StatusReply,
            FrameKind::Error,
        ] {
            assert_eq!(FrameKind::from_byte(kind.as_byte()), Some(kind));
        }
        assert_eq!(FrameKind::from_byte(0), None);
        assert_eq!(FrameKind::from_byte(9), None);
    }

    #[test]
    fn status_roundtrips_and_rejects_malformed_payloads() {
        let status = ServerStatus {
            steps: 41,
            clock: 12,
            outstanding: 3,
            draining: true,
        };
        let encoded = encode_status(&status);
        assert_eq!(decode_status(&encoded).unwrap(), status);
        assert!(decode_status(&encoded[..24]).is_err());
        let mut bad = encoded.clone();
        bad[24] = 7;
        assert!(decode_status(&bad).is_err());
    }
}
