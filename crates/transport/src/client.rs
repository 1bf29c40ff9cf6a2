//! The worker-side blocking client: one socket, automatic reconnects with
//! bounded exponential backoff, idempotent resume.
//!
//! The reconnect loop *is* the worker's [`RetryPolicy`]: each transient
//! failure (refused connect, dropped connection, torn reply) costs one
//! attempt and sleeps `backoff_unit × backoff_rounds(attempt)` before the
//! next try, exactly the deterministic schedule PR 6 defined for overload
//! backoff — mapped onto wall time because sockets live there. When the
//! attempts run out the caller gets [`ClientError::RetriesExhausted`].
//!
//! Resume is idempotent by construction: a retried *request* at worst
//! leaves an orphaned lease on a dead connection (the server reclaims it),
//! and a retried *result* carries its v3 `task_id`, so a crash-restart
//! mid-upload is indistinguishable from a duplicate — the server answers
//! `Applied` to exactly one copy.

use crate::conn::{Endpoint, Stream, WRITE_TIMEOUT};
use crate::deadline::{DeadlineReader, READ_BUDGET};
use crate::frame::{
    self, decode_status, read_frame, write_frame, FrameError, FrameKind, ServerStatus,
};
use bytes::Bytes;
use fleet_server::protocol::{ResultAck, TaskRequest, TaskResponse, TaskResult};
use fleet_server::wire::{self, WireError};
use fleet_server::RetryPolicy;
use fleet_telemetry::{Counter, Latency, TelemetryHandle};
use std::io;
use std::time::Duration;

/// Configuration of a [`WorkerClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Attempts and backoff schedule for transient transport failures.
    pub retry: RetryPolicy,
    /// Wall-time length of one logical backoff round.
    pub backoff_unit: Duration,
    /// Where client-observed exchange latencies and retry counts are
    /// reported. Disabled by default.
    pub telemetry: TelemetryHandle,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            retry: RetryPolicy::new(),
            backoff_unit: Duration::from_millis(10),
            telemetry: TelemetryHandle::disabled(),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport retry budget ran out on transient failures.
    RetriesExhausted {
        /// Attempts consumed (the initial try plus retries).
        attempts: u32,
        /// The last transient failure, as text.
        last: String,
    },
    /// The server sent an `Error` frame (protocol violation or malformed
    /// payload on our side); not retried — resending the same bytes would
    /// fail the same way.
    Server(String),
    /// The reply payload failed to decode; not retried.
    Wire(WireError),
    /// The server answered with an unexpected frame kind; not retried.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Wire(err) => write!(f, "undecodable reply: {err}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> Self {
        ClientError::Wire(err)
    }
}

/// A transient failure inside one exchange attempt; consumed by the retry
/// loop, never surfaced directly.
#[derive(Debug)]
enum Transient {
    Io(io::Error),
    Frame(FrameError),
}

impl std::fmt::Display for Transient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transient::Io(err) => write!(f, "{err}"),
            Transient::Frame(err) => write!(f, "{err}"),
        }
    }
}

/// The blocking worker-side client (see the module docs).
#[derive(Debug)]
pub struct WorkerClient {
    endpoint: Endpoint,
    config: ClientConfig,
    stream: Option<Stream>,
}

impl WorkerClient {
    /// A client for `endpoint` with the default [`ClientConfig`]. No
    /// connection is made yet — the first call connects (with retries).
    pub fn new(endpoint: Endpoint) -> Self {
        Self::with_config(endpoint, ClientConfig::default())
    }

    /// A client with an explicit configuration.
    pub fn with_config(endpoint: Endpoint, config: ClientConfig) -> Self {
        WorkerClient {
            endpoint,
            config,
            stream: None,
        }
    }

    /// Drops the current connection (the next call reconnects). Used by
    /// tests to simulate a crash between upload attempts; harmless
    /// otherwise.
    pub fn disconnect(&mut self) {
        if let Some(stream) = self.stream.take() {
            stream.shutdown_both();
        }
    }

    /// Step 1: sends a request, returns the server's response.
    ///
    /// # Errors
    ///
    /// [`ClientError::RetriesExhausted`] after the policy's transient-failure
    /// budget; the non-retriable variants for server-reported or protocol
    /// errors. An `Overloaded` rejection is a *successful* call — backoff
    /// across overloads stays the caller's (the worker loop's) decision,
    /// exactly as in-process.
    pub fn request(&mut self, request: &TaskRequest) -> Result<TaskResponse, ClientError> {
        let raw = wire::encode_request(request);
        let reply = self.timed_exchange(
            FrameKind::Request,
            &raw,
            FrameKind::Response,
            Latency::RequestExchange,
        )?;
        Ok(wire::decode_response(Bytes::from(reply))?)
    }

    /// Step 5: uploads a result, returns the ack.
    ///
    /// # Errors
    ///
    /// As [`WorkerClient::request`].
    pub fn submit(&mut self, result: &TaskResult) -> Result<ResultAck, ClientError> {
        self.submit_raw(&wire::encode_result(result))
    }

    /// Uploads pre-encoded result bytes — the resume path: a worker that
    /// crashed after encoding (or that never saw its ack) resends the same
    /// bytes, and the v3 `task_id` inside them makes the server deduplicate.
    ///
    /// # Errors
    ///
    /// As [`WorkerClient::request`].
    pub fn submit_raw(&mut self, raw: &[u8]) -> Result<ResultAck, ClientError> {
        let reply = self.timed_exchange(
            FrameKind::Result,
            raw,
            FrameKind::Ack,
            Latency::SubmitExchange,
        )?;
        Ok(wire::decode_ack(Bytes::from(reply))?)
    }

    /// Probes the server's progress.
    ///
    /// # Errors
    ///
    /// As [`WorkerClient::request`].
    pub fn status(&mut self) -> Result<ServerStatus, ClientError> {
        let reply = self.exchange(FrameKind::Status, &[], FrameKind::StatusReply)?;
        decode_status(&reply).map_err(|_| ClientError::Protocol("malformed status reply"))
    }

    /// Asks the server to start draining; returns the status after the flag
    /// was set.
    ///
    /// # Errors
    ///
    /// As [`WorkerClient::request`].
    pub fn request_shutdown(&mut self) -> Result<ServerStatus, ClientError> {
        let reply = self.exchange(FrameKind::Shutdown, &[], FrameKind::StatusReply)?;
        decode_status(&reply).map_err(|_| ClientError::Protocol("malformed status reply"))
    }

    /// An [`WorkerClient::exchange`] with its end-to-end duration (including
    /// reconnects and backoff sleeps — the latency a worker actually
    /// experiences) reported to the configured telemetry sink.
    fn timed_exchange(
        &mut self,
        kind: FrameKind,
        payload: &[u8],
        expect: FrameKind,
        metric: Latency,
    ) -> Result<Vec<u8>, ClientError> {
        let started = self
            .config
            .telemetry
            .get()
            .map(|sink| sink.now_ns())
            .unwrap_or(0);
        let outcome = self.exchange(kind, payload, expect);
        if let Some(sink) = self.config.telemetry.get() {
            sink.record_latency(metric, sink.now_ns().saturating_sub(started));
        }
        outcome
    }

    /// One request/reply exchange with transparent reconnect: transient
    /// failures cost an attempt and a backoff sleep; definitive answers
    /// (including server `Error` frames) return immediately.
    fn exchange(
        &mut self,
        kind: FrameKind,
        payload: &[u8],
        expect: FrameKind,
    ) -> Result<Vec<u8>, ClientError> {
        let mut attempt: u32 = 0;
        loop {
            match self.try_exchange(kind, payload, expect) {
                Ok(Ok(reply)) => return Ok(reply),
                Ok(Err(definitive)) => return Err(definitive),
                Err(transient) => {
                    self.disconnect();
                    match self.config.retry.backoff_rounds(attempt) {
                        Some(rounds) => {
                            if let Some(sink) = self.config.telemetry.get() {
                                sink.add(Counter::Retries, 1);
                            }
                            std::thread::sleep(saturating_mul(self.config.backoff_unit, rounds));
                            attempt += 1;
                        }
                        None => {
                            return Err(ClientError::RetriesExhausted {
                                attempts: attempt + 1,
                                last: transient.to_string(),
                            })
                        }
                    }
                }
            }
        }
    }

    /// A single attempt. The outer `Err` is transient (retry); the inner
    /// `Err` is definitive (surface to the caller).
    fn try_exchange(
        &mut self,
        kind: FrameKind,
        payload: &[u8],
        expect: FrameKind,
    ) -> Result<Result<Vec<u8>, ClientError>, Transient> {
        if self.stream.is_none() {
            let stream = Stream::connect(&self.endpoint).map_err(Transient::Io)?;
            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        write_frame(stream, kind, payload).map_err(Transient::Io)?;
        let (reply_kind, reply) = {
            let mut reader = DeadlineReader::new(stream, READ_BUDGET);
            read_frame(&mut reader, frame::MAX_FRAME_LEN).map_err(Transient::Frame)?
        };
        if reply_kind == expect {
            return Ok(Ok(reply));
        }
        if reply_kind == FrameKind::Error {
            return Ok(Err(ClientError::Server(
                String::from_utf8_lossy(&reply).into_owned(),
            )));
        }
        Ok(Err(ClientError::Protocol("unexpected reply frame kind")))
    }
}

fn saturating_mul(unit: Duration, rounds: u64) -> Duration {
    unit.checked_mul(u32::try_from(rounds).unwrap_or(u32::MAX))
        .unwrap_or(Duration::MAX)
}
