//! The socket-facing server: an accept loop and one thread per connection,
//! all multiplexed onto a single [`FleetServer`] core behind a mutex.
//!
//! ## Fault handling, per connection
//!
//! | event                                  | effect                         |
//! |----------------------------------------|--------------------------------|
//! | clean close (EOF on a frame boundary)  | connection ends, leases issued |
//! |                                        | on it are reclaimed            |
//! | torn frame / EOF mid-frame             | same, after a best-effort      |
//! |                                        | `Error` frame                  |
//! | oversized or malformed header          | same                           |
//! | frame-read deadline expiry             | same                           |
//! | malformed payload (wire decode error)  | same                           |
//! | saturated shard on a request           | `Overloaded` rejection in a    |
//! |                                        | `Response` frame; conn lives   |
//!
//! Nothing a single peer does can take down the accept loop or another
//! connection. Each exchange is one event through the core (the `core`
//! module): the connection decodes its frame before it takes the core
//! mutex, applies and journals the event under it, and encodes its reply
//! after it lets go. The mutex thus serialises exactly what orders the
//! model's trajectory — admission or apply, the step count and the journal
//! — so the byte-level trajectory of the model is the one the same schedule
//! produces in-process. An assignment shares the core's published model
//! (encoded once per version) and goes out as head, model and tail in one
//! vectored write.
//!
//! With [`TransportConfig::durability`] set, death of the server *process*
//! joins the fault envelope: every applied exchange is journaled inside the
//! core mutex before its reply frame leaves, and checkpoints are taken on a
//! step cadence — snapshotted and the journal rotated inside the mutex, the
//! container written by the durable store's writer thread outside it.
//! [`TransportServer::bind`] recovers by replaying the journal through the
//! same decode and apply before the accept loop opens, and
//! [`TransportServer::shutdown`] returns with its final checkpoint on disk.

use crate::conn::{Endpoint, Listener, Stream, WRITE_TIMEOUT};
use crate::core::{Core, Event, Outcome};
use crate::deadline::{DeadlineReader, READ_BUDGET};
use crate::frame::{
    self, encode_status, read_frame, write_frame, write_frame_parts, FrameError, FrameKind,
    ServerStatus,
};
use bytes::Bytes;
use fleet_durability::{DurabilityOptions, EventKind, FsyncPolicy};
use fleet_server::protocol::{RejectionReason, ResultAck, TaskGrant, TaskResponse};
use fleet_server::wire::{self, encode_ack, encode_response, WireError};
use fleet_server::{FleetServer, FleetServerState};
use fleet_telemetry::{Counter, Latency, TelemetryHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::io::Read as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a [`TransportServer`].
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Total wall-clock budget to receive one complete frame (header and
    /// body), measured from its first byte. A connection idling *between*
    /// frames is a worker computing and is left alone; a connection stalled
    /// *mid-frame* is a slow-loris and is cut off. Ten seconds by default;
    /// the socket tests shorten it to 80–200 ms to exercise that cut.
    pub read_budget: Duration,
    /// When set, the server is durable: [`TransportServer::bind`] recovers
    /// checkpoint + write-ahead journal from this directory before
    /// accepting, every applied exchange is journaled before its reply, and
    /// checkpoints are written every
    /// [`DurabilityOptions::checkpoint_every`] steps.
    pub durability: Option<DurabilityOptions>,
    /// Where connection/frame events (and, through the shared core, the
    /// protocol events of the embedded [`FleetServer`]) are reported.
    /// Disabled by default; installed on the core after crash recovery so
    /// replayed events are never double-counted.
    pub telemetry: TelemetryHandle,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            read_budget: READ_BUDGET,
            durability: None,
            telemetry: TelemetryHandle::disabled(),
        }
    }
}

impl TransportConfig {
    /// A builder over the defaults. Durability is part of the builder — a
    /// journal knob without a durable directory is a [`TransportConfigError`]
    /// at `build` time, so a server can no longer be constructed with the
    /// journal half-configured.
    pub fn builder() -> TransportConfigBuilder {
        TransportConfigBuilder::default()
    }
}

/// Why building a [`TransportConfig`] (see [`TransportConfig::builder`])
/// failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportConfigError {
    /// The per-frame read budget is zero — every frame would time out.
    ZeroReadBudget,
    /// A durability knob was set without `.durable(dir)`:
    /// the journal would silently not exist.
    DurabilityWithoutDir {
        /// The knob that was set (`checkpoint_every` or `fsync`).
        knob: &'static str,
    },
}

impl std::fmt::Display for TransportConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportConfigError::ZeroReadBudget => write!(f, "read_budget must be non-zero"),
            TransportConfigError::DurabilityWithoutDir { knob } => write!(
                f,
                "durability knob `{knob}` set without a durable directory; call .durable(dir)"
            ),
        }
    }
}

impl std::error::Error for TransportConfigError {}

/// Builder for [`TransportConfig`]. The durability options are folded in:
/// `.durable(dir)` turns the journal on, and the cadence/fsync knobs
/// refine it — setting any of them *without* `.durable(dir)` is a
/// typed error instead of a silently non-durable server.
#[derive(Debug, Clone, Default)]
pub struct TransportConfigBuilder {
    read_budget: Option<Duration>,
    telemetry: Option<TelemetryHandle>,
    durable_dir: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    fsync: Option<FsyncPolicy>,
}

impl TransportConfigBuilder {
    /// Sets the wall-clock budget to receive one complete frame.
    pub fn read_budget(mut self, value: Duration) -> Self {
        self.read_budget = Some(value);
        self
    }

    /// Installs a telemetry handle on the server (and its core).
    pub fn telemetry(mut self, value: TelemetryHandle) -> Self {
        self.telemetry = Some(value);
        self
    }

    /// Turns durability on: recover from (and journal into) `dir`.
    pub fn durable(mut self, dir: PathBuf) -> Self {
        self.durable_dir = Some(dir);
        self
    }

    /// Applied steps between cadence checkpoints (0 = startup/shutdown
    /// only). Requires [`TransportConfigBuilder::durable`].
    pub fn checkpoint_every(mut self, value: u64) -> Self {
        self.checkpoint_every = Some(value);
        self
    }

    /// When the durable store fsyncs. Requires
    /// [`TransportConfigBuilder::durable`].
    pub fn fsync(mut self, value: FsyncPolicy) -> Self {
        self.fsync = Some(value);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<TransportConfig, TransportConfigError> {
        let read_budget = self.read_budget.unwrap_or(READ_BUDGET);
        if read_budget.is_zero() {
            return Err(TransportConfigError::ZeroReadBudget);
        }
        let durability = match self.durable_dir {
            Some(dir) => {
                let mut options = DurabilityOptions::new(dir);
                if let Some(every) = self.checkpoint_every {
                    options.checkpoint_every = every;
                }
                if let Some(fsync) = self.fsync {
                    options.fsync = fsync;
                }
                Some(options)
            }
            None => {
                for (set, knob) in [
                    (self.checkpoint_every.is_some(), "checkpoint_every"),
                    (self.fsync.is_some(), "fsync"),
                ] {
                    if set {
                        return Err(TransportConfigError::DurabilityWithoutDir { knob });
                    }
                }
                None
            }
        };
        Ok(TransportConfig {
            read_budget,
            durability,
            telemetry: self.telemetry.unwrap_or_default(),
        })
    }
}

struct Shared {
    core: Mutex<Core>,
    draining: AtomicBool,
    /// A `try_clone`d handle of every *live* connection, keyed by accept
    /// order, so shutdown can force-close sockets that threads are blocked
    /// on. A connection thread removes its own entry on the way out — a
    /// closed connection holds no descriptor here.
    conns: Mutex<BTreeMap<u64, Stream>>,
    config: TransportConfig,
}

/// A [`FleetServer`] listening on a socket. Construct with
/// [`TransportServer::bind`]; always end with [`TransportServer::shutdown`],
/// which joins every thread and returns the drained core's checkpoint.
pub struct TransportServer {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    /// The accept loop; it returns the join handles of the connection
    /// threads still running when it stopped.
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl TransportServer {
    /// Binds `endpoint` and starts the accept loop.
    ///
    /// # Errors
    ///
    /// Whatever binding reports — notably `AddrInUse` when a UDS path
    /// already exists (this function never deletes a path it did not
    /// create; the caller owns stale-socket cleanup). With
    /// [`TransportConfig::durability`] set, also whatever crash recovery
    /// reports — recovery runs (and must succeed) before the endpoint is
    /// bound, so a worker that can connect always sees recovered state.
    pub fn bind(
        endpoint: &Endpoint,
        server: FleetServer,
        config: TransportConfig,
    ) -> io::Result<Self> {
        let mut core = match &config.durability {
            Some(options) => Core::recover(server, options)?,
            None => Core::new(server),
        };
        // Installed after recovery so journal replay is never double-counted
        // as live protocol traffic.
        core.server.set_telemetry(config.telemetry.clone());
        let (listener, resolved) = Listener::bind(endpoint)?;
        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            draining: AtomicBool::new(false),
            conns: Mutex::new(BTreeMap::new()),
            config,
        });
        let accept_shared = Arc::clone(&shared);
        #[expect(
            clippy::disallowed_methods,
            reason = "the accept loop blocks on the listening socket for the server's lifetime: an I/O thread, not compute fan-out"
        )]
        let accept = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(TransportServer {
            shared,
            endpoint: resolved,
            accept: Some(accept),
        })
    }

    /// The bound endpoint (TCP port 0 resolved to the assigned port).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Completed protocol steps so far (see [`ServerStatus::steps`]).
    pub fn steps(&self) -> u64 {
        self.shared.core.lock().expect("core mutex").steps
    }

    /// Whether a drain was requested — by [`TransportServer::shutdown`] or
    /// by a client's `Shutdown` frame (the embedding process polls this to
    /// decide when to actually shut down).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Stops accepting, force-closes every connection, joins every thread,
    /// drains the core (every shard's pending gradients are flushed into
    /// the model) and returns its checkpoint. For a UDS endpoint the socket file
    /// is removed.
    ///
    /// # Errors
    ///
    /// Only sealing the durable store's final checkpoint can fail; the
    /// teardown itself is best-effort and infallible. The seal fails, among
    /// other reasons, after any journal append failed during the run: the
    /// store is fail-stop from then on, so the drained state, which holds an
    /// event the journal lost, never becomes a generation.
    pub fn shutdown(mut self) -> io::Result<FleetServerState> {
        let handles = self.stop_accepting();
        self.close_connections(handles);
        let state = {
            let mut core = self.shared.core.lock().expect("core mutex");
            core.server.drain();
            let state = core.server.checkpoint();
            // Seal the drained state as the final generation so the next
            // bind recovers it without replaying this run's journal.
            core.seal()?;
            state
        };
        if let Endpoint::Uds(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        Ok(state)
    }

    /// Tears the server down as a *crash* would: no drain, no final
    /// checkpoint, and — unlike [`TransportServer::shutdown`] — the UDS
    /// socket file is left on disk. The durable directory is frozen exactly
    /// as an uncontrolled kill at this instant leaves it, which is what the
    /// restart tests recover from. Threads are still joined so the process
    /// can continue, the durable store's checkpoint writer among them: a
    /// finished write is also a state a kill can leave.
    pub fn abort(mut self) {
        let handles = self.stop_accepting();
        // Freeze the journal before connections close: the disconnect
        // reclaims that follow must not be journaled, exactly as a real kill
        // would never get to journal them. Dropping the store joins its
        // writer, so no thread is still writing the directory afterwards.
        self.shared.core.lock().expect("core mutex").durable = None;
        self.close_connections(handles);
    }

    /// Raises the drain flag and joins the accept loop, returning the
    /// connection threads it had not yet reaped.
    fn stop_accepting(&mut self) -> Vec<JoinHandle<()>> {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop: it only observes the flag between accepts.
        let _ = Stream::connect(&self.endpoint);
        self.accept
            .take()
            .and_then(|accept| accept.join().ok())
            .unwrap_or_default()
    }

    /// Force-closes every live connection — blocked handler threads wake with
    /// EOF/error, reclaim their leases and exit — and joins their threads.
    fn close_connections(&self, handles: Vec<JoinHandle<()>>) {
        // The guard is released before the joins: an exiting connection
        // thread takes the same lock to drop its entry.
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns mutex"));
        for conn in conns.values() {
            conn.shutdown_both();
        }
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Accepts until a drain is requested; returns the join handles of the
/// connection threads that were still running at that point.
fn accept_loop(listener: Listener, shared: Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    for conn_id in 0u64.. {
        match listener.accept() {
            Ok(stream) => {
                if shared.draining.load(Ordering::SeqCst) {
                    // The stream is dropped: during a drain new peers get an
                    // immediate close, and the shutdown poke lands here.
                    break;
                }
                // Reap the threads of connections that have closed since the
                // last accept, so a reconnect-on-demand fleet does not grow
                // this list without bound.
                for done in handles.extract_if(.., |handle| handle.is_finished()) {
                    let _ = done.join();
                }
                if let Ok(clone) = stream.try_clone() {
                    shared
                        .conns
                        .lock()
                        .expect("conns mutex")
                        .insert(conn_id, clone);
                }
                let conn_shared = Arc::clone(&shared);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "one thread per connection, blocked on its socket: I/O multiplexing, not compute fan-out (exchanges serialise on the core mutex)"
                )]
                let handle = std::thread::spawn(move || {
                    serve_conn(&conn_shared, stream);
                    conn_shared
                        .conns
                        .lock()
                        .expect("conns mutex")
                        .remove(&conn_id);
                });
                handles.push(handle);
            }
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                // A transient accept failure (EMFILE, aborted handshake)
                // must not kill the server; yield and keep accepting.
                std::thread::yield_now();
            }
        }
    }
    handles
}

/// One connection's lifetime. Every fault path funnels to the same exit:
/// best-effort `Error` frame, reclaim the leases issued on this connection,
/// close the socket.
fn serve_conn(shared: &Shared, mut stream: Stream) {
    if let Some(sink) = shared.config.telemetry.get() {
        sink.add(Counter::ConnectionsOpened, 1);
    }
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // Task ids assigned over this connection. On any disconnect they are
    // force-reclaimed; ids whose results were applied are in the completed
    // set by then, so reclaiming them is a no-op.
    let mut issued: BTreeSet<u64> = BTreeSet::new();
    loop {
        // Wait indefinitely for the next frame to *start*: an idle worker is
        // computing, not attacking. (Shutdown still wakes this read by
        // force-closing the socket.) The deadline arms on the first byte.
        let frame = read_frame(
            &mut DeadlineReader::from_first_byte(&mut stream, shared.config.read_budget),
            frame::MAX_FRAME_LEN,
        );
        let outcome = match frame {
            Ok((kind, payload)) => {
                let started = shared
                    .config
                    .telemetry
                    .get()
                    .map(|sink| sink.now_ns())
                    .unwrap_or(0);
                let outcome = handle_frame(shared, kind, payload, &mut issued);
                if let Some(sink) = shared.config.telemetry.get() {
                    sink.record_latency(
                        Latency::HandleFrame,
                        sink.now_ns().saturating_sub(started),
                    );
                }
                outcome
            }
            // A clean close between frames.
            Err(FrameError::Closed) => break,
            Err(err @ (FrameError::Io(_) | FrameError::Torn { .. })) => {
                // The peer is gone or mid-crash; an Error frame would only
                // race the close. Just drop the connection.
                let _ = err;
                break;
            }
            Err(err) => {
                // Structural garbage from a live peer (oversized header,
                // unknown kind, zero-length frame): tell it why, then cut it
                // off.
                let _ = write_frame(&mut stream, FrameKind::Error, err.to_string().as_bytes());
                break;
            }
        };
        match outcome {
            ConnOutcome::Reply(kind, parts) => {
                if write_frame_parts(&mut stream, kind, &parts).is_err() {
                    break;
                }
            }
            ConnOutcome::Fatal(message) => {
                let _ = write_frame(&mut stream, FrameKind::Error, message.as_bytes());
                break;
            }
        }
    }
    if let Some(sink) = shared.config.telemetry.get() {
        sink.add(Counter::ConnectionsClosed, 1);
    }
    if !issued.is_empty() {
        let mut core = shared.core.lock().expect("core mutex");
        // Ids whose results were applied are in the completed set by now:
        // reclaiming them is a no-op, and nothing is journaled for them.
        for task_id in issued {
            let raw = Bytes::from(task_id.to_le_bytes().to_vec());
            let event = Event::decode(EventKind::Reclaim, raw.clone());
            if let Ok(Outcome::Reclaimed(true)) = event.and_then(|event| core.apply(event)) {
                // Best-effort: a reclaim that misses the journal is not lost
                // state, just a lease that replay re-issues as outstanding —
                // it re-expires through the lease clock, the same path a
                // crashed worker's lease always takes.
                let _ = core.journal(EventKind::Reclaim, raw);
            }
        }
    }
    stream.shutdown_both();
    // Closing a socket with unread input resets the connection instead of
    // ending it, and a reset can overtake the `Error` frame just written.
    // Discard what the peer had already queued (an oversized frame's body, a
    // pipelined request) so the peer reads the diagnostic and then a clean
    // EOF. After the shutdown a read never blocks; the cap keeps a peer that
    // is still sending from holding the thread.
    let mut discard = [0u8; 4096];
    for _ in 0..16 {
        if !matches!(stream.read(&mut discard), Ok(n) if n > 0) {
            break;
        }
    }
}

enum ConnOutcome {
    /// Send a frame of this kind, its payload the concatenated parts, and
    /// keep serving.
    Reply(FrameKind, Vec<Bytes>),
    /// Send an `Error` frame with this message and close the connection.
    Fatal(String),
}

fn handle_frame(
    shared: &Shared,
    kind: FrameKind,
    payload: Vec<u8>,
    issued: &mut BTreeSet<u64>,
) -> ConnOutcome {
    match kind {
        FrameKind::Request => exchange(shared, EventKind::Request, payload, issued),
        FrameKind::Result => exchange(shared, EventKind::Result, payload, issued),
        FrameKind::Status => {
            let status = snapshot_status(shared);
            ConnOutcome::Reply(FrameKind::StatusReply, vec![encode_status(&status).into()])
        }
        FrameKind::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            let status = snapshot_status(shared);
            ConnOutcome::Reply(FrameKind::StatusReply, vec![encode_status(&status).into()])
        }
        // Server→worker kinds arriving at the server are a protocol
        // violation.
        FrameKind::Response | FrameKind::Ack | FrameKind::StatusReply | FrameKind::Error => {
            ConnOutcome::Fatal(format!(
                "frame kind {} is server-to-worker only",
                kind.as_byte()
            ))
        }
    }
}

/// Runs `f`, turning its wire error or its panic into the `Fatal` outcome
/// that cuts the peer off. A panic (a bug, or input the decode layer failed
/// to reject) stops at this boundary: the offending peer is cut off, the
/// server lives.
fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, WireError>) -> Result<T, ConnOutcome> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(err)) => Err(ConnOutcome::Fatal(format!("bad {what} payload: {err}"))),
        Err(_) => Err(ConnOutcome::Fatal(format!(
            "internal error handling {what}"
        ))),
    }
}

/// The answer to an exchange, decided under the core mutex and encoded
/// after it.
enum Reply {
    /// A granted task and the core's published model for it.
    Assignment(TaskGrant, Bytes),
    Rejected(RejectionReason),
    Ack(ResultAck),
}

/// One request→response or result→ack exchange: [`Event::decode`] →
/// (core mutex: [`Core::apply`] → published model → [`Core::journal`] →
/// counters) → encode.
///
/// One hold of the mutex covers only what orders the model's trajectory:
/// admission or apply, the step count, the journal append and the cadence
/// checkpoint, plus fetching the published model a grant goes out with.
/// The payload is decoded before the lock is taken (a result's megabyte
/// gradient is copied out of the frame while other exchanges apply), and
/// the reply is encoded after it is released; an assignment's model is the
/// core's published body, shared rather than copied. A decode error or
/// panic ends in the same `Fatal` as one in the core, and neither is
/// journaled. A granted task id enters `issued` before its request is
/// journaled, so a connection that dies on a failed append still reclaims
/// it. The cadence checkpoint holds the mutex only to snapshot the core and
/// rotate the journal; the container is written off the exchange path, and
/// a failed write answers the exchange of the next cadence checkpoint with
/// `Fatal("checkpoint failed: …")`.
fn exchange(
    shared: &Shared,
    kind: EventKind,
    payload: Vec<u8>,
    issued: &mut BTreeSet<u64>,
) -> ConnOutcome {
    let what = match kind {
        EventKind::Request => "request",
        EventKind::Result => "result",
        EventKind::Reclaim => "reclaim",
    };
    // The frame's buffer, shared from here on: the decoder and the journal
    // each get a view of it (`clone` bumps a reference count), never a copy.
    let raw = Bytes::from(payload);
    let event = match guarded(what, || Event::decode(kind, raw.clone())) {
        Ok(event) => event,
        Err(fatal) => return fatal,
    };
    let reply = {
        let mut core = shared.core.lock().expect("core mutex");
        // `catch_unwind` *inside* the guard: a panic in the core stops here
        // instead of unwinding through the guard and poisoning the mutex for
        // every other connection.
        let reply = guarded(what, || {
            Ok(match core.apply(event)? {
                Outcome::Admission(Ok(grant)) => {
                    Reply::Assignment(grant, core.server.published_model())
                }
                Outcome::Admission(Err(reason)) => Reply::Rejected(reason),
                Outcome::Ack(ack) => Reply::Ack(ack),
                Outcome::Reclaimed(_) => unreachable!("no frame kind decodes to a reclaim"),
            })
        });
        let reply = match reply {
            Ok(reply) => reply,
            Err(fatal) => return fatal,
        };
        if let Reply::Assignment(grant, _) = &reply {
            issued.insert(grant.task_id);
        }
        // Journal before replying, whatever the reply: even a rejected
        // request mutates controller/profiler state and even a Duplicate
        // result advances the logical clock's expiry sweep, so replay must
        // see every exchange to reconverge bit-for-bit.
        let checkpointed = match core.journal(kind, raw) {
            Ok(checkpointed) => checkpointed,
            Err(message) => return ConnOutcome::Fatal(message),
        };
        if let Some(sink) = shared.config.telemetry.get() {
            if core.durable.is_some() {
                sink.add(Counter::JournalAppends, 1);
                if checkpointed {
                    sink.add(Counter::Checkpoints, 1);
                }
            }
        }
        reply
    };
    let (kind, parts) = match reply {
        Reply::Assignment(grant, model) => (
            FrameKind::Response,
            wire::encode_assignment(&grant, model).into(),
        ),
        Reply::Rejected(reason) => (
            FrameKind::Response,
            vec![encode_response(&TaskResponse::Rejected(reason))],
        ),
        Reply::Ack(ack) => (FrameKind::Ack, vec![encode_ack(&ack)]),
    };
    ConnOutcome::Reply(kind, parts)
}

fn snapshot_status(shared: &Shared) -> ServerStatus {
    let core = shared.core.lock().expect("core mutex");
    ServerStatus {
        steps: core.steps,
        clock: core.server.clock(),
        outstanding: core.server.tasks().outstanding_len() as u64,
        draining: shared.draining.load(Ordering::SeqCst),
    }
}
