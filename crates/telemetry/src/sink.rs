//! The reporting interface instrumented components emit through.
//!
//! The trait is deliberately tiny and every method has a no-op default, so
//! the serving hot paths (transport server and client, `FleetServer`) pay
//! one `Option` branch when telemetry is disabled — no clock reads, no
//! atomics, no allocation. Durations are reported as differences of
//! [`TelemetrySink::now_ns`] timestamps: the *sink* owns the clock (this
//! crate is the workspace's one wall-clock-exempt scope), instrumented
//! crates never touch `Instant` themselves.

use std::fmt;
use std::sync::Arc;

/// Monotonic event counters a sink can aggregate. The set is closed and
/// indexable so a recorder can keep a flat atomic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Task requests that reached admission.
    Requests,
    /// Requests answered with an assignment.
    Assignments,
    /// Requests rejected with `Overloaded` (backpressure).
    RejectedOverloaded,
    /// Requests rejected with `BatchTooSmall`.
    RejectedBatchTooSmall,
    /// Requests rejected with `TooSimilar`.
    RejectedTooSimilar,
    /// Uploaded results that reached classification.
    Results,
    /// Results classified `Applied`.
    Applied,
    /// Results classified `Duplicate`.
    Duplicates,
    /// Results classified `Expired`.
    Expired,
    /// Results classified `Unsolicited`.
    Unsolicited,
    /// Submissions that advanced the model (an apply trigger fired).
    ModelUpdates,
    /// Client-side retries (reconnects / re-requests after a rejection).
    Retries,
    /// Transport connections accepted.
    ConnectionsOpened,
    /// Transport connections closed (any reason).
    ConnectionsClosed,
    /// Leases reclaimed (expiry or disconnect).
    TasksReclaimed,
    /// Write-ahead journal records appended.
    JournalAppends,
    /// Durable checkpoints written.
    Checkpoints,
}

impl Counter {
    /// Every counter, in report order.
    pub(crate) const ALL: [Counter; 17] = [
        Counter::Requests,
        Counter::Assignments,
        Counter::RejectedOverloaded,
        Counter::RejectedBatchTooSmall,
        Counter::RejectedTooSimilar,
        Counter::Results,
        Counter::Applied,
        Counter::Duplicates,
        Counter::Expired,
        Counter::Unsolicited,
        Counter::ModelUpdates,
        Counter::Retries,
        Counter::ConnectionsOpened,
        Counter::ConnectionsClosed,
        Counter::TasksReclaimed,
        Counter::JournalAppends,
        Counter::Checkpoints,
    ];
}

/// Latency distributions a sink can record into. Closed and indexable like
/// [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Latency {
    /// Client-observed request→response wire exchange.
    RequestExchange,
    /// Client-observed result→ack wire exchange.
    SubmitExchange,
    /// Server-side frame handling: decode, core work, reply written.
    HandleFrame,
}

impl Latency {
    /// Every latency metric, in report order.
    pub(crate) const ALL: [Latency; 3] = [
        Latency::RequestExchange,
        Latency::SubmitExchange,
        Latency::HandleFrame,
    ];
}

/// The reporting interface. All methods default to no-ops; implementors
/// must be cheap and must tolerate concurrent callers.
pub trait TelemetrySink: Send + Sync {
    /// A monotonic timestamp in nanoseconds, from an epoch the sink picks.
    /// Instrumented code reports durations as differences of these; the
    /// no-op default returns 0, so disabled telemetry never reads a clock.
    fn now_ns(&self) -> u64 {
        0
    }

    /// Records one latency sample, in nanoseconds.
    fn record_latency(&self, metric: Latency, nanos: u64) {
        let _ = (metric, nanos);
    }

    /// Adds `delta` to a counter.
    fn add(&self, counter: Counter, delta: u64) {
        let _ = (counter, delta);
    }

    /// Reports the observed pending-buffer depth of a shard.
    fn queue_depth(&self, shard: usize, depth: u64) {
        let _ = (shard, depth);
    }

    /// Reports `delta` gradient applications attributed to a shard.
    fn shard_applies(&self, shard: usize, delta: u64) {
        let _ = (shard, delta);
    }
}

/// A cheap, cloneable handle instrumented components store. Disabled by
/// default; [`TelemetryHandle::get`] is the hot-path gate — one `Option`
/// branch when telemetry is off.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl TelemetryHandle {
    /// A handle reporting into `sink`.
    pub fn new(sink: Arc<dyn TelemetrySink>) -> Self {
        Self { sink: Some(sink) }
    }

    /// The disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The sink, if attached. Instrumentation gates on this.
    #[inline]
    pub fn get(&self) -> Option<&dyn TelemetrySink> {
        self.sink.as_deref()
    }
}

impl fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_enabled() {
            "TelemetryHandle(enabled)"
        } else {
            "TelemetryHandle(disabled)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_indices_match_all_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{:?}", c);
        }
        for (i, l) in Latency::ALL.iter().enumerate() {
            assert_eq!(*l as usize, i, "{:?}", l);
        }
    }

    #[test]
    fn disabled_handle_reports_nothing() {
        let handle = TelemetryHandle::disabled();
        assert!(!handle.is_enabled());
        assert!(handle.get().is_none());
        // The trait's defaults are callable and inert.
        struct NoopSink;
        impl TelemetrySink for NoopSink {}
        let noop = NoopSink;
        assert_eq!(noop.now_ns(), 0);
        noop.add(Counter::Requests, 1);
        noop.record_latency(Latency::HandleFrame, 5);
    }
}
