//! The concrete [`TelemetrySink`]: atomic counters, per-metric histograms,
//! per-shard apply/queue tracking, and the workspace's one monotonic clock.
//!
//! This module holds the workspace's one clock waiver for measurement:
//! [`Recorder::new`] takes the `Instant` epoch that [`Recorder::now_ns`] reads
//! against, under an `#[expect(clippy::disallowed_methods)]`. Everything else
//! in the workspace that wants a timestamp must go through a sink handle,
//! which keeps measured wall-clock strictly separated from deterministic
//! workload generation.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::sink::{Counter, Latency, TelemetrySink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-shard aggregates behind one lock (reported off the hot path only
/// when telemetry is enabled; contention is bounded by the reporting rate).
#[derive(Debug, Default)]
struct ShardStats {
    /// Gradient applications attributed to each shard.
    applies: Vec<u64>,
    /// Distribution of observed pending-buffer depths (all shards pooled).
    queue_depth: Histogram,
    /// Deepest observed pending buffer per shard.
    max_depth: Vec<u64>,
}

/// The standard recorder sink.
pub struct Recorder {
    epoch: Instant,
    counters: [AtomicU64; Counter::ALL.len()],
    latency: [Mutex<Histogram>; Latency::ALL.len()],
    shards: Mutex<ShardStats>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh recorder; its clock epoch is the construction instant.
    #[expect(
        clippy::disallowed_methods,
        reason = "the workspace's one monotonic clock: every measured timestamp is a now_ns() offset from this epoch"
    )]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: std::array::from_fn(|_| Mutex::new(Histogram::new())),
            shards: Mutex::new(ShardStats::default()),
        }
    }

    /// Current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// A plain-data copy of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = Counter::ALL.map(|c| self.counter(c));
        let latency = Latency::ALL.map(|l| {
            self.latency[l as usize]
                .lock()
                .expect("latency histogram lock")
                .clone()
        });
        let shards = self.shards.lock().expect("shard stats lock");
        TelemetrySnapshot {
            counters,
            latency,
            shard_applies: shards.applies.clone(),
            shard_max_depth: shards.max_depth.clone(),
            queue_depth: shards.queue_depth.snapshot(),
        }
    }
}

impl TelemetrySink for Recorder {
    fn now_ns(&self) -> u64 {
        // Saturates after ~584 years of process uptime; fine for a harness.
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record_latency(&self, metric: Latency, nanos: u64) {
        self.latency[metric as usize]
            .lock()
            .expect("latency histogram lock")
            .record(nanos);
    }

    fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    fn queue_depth(&self, shard: usize, depth: u64) {
        let mut shards = self.shards.lock().expect("shard stats lock");
        if shards.max_depth.len() <= shard {
            shards.max_depth.resize(shard + 1, 0);
        }
        shards.max_depth[shard] = shards.max_depth[shard].max(depth);
        shards.queue_depth.record(depth);
    }

    fn shard_applies(&self, shard: usize, delta: u64) {
        let mut shards = self.shards.lock().expect("shard stats lock");
        if shards.applies.len() <= shard {
            shards.applies.resize(shard + 1, 0);
        }
        shards.applies[shard] += delta;
    }
}

/// Everything a [`Recorder`] accumulated, as plain data.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Counter values, indexed like [`Counter::ALL`].
    pub counters: [u64; Counter::ALL.len()],
    /// Full latency histograms, indexed like [`Latency::ALL`].
    pub latency: [Histogram; Latency::ALL.len()],
    /// Gradient applications per shard (empty if never reported).
    pub shard_applies: Vec<u64>,
    /// Deepest observed pending buffer per shard.
    pub shard_max_depth: Vec<u64>,
    /// Distribution of observed queue depths across all shards.
    pub queue_depth: HistogramSnapshot,
}

impl TelemetrySnapshot {
    /// Value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Summary of one latency metric.
    pub fn latency(&self, metric: Latency) -> HistogramSnapshot {
        self.latency[metric as usize].snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_aggregates_and_snapshots() {
        let r = Recorder::new();
        r.add(Counter::Requests, 2);
        r.add(Counter::Requests, 3);
        r.record_latency(Latency::RequestExchange, 1000);
        r.record_latency(Latency::RequestExchange, 2000);
        r.queue_depth(1, 4);
        r.queue_depth(0, 7);
        r.shard_applies(1, 5);
        let snap = r.snapshot();
        assert_eq!(snap.counter(Counter::Requests), 5);
        assert_eq!(snap.latency(Latency::RequestExchange).count, 2);
        assert_eq!(snap.latency(Latency::SubmitExchange).count, 0);
        assert_eq!(snap.shard_applies, vec![0, 5]);
        assert_eq!(snap.shard_max_depth, vec![7, 4]);
        assert_eq!(snap.queue_depth.count, 2);
        assert_eq!(snap.queue_depth.max, 7);
    }

    #[test]
    fn clock_is_monotonic() {
        let r = Recorder::new();
        let a = r.now_ns();
        let b = r.now_ns();
        assert!(b >= a);
    }
}
