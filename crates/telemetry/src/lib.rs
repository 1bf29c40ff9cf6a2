//! # fleet-telemetry
//!
//! The measurement layer of the FLeet middleware: a small [`TelemetrySink`]
//! trait the serving components report through, deterministic fixed-bucket
//! latency [`Histogram`]s, process resource capture, and the writer for the
//! versioned `fleet-bench-v2` JSON that `scripts/bench_compare.py` diffs.
//!
//! ## Where wall clocks live
//!
//! This crate is the **only** place in the workspace (outside the bench
//! harnesses and the transport's socket-deadline module) allowed to read
//! wall clocks — clippy's `disallowed_methods` bans `Instant::now` and
//! `SystemTime::now` workspace-wide (see `clippy.toml`), and the recorder's
//! epoch is one of the few waived sites. Instrumented code never touches `Instant`: it asks its sink for
//! timestamps via [`TelemetrySink::now_ns`] and reports durations as
//! differences. The no-op sink answers `0`, so a disabled handle costs one
//! branch and no syscalls on the hot path, and workload *generation* (the
//! load harness's virtual-time schedules) stays bit-stable because nothing
//! outside this crate can observe real time.
//!
//! ## The pieces
//!
//! * [`TelemetrySink`] / [`TelemetryHandle`] — the reporting interface; the
//!   transport server, `FleetServer` and the simulation all emit through it
//!   ([`sink`]).
//! * [`Histogram`] — HDR-style log-linear fixed buckets (5 significant
//!   bits, ≤ 1/32 relative error), allocation-free `record`, exact
//!   deterministic merge ([`hist`]).
//! * [`Recorder`] — the concrete sink: per-metric histograms, atomic
//!   counters, per-shard apply counts and queue-depth tracking, and the one
//!   monotonic clock ([`recorder`]).
//! * [`ResourceUsage`] — max RSS, user/system CPU seconds and context
//!   switches from `/proc/self` ([`resource`]).
//! * [`BenchReport`] — the `fleet-bench-v2` JSON writer; the schema is
//!   frozen in this crate's README ([`report`]).

#![forbid(unsafe_code)]

pub mod hist;
pub mod recorder;
pub mod report;
pub mod resource;
pub mod sink;

pub use hist::{Histogram, HistogramSnapshot};
pub use recorder::{Recorder, TelemetrySnapshot};
pub use report::{BenchEntry, BenchReport, FieldValue};
pub use resource::ResourceUsage;
pub use sink::{Counter, Latency, NoopSink, TelemetryHandle, TelemetrySink};
