//! # fleet-telemetry
//!
//! The measurement layer of the FLeet middleware: a small [`TelemetrySink`]
//! trait the serving components report through, deterministic fixed-bucket
//! latency histograms and the [`Recorder`] that aggregates them. It
//! writes no report of its own: the end-to-end benchmark (`benchmark/`)
//! reads a `Recorder` snapshot and is the one place a number is published.
//!
//! ## Where wall clocks live
//!
//! This crate is the **only** place in the workspace (outside the bench
//! harnesses and the transport's socket-deadline module) allowed to read
//! wall clocks — clippy's `disallowed_methods` bans `Instant::now` and
//! `SystemTime::now` workspace-wide (see `clippy.toml`), and the recorder's
//! epoch is one of the few waived sites. Instrumented code never touches `Instant`: it asks its sink for
//! timestamps via [`TelemetrySink::now_ns`] and reports durations as
//! differences. The trait's default answers `0`, so a disabled handle costs one
//! branch and no syscalls on the hot path, and workload *generation*
//! (`fleet-loadgen`'s virtual-time schedules) stays bit-stable because
//! nothing outside this crate can observe real time.
//!
//! ## The pieces
//!
//! * [`TelemetrySink`] / [`TelemetryHandle`] — the reporting interface; the
//!   transport server, its client and `FleetServer` emit through it.
//! * [`Recorder`] — the concrete sink: per-metric HDR-style log-linear
//!   fixed-bucket histograms (5 significant bits, ≤ 1/32 relative error,
//!   allocation-free `record`), atomic counters, per-shard apply counts and
//!   queue-depth tracking, and the one monotonic clock.

#![forbid(unsafe_code)]

mod hist;
mod recorder;
mod sink;

pub use recorder::Recorder;
pub use sink::{Counter, Latency, TelemetryHandle, TelemetrySink};
