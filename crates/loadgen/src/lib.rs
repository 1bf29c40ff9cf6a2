//! # fleet-loadgen
//!
//! A deterministic workload-schedule generator for a synthetic device
//! fleet. It produces no measurement of its own: the end-to-end benchmark
//! (`benchmark/`, fleetbench) replays these schedules against a real
//! server and is the only thing in the repository that reports a number.
//!
//! * [`schedule`] — arrival times and gradient delays come from the
//!   `fleet-device` models (phone profiles, thermal state, network
//!   transfer + RTT); the result is a virtual-time event stream whose
//!   FNV-1a digest is bit-stable across runs and thread counts, and pinned
//!   in CI (`loadgen` in `scripts/expected_digests.txt`).
//! * [`fleet`] — the shape (classes, features, examples) of the synthetic
//!   task the scheduled fleet trains on.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod schedule;

pub use fleet::FleetShape;
pub use schedule::{Event, EventKind, Schedule, SpecError, WorkloadSpec};
