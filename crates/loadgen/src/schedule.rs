//! Deterministic open-loop workload generation.
//!
//! A [`Schedule`] is a replayer's ground truth: every request and
//! every result upload of a synthetic fleet, stamped with **virtual**
//! nanosecond timestamps derived purely from the workload seed and the
//! device models in `fleet-device` — phone profiles set the gradient
//! computation time (via [`Device::execute_task`], which runs the thermal
//! and measurement-noise models), [`NetworkKind`] sets the model
//! download / gradient upload transfer times, and [`RoundTripModel`]
//! samples the per-exchange network round-trip. No wall clock is read
//! anywhere in this module: generating the same spec twice — at any
//! `fleet-parallel` thread count — yields bit-identical schedules, which
//! is what makes the schedule digest pinnable in CI.
//!
//! Workers are generated independently (fanned out with the
//! order-preserving [`fleet_parallel::parallel_map`]) and their event
//! streams merged by `(timestamp, worker, seq)`; per-worker state (device
//! RNG, thermal state, network RTT stream) never crosses a worker
//! boundary, so the fan-out partition cannot reassociate anything.

use fleet_device::profile::catalogue;
use fleet_device::{Device, NetworkKind, RoundTripModel};
use std::fmt;

/// What a scheduled event does on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// The worker sends a task request (and receives the model).
    Request,
    /// The worker uploads the gradient for its `seq`-th assignment.
    Submit,
}

/// One scheduled wire interaction of the synthetic fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time of the event, nanoseconds since schedule start.
    pub at_ns: u64,
    /// Worker (fleet index, `0..workers`).
    pub worker: u32,
    /// Per-worker operation number (`0..ops_per_worker`).
    pub seq: u32,
    /// Request or submit.
    pub kind: EventKind,
}

/// Validation errors for a [`WorkloadSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// `workers` must be at least 1.
    ZeroWorkers,
    /// `ops_per_worker` must be at least 1.
    ZeroOps,
    /// `batch_size` must be at least 1.
    ZeroBatch,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::ZeroWorkers => write!(f, "workload needs at least one worker"),
            SpecError::ZeroOps => write!(f, "workload needs at least one op per worker"),
            SpecError::ZeroBatch => write!(f, "workload batch size must be at least 1"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The open-loop workload description. All fields are plain data; virtual
/// timing is derived from them deterministically by [`Schedule::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Fleet size.
    pub workers: usize,
    /// Requests each worker issues over the run.
    pub ops_per_worker: usize,
    /// Mini-batch size each task simulates on the device model.
    pub batch_size: usize,
    /// Parameters transferred each way (sets transfer times).
    pub model_len: usize,
    /// Mean think time between a worker's upload and its next request,
    /// in virtual seconds.
    pub think_seconds: f64,
    /// Network standing in for the fleet's uplink.
    pub network: NetworkKind,
    /// Master seed; every per-worker stream is split from it.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            workers: 64,
            ops_per_worker: 4,
            batch_size: 32,
            model_len: 1024,
            think_seconds: 0.5,
            network: NetworkKind::Lte4G,
            seed: 42,
        }
    }
}

impl WorkloadSpec {
    /// Checks the spec describes a non-empty workload.
    pub(crate) fn validate(&self) -> Result<(), SpecError> {
        if self.workers == 0 {
            return Err(SpecError::ZeroWorkers);
        }
        if self.ops_per_worker == 0 {
            return Err(SpecError::ZeroOps);
        }
        if self.batch_size == 0 {
            return Err(SpecError::ZeroBatch);
        }
        Ok(())
    }
}

/// The generated workload: every event of every worker, merged into one
/// virtual-time-ordered stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    spec: WorkloadSpec,
    events: Vec<Event>,
}

/// SplitMix64 — the workspace's standard seed-splitting mix.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A uniform fraction in `[0, 1)` from one mixed draw.
fn unit(seed: u64, stream: u64) -> f64 {
    (mix(seed, stream) >> 11) as f64 / (1u64 << 53) as f64
}

/// Virtual seconds to schedule nanoseconds, saturating.
fn to_ns(seconds: f64) -> u64 {
    if !seconds.is_finite() || seconds <= 0.0 {
        return 0;
    }
    let ns = seconds * 1e9;
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns as u64
    }
}

/// One worker's full event stream in virtual time.
fn generate_worker(spec: &WorkloadSpec, worker: u32) -> Vec<Event> {
    let profiles = catalogue();
    let profile = profiles[worker as usize % profiles.len()].clone();
    let mut device = Device::new(profile, mix(spec.seed, u64::from(worker)));
    let mut rtt = RoundTripModel::paper_defaults(mix(spec.seed, u64::from(worker) ^ 0x5254_5421));
    // One-way transfer time for the model / gradient over this network.
    let transfer = spec.network.transfer_seconds(spec.model_len);

    // Stagger fleet arrival over one think interval so the open-loop ramp
    // is not a thundering herd at t = 0.
    let mut t = spec.think_seconds * unit(spec.seed, u64::from(worker) ^ 0x0ffe_7441);
    let mut events = Vec::with_capacity(spec.ops_per_worker * 2);
    for seq in 0..spec.ops_per_worker as u32 {
        events.push(Event {
            at_ns: to_ns(t),
            worker,
            seq,
            kind: EventKind::Request,
        });
        // Request round trip + model download, gradient computation on the
        // device (thermal state and measurement noise advance with every
        // task), then upload + its round trip.
        let execution = device.execute_task(spec.batch_size);
        let served = rtt.sample() + transfer;
        let uploaded = f64::from(execution.computation_seconds) + transfer + rtt.sample();
        t += served + uploaded.max(0.0);
        events.push(Event {
            at_ns: to_ns(t),
            worker,
            seq,
            kind: EventKind::Submit,
        });
        // Think before the next request; the device cools down meanwhile.
        let think = spec.think_seconds
            * (0.5 + unit(spec.seed, u64::from(worker) ^ (u64::from(seq) << 32)));
        device.idle(think as f32);
        t += think;
    }
    events
}

impl Schedule {
    /// Generates the full fleet schedule for a spec.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when `workers`, `ops_per_worker` or
    /// `batch_size` is zero.
    pub fn generate(spec: &WorkloadSpec) -> Result<Schedule, SpecError> {
        spec.validate()?;
        let workers: Vec<u32> = (0..spec.workers as u32).collect();
        // Order-preserving fan-out: the result vector is indexed by worker
        // regardless of which thread generated which entry.
        let streams = fleet_parallel::parallel_map(&workers, |&w| generate_worker(spec, w));
        let mut events: Vec<Event> = streams.into_iter().flatten().collect();
        events.sort_by_key(|e| (e.at_ns, e.worker, e.seq, e.kind));
        Ok(Schedule {
            spec: spec.clone(),
            events,
        })
    }

    /// [`Schedule::generate`] without the fan-out: the determinism oracle.
    /// The parallel path must produce exactly this schedule at every thread
    /// count (the stability test and the CI digest pin both check it).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when `workers`, `ops_per_worker` or
    /// `batch_size` is zero.
    pub fn generate_serial(spec: &WorkloadSpec) -> Result<Schedule, SpecError> {
        spec.validate()?;
        let mut events: Vec<Event> = (0..spec.workers as u32)
            .flat_map(|w| generate_worker(spec, w))
            .collect();
        events.sort_by_key(|e| (e.at_ns, e.worker, e.seq, e.kind));
        Ok(Schedule {
            spec: spec.clone(),
            events,
        })
    }

    /// All events in virtual-time order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// FNV-1a over every event's bit pattern. Equal digests mean
    /// bit-identical schedules; the CI smoke pins this value.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut absorb = |v: u64| {
            h = (h ^ v).wrapping_mul(0x100000001b3);
        };
        for e in &self.events {
            absorb(e.at_ns);
            absorb(u64::from(e.worker));
            absorb(u64::from(e.seq));
            absorb(match e.kind {
                EventKind::Request => 0,
                EventKind::Submit => 1,
            });
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seed_stable() {
        let spec = WorkloadSpec::default();
        let a = Schedule::generate(&spec).unwrap();
        let b = Schedule::generate(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let base = WorkloadSpec::default();
        let other = WorkloadSpec {
            seed: 43,
            ..base.clone()
        };
        let a = Schedule::generate(&base).unwrap();
        let b = Schedule::generate(&other).unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn every_worker_contributes_paired_events() {
        let spec = WorkloadSpec {
            workers: 7,
            ops_per_worker: 3,
            ..WorkloadSpec::default()
        };
        let schedule = Schedule::generate(&spec).unwrap();
        assert_eq!(schedule.events().len(), 7 * 3 * 2);
        for w in 0..7u32 {
            for seq in 0..3u32 {
                let req = schedule
                    .events()
                    .iter()
                    .find(|e| e.worker == w && e.seq == seq && e.kind == EventKind::Request)
                    .expect("request scheduled");
                let sub = schedule
                    .events()
                    .iter()
                    .find(|e| e.worker == w && e.seq == seq && e.kind == EventKind::Submit)
                    .expect("submit scheduled");
                assert!(req.at_ns <= sub.at_ns, "submit precedes its request");
            }
        }
    }

    #[test]
    fn events_are_time_ordered() {
        let schedule = Schedule::generate(&WorkloadSpec::default()).unwrap();
        for pair in schedule.events().windows(2) {
            assert!(pair[0].at_ns <= pair[1].at_ns);
        }
    }

    #[test]
    fn empty_specs_are_rejected() {
        let zero_workers = WorkloadSpec {
            workers: 0,
            ..WorkloadSpec::default()
        };
        assert_eq!(
            Schedule::generate(&zero_workers).unwrap_err(),
            SpecError::ZeroWorkers
        );
        let zero_ops = WorkloadSpec {
            ops_per_worker: 0,
            ..WorkloadSpec::default()
        };
        assert_eq!(
            Schedule::generate(&zero_ops).unwrap_err(),
            SpecError::ZeroOps
        );
        let zero_batch = WorkloadSpec {
            batch_size: 0,
            ..WorkloadSpec::default()
        };
        assert_eq!(
            Schedule::generate(&zero_batch).unwrap_err(),
            SpecError::ZeroBatch
        );
    }
}
