//! The open-loop driver: replays a [`Schedule`] against a live transport
//! endpoint through real [`WorkerClient`] connections.
//!
//! The schedule fixes *what* happens and in which order; the driver only
//! decides *when* in wall-clock terms. With `time_scale = 0` (the CI
//! setting) events fire back-to-back and the run measures pure service
//! capacity; with `time_scale = 1` the virtual timeline is replayed in
//! real time. Pacing reads time exclusively through the telemetry sink
//! ([`TelemetrySink::now_ns`]) — the driver itself never touches the wall
//! clock, so `crates/loadgen` needs no waiver of the workspace's
//! `Instant::now` ban (`clippy.toml`). Its one waiver is for the scoped
//! connection threads below: they are client I/O, not compute fan-out.
//!
//! Workers are partitioned over connections by `worker % connections`;
//! each connection thread replays its own workers' events in schedule
//! order. A worker's operations are sequential by construction (its
//! `seq`-th submit precedes its `seq+1`-th request in virtual time), so
//! one in-flight assignment slot per worker is enough.

use crate::schedule::{EventKind, Schedule};
use fleet_server::protocol::{RejectionReason, TaskAssignment, TaskResponse};
use fleet_server::Worker;
use fleet_telemetry::TelemetrySink;
use fleet_transport::{ClientConfig, Endpoint, WorkerClient};
use std::sync::Arc;

/// Knobs of one driver run.
#[derive(Debug, Clone)]
pub struct DriveOptions {
    /// Concurrent client connections the fleet is multiplexed over.
    pub connections: usize,
    /// Wall-clock nanoseconds per virtual nanosecond; `0` disables pacing
    /// (events fire as fast as the server absorbs them).
    pub time_scale: f64,
}

impl Default for DriveOptions {
    fn default() -> Self {
        DriveOptions {
            connections: 8,
            time_scale: 0.0,
        }
    }
}

/// Protocol-level outcome counts of one driver run, summed over all
/// connections. Wire-level latency distributions live in the telemetry
/// sink, not here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveStats {
    /// Requests sent.
    pub requests: u64,
    /// Requests answered with an assignment.
    pub assignments: u64,
    /// Requests rejected with `Overloaded`.
    pub rejected_overloaded: u64,
    /// Requests rejected for any other reason.
    pub rejected_other: u64,
    /// Results uploaded.
    pub submits: u64,
    /// Uploaded results the server applied.
    pub applied: u64,
    /// Uploaded results the server discarded (duplicate/expired/unsolicited).
    pub discarded: u64,
    /// Scheduled submits skipped because their request was rejected.
    pub skipped_submits: u64,
    /// Transport-level failures (the connection's remaining events are
    /// abandoned when this is non-zero).
    pub transport_errors: u64,
}

impl DriveStats {
    fn absorb(&mut self, other: &DriveStats) {
        self.requests += other.requests;
        self.assignments += other.assignments;
        self.rejected_overloaded += other.rejected_overloaded;
        self.rejected_other += other.rejected_other;
        self.submits += other.submits;
        self.applied += other.applied;
        self.discarded += other.discarded;
        self.skipped_submits += other.skipped_submits;
        self.transport_errors += other.transport_errors;
    }
}

/// One connection thread's share of the fleet.
struct Lane {
    client: WorkerClient,
    /// `(fleet index, worker)`, sorted by fleet index.
    workers: Vec<(u32, Worker)>,
    /// In-flight assignment per local worker (same order as `workers`).
    pending: Vec<Option<TaskAssignment>>,
}

impl Lane {
    fn local_index(&self, worker: u32) -> Option<usize> {
        self.workers.binary_search_by_key(&worker, |w| w.0).ok()
    }
}

/// Replays `schedule` against `endpoint`, consuming the fleet.
///
/// `sink` powers both pacing and client-side latency telemetry; pass the
/// same recorder the server side reports into to get one coherent
/// timeline. The fleet must contain exactly `schedule.spec().workers`
/// workers, fleet index == worker id order.
pub fn drive(
    endpoint: &Endpoint,
    schedule: &Schedule,
    fleet: Vec<Worker>,
    sink: Arc<dyn TelemetrySink>,
    options: &DriveOptions,
) -> DriveStats {
    assert_eq!(
        fleet.len(),
        schedule.spec().workers,
        "fleet size must match the schedule's worker count"
    );
    let connections = options.connections.max(1).min(fleet.len().max(1));

    // Partition workers and their events over the connections.
    let mut lanes: Vec<Lane> = (0..connections)
        .map(|_| Lane {
            client: WorkerClient::with_config(
                endpoint.clone(),
                ClientConfig {
                    telemetry: fleet_telemetry::TelemetryHandle::new(Arc::clone(&sink)),
                    ..ClientConfig::default()
                },
            ),
            workers: Vec::new(),
            pending: Vec::new(),
        })
        .collect();
    for (index, worker) in fleet.into_iter().enumerate() {
        let lane = &mut lanes[index % connections];
        lane.workers.push((index as u32, worker));
        lane.pending.push(None);
    }
    let mut lane_events: Vec<Vec<crate::schedule::Event>> = vec![Vec::new(); connections];
    for event in schedule.events() {
        lane_events[event.worker as usize % connections].push(*event);
    }

    let started = sink.now_ns();
    let time_scale = options.time_scale;
    let batch_cap = schedule.spec().batch_size;
    #[expect(
        clippy::disallowed_methods,
        reason = "one blocking-I/O thread per client connection, like a fleet of worker processes; the schedule they replay was generated deterministically beforehand"
    )]
    let stats: Vec<DriveStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .zip(lane_events)
            .map(|(lane, events)| {
                let sink = Arc::clone(&sink);
                scope.spawn(move || run_lane(lane, events, sink, started, time_scale, batch_cap))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread"))
            .collect()
    });

    let mut total = DriveStats::default();
    for s in &stats {
        total.absorb(s);
    }
    total
}

fn run_lane(
    mut lane: Lane,
    events: Vec<crate::schedule::Event>,
    sink: Arc<dyn TelemetrySink>,
    started: u64,
    time_scale: f64,
    batch_cap: usize,
) -> DriveStats {
    let mut stats = DriveStats::default();
    for event in events {
        if time_scale > 0.0 {
            // Replay the virtual timeline scaled into wall time. The sink
            // owns the clock; the driver only diffs its readings.
            let target = (event.at_ns as f64 * time_scale) as u64;
            loop {
                let elapsed = sink.now_ns().saturating_sub(started);
                if elapsed >= target {
                    break;
                }
                let wait = (target - elapsed).min(5_000_000);
                std::thread::sleep(std::time::Duration::from_nanos(wait));
            }
        }
        let local = lane
            .local_index(event.worker)
            .expect("event routed to the lane owning its worker");
        match event.kind {
            EventKind::Request => {
                let request = lane.workers[local].1.request();
                stats.requests += 1;
                match lane.client.request(&request) {
                    Ok(TaskResponse::Assignment(mut assignment)) => {
                        stats.assignments += 1;
                        // The schedule's device model simulated the spec's
                        // batch size; cap I-Prof's proposal to match so the
                        // replayed computation is the one that was scheduled.
                        assignment.mini_batch_size = assignment.mini_batch_size.min(batch_cap);
                        lane.pending[local] = Some(assignment);
                    }
                    Ok(TaskResponse::Rejected(RejectionReason::Overloaded { .. })) => {
                        stats.rejected_overloaded += 1;
                    }
                    Ok(TaskResponse::Rejected(_)) => {
                        stats.rejected_other += 1;
                    }
                    Err(_) => {
                        stats.transport_errors += 1;
                        return stats;
                    }
                }
            }
            EventKind::Submit => {
                let Some(assignment) = lane.pending[local].take() else {
                    stats.skipped_submits += 1;
                    continue;
                };
                let raw = match lane.workers[local].1.execute_wire(&assignment) {
                    Ok(raw) => raw.to_vec(),
                    Err(_) => {
                        stats.skipped_submits += 1;
                        continue;
                    }
                };
                stats.submits += 1;
                match lane.client.submit_raw(&raw) {
                    Ok(ack) => {
                        if ack.disposition == fleet_server::ResultDisposition::Applied {
                            stats.applied += 1;
                        } else {
                            stats.discarded += 1;
                        }
                    }
                    Err(_) => {
                        stats.transport_errors += 1;
                        return stats;
                    }
                }
            }
        }
    }
    lane.client.disconnect();
    stats
}
