//! The schedule-order driver of the serving workloads: replay workers over
//! real `WorkerClient` connections against a real `TransportServer`.
//!
//! Closed loop: a lane (one connection, one thread) sends its next event only
//! after the previous exchange completed. `worker % lanes` chooses the lane,
//! so a worker's request and submit always travel the same connection — the
//! server reclaims a connection's leases when it closes.

use crate::workload::{Lease, ReplayWorker, Step, WARMUP_SHARE};
use fleet_server::protocol::TaskResponse;
use fleet_server::ResultDisposition;
use fleet_transport::{ClientConfig, Endpoint, WorkerClient};
use std::sync::Barrier;
use std::time::Instant;

/// What one lane saw.
#[derive(Debug, Default)]
struct LaneOutcome {
    /// Request + submit exchange time of every task submitted in the timed
    /// phase, nanoseconds.
    task_ns: Vec<u64>,
    attempted: u64,
    assignments: u64,
    applied: u64,
    /// Read right after the warm-up barrier released this lane.
    started: Option<Instant>,
    /// Process CPU seconds at that moment (the barrier's leader reads them).
    cpu_started: Option<f64>,
    finished: Option<Instant>,
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Request + submit exchange time of every task submitted after the
    /// warm-up, nanoseconds.
    pub task_ns: Vec<u64>,
    /// Wall seconds from the end of the warm-up to the last lane's last ack.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Tasks the schedule holds.
    pub attempted: u64,
    pub assignments: u64,
    /// Tasks that ended in an `Applied` ack.
    pub applied: u64,
}

impl Pass {
    pub fn failed(&self) -> u64 {
        self.attempted - self.applied
    }

    /// Tasks submitted after the warm-up, per second of the timed phase.
    pub fn tasks_per_s(&self) -> f64 {
        self.task_ns.len() as f64 / self.wall_s
    }

    /// Process CPU milliseconds per task of the timed phase.
    pub fn cpu_ms_per_task(&self) -> f64 {
        self.cpu_s * 1e3 / self.task_ns.len().max(1) as f64
    }
}

impl LaneOutcome {
    /// Lanes meet where the warm-up ends, so the timed phase starts on every
    /// connection at once.
    fn enter_timed_phase(&mut self, barrier: &Barrier) {
        let leader = barrier.wait().is_leader();
        self.started = Some(Instant::now());
        if leader {
            self.cpu_started = Some(crate::host::cpu_seconds());
        }
    }
}

fn run_lane(
    endpoint: &Endpoint,
    config: &ClientConfig,
    steps: &[(usize, bool)],
    workers: &mut [&mut ReplayWorker],
    barrier: &Barrier,
) -> LaneOutcome {
    let mut client = WorkerClient::with_config(endpoint.clone(), config.clone());
    let warmup = (steps.len() as f64 * WARMUP_SHARE) as usize;
    let mut out = LaneOutcome {
        task_ns: Vec::with_capacity(steps.len() / 2),
        attempted: steps.iter().filter(|(_, submit)| *submit).count() as u64,
        ..LaneOutcome::default()
    };
    for (index, &(local, submit)) in steps.iter().enumerate() {
        if index == warmup {
            out.enter_timed_phase(barrier);
        }
        let worker = &mut *workers[local];
        if !submit {
            let started = Instant::now();
            let response = client.request(&worker.request);
            let took = started.elapsed().as_nanos() as u64;
            match response {
                Ok(TaskResponse::Assignment(assignment)) => {
                    out.assignments += 1;
                    worker.pending = Some((Lease::from(assignment), took));
                }
                // A rejected task fails: its submit finds no lease.
                Ok(TaskResponse::Rejected(_)) => {}
                Err(_) => break,
            }
        } else if let Some((lease, request_ns)) = worker.pending.take() {
            let result = worker.stamp(lease);
            let started = Instant::now();
            let ack = client.submit(result);
            let took = started.elapsed().as_nanos() as u64;
            match ack {
                Ok(ack) if ack.disposition == ResultDisposition::Applied => out.applied += 1,
                Ok(_) => {}
                Err(_) => break,
            }
            if index >= warmup {
                out.task_ns.push(request_ns + took);
            }
        }
    }
    out.finished = Some(Instant::now());
    if out.started.is_none() {
        // Broke off during the warm-up: the other lanes still wait for us.
        out.enter_timed_phase(barrier);
    }
    out
}

/// Replays `steps` over `lanes` connections and measures the part after the
/// warm-up. Workers must have no pending lease (a fresh server knows none).
pub fn drive(
    endpoint: &Endpoint,
    config: &ClientConfig,
    steps: &[Step],
    workers: &mut [ReplayWorker],
    lanes: usize,
) -> Pass {
    let mut lane_steps: Vec<Vec<(usize, bool)>> = vec![Vec::new(); lanes];
    for step in steps {
        let worker = step.worker as usize;
        lane_steps[worker % lanes].push((worker / lanes, step.submit));
    }
    let mut lane_workers: Vec<Vec<&mut ReplayWorker>> = (0..lanes).map(|_| Vec::new()).collect();
    for (index, worker) in workers.iter_mut().enumerate() {
        worker.pending = None;
        lane_workers[index % lanes].push(worker);
    }

    let barrier = Barrier::new(lanes);
    let outcomes: Vec<LaneOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = lane_steps
            .iter()
            .zip(lane_workers.iter_mut())
            .map(|(steps, workers)| {
                let barrier = &barrier;
                scope.spawn(move || run_lane(endpoint, config, steps, workers, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread"))
            .collect()
    });
    let cpu_started = outcomes
        .iter()
        .find_map(|o| o.cpu_started)
        .expect("the barrier has a leader");
    let cpu_s = crate::host::cpu_seconds() - cpu_started;
    let started = outcomes
        .iter()
        .filter_map(|o| o.started)
        .min()
        .expect("every lane passed the barrier");
    let finished = outcomes
        .iter()
        .filter_map(|o| o.finished)
        .max()
        .expect("every lane finished");

    let mut pass = Pass {
        task_ns: Vec::new(),
        wall_s: finished.duration_since(started).as_secs_f64(),
        cpu_s,
        attempted: 0,
        assignments: 0,
        applied: 0,
    };
    for outcome in outcomes {
        pass.task_ns.extend(outcome.task_ns);
        pass.attempted += outcome.attempted;
        pass.assignments += outcome.assignments;
        pass.applied += outcome.applied;
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{client_config, Scratch, Served};
    use crate::workload::steps;
    use crate::workload::tests::{replay_fleet, small};

    /// The real thing in small: a transport server on a socket, two lanes.
    fn drive_small(durable: bool, name: &str) {
        let workload = small(durable);
        let (mut workers, parameters) = replay_fleet(&workload, 3);
        let schedule = steps(&workload.schedule(3, 1, parameters.len()));
        let mut scratch = Scratch::under("out", name).expect("scratch under benchmark/out");
        let served = Served::bind(&workload, &parameters, &mut scratch, None);
        let pass = drive(
            &served.endpoint,
            &client_config(None),
            &schedule,
            &mut workers,
            2,
        );
        assert_eq!(pass.attempted, workload.tasks() as u64);
        assert_eq!(
            pass.applied, pass.attempted,
            "every replayed submit is acked Applied"
        );
        assert_eq!(pass.failed(), 0);
        assert_eq!(pass.assignments, pass.attempted);
        assert!(!pass.task_ns.is_empty() && pass.task_ns.len() as u64 <= pass.attempted);
        assert_eq!(served.status().steps, pass.attempted);
        served.server.shutdown().expect("shutdown");
    }

    #[test]
    fn every_replayed_submit_is_acked_applied() {
        drive_small(false, "test-replay");
    }

    #[test]
    fn every_replayed_submit_is_acked_applied_with_the_journal_on() {
        drive_small(true, "test-replay-durable");
    }
}
