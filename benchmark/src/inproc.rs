//! The in-process, single-threaded driver.
//!
//! It runs `train_inproc` (real workers, direct handler calls), and it is the
//! *shadow exchange* of the serving workloads: the same public calls, in the
//! same order, that `WorkerClient` and `transport::server::handle_frame`
//! make — codec, frame, handler, journal — without a socket, a second thread
//! or the core mutex, so every call can carry a span. Mirror components (a
//! `ParameterServer<AdaSgd>` and an `IProf` fed the handlers' inputs) split a
//! handler's time into its children.

use crate::span::{Tracer, NO_PARENT};
use crate::workload::{Lease, ReplayWorker, Step, Workload, BATCH, WARMUP_SHARE};
use bytes::Bytes;
use fleet_core::{AdaSgd, ApplyMode, ParameterServer, WorkerUpdate};
use fleet_device::DeviceFeatures;
use fleet_durability::{DurabilityOptions, DurableStore, EventKind};
use fleet_profiler::{IProf, WorkloadProfiler};
use fleet_server::protocol::{
    RejectionReason, ResultAck, TaskAssignment, TaskRequest, TaskResponse, TaskResult,
};
use fleet_server::{encode_checkpoint, wire, FleetServer, ResultDisposition, Worker};
use fleet_transport::frame::{read_frame, write_frame};
use fleet_transport::{FrameKind, MAX_FRAME_LEN};
use std::io::Cursor;
use std::time::Instant;

/// Who computes the gradients, and which path a message takes.
pub enum Actors<'a> {
    /// Real workers and direct handler calls: `train_inproc`.
    Real(&'a mut [Worker]),
    /// Replay workers through codec and frame: the shadow of a serving
    /// workload.
    Replay(&'a mut [ReplayWorker]),
}

/// Replicas of the components inside the handlers, fed the same inputs.
pub struct Mirrors {
    core: ParameterServer<AdaSgd>,
    iprof: IProf,
    pub model_updates: u64,
}

impl Mirrors {
    fn new(workload: &Workload, parameters: &[f32]) -> Mirrors {
        let config = workload.server_config();
        Mirrors {
            core: ParameterServer::from_config(
                parameters.to_vec(),
                AdaSgd::new(config.num_classes, config.s_percentile),
                &config.core,
            ),
            iprof: IProf::new(config.slo),
            model_updates: 0,
        }
    }

    /// The update `FleetServer::handle_result` builds from an applied result.
    fn update_of(&self, result: &TaskResult) -> WorkerUpdate {
        let mut update = WorkerUpdate::new(
            result.gradient.clone(),
            self.core.clock().saturating_sub(result.model_version),
            result.label_distribution.clone(),
            result.num_samples,
            result.worker_id,
        );
        if self.core.apply_mode() == ApplyMode::PerShard
            && result
                .read_clock
                .as_ref()
                .is_some_and(|rc| rc.len() == self.core.num_shards())
        {
            update.read_clock = result.read_clock.clone();
        }
        update
    }
}

/// The journal as `transport::durable` drives it: append every event, write
/// a checkpoint generation every `checkpoint_every` applied steps.
struct ShadowStore {
    store: DurableStore,
    checkpoint_every: u64,
    steps_at_checkpoint: u64,
}

impl ShadowStore {
    fn open(options: &DurabilityOptions, server: &FleetServer) -> std::io::Result<ShadowStore> {
        let (mut store, _) = DurableStore::open(options)?;
        let payload = Bytes::from(encode_checkpoint(&server.checkpoint()).to_vec());
        store.begin(payload, 0, 0)?;
        Ok(ShadowStore {
            store,
            checkpoint_every: options.checkpoint_every,
            steps_at_checkpoint: 0,
        })
    }
}

/// Counts taken at the span boundaries; they repeat exactly for a seed.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub attempted: u64,
    pub assignments: u64,
    pub applied: u64,
    pub rejected: u64,
    /// Payload bytes through the codec (all four messages of every task).
    pub wire_bytes: u64,
    /// The same plus frame headers.
    pub frame_bytes: u64,
    pub journal_bytes: u64,
    pub checkpoints: u64,
}

/// What one in-process pass produced.
pub struct InprocPass {
    /// Both halves of every task submitted after the warm-up, nanoseconds.
    pub task_ns: Vec<u64>,
    /// Position of each of those tasks' submit in the schedule.
    pub task_at: Vec<u32>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub counts: Counts,
    /// Applied results plus terminal rejections, as the transport counts.
    pub steps: u64,
    pub server: FleetServer,
    pub mirrors: Option<Mirrors>,
    /// One payload of each frame kind, for the socket measurement.
    pub frame_samples: Vec<(FrameKind, Vec<u8>)>,
}

impl InprocPass {
    /// Tasks submitted after the warm-up, per second of the timed phase.
    pub fn tasks_per_s(&self) -> f64 {
        self.task_ns.len() as f64 / self.wall_s
    }

    /// Process CPU milliseconds per task of the timed phase.
    pub fn cpu_ms_per_task(&self) -> f64 {
        self.cpu_s * 1e3 / self.task_ns.len().max(1) as f64
    }
}

struct Driver<'a> {
    server: FleetServer,
    tracer: &'a mut Tracer,
    mirrors: Option<Mirrors>,
    store: Option<ShadowStore>,
    steps: u64,
    counts: Counts,
    /// The in-memory "socket" a frame is written to and read back from.
    pipe: Vec<u8>,
    frame_samples: Vec<(FrameKind, Vec<u8>)>,
}

impl Driver<'_> {
    /// One frame through the in-memory pipe: `write_frame` then `read_frame`,
    /// the copies the transport makes without the system calls.
    fn frame(&mut self, parent: u32, kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let pipe = &mut self.pipe;
        pipe.clear();
        self.tracer.child("transport.write_frame", parent, || {
            write_frame(pipe, kind, payload).expect("writing to memory cannot fail")
        });
        self.counts.wire_bytes += payload.len() as u64;
        self.counts.frame_bytes += pipe.len() as u64;
        if self.frame_samples.iter().all(|(k, _)| *k != kind) {
            self.frame_samples.push((kind, payload.to_vec()));
        }
        let (got, body) = self.tracer.child("transport.read_frame", parent, || {
            read_frame(&mut Cursor::new(pipe.as_slice()), MAX_FRAME_LEN)
                .expect("a frame just written reads back")
        });
        debug_assert_eq!(got, kind);
        body
    }

    /// Journal append plus the cadence checkpoint, as `handle_frame` does
    /// after every handled request or result.
    fn journal(&mut self, parent: u32, kind: EventKind, raw: Bytes) {
        let Some(shadow) = self.store.as_mut() else {
            return;
        };
        self.counts.journal_bytes += raw.len() as u64;
        self.tracer.child("durability.append", parent, || {
            shadow.store.append(kind, raw).expect("journal append")
        });
        if shadow.checkpoint_every == 0
            || self.steps - shadow.steps_at_checkpoint < shadow.checkpoint_every
        {
            return;
        }
        let server = &self.server;
        let payload = self.tracer.child("server.checkpoint_encode", parent, || {
            Bytes::from(encode_checkpoint(&server.checkpoint()).to_vec())
        });
        let steps = self.steps;
        self.tracer
            .child("durability.checkpoint_write", parent, || {
                shadow.store.checkpoint(payload, steps).expect("checkpoint")
            });
        shadow.steps_at_checkpoint = steps;
        self.counts.checkpoints += 1;
    }

    fn handle_request(&mut self, parent: u32, request: &TaskRequest) -> TaskResponse {
        let server = &mut self.server;
        let response = self.tracer.child("server.handle_request", parent, || {
            server.handle_request(request)
        });
        match &response {
            TaskResponse::Assignment(_) => self.counts.assignments += 1,
            TaskResponse::Rejected(reason) => {
                self.counts.rejected += 1;
                // As the transport counts: overload is backpressure, any
                // other rejection consumes the worker's turn.
                if !matches!(reason, RejectionReason::Overloaded { .. }) {
                    self.steps += 1;
                }
            }
        }
        response
    }

    /// Feeds the mirror profiler the request the handler just saw.
    fn mirror_request(&mut self, handler: u32, request: &TaskRequest) {
        if let Some(mirrors) = self.mirrors.as_mut() {
            let iprof = &mirrors.iprof;
            self.tracer.child("profiler.predict", handler, || {
                std::hint::black_box(
                    iprof.predict_batch(&request.device_model, &request.device_features),
                )
            });
        }
    }

    fn handle_result(&mut self, parent: u32, result: TaskResult) -> ResultAck {
        let server = &mut self.server;
        let ack = self.tracer.child("server.handle_result", parent, || {
            server.handle_result(result)
        });
        if ack.disposition == ResultDisposition::Applied {
            self.counts.applied += 1;
            self.steps += 1;
        }
        ack
    }

    /// Feeds the mirror core and profiler the result the handler just
    /// applied.
    fn mirror_result(&mut self, handler: u32, result: &TaskResult, device_model: &str) {
        if let Some(mirrors) = self.mirrors.as_mut() {
            let update = mirrors.update_of(result);
            let core = &mut mirrors.core;
            let outcome = self
                .tracer
                .child("core.submit", handler, || core.submit(update));
            mirrors.model_updates += u64::from(outcome.applied);
            let iprof = &mut mirrors.iprof;
            self.tracer.child("profiler.observe", handler, || {
                iprof.observe(
                    device_model,
                    &DeviceFeatures::default(),
                    result.num_samples,
                    result.computation_seconds,
                    result.energy_pct,
                )
            });
        }
    }

    /// Index of the span `child` recorded last (the handler, for mirrors).
    fn last_span(&self) -> u32 {
        match self.tracer.spans().len() {
            0 => NO_PARENT,
            n => (n - 1) as u32,
        }
    }

    /// The request exchange of a replay worker: what `WorkerClient::request`
    /// and the server's `Request` arm do, minus the socket.
    fn request_wire(&mut self, task: u32, worker: &mut ReplayWorker) {
        let started = Instant::now();
        let span = self.tracer.open("exchange.request", NO_PARENT, task);
        let raw = self.tracer.child("server.encode_request", span, || {
            wire::encode_request(&worker.request).to_vec()
        });
        let body = Bytes::from(self.frame(span, FrameKind::Request, &raw));
        let request = self.tracer.child("server.decode_request", span, || {
            wire::decode_request(body.clone()).expect("own encoding decodes")
        });
        let response = self.handle_request(span, &request);
        let handler = self.last_span();
        self.journal(span, EventKind::Request, body);
        let raw = self.tracer.child("server.encode_response", span, || {
            wire::encode_response(&response).to_vec()
        });
        drop(response);
        let body = Bytes::from(self.frame(span, FrameKind::Response, &raw));
        let response = self.tracer.child("server.decode_response", span, || {
            wire::decode_response(body).expect("own encoding decodes")
        });
        self.tracer.close(span);
        let took = started.elapsed().as_nanos() as u64;
        if let TaskResponse::Assignment(assignment) = response {
            worker.pending = Some((Lease::from(assignment), took));
        }
        self.mirror_request(handler, &worker.request);
    }

    /// The submit exchange of a replay worker; returns the nanoseconds it took.
    fn submit_wire(&mut self, task: u32, worker: &mut ReplayWorker, lease: Lease) -> u64 {
        let started = Instant::now();
        let span = self.tracer.open("exchange.submit", NO_PARENT, task);
        let template = worker.stamp(lease);
        let raw = self.tracer.child("server.encode_result", span, || {
            wire::encode_result(template).to_vec()
        });
        let body = Bytes::from(self.frame(span, FrameKind::Result, &raw));
        let result = self.tracer.child("server.decode_result", span, || {
            wire::decode_result(body.clone()).expect("own encoding decodes")
        });
        let ack = self.handle_result(span, result);
        let handler = self.last_span();
        self.journal(span, EventKind::Result, body);
        let raw = self.tracer.child("server.encode_ack", span, || {
            wire::encode_ack(&ack).to_vec()
        });
        let body = Bytes::from(self.frame(span, FrameKind::Ack, &raw));
        self.tracer.child("server.decode_ack", span, || {
            wire::decode_ack(body).expect("own encoding decodes")
        });
        self.tracer.close(span);
        let took = started.elapsed().as_nanos() as u64;
        if ack.disposition == ResultDisposition::Applied {
            self.mirror_result(handler, worker.template(), &worker.request.device_model);
        }
        took
    }

    /// The request half of a real worker's task: build the request, hand it
    /// to the handler. Returns the assignment and the nanoseconds it took.
    fn request_direct(&mut self, task: u32, worker: &mut Worker) -> Option<(TaskAssignment, u64)> {
        let started = Instant::now();
        let span = self.tracer.open("exchange.request", NO_PARENT, task);
        let request = self
            .tracer
            .child("server.worker_request", span, || worker.request());
        let response = self.handle_request(span, &request);
        let handler = self.last_span();
        self.tracer.close(span);
        let took = started.elapsed().as_nanos() as u64;
        self.mirror_request(handler, &request);
        match response {
            TaskResponse::Assignment(mut assignment) => {
                // The schedule's device model simulated this batch; cap
                // I-Prof's proposal so the computation is the scheduled one.
                assignment.mini_batch_size = assignment.mini_batch_size.min(BATCH);
                Some((assignment, took))
            }
            TaskResponse::Rejected(_) => None,
        }
    }

    /// The submit half of a real worker's task: compute the gradient, hand
    /// the result to the handler. Returns the nanoseconds it took.
    fn submit_direct(
        &mut self,
        task: u32,
        worker: &mut Worker,
        assignment: &TaskAssignment,
    ) -> u64 {
        let started = Instant::now();
        let span = self.tracer.open("exchange.submit", NO_PARENT, task);
        let result = self.tracer.child("ml.worker_execute", span, || {
            worker
                .execute(assignment)
                .expect("the fleet's replicas share the served architecture")
        });
        // The handler consumes the result; the mirrors need its twin.
        let twin = self.mirrors.is_some().then(|| result.clone());
        let ack = self.handle_result(span, result);
        let handler = self.last_span();
        self.tracer.close(span);
        let took = started.elapsed().as_nanos() as u64;
        if let (ResultDisposition::Applied, Some(twin)) = (ack.disposition, twin) {
            self.mirror_result(handler, &twin, &worker.device().profile().name);
        }
        took
    }
}

/// Drives `steps` in schedule order on one thread and measures the part
/// after the warm-up.
pub fn drive(
    workload: &Workload,
    parameters: &[f32],
    steps: &[Step],
    mut actors: Actors<'_>,
    tracer: &mut Tracer,
    mirrored: bool,
    durable: Option<&DurabilityOptions>,
) -> InprocPass {
    let server = workload.new_server(parameters);
    let store = durable.map(|options| ShadowStore::open(options, &server).expect("shadow store"));
    let mut driver = Driver {
        server,
        tracer,
        mirrors: mirrored.then(|| Mirrors::new(workload, parameters)),
        store,
        steps: 0,
        counts: Counts::default(),
        pipe: Vec::new(),
        frame_samples: Vec::new(),
    };
    let workers = match &actors {
        Actors::Real(workers) => workers.len(),
        Actors::Replay(workers) => workers.len(),
    };
    // Direct mode: the outstanding assignment of each worker and the time its
    // request half took.
    let mut assigned: Vec<Option<(TaskAssignment, u64)>> = (0..workers).map(|_| None).collect();
    if let Actors::Replay(workers) = &mut actors {
        for worker in workers.iter_mut() {
            worker.pending = None;
        }
    }

    let warmup = (steps.len() as f64 * WARMUP_SHARE) as usize;
    let mut task_ns = Vec::with_capacity(steps.len() / 2);
    let mut task_at = Vec::with_capacity(steps.len() / 2);
    let mut started = Instant::now();
    let mut cpu_started = crate::host::cpu_seconds();
    for (index, step) in steps.iter().enumerate() {
        if index == warmup {
            started = Instant::now();
            cpu_started = crate::host::cpu_seconds();
        }
        let task = index as u32;
        let w = step.worker as usize;
        if !step.submit {
            match &mut actors {
                Actors::Replay(workers) => driver.request_wire(task, &mut workers[w]),
                Actors::Real(workers) => assigned[w] = driver.request_direct(task, &mut workers[w]),
            }
            continue;
        }
        driver.counts.attempted += 1;
        // A task whose request was rejected has nothing to submit: it failed.
        let took = match &mut actors {
            Actors::Replay(workers) => workers[w].pending.take().map(|(lease, request_ns)| {
                request_ns + driver.submit_wire(task, &mut workers[w], lease)
            }),
            Actors::Real(workers) => assigned[w].take().map(|(assignment, request_ns)| {
                request_ns + driver.submit_direct(task, &mut workers[w], &assignment)
            }),
        };
        if let (Some(took), true) = (took, index >= warmup) {
            task_ns.push(took);
            task_at.push(task);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = crate::host::cpu_seconds() - cpu_started;
    InprocPass {
        task_ns,
        task_at,
        wall_s,
        cpu_s,
        counts: driver.counts,
        steps: driver.steps,
        server: driver.server,
        mirrors: driver.mirrors,
        frame_samples: driver.frame_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::{replay_fleet, small};
    use crate::workload::{parameter_digest, steps};

    #[test]
    fn the_shadow_applies_every_task_and_tracing_changes_nothing() {
        let workload = small(false);
        let (mut workers, parameters) = replay_fleet(&workload, 3);
        let schedule = steps(&workload.schedule(3, 1, parameters.len()));
        let mut run = |traced: bool| {
            let mut tracer = Tracer::new(traced, 1024);
            let pass = drive(
                &workload,
                &parameters,
                &schedule,
                Actors::Replay(&mut workers),
                &mut tracer,
                traced,
                None,
            );
            assert_eq!(pass.counts.attempted, workload.tasks() as u64);
            assert_eq!(pass.counts.applied, pass.counts.attempted);
            assert_eq!(pass.steps, pass.counts.attempted);
            assert_eq!(pass.frame_samples.len(), 4, "one payload per frame kind");
            (
                parameter_digest(pass.server.parameters()),
                tracer.spans().len(),
            )
        };
        let (untraced, no_spans) = run(false);
        let (traced, spans) = run(true);
        assert_eq!(untraced, traced);
        assert_eq!(no_spans, 0);
        assert!(spans > schedule.len());
    }
}
