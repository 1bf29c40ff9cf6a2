//! The serving workloads end to end: a real `TransportServer` on a Unix
//! socket, replay workers on real connections, and — for `serve_durable` —
//! the crash and the recoveries.

use crate::replay::{drive, Pass};
use crate::workload::{build_fleet, digest, steps, ReplayWorker, Step, Workload, CONNECTIONS};
use fleet_server::protocol::TaskResponse;
use fleet_server::{encode_checkpoint, FleetServer, ResultDisposition};
use fleet_telemetry::{Recorder, TelemetryHandle, TelemetrySink};
use fleet_transport::{
    ClientConfig, Endpoint, ServerStatus, TransportConfig, TransportServer, WorkerClient,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Steps between cadence checkpoints under `DurabilityOptions::new`.
const CHECKPOINT_EVERY: u64 = 64;
/// Recoveries timed per crash.
pub const RECOVERIES: usize = 9;

/// A directory of this run's own, removed on drop. The benchmark passes
/// `benchmark/out`, relative to the working directory: a Unix socket path
/// holds at most 107 bytes, and a checkout may sit anywhere.
pub struct Scratch {
    dir: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn under(base: &str, name: &str) -> std::io::Result<Scratch> {
        let dir = PathBuf::from(format!("{base}/{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir, next: 0 })
    }

    /// A path nothing else in this run uses.
    pub fn fresh(&mut self, stem: &str) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("{stem}{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything a serving workload generates from the seed.
pub struct Inputs {
    pub parameters: Vec<f32>,
    pub workers: Vec<ReplayWorker>,
    /// The full schedule (throughput pass).
    pub full: Vec<Step>,
    /// The first quarter of every worker's operations (latency pass).
    pub quarter: Vec<Step>,
}

/// Set-up as `setup_s` counts it: dataset, fleet, one real gradient per
/// worker, both schedules, model initialisation, and a bind.
pub fn set_up(workload: &Workload, seed: u64, scratch: &mut Scratch) -> Inputs {
    let fleet = build_fleet(workload, seed);
    let parameters = fleet.parameters;
    // Each real worker is dropped as soon as its template exists: a replica
    // that has computed a gradient holds its activations, and 128 of those
    // would set the process's peak resident set before the server starts.
    let workers = fleet
        .workers
        .into_iter()
        .map(|mut worker| ReplayWorker::new(&mut worker, &parameters))
        .collect();
    let inputs = Inputs {
        full: steps(&workload.schedule(seed, 1, parameters.len())),
        quarter: steps(&workload.schedule(seed, 4, parameters.len())),
        workers,
        parameters,
    };
    let server = Served::bind(workload, &inputs.parameters, scratch, None);
    server.server.abort();
    inputs
}

/// A bound server and where it listens and journals.
pub struct Served {
    pub server: TransportServer,
    pub endpoint: Endpoint,
    pub durable_dir: Option<PathBuf>,
}

impl Served {
    /// Binds a fresh server for `workload`: durable (shipped defaults, a
    /// fresh directory) when the workload says so, reporting into `recorder`
    /// when one is given.
    pub fn bind(
        workload: &Workload,
        parameters: &[f32],
        scratch: &mut Scratch,
        recorder: Option<&Arc<Recorder>>,
    ) -> Served {
        let durable_dir = workload.durable.then(|| scratch.fresh("journal"));
        Served::bind_server(
            workload.new_server(parameters),
            scratch,
            recorder,
            durable_dir,
        )
    }

    /// Binds `server` on a fresh socket, journaling into `durable_dir` (and
    /// first recovering from it) when one is given.
    pub fn bind_server(
        server: FleetServer,
        scratch: &mut Scratch,
        recorder: Option<&Arc<Recorder>>,
        durable_dir: Option<PathBuf>,
    ) -> Served {
        let endpoint = Endpoint::uds(scratch.fresh("s"));
        let mut config = TransportConfig::builder();
        if let Some(dir) = &durable_dir {
            config = config.durable(dir.clone());
        }
        if let Some(recorder) = recorder {
            config = config.telemetry(handle(recorder));
        }
        let server = TransportServer::bind(
            &endpoint,
            server,
            config.build().expect("transport config is valid"),
        )
        .expect("bind benchmark socket");
        Served {
            server,
            endpoint,
            durable_dir,
        }
    }

    pub fn status(&self) -> ServerStatus {
        WorkerClient::new(self.endpoint.clone())
            .status()
            .expect("status probe")
    }
}

fn handle(recorder: &Arc<Recorder>) -> TelemetryHandle {
    TelemetryHandle::new(Arc::clone(recorder) as Arc<dyn TelemetrySink>)
}

pub fn client_config(recorder: Option<&Arc<Recorder>>) -> ClientConfig {
    ClientConfig {
        telemetry: recorder.map_or_else(TelemetryHandle::disabled, handle),
        ..ClientConfig::default()
    }
}

/// Drives one pass against a fresh server and returns it still running:
/// over [`CONNECTIONS`] lanes the full schedule (a throughput pass), over
/// one lane its first quarter (a latency pass).
pub fn pass(
    workload: &Workload,
    inputs: &mut Inputs,
    scratch: &mut Scratch,
    lanes: usize,
    recorder: Option<&Arc<Recorder>>,
) -> (Pass, Served) {
    let served = Served::bind(workload, &inputs.parameters, scratch, recorder);
    let schedule = if lanes == CONNECTIONS {
        &inputs.full
    } else {
        &inputs.quarter
    };
    let pass = drive(
        &served.endpoint,
        &client_config(recorder),
        schedule,
        &mut inputs.workers,
        lanes,
    );
    (pass, served)
}

/// What the crash-and-recover part of `serve_durable` measured.
pub struct Recovery {
    /// Seconds from `TransportServer::bind` to the `Status` reply, one per
    /// recovery.
    pub recover_s: Vec<f64>,
    /// Whether every recovery reported the pre-crash steps and clock and
    /// encoded to the same checkpoint bytes.
    pub consistent: bool,
    /// The directory as the crash left it.
    pub crashed_dir: PathBuf,
}

/// Tops the server up (untimed) until 63 steps have been applied since the
/// last cadence checkpoint — the longest journal tail a crash can leave —
/// then kills it and recovers [`RECOVERIES`] times, each from a fresh copy
/// of the directory the crash left.
pub fn crash_and_recover(
    workload: &Workload,
    inputs: &mut Inputs,
    scratch: &mut Scratch,
    served: Served,
) -> Recovery {
    let mut client = WorkerClient::new(served.endpoint.clone());
    let worker = &mut inputs.workers[0];
    while client.status().expect("status probe").steps % CHECKPOINT_EVERY != CHECKPOINT_EVERY - 1 {
        let Ok(TaskResponse::Assignment(assignment)) = client.request(&worker.request) else {
            panic!("top-up request was not assigned");
        };
        let ack = client
            .submit(worker.stamp(assignment.into()))
            .expect("top-up submit");
        assert_eq!(ack.disposition, ResultDisposition::Applied, "top-up submit");
    }
    let before = served.status();
    let crashed_dir = served.durable_dir.clone().expect("a durable workload");
    served.server.abort();
    drop(client);

    let mut recover_s = Vec::with_capacity(RECOVERIES);
    let mut consistent = true;
    let mut reference: Option<u64> = None;
    for _ in 0..RECOVERIES {
        let copy = scratch.fresh("recover");
        copy_dir(&crashed_dir, &copy).expect("copy the crashed directory");
        let started = Instant::now();
        let recovered = Served::bind_server(
            workload.new_server(&inputs.parameters),
            scratch,
            None,
            Some(copy),
        );
        let after = recovered.status();
        recover_s.push(started.elapsed().as_secs_f64());
        let state = recovered
            .server
            .shutdown()
            .expect("shutdown after recovery");
        let bytes = digest(&encode_checkpoint(&state).to_vec());
        consistent &= after.steps == before.steps
            && after.clock == before.clock
            && *reference.get_or_insert(bytes) == bytes;
    }
    Recovery {
        recover_s,
        consistent,
        crashed_dir,
    }
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}
