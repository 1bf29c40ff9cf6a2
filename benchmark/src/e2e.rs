//! The untraced run: the end-to-end metrics of one workload.
//!
//! A run sets up [`SETUPS`] times, then repeats *rounds* until `--seconds`
//! have been measured, and reports each metric's interquartile mean over the
//! set-ups, the rounds or the recoveries. Every round starts from fresh
//! servers and drives the workload's fixed operation counts, so a round
//! measures the same work whatever the run length; a faster build completes
//! more rounds, not different ones.

use crate::inproc::{self, Actors};
use crate::report::Report;
use crate::serve::{self, Inputs, Scratch, Served};
use crate::span::Tracer;
use crate::stats::{median_ns, midmean};
use crate::workload::{build_fleet, digest, parameter_digest, steps, Fleet, Workload, CONNECTIONS};
use crate::Args;
use bytes::Bytes;
use fleet_ml::metrics::accuracy;
use fleet_server::{decode_checkpoint, encode_checkpoint, FleetServer};
use std::time::Instant;

/// Set-ups of a serving run; the last one is used.
const SETUPS: usize = 5;
/// Restarts from a checkpoint timed per round (a millisecond or two each;
/// the first few after a shutdown run slow, so a round times many).
const RESTARTS: usize = 24;
/// Rounds a run makes at least: two, so that "identical across two runs of
/// one seed" is checked inside every invocation.
const MIN_ROUNDS: usize = 2;

/// The end-to-end figures of one round.
#[derive(Default)]
struct Rounds {
    tasks_per_s: Vec<f64>,
    task_p50_ms: Vec<f64>,
    cpu_ms_per_task: Vec<f64>,
    recover_s: Vec<f64>,
    /// One per round; all must agree.
    digests: Vec<u64>,
    latency_samples: usize,
    /// `VmHWM` when the first round ended. Freed memory is not handed back
    /// to the system, so the high-water mark keeps creeping up with every
    /// further round; the first round is the same work in every run.
    peak_rss_mb: f64,
}

impl Rounds {
    /// Closes a round whose final state has `digest`.
    fn end_round(&mut self, digest: u64) {
        if self.digests.is_empty() {
            self.peak_rss_mb = crate::host::peak_rss_mb();
        }
        self.digests.push(digest);
    }

    fn report(mut self, setup_s: &mut [f64], report: &mut Report) {
        report.metric("setup_s", midmean(setup_s), "s");
        report.metric("tasks_per_s", midmean(&mut self.tasks_per_s), "1/s");
        report.metric("task_p50_ms", midmean(&mut self.task_p50_ms), "ms");
        report.metric("cpu_ms_per_task", midmean(&mut self.cpu_ms_per_task), "ms");
        report.metric("peak_rss_mb", self.peak_rss_mb, "MB");
        report.metric("recover_s", midmean(&mut self.recover_s), "s");
        report.note("rounds", self.digests.len());
        report.note("task_p50_samples_per_round", self.latency_samples);
        report.note("recover_samples", self.recover_s.len());
        report.note("digest", format!("{:#018x}", self.digests[0]));
        report.check(
            "digest identical across the rounds of one seed",
            self.digests.windows(2).all(|pair| pair[0] == pair[1]),
        );
    }
}

pub fn run(args: &Args, scratch: &mut Scratch) -> Report {
    if args.workload.inproc {
        run_inproc(args)
    } else {
        run_serving(args, scratch)
    }
}

fn run_serving(args: &Args, scratch: &mut Scratch) -> Report {
    let workload = &args.workload;
    let mut report = Report::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        inputs = Some(serve::set_up(workload, args.seed, scratch));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut inputs: Inputs = inputs.expect("at least one set-up");

    let mut rounds = Rounds::default();
    let mut steps_match = true;
    let mut recoveries_consistent = true;
    let measuring = Instant::now();
    while rounds.digests.len() < MIN_ROUNDS || measuring.elapsed() < args.seconds {
        // Throughput pass: the full schedule over two connections.
        let (pass, served) = serve::pass(workload, &mut inputs, scratch, CONNECTIONS, None);
        steps_match &= served.status().steps == pass.attempted;
        rounds.tasks_per_s.push(pass.tasks_per_s());
        rounds.cpu_ms_per_task.push(pass.cpu_ms_per_task());
        report.attempted += pass.attempted;
        report.failed += pass.failed();
        if workload.durable {
            let recovery = serve::crash_and_recover(workload, &mut inputs, scratch, served);
            recoveries_consistent &= recovery.consistent;
            rounds.recover_s.extend(recovery.recover_s);
        } else {
            let state = served.server.shutdown().expect("shutdown");
            let checkpoint = encode_checkpoint(&state).to_vec();
            rounds
                .recover_s
                .extend(checkpoint_restarts(workload, &inputs, scratch, &checkpoint));
        }

        // Latency pass: the first quarter over one connection, hence a
        // deterministic apply order and a pinned final state.
        let (pass, served) = serve::pass(workload, &mut inputs, scratch, 1, None);
        steps_match &= served.status().steps == pass.attempted;
        rounds.task_p50_ms.push(median_ns(&pass.task_ns) / 1e6);
        rounds.latency_samples = pass.task_ns.len();
        report.attempted += pass.attempted;
        report.failed += pass.failed();
        let state = served.server.shutdown().expect("shutdown");
        rounds.end_round(digest(&encode_checkpoint(&state).to_vec()));
    }
    rounds.report(&mut setup_s, &mut report);
    report.check("server steps equal the tasks driven", steps_match);
    if workload.durable {
        report.check(
            "every recovery reports the pre-crash steps and clock and the same checkpoint bytes",
            recoveries_consistent,
        );
    }
    report
}

/// A server rebuilt from checkpoint bytes: decode, construct, restore.
fn restored(workload: &Workload, parameters: &[f32], checkpoint: &[u8]) -> FleetServer {
    let state = decode_checkpoint(Bytes::from(checkpoint.to_vec())).expect("own checkpoint");
    let mut server = workload.new_server(parameters);
    server.restore_checkpoint(state);
    server
}

/// Without a journal, what survives a crash is the checkpoint the last clean
/// shutdown left (`TransportConfig::checkpoint_path`): the time from its
/// bytes to the restarted server's first `Status` reply.
fn checkpoint_restarts(
    workload: &Workload,
    inputs: &Inputs,
    scratch: &mut Scratch,
    checkpoint: &[u8],
) -> Vec<f64> {
    (0..RESTARTS)
        .map(|_| {
            let started = Instant::now();
            let server = restored(workload, &inputs.parameters, checkpoint);
            let served = Served::bind_server(server, scratch, None, None);
            served.status();
            let took = started.elapsed().as_secs_f64();
            served.server.abort();
            took
        })
        .collect()
}

/// Share of `fleet.held_out` a model with `parameters` classifies correctly.
fn held_out_accuracy(workload: &Workload, fleet: &Fleet, parameters: &[f32]) -> f32 {
    let mut model = workload.model.build();
    model
        .set_parameters(parameters)
        .expect("served parameters fit the architecture");
    let all: Vec<usize> = (0..fleet.held_out.len()).collect();
    let (inputs, labels) = fleet.held_out.batch(&all);
    accuracy(&model.predict(&inputs).expect("held-out batch"), &labels)
}

fn run_inproc(args: &Args) -> Report {
    let workload = &args.workload;
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut rounds = Rounds::default();
    let mut learned = true;
    let mut accuracies = (0.0, 0.0);
    let mut measured = std::time::Duration::ZERO;
    // Real workers carry state (sampler, device), so every round sets up
    // afresh — which is also where the set-up samples come from.
    while rounds.digests.len() < MIN_ROUNDS || measured < args.seconds {
        let started = Instant::now();
        let mut fleet = build_fleet(workload, args.seed);
        let schedule = steps(&workload.schedule(args.seed, 1, fleet.parameters.len()));
        setup_s.push(started.elapsed().as_secs_f64());

        let started = Instant::now();
        let pass = inproc::drive(
            workload,
            &fleet.parameters,
            &schedule,
            Actors::Real(&mut fleet.workers),
            &mut Tracer::new(false, 0),
            false,
            None,
        );
        rounds.tasks_per_s.push(pass.tasks_per_s());
        rounds.cpu_ms_per_task.push(pass.cpu_ms_per_task());
        rounds.task_p50_ms.push(median_ns(&pass.task_ns) / 1e6);
        rounds.latency_samples = pass.task_ns.len();
        report.attempted += pass.counts.attempted;
        report.failed += pass.counts.attempted - pass.counts.applied;

        // An embedder that restarts keeps a checkpoint: decode and restore.
        let mut server = pass.server;
        server.drain();
        let checkpoint = encode_checkpoint(&server.checkpoint()).to_vec();
        // A fraction of a millisecond each, so many more than over a socket:
        // a short burst would ride on whatever clock speed the host has
        // that instant.
        for _ in 0..RESTARTS * 8 {
            let started = Instant::now();
            std::hint::black_box(restored(workload, &fleet.parameters, &checkpoint).clock());
            rounds.recover_s.push(started.elapsed().as_secs_f64());
        }
        measured += started.elapsed();

        rounds.end_round(parameter_digest(server.parameters()));
        accuracies = (
            held_out_accuracy(workload, &fleet, &fleet.parameters),
            held_out_accuracy(workload, &fleet, server.parameters()),
        );
        learned &= accuracies.1 >= accuracies.0;
    }
    rounds.report(&mut setup_s, &mut report);
    report.note("held_out_accuracy_initial", accuracies.0);
    report.note("held_out_accuracy_final", accuracies.1);
    if !args.smoke {
        report.check(
            "held-out accuracy of the final parameters is no lower than the initial model's",
            learned,
        );
    }
    report
}
