//! The traced run: the per-layer metrics of one workload.
//!
//! Three sources. (1) Untraced and telemetry-on repeats of the end-to-end
//! passes, for what only the real transport shows (connection scaling, the
//! tail under two connections, `handle_frame` as the server's recorder sees
//! it, the cost of telemetry itself). (2) The shadow exchange
//! ([`crate::inproc`]) with a span around every call into a layer, and the
//! same exchange untraced for the tracing overhead. (3) The measurements of
//! [`crate::layers`]. A layer that does not run in a workload reports 0.

use crate::inproc::{self, Actors, InprocPass};
use crate::layers;
use crate::report::Report;
use crate::serve::{self, Scratch};
use crate::span::{self_times, Span, Tracer};
use crate::stats::{median, median_ns, supported_tail};
use crate::workload::{build_fleet, steps, Workload, BATCH, CONNECTIONS, WARMUP_SHARE};
use crate::Args;
use fleet_durability::DurabilityOptions;
use fleet_server::encode_checkpoint;
use fleet_telemetry::{Counter, Latency, Recorder};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, in the order printed: `(name, unit)`.
/// `BENCHMARK.json` lists the same names; `run.sh --check` compares them.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("transport.frame_write_us", "us"),
    ("transport.frame_read_us", "us"),
    ("transport.frame_bytes_per_task", "B"),
    ("transport.outside_handler_us", "us"),
    ("transport.conn_scaling", "ratio"),
    ("transport.task_p50_c2_ms", "ms"),
    ("transport.task_p99_ms", "ms"),
    ("transport.handle_frame_p50_us", "us"),
    ("transport.handle_frame_p99_us", "us"),
    ("transport.retries", "count"),
    ("server.encode_us_per_task", "us"),
    ("server.decode_us_per_task", "us"),
    ("server.codec_mb_per_s", "MB/s"),
    ("server.wire_bytes_per_task", "B"),
    ("server.handle_request_us", "us"),
    ("server.handle_result_us", "us"),
    ("server.self_us_per_task", "us"),
    ("server.history_slowdown", "ratio"),
    ("server.checkpoint_encode_us", "us"),
    ("server.checkpoint_bytes", "B"),
    ("server.assignments", "count"),
    ("server.applied", "count"),
    ("server.rejected", "count"),
    ("core.submit_us", "us"),
    ("core.submit_us_per_task", "us"),
    ("core.apply_mparams_per_s", "Mparam/s"),
    ("core.model_updates", "count"),
    ("profiler.predict_us", "us"),
    ("profiler.observe_us", "us"),
    ("durability.append_us", "us"),
    ("durability.append_mb_per_s", "MB/s"),
    ("durability.journal_bytes_per_task", "B"),
    ("durability.checkpoint_write_us", "us"),
    ("durability.checkpoints", "count"),
    ("durability.open_us", "us"),
    ("durability.replay_us_per_record", "us"),
    ("durability.tasks_per_s_ratio", "ratio"),
    ("ml.worker_execute_us", "us"),
    ("ml.compute_gradient_us", "us"),
    ("ml.gflops", "GFLOP/s"),
    ("parallel.threads", "count"),
    ("parallel.fanout_us", "us"),
    ("parallel.inline_us", "us"),
    ("telemetry.overhead_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.residual_share", "ratio"),
];

/// Metric values by name; what is never set reports 0.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(known, _)| *known == name), "{name}");
        self.0.insert(name, value);
    }

    fn emit(&self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// The spans of the timed phase, by name.
struct Timed<'a> {
    spans: &'a [Span],
    own: Vec<u64>,
    /// First schedule index after the warm-up.
    from: u32,
    tasks: f64,
}

impl Timed<'_> {
    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = (usize, &'s Span)> + 's {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, span)| span.name == name && span.task >= self.from)
    }

    fn durations(&self, name: &str) -> Vec<u64> {
        self.named(name).map(|(_, s)| s.duration_ns()).collect()
    }

    fn total_us(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .flat_map(|name| self.durations(name))
            .sum::<u64>() as f64
            / 1e3
    }

    /// Median µs per call, 0 when the span never occurred.
    fn p50_us(&self, name: &str) -> f64 {
        let durations = self.durations(name);
        if durations.is_empty() {
            0.0
        } else {
            median_ns(&durations) / 1e3
        }
    }

    fn self_total_us(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .flat_map(|name| self.named(name).map(|(index, _)| self.own[index]))
            .sum::<u64>() as f64
            / 1e3
    }
}

const ENCODES: [&str; 4] = [
    "server.encode_request",
    "server.encode_response",
    "server.encode_result",
    "server.encode_ack",
];
const DECODES: [&str; 4] = [
    "server.decode_request",
    "server.decode_response",
    "server.decode_result",
    "server.decode_ack",
];
const EXCHANGES: [&str; 2] = ["exchange.request", "exchange.submit"];
const HANDLERS: [&str; 2] = ["server.handle_request", "server.handle_result"];

/// Everything the spans of one traced pass say about the layers.
fn span_metrics(
    pass: &InprocPass,
    tracer: &Tracer,
    schedule_len: usize,
    parameters: usize,
    values: &mut Values,
    report: &mut Report,
) {
    let timed = Timed {
        spans: tracer.spans(),
        own: self_times(tracer.spans()),
        from: (schedule_len as f64 * WARMUP_SHARE) as u32,
        tasks: pass.task_ns.len().max(1) as f64,
    };
    let counts = &pass.counts;
    let attempted = counts.attempted.max(1) as f64;

    let encode_us = timed.total_us(&ENCODES);
    let decode_us = timed.total_us(&DECODES);
    let wire_per_task = counts.wire_bytes as f64 / attempted;
    values.set("server.encode_us_per_task", encode_us / timed.tasks);
    values.set("server.decode_us_per_task", decode_us / timed.tasks);
    values.set("server.wire_bytes_per_task", wire_per_task);
    if encode_us + decode_us > 0.0 {
        // Every payload byte is encoded once and decoded once.
        values.set(
            "server.codec_mb_per_s",
            2.0 * wire_per_task * timed.tasks / (encode_us + decode_us),
        );
    }
    values.set(
        "transport.frame_bytes_per_task",
        counts.frame_bytes as f64 / attempted,
    );
    values.set(
        "server.handle_request_us",
        timed.p50_us("server.handle_request"),
    );
    values.set(
        "server.handle_result_us",
        timed.p50_us("server.handle_result"),
    );
    values.set(
        "server.self_us_per_task",
        timed.self_total_us(&HANDLERS) / timed.tasks,
    );
    let results = timed.durations("server.handle_result");
    let tenth = (results.len() / 10).max(1);
    let mean = |slice: &[u64]| slice.iter().sum::<u64>() as f64 / slice.len().max(1) as f64;
    if !results.is_empty() {
        values.set(
            "server.history_slowdown",
            mean(&results[results.len() - tenth..]) / mean(&results[..tenth]),
        );
    }
    values.set("server.assignments", counts.assignments as f64);
    values.set("server.applied", counts.applied as f64);
    values.set("server.rejected", counts.rejected as f64);

    values.set("core.submit_us", timed.p50_us("core.submit"));
    values.set(
        "core.submit_us_per_task",
        timed.total_us(&["core.submit"]) / timed.tasks,
    );
    let model_updates = pass.mirrors.as_ref().map_or(0, |m| m.model_updates);
    values.set("core.model_updates", model_updates as f64);
    // Over the whole pass, warm-up included: the update count is the pass's.
    let submit_all_us: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "core.submit")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .sum();
    if submit_all_us > 0.0 {
        values.set(
            "core.apply_mparams_per_s",
            parameters as f64 * model_updates as f64 / submit_all_us,
        );
    }
    values.set("profiler.predict_us", timed.p50_us("profiler.predict"));
    values.set("profiler.observe_us", timed.p50_us("profiler.observe"));

    let append_us = timed.total_us(&["durability.append"]);
    let journal_per_task = counts.journal_bytes as f64 / attempted;
    values.set("durability.append_us", timed.p50_us("durability.append"));
    values.set("durability.journal_bytes_per_task", journal_per_task);
    if append_us > 0.0 {
        values.set(
            "durability.append_mb_per_s",
            journal_per_task * timed.tasks / append_us,
        );
    }
    values.set(
        "durability.checkpoint_write_us",
        timed.p50_us("durability.checkpoint_write"),
    );
    values.set("durability.checkpoints", counts.checkpoints as f64);
    values.set("ml.worker_execute_us", timed.p50_us("ml.worker_execute"));

    let exchange_us = timed.total_us(&EXCHANGES).max(f64::MIN_POSITIVE);
    values.set(
        "trace.residual_share",
        timed.self_total_us(&EXCHANGES) / exchange_us,
    );

    // The budget: each layer's self time as a share of the shadow task. The
    // mirrors' time stands for the inside of the handlers, whose self time
    // already excludes it, so the shares add up to one.
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (span, own) in timed.spans.iter().zip(&timed.own) {
        if span.task >= timed.from {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *layers.entry(layer).or_default() += own;
        }
    }
    for (layer, own_ns) in layers {
        let share = own_ns as f64 / 1e3 / exchange_us;
        report.note(&format!("budget share {layer}"), format!("{share:.4}"));
    }
}

/// `FleetServer::checkpoint` + `encode_checkpoint` on the state a pass left:
/// median µs of five, and the encoded size.
fn checkpoint_cost(pass: &InprocPass, values: &mut Values) {
    let mut took = Vec::with_capacity(5);
    let mut bytes = 0;
    for _ in 0..5 {
        let started = Instant::now();
        bytes = encode_checkpoint(&pass.server.checkpoint()).len();
        took.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    values.set("server.checkpoint_encode_us", median(&mut took));
    values.set("server.checkpoint_bytes", bytes as f64);
}

/// The share of a traced task's time that tracing added: both passes time
/// the same exchanges (the mirrors run between them, outside), so the
/// difference of the means is the spans.
fn overhead_share(untraced: &InprocPass, traced: &InprocPass) -> f64 {
    let mean = |pass: &InprocPass| {
        pass.task_ns.iter().sum::<u64>() as f64 / pass.task_ns.len().max(1) as f64
    };
    1.0 - mean(untraced) / mean(traced)
}

pub fn run(args: &Args, scratch: &mut Scratch) -> Report {
    let mut report = Report::default();
    let mut values = Values::default();
    values.set("parallel.threads", fleet_parallel::max_threads() as f64);
    if args.workload.inproc {
        trace_inproc(args, &mut values, &mut report);
    } else {
        trace_serving(args, scratch, &mut values, &mut report);
    }
    values.emit(&mut report);
    report
}

fn trace_serving(args: &Args, scratch: &mut Scratch, values: &mut Values, report: &mut Report) {
    let workload = &args.workload;
    let mut inputs = serve::set_up(workload, args.seed, scratch);
    let parameters = inputs.parameters.len();

    // (1) The real transport: telemetry off and on, alternating, for half
    // the run; one latency pass; on `serve_durable` one crash.
    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut c2_task_ns = Vec::new();
    let mut handle_frame = (0.0, 0.0);
    let mut retries = 0;
    let mut counts_match = true;
    let mut steps_match = true;
    let mut crashed_dir = None;
    let started = Instant::now();
    while off.is_empty() || started.elapsed() < args.seconds / 2 {
        let (pass, served) = serve::pass(workload, &mut inputs, scratch, CONNECTIONS, None);
        steps_match &= served.status().steps == pass.attempted;
        report.attempted += pass.attempted;
        report.failed += pass.failed();
        off.push(pass.tasks_per_s());
        c2_task_ns.extend(pass.task_ns);
        if workload.durable && crashed_dir.is_none() {
            let recovery = serve::crash_and_recover(workload, &mut inputs, scratch, served);
            report.check(
                "recoveries agree with the pre-crash state",
                recovery.consistent,
            );
            crashed_dir = Some(recovery.crashed_dir);
        } else {
            served.server.shutdown().expect("shutdown");
        }

        let recorder = Arc::new(Recorder::new());
        let (pass, served) =
            serve::pass(workload, &mut inputs, scratch, CONNECTIONS, Some(&recorder));
        steps_match &= served.status().steps == pass.attempted;
        served.server.shutdown().expect("shutdown");
        report.attempted += pass.attempted;
        report.failed += pass.failed();
        on.push(pass.tasks_per_s());
        let snapshot = recorder.snapshot();
        counts_match &= snapshot.counter(Counter::Applied) == pass.applied
            && snapshot.counter(Counter::Assignments) == pass.assignments;
        let frames = snapshot.latency(Latency::HandleFrame);
        handle_frame = (frames.p50 as f64 / 1e3, frames.p99 as f64 / 1e3);
        retries += snapshot.counter(Counter::Retries);
    }
    let (latency, served) = serve::pass(workload, &mut inputs, scratch, 1, None);
    steps_match &= served.status().steps == latency.attempted;
    served.server.shutdown().expect("shutdown");
    report.attempted += latency.attempted;
    report.failed += latency.failed();
    report.check("server steps equal the tasks driven", steps_match);
    report.check(
        "client counts equal the recorder's applied and assignments",
        counts_match,
    );

    let tasks_per_s_c2 = median(&mut off);
    if workload.durable {
        // What the journal costs end to end: the same pass with it off.
        let plain = Workload {
            durable: false,
            ..*workload
        };
        let (pass, served) = serve::pass(&plain, &mut inputs, scratch, CONNECTIONS, None);
        served.server.shutdown().expect("shutdown");
        report.attempted += pass.attempted;
        report.failed += pass.failed();
        values.set(
            "durability.tasks_per_s_ratio",
            tasks_per_s_c2 / pass.tasks_per_s(),
        );
    }
    values.set(
        "transport.conn_scaling",
        tasks_per_s_c2 / latency.tasks_per_s(),
    );
    values.set("transport.task_p50_c2_ms", median_ns(&c2_task_ns) / 1e6);
    let (tail, tail_ns) = supported_tail(&c2_task_ns);
    values.set("transport.task_p99_ms", tail_ns / 1e6);
    report.note("transport.task_p99_ms percentile", tail);
    report.note("transport.task_p99_ms samples", c2_task_ns.len());
    values.set("transport.handle_frame_p50_us", handle_frame.0);
    values.set("transport.handle_frame_p99_us", handle_frame.1);
    values.set("transport.retries", retries as f64);
    values.set(
        "telemetry.overhead_share",
        1.0 - median(&mut on) / tasks_per_s_c2,
    );

    // (2) The shadow exchange, untraced then traced, on the full schedule.
    let journal = |scratch: &mut Scratch| {
        workload
            .durable
            .then(|| DurabilityOptions::new(scratch.fresh("shadow")))
    };
    let options = journal(scratch);
    let untraced = inproc::drive(
        workload,
        &inputs.parameters,
        &inputs.full,
        Actors::Replay(&mut inputs.workers),
        &mut Tracer::new(false, 0),
        false,
        options.as_ref(),
    );
    let options = journal(scratch);
    let mut tracer = Tracer::new(true, inputs.full.len() * 16);
    let traced = inproc::drive(
        workload,
        &inputs.parameters,
        &inputs.full,
        Actors::Replay(&mut inputs.workers),
        &mut tracer,
        true,
        options.as_ref(),
    );
    report.check(
        "shadow steps equal the tasks driven",
        traced.steps == traced.counts.attempted && traced.counts.applied == traced.counts.attempted,
    );
    values.set("trace.overhead_share", overhead_share(&untraced, &traced));
    span_metrics(
        &traced,
        &tracer,
        inputs.full.len(),
        parameters,
        values,
        report,
    );
    checkpoint_cost(&traced, values);

    // What no handler accounts for: the client-observed task at one
    // connection minus the same task in the shadow. The latency pass drives
    // the first quarter of every worker's operations, so the shadow side is
    // the timed tasks of the first quarter of the schedule.
    let quarter = (inputs.full.len() / 4) as u32;
    let mut shadow_ns: Vec<u64> = traced
        .task_ns
        .iter()
        .zip(&traced.task_at)
        .filter(|(_, at)| **at < quarter)
        .map(|(ns, _)| *ns)
        .collect();
    if shadow_ns.is_empty() {
        // A smoke-sized schedule submits nothing that early.
        shadow_ns.clone_from(&traced.task_ns);
    }
    let shadow_us = median_ns(&shadow_ns) / 1e3;
    report.note("shadow_task_p50_us", shadow_us);
    values.set(
        "transport.outside_handler_us",
        median_ns(&latency.task_ns) / 1e3 - shadow_us,
    );

    // (3) What one thread cannot show.
    let (write_us, read_us) = layers::frame_socket_us(&traced.frame_samples);
    values.set("transport.frame_write_us", write_us);
    values.set("transport.frame_read_us", read_us);
    let (fanout_us, inline_us) = layers::fanout_vs_inline_us(parameters);
    values.set("parallel.fanout_us", fanout_us);
    values.set("parallel.inline_us", inline_us);
    if let Some(crashed) = crashed_dir {
        let (open_us, replay_us, records) =
            layers::recovery_halves(workload, &inputs.parameters, &crashed);
        values.set("durability.open_us", open_us);
        values.set("durability.replay_us_per_record", replay_us);
        report.note("durability.replayed_records", records);
    }
    finish(workload, &tracer, values, report);
}

fn trace_inproc(args: &Args, values: &mut Values, report: &mut Report) {
    let workload = &args.workload;
    let pass = |traced: bool, tracer: &mut Tracer| {
        let mut fleet = build_fleet(workload, args.seed);
        let schedule = steps(&workload.schedule(args.seed, 1, fleet.parameters.len()));
        let pass = inproc::drive(
            workload,
            &fleet.parameters,
            &schedule,
            Actors::Real(&mut fleet.workers),
            tracer,
            traced,
            None,
        );
        (pass, schedule.len(), fleet)
    };
    let (untraced, ..) = pass(false, &mut Tracer::new(false, 0));
    let mut tracer = Tracer::new(true, workload.tasks() * 2 * 8);
    let (traced, schedule_len, fleet) = pass(true, &mut tracer);
    report.attempted = untraced.counts.attempted + traced.counts.attempted;
    report.failed = report.attempted - untraced.counts.applied - traced.counts.applied;
    report.check(
        "traced and untraced passes end in the same parameters",
        untraced.server.parameters() == traced.server.parameters(),
    );
    values.set("trace.overhead_share", overhead_share(&untraced, &traced));
    let parameters = fleet.parameters.len();
    span_metrics(&traced, &tracer, schedule_len, parameters, values, report);
    checkpoint_cost(&traced, values);

    let gradient_us = layers::mirror_gradient_us(workload, &fleet, args.seed, 32);
    values.set("ml.compute_gradient_us", gradient_us);
    values.set(
        "ml.gflops",
        workload.model.gradient_flops(BATCH) / gradient_us / 1e3,
    );
    let (fanout_us, inline_us) = layers::fanout_vs_inline_us(parameters);
    values.set("parallel.fanout_us", fanout_us);
    values.set("parallel.inline_us", inline_us);
    finish(workload, &tracer, values, report);
}

/// Writes the spans out and checks that they account for the task.
fn finish(workload: &Workload, tracer: &Tracer, values: &Values, report: &mut Report) {
    let path = PathBuf::from(format!("benchmark/out/{}.trace.jsonl", workload.name));
    tracer.write_jsonl(&path).expect("write the trace");
    report.note("trace", path.display());
    report.note("spans", tracer.spans().len());
    report.check(
        "trace.residual_share < 0.10",
        values
            .0
            .get("trace.residual_share")
            .is_some_and(|share| *share < 0.10),
    );
}
