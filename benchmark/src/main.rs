//! `fleetbench` — the end-to-end benchmark of the FLeet middleware.
//!
//! ```text
//! fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One invocation runs one workload in this process: it generates the inputs
//! from the seed, sets up, measures for `--seconds`, checks the outputs, and
//! prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object `{correct, attempted, failed, metrics}`.
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that yields the per-layer metrics. See
//! `benchmark/README.md` for what each metric means.

mod e2e;
mod host;
mod inproc;
mod layers;
mod replay;
mod report;
mod serve;
mod span;
mod stats;
mod trace;
mod workload;

use std::time::Duration;
use workload::{Workload, WORKLOADS};

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Reduced counts: too few updates for the learning check to mean much.
    pub smoke: bool,
}

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: fleetbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1] [--smoke]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::by_name(&value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    Args {
        workload: if smoke { workload.reduced() } else { workload },
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        smoke,
    }
}

fn main() {
    let args = parse_args();
    let mut scratch = serve::Scratch::under("benchmark/out", "run")
        .expect("create benchmark/out (run from the repository root)");
    let calibration_before = host::calibration_ms();
    let mut report = if args.trace {
        trace::run(&args, &mut scratch)
    } else {
        e2e::run(&args, &mut scratch)
    };
    drop(scratch);
    report.calibration_ms = (calibration_before, host::calibration_ms());
    report.print(&args);
    if !report.correct() {
        std::process::exit(1);
    }
}
