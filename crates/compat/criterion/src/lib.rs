//! Offline micro-benchmark harness exposing the `criterion` API subset the
//! workspace benches use (`bench_function`, `bench_with_input`,
//! `criterion_group!`, `criterion_main!`, `black_box`, `BenchmarkId`).
//!
//! Timing model: a short warm-up, then adaptive batches until the measurement
//! budget (`FLEET_BENCH_TIME_MS`, default 300 ms per benchmark) is spent.
//! Reports mean ns/iter on stdout and, when `FLEET_BENCH_JSON` names a file,
//! writes every result of the process to it as machine-readable JSON — this is
//! how `scripts/ci.sh`'s bench smoke leaves its (untracked) `BENCH_*.json`
//! micro-records. Nothing reads them back: a number that may be cited comes
//! from `benchmark/` (fleetbench).

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box`, criterion-style.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (including the `BenchmarkId` parameter, if any).
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Total iterations measured (excluding warm-up).
    pub iterations: u64,
}

static ALL_RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// Identifier combining a group name and a parameter, as in criterion.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// Creates an id rendered as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            full: format!("{}/{parameter}", name.into()),
        }
    }
}

/// Drives timed iterations of one benchmark body.
#[derive(Debug)]
pub struct Bencher {
    measured_ns: f64,
    iterations: u64,
    budget: Duration,
}

impl Bencher {
    /// Runs `f` repeatedly and records its mean cost.
    #[expect(
        clippy::disallowed_methods,
        reason = "a benchmark harness measures wall time; nothing it reads feeds a simulation"
    )]
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: let allocators/caches settle and estimate per-iter cost.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < self.budget / 10 && warmup_iters < 1_000_000 {
            black_box(f());
            warmup_iters += 1;
        }
        let est_ns =
            (warmup_start.elapsed().as_nanos() as f64 / warmup_iters.max(1) as f64).max(1.0);
        let batch = ((10_000_000.0 / est_ns).ceil() as u64).clamp(1, 1_000_000);

        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < self.budget {
            for _ in 0..batch {
                black_box(f());
            }
            iters += batch;
        }
        self.measured_ns = start.elapsed().as_nanos() as f64 / iters as f64;
        self.iterations = iters;
    }
}

/// The benchmark registry for one group run.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    fn run_one(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) {
        let budget_ms = std::env::var("FLEET_BENCH_TIME_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300u64);
        let mut bencher = Bencher {
            measured_ns: 0.0,
            iterations: 0,
            budget: Duration::from_millis(budget_ms),
        };
        f(&mut bencher);
        let result = BenchResult {
            name: name.to_string(),
            mean_ns: bencher.measured_ns,
            iterations: bencher.iterations,
        };
        println!(
            "bench {:<48} {:>14.1} ns/iter ({} iters)",
            result.name, result.mean_ns, result.iterations
        );
        self.results.push(result);
    }

    /// Benchmarks a closure under `name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        self.run_one(name, |b| f(b));
        self
    }

    /// Benchmarks a closure over an explicit input value.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.run_one(&id.full.clone(), |b| f(b, input));
        self
    }

    /// Publishes this group's results; called by `criterion_main!`.
    pub fn finalize(self) {
        let mut all = ALL_RESULTS.lock().unwrap();
        all.extend(self.results);
        if let Ok(path) = std::env::var("FLEET_BENCH_JSON") {
            let json = render_json(&all);
            if let Err(err) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {path}: {err}");
            }
        }
    }
}

/// ISA features the host CPU reports, for the bench metadata. Perf numbers
/// are only comparable between hosts whose feature lists match, so the list
/// rides along in every JSON artifact.
fn detected_isa_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    let features = [
        ("sse2", is_x86_feature_detected!("sse2")),
        ("avx", is_x86_feature_detected!("avx")),
        ("avx2", is_x86_feature_detected!("avx2")),
        ("fma", is_x86_feature_detected!("fma")),
        ("avx512f", is_x86_feature_detected!("avx512f")),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let features: [(&str, bool); 0] = [];
    features
        .into_iter()
        .filter_map(|(name, detected)| detected.then_some(name))
        .collect()
}

/// Escapes a string for embedding in a JSON document: backslash, quote, and
/// control characters — env values and bench names are arbitrary bytes, and
/// one stray `\` must not invalidate the whole perf artifact.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a JSON string field whose value may be an absent env var.
fn json_env(name: &str) -> String {
    match std::env::var(name) {
        Ok(v) => format!("\"{}\"", json_escape(&v)),
        Err(_) => "null".to_string(),
    }
}

fn render_json(results: &[BenchResult]) -> String {
    // Self-describing metadata: a bench artifact from a single-core host
    // must say so, or its numbers will be compared against runs from a
    // different configuration.
    let features = detected_isa_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Whether the workspace's fan-outs (the simulation's per-round worker
    // gradients, the load generator's schedules; the kernels always run on
    // the calling thread) ran inline during this record: FLEET_NUM_THREADS
    // wins when set (mirroring fleet_parallel::max_threads), else the host's
    // parallelism decides. A single-core artifact's multi-thread numbers
    // measure the serial path — flag it so whoever reads the record does not
    // misread flat scaling curves.
    let effective_threads = std::env::var("FLEET_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(parallelism);
    let fan_out_inline = effective_threads <= 1;
    let mut out = String::from("{\n  \"schema\": \"fleet-bench-v2\",\n  \"meta\": {\n");
    let _ = writeln!(
        out,
        "    \"fleet_num_threads\": {},\n    \"available_parallelism\": {parallelism},\n    \"fan_out_inline\": {fan_out_inline},\n    \"isa_features\": [{features}]\n  }},",
        json_env("FLEET_NUM_THREADS"),
    );
    out.push_str("  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"iterations\": {}}}{comma}",
            json_escape(&r.name),
            r.mean_ns,
            r.iterations
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
            c.finalize();
        }
    };
}

/// Declares the benchmark binary's `main`, criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        std::env::set_var("FLEET_BENCH_TIME_MS", "5");
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        assert_eq!(c.results.len(), 1);
        assert!(c.results[0].mean_ns >= 0.0);
        assert!(c.results[0].iterations > 0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = render_json(&[BenchResult {
            name: "matmul".into(),
            mean_ns: 12.5,
            iterations: 100,
        }]);
        assert!(json.contains("\"fleet-bench-v2\""));
        assert!(json.contains("\"matmul\""));
        assert!(json.contains("\"fleet_num_threads\""));
        assert!(json.contains("\"isa_features\""));
        assert!(json.contains("\"available_parallelism\""));
        assert!(json.contains("\"fan_out_inline\""));
        assert!(json.ends_with("}\n"));
    }
}
