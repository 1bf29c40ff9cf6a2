//! What the benchmark reads from the host: process CPU time, peak resident
//! set, a fixed calibration loop, and the facts recorded in the meta block.

use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds this process (all threads, including ones that
/// already exited) has consumed. `/proc/self/stat` reports the same in 10 ms
/// ticks, which is too coarse for a pass of a second or two.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines (checked by the cfg above), and RUSAGE_SELF
    // (0) is a valid `who`; the call writes only inside the struct.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid pointer"
    );
    let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    seconds(&usage.utime) + seconds(&usage.stime)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds a fixed integer spin loop takes right now (best of twenty).
/// Timed before and after a workload: the loop's work never changes, so a
/// different reading means the host, not the code, changed speed.
pub fn calibration_ms() -> f64 {
    let mut best = f64::INFINITY;
    for round in 0..20u64 {
        let started = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ round;
        for i in 0..4_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            x ^= x >> 29;
        }
        std::hint::black_box(x);
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The host facts a reader needs to judge whether two result sets compare.
pub fn meta_fields() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut isa = vec![fleet_ml::kernels::Isa::active().name().to_string()];
    #[cfg(target_arch = "x86_64")]
    {
        for (name, present) in [
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                isa.push(name.to_string());
            }
        }
    }
    vec![
        ("nproc", nproc.to_string()),
        (
            "fleet_parallel_max_threads",
            fleet_parallel::max_threads().to_string(),
        ),
        ("isa", isa.join(",")),
        // run.sh exports it; the driver's checkout is not a git repository.
        (
            "commit",
            std::env::var("FLEETBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
        ),
    ]
}
