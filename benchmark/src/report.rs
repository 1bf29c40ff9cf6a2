//! What a run reports: metrics by name with their unit, the output checks,
//! and the result line the driver reads.

use crate::Args;

/// A metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Output checks by name; one false fails the run.
    pub checks: Vec<(String, bool)>,
    /// Facts printed beside the metrics (digests, sample counts, accuracy).
    pub notes: Vec<(String, String)>,
    /// Tasks the run attempted and tasks that did not end in an `Applied` ack.
    pub attempted: u64,
    pub failed: u64,
    /// The fixed spin loop timed before and after the workload, ms.
    pub calibration_ms: (f64, f64),
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, name: &str, holds: bool) {
        self.checks.push((name.to_string(), holds));
    }

    pub fn note(&mut self, name: &str, value: impl ToString) {
        self.notes.push((name.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, holds)| *holds)
    }

    /// A workload whose two calibrations differ by more than a tenth ran on
    /// a host that changed speed under it: discard the set, do not read a
    /// regression into it.
    pub fn noisy(&self) -> bool {
        let (before, after) = self.calibration_ms;
        (before - after).abs() > 0.10 * before.min(after)
    }

    /// Prints the readable block, then the result line.
    pub fn print(&self, args: &Args) {
        println!(
            "workload {} seed {} trace {}",
            args.workload.name,
            args.seed,
            u8::from(args.trace)
        );
        for (key, value) in crate::host::meta_fields() {
            println!("  meta {key} = {value}");
        }
        println!(
            "  meta calibration_ms_before = {:.4}\n  meta calibration_ms_after = {:.4}\n  meta noisy = {}",
            self.calibration_ms.0,
            self.calibration_ms.1,
            self.noisy()
        );
        for (name, value) in &self.notes {
            println!("  note {name} = {value}");
        }
        for metric in &self.metrics {
            println!(
                "  metric {} = {} {}",
                metric.name,
                number(metric.value),
                metric.unit
            );
        }
        for (name, holds) in &self.checks {
            println!("  check {name}: {}", if *holds { "ok" } else { "FAILED" });
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with all the digits measured (never NaN or infinite).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}
