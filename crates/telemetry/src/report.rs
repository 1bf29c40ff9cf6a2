//! The `fleet-bench-v2` JSON writer.
//!
//! The criterion shim (`crates/compat/criterion`) introduced the schema:
//! a top-level `"schema": "fleet-bench-v2"`, a `meta` object describing the
//! recording configuration, and a `benchmarks` array whose entries carry at
//! least `name` / `mean_ns` / `iterations`. This writer emits the same
//! shape — so `scripts/bench_compare.py` diffs harness artifacts and
//! criterion artifacts with one code path — and extends entries with the
//! v2 telemetry fields (percentiles, queue depths, per-shard apply rates,
//! resource usage). The full field catalogue is frozen in this crate's
//! README; removing or renaming a field there is a schema break and needs a
//! version bump.

use std::fmt::Write as _;

/// A typed extended-field value of a benchmark entry.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (counts, nanoseconds, bytes).
    U64(u64),
    /// A float (rates, seconds).
    F64(f64),
    /// A string.
    Str(String),
    /// An array of unsigned integers.
    U64Array(Vec<u64>),
    /// An array of floats.
    F64Array(Vec<f64>),
}

impl FieldValue {
    fn render(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) => render_f64(out, *v),
            FieldValue::Str(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            FieldValue::U64Array(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{v}");
                }
                out.push(']');
            }
            FieldValue::F64Array(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_f64(out, *v);
                }
                out.push(']');
            }
        }
    }
}

/// Floats render with enough precision to round-trip rates, and non-finite
/// values (which JSON cannot carry) degrade to 0.
fn render_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.3}");
    } else {
        out.push('0');
    }
}

/// One `benchmarks[]` entry: the mandatory v1 triple plus ordered extended
/// fields.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Benchmark name (e.g. `fleet_load/workers=64/conns=8`).
    pub name: String,
    /// Mean latency of the primary metric, nanoseconds.
    pub mean_ns: f64,
    /// Samples behind `mean_ns`.
    pub iterations: u64,
    /// Extended v2 fields, rendered in insertion order.
    pub fields: Vec<(String, FieldValue)>,
}

impl BenchEntry {
    /// An entry with no extended fields yet.
    pub fn new(name: impl Into<String>, mean_ns: f64, iterations: u64) -> Self {
        Self {
            name: name.into(),
            mean_ns,
            iterations,
            fields: Vec::new(),
        }
    }

    /// Appends an extended field.
    pub fn field(&mut self, key: impl Into<String>, value: FieldValue) -> &mut Self {
        self.fields.push((key.into(), value));
        self
    }
}

/// A complete `fleet-bench-v2` document.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Meta entries as `(key, raw JSON value)`, rendered in order.
    meta: Vec<(String, String)>,
    /// Benchmark entries, rendered in order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// An empty report carrying the standard recording-configuration meta
    /// block the criterion shim writes (`fleet_num_threads`,
    /// `available_parallelism`, `fan_out_inline`), so artifacts from
    /// different hosts/configurations identify themselves.
    pub fn with_standard_meta() -> Self {
        let mut report = BenchReport::default();
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let effective_threads = std::env::var("FLEET_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(parallelism);
        report.meta_raw("fleet_num_threads", json_env("FLEET_NUM_THREADS"));
        report.meta_raw("available_parallelism", parallelism.to_string());
        report.meta_raw("fan_out_inline", (effective_threads <= 1).to_string());
        report
    }

    /// Appends a string-valued meta entry (escaped).
    pub fn meta_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.meta_raw(key, format!("\"{}\"", json_escape(value)))
    }

    /// Appends a meta entry whose value is already a JSON fragment.
    pub fn meta_raw(&mut self, key: &str, raw: impl Into<String>) -> &mut Self {
        self.meta.push((key.to_string(), raw.into()));
        self
    }

    /// Appends a benchmark entry.
    pub fn push(&mut self, entry: BenchEntry) -> &mut Self {
        self.entries.push(entry);
        self
    }

    /// Renders the document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"fleet-bench-v2\",\n  \"meta\": {\n");
        for (i, (key, raw)) in self.meta.iter().enumerate() {
            let comma = if i + 1 == self.meta.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{}\": {raw}{comma}", json_escape(key));
        }
        out.push_str("  },\n  \"benchmarks\": [\n");
        for (i, entry) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"iterations\": {}",
                json_escape(&entry.name),
                if entry.mean_ns.is_finite() {
                    entry.mean_ns
                } else {
                    0.0
                },
                entry.iterations
            );
            for (key, value) in &entry.fields {
                let _ = write!(out, ", \"{}\": ", json_escape(key));
                value.render(&mut out);
            }
            let _ = writeln!(out, "}}{comma}");
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders and writes the document to `path`.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
pub fn json_escape(s: &str) -> String {
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

/// An environment variable as a JSON fragment: the quoted value, or `null`.
fn json_env(name: &str) -> String {
    match std::env::var(name) {
        Ok(v) => format!("\"{}\"", json_escape(&v)),
        Err(_) => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_schema_meta_and_extended_fields() {
        let mut report = BenchReport::with_standard_meta();
        report.meta_str("harness", "fleet-loadgen");
        let mut entry = BenchEntry::new("fleet_load/workers=64", 1234.5, 100);
        entry.field("p50_ns", FieldValue::U64(1000));
        entry.field("p99_ns", FieldValue::U64(2000));
        entry.field("shard_apply_rates_per_sec", FieldValue::F64Array(vec![1.5]));
        report.push(entry);
        let json = report.render();
        assert!(json.contains("\"schema\": \"fleet-bench-v2\""));
        assert!(json.contains("\"fleet_num_threads\""));
        assert!(json.contains("\"fan_out_inline\""));
        assert!(json.contains("\"harness\": \"fleet-loadgen\""));
        assert!(json.contains("\"p50_ns\": 1000"));
        assert!(json.contains("\"shard_apply_rates_per_sec\": [1.500]"));
        assert!(json.contains("\"mean_ns\": 1234.5"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_floats_render_as_zero() {
        let mut entry = BenchEntry::new("x", f64::NAN, 0);
        entry.field("rate", FieldValue::F64(f64::INFINITY));
        let mut report = BenchReport::default();
        report.push(entry);
        let json = report.render();
        assert!(json.contains("\"mean_ns\": 0.0"));
        assert!(json.contains("\"rate\": 0"));
    }
}
