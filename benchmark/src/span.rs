//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, task}`. Spans sit in a
//! preallocated buffer and are written out when the run ends. A span's self
//! time is its duration minus the time its children cover. A *mirror* child
//! (a replica component fed the handler's inputs right after the handler
//! returned) lies outside its parent's interval; it is a child by
//! attribution, and its whole duration counts as covered.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The task (its submit's position in the schedule) the span belongs to.
    pub task: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans, or — disabled — nothing at all, so the same driver runs
/// traced and untraced and the difference is the tracing overhead.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool, capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            enabled,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`Tracer::close`] ends; returns its index.
    pub fn open(&mut self, name: &'static str, parent: u32, task: u32) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            task,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        if self.enabled {
            self.spans[span as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let task = self.spans[parent as usize].task;
        let span = self.open(name, parent, task);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"task\":{}}}",
                span.name, span.start_ns, span.end_ns, span.task
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: duration minus the length of the union of its
/// children's intervals (children may overlap each other; a mirror child
/// lies outside the parent and still counts in full), floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            children[span.parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            task: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = [
            span("exchange", 0, 100, NO_PARENT),
            // Two overlapping children cover 10..50, a third 60..70.
            span("decode", 10, 40, 0),
            span("handler", 30, 50, 0),
            span("encode", 60, 70, 0),
            // A grandchild inside the handler.
            span("core", 35, 45, 2),
            // A mirror child of the handler, recorded after it returned.
            span("mirror", 50, 55, 2),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - (40 + 10));
        assert_eq!(own[1], 30);
        assert_eq!(own[2], 20 - (10 + 5));
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 10);
        assert_eq!(own[5], 5);
    }

    #[test]
    fn children_longer_than_the_parent_floor_at_zero() {
        let spans = [span("handler", 0, 10, NO_PARENT), span("mirror", 10, 30, 0)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, 16);
        let root = tracer.open("exchange", NO_PARENT, 0);
        assert_eq!(tracer.child("inner", root, || 7), 7);
        tracer.close(root);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn children_nest_inside_their_parent() {
        let mut tracer = Tracer::new(true, 16);
        let root = tracer.open("exchange", NO_PARENT, 3);
        tracer.child("inner", root, || std::hint::black_box(1 + 1));
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].task, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
