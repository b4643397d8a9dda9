//! Spans recorded by the benchmark's own files around each rung call.
//!
//! The program has no internal spans yet, so a traced run replays every
//! op at each ladder depth and records one span per call. Spans stay in
//! memory and are written as JSON lines when the run ends. The spans of
//! one op share its `op` id; `parent` is the index (within the rep) of
//! the span one rung up, whose call this one re-enacts.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into one layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Rep the op belongs to.
    pub rep: u32,
    /// Index of the op in the rep's stream.
    pub op: u32,
    /// Layer (rung) name.
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the parent span in this tracer, if any.
    pub parent: Option<usize>,
}

/// In-memory span sink.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Rep currently being recorded.
    pub rep: u32,
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            rep: 0,
        }
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        op: usize,
        layer: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            rep: self.rep,
            op: op as u32,
            layer,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            parent,
        });
        self.spans.len() - 1
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append the spans to `path` as JSON lines tagged with `workload`.
    pub fn append_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"workload\":\"{workload}\",\"rep\":{},\"op_id\":{},\"layer\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.rep, s.op, s.layer, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}
