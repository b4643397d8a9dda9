//! What one rep of a workload takes and gives back, plus the sample
//! bookkeeping both runners share.

use crate::gen::{Op, Scale, Workload};
use crate::oracle::Digest;
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Failure descriptions kept per rep (the count is never capped).
const KEPT_FAILURES: usize = 8;

/// Inputs of one rep.
pub struct RepCtx<'a> {
    /// Workload to run.
    pub workload: Workload,
    /// Its sizes.
    pub scale: Scale,
    /// Seed of this rep's data and op stream.
    pub seed: u64,
    /// Rep number; offsets which ops the oracle samples.
    pub rep: u32,
    /// Test hook: falsify the oracle's answer for this op.
    pub corrupt: Option<usize>,
    /// Span sink; `Some` makes the rep a ladder replay.
    pub tracer: Option<&'a mut Tracer>,
    /// Scratch directory for durable files.
    pub tmp: &'a Path,
}

impl RepCtx<'_> {
    /// Whether read `i` is checked against the oracle: the first 64 ops
    /// of rep 0, and one in `check_every` at an offset that moves with
    /// the rep.
    pub fn checks(&self, i: usize) -> bool {
        let every = self.scale.check_every;
        (self.rep == 0 && i < 64) || i % every == self.rep as usize % every
    }
}

/// Per-rep statistics: metric name → (value, samples behind it).
pub type RepMetrics = BTreeMap<&'static str, (f64, u64)>;

/// Result of one rep.
#[derive(Debug, Default)]
pub struct RepOut {
    /// Per-rep statistic of every metric the rep measured.
    pub metrics: RepMetrics,
    /// Ops handed to the program.
    pub attempted: u64,
    /// Ops that errored, disagreed between rungs, or failed the oracle.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Bytes of user data the rep ended with (8 per cell).
    pub user_bytes: u64,
    /// Hash of the op stream (same seed, same hash).
    pub stream_hash: u64,
}

impl RepOut {
    /// Count one failed op.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }

    /// Count op `i` as attempted, and as failed if it errored or its
    /// answer differs from the oracle's (`None`: not sampled).
    pub fn verify(
        &mut self,
        i: usize,
        op: &Op,
        got: &Result<Digest, String>,
        want: Option<Digest>,
    ) {
        self.attempted += 1;
        match (got, want) {
            (Err(e), _) => self.fail(format!("op {i} {:?} errored: {e}", op.text)),
            (Ok(d), Some(w)) if *d != w => self.fail(format!(
                "op {i} {:?}: got {d:?}, oracle says {w:?}",
                op.text
            )),
            _ => {}
        }
    }

    /// Record a metric's per-rep statistic.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, (value, samples as u64));
    }
}

/// Named sample vectors collected during a rep.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Add one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The samples of `name` (empty if none were taken).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of the samples of `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    /// Emit `metric = stat(samples of name) / div` if any were taken.
    fn emit(
        &self,
        out: &mut RepOut,
        metric: &'static str,
        name: &str,
        div: f64,
        stat: impl Fn(&[f64]) -> f64,
    ) {
        let s = self.get(name);
        if !s.is_empty() {
            out.set(metric, stat(s) / div, s.len());
        }
    }

    /// Emit the median of `name`, divided by `div`, as `metric`.
    pub fn p50(&self, out: &mut RepOut, metric: &'static str, name: &str, div: f64) {
        self.emit(out, metric, name, div, median);
    }

    /// Emit the nearest-rank 99th percentile of `name`.
    pub fn p99(&self, out: &mut RepOut, metric: &'static str, name: &str, div: f64) {
        self.emit(out, metric, name, div, |s| percentile(s, 99.0));
    }

    /// Emit the mean of `name`.
    pub fn mean(&self, out: &mut RepOut, metric: &'static str, name: &str, div: f64) {
        self.emit(out, metric, name, div, mean);
    }
}

/// Time one call; returns its result and nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let (r, ns, _) = rung(&mut None, 0, "", None, f);
    (r, ns)
}

/// Time one rung call and, when tracing, record its span. Returns the
/// call's result, its nanoseconds and the span index.
pub fn rung<R>(
    tracer: &mut Option<&mut Tracer>,
    op: usize,
    layer: &'static str,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> (R, f64, Option<usize>) {
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    let idx = tracer
        .as_mut()
        .map(|t| t.record(op, layer, parent, start, end));
    (r, (end - start).as_nanos() as f64, idx)
}
