//! One workload, rep after rep from fresh state, summarized over reps.

use crate::gen::Workload;
use crate::rep::{RepCtx, RepOut};
use crate::report::{metric, Class, MetricRow, WorkloadReport, METRICS};
use crate::stats::{median, summarize, Summary};
use crate::trace::Tracer;
use crate::{durable, sqlrun};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fewest reps a median is taken over, however short the time budget:
/// untraced, and of the (three to four times longer) ladder replay.
const MIN_REPS: u32 = 3;
const MIN_TRACED_REPS: u32 = 2;
/// Reps of a `--quick` run (sizes and rep count fixed, budget ignored).
const QUICK_REPS: u32 = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload.
    pub workload: Workload,
    /// Workload seed; rep `r` derives its own stream from `(seed, r)`.
    pub seed: u64,
    /// Time budget: new reps start while less than this has elapsed.
    pub seconds: f64,
    /// Run the traced ladder replay (after an untraced half).
    pub trace: bool,
    /// Shrunk sizes (every op checked against the oracle), two reps.
    pub quick: bool,
    /// Test hook: falsify the oracle's answer to this op of rep 0.
    pub corrupt: Option<usize>,
    /// Where to append the spans of a traced run.
    pub trace_out: Option<PathBuf>,
    /// Scratch directory for durable files.
    pub tmp: PathBuf,
}

/// Run reps until `budget` has elapsed, and at least the minimum.
fn run_reps(cfg: &RunCfg, budget: Duration, mut tracer: Option<&mut Tracer>) -> Vec<RepOut> {
    let start = Instant::now();
    let min_reps = if tracer.is_some() {
        MIN_TRACED_REPS
    } else {
        MIN_REPS
    };
    let mut reps = Vec::new();
    loop {
        let rep = reps.len() as u32;
        let enough = if cfg.quick {
            rep >= QUICK_REPS
        } else {
            rep >= min_reps && start.elapsed() >= budget
        };
        if enough {
            return reps;
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.rep = rep;
        }
        let mut ctx = RepCtx {
            workload: cfg.workload,
            scale: cfg.workload.scale(cfg.quick),
            // Distinct seeds give disjoint rep seeds (far fewer than
            // 1000 reps fit any budget).
            seed: cfg.seed.wrapping_mul(1000).wrapping_add(u64::from(rep)),
            rep,
            corrupt: cfg.corrupt.filter(|_| rep == 0),
            tracer: tracer.as_deref_mut(),
            tmp: &cfg.tmp,
        };
        let out = match cfg.workload {
            Workload::DurableIngest => durable::run(&mut ctx),
            _ => sqlrun::run(&mut ctx),
        };
        for f in &out.failures {
            eprintln!("e2e: {} rep {rep}: {f}", cfg.workload.name());
        }
        reps.push(out);
    }
}

/// Summarize every metric the reps measured.
fn summarize_reps(reps: &[RepOut]) -> BTreeMap<String, Summary> {
    let mut names: Vec<&'static str> = reps
        .iter()
        .flat_map(|r| r.metrics.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let per_rep: Vec<(f64, u64)> = reps
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let mut s = summarize(&per_rep);
            if metric(name).is_some_and(|m| m.exact) {
                if let Some(&(v, _)) = reps[0].metrics.get(name) {
                    s.median = v;
                }
            }
            (name.to_string(), s)
        })
        .collect()
}

fn single(value: f64, samples: u64) -> Summary {
    Summary {
        median: value,
        min: value,
        max: value,
        reps: 1,
        samples,
    }
}

/// Peak resident set of this process (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

/// Run one workload and summarize it.
pub fn run_workload(cfg: &RunCfg) -> WorkloadReport {
    std::fs::create_dir_all(&cfg.tmp).expect("the scratch directory can be created");
    let budget = Duration::from_secs_f64(if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    });
    let untraced = run_reps(cfg, budget, None);
    let mut metrics = summarize_reps(&untraced);
    // Process-wide, so only meaningful before any mirror is built.
    let user_bytes: Vec<f64> = untraced.iter().map(|r| r.user_bytes as f64).collect();
    if let Some(rss) = peak_rss_bytes() {
        let ratio = rss / median(&user_bytes);
        metrics.insert("peak_rss_per_user_byte".into(), single(ratio, 1));
    }
    let mut all: Vec<&RepOut> = untraced.iter().collect();

    let traced_reps;
    if cfg.trace {
        let mut tracer = Tracer::new();
        traced_reps = run_reps(cfg, budget, Some(&mut tracer));
        let traced = summarize_reps(&traced_reps);
        if let (Some(t), Some(u)) = (traced.get("ops_per_s"), metrics.get("ops_per_s")) {
            let ratio = t.median / u.median;
            metrics.insert("trace.overhead_ratio".into(), single(ratio, 1));
        }
        // The ladder's numbers come from the traced reps; everything a
        // user sees keeps its untraced value.
        for (name, s) in traced {
            if metric(&name).is_some_and(|m| m.class == Class::Layer) {
                metrics.insert(name, s);
            }
        }
        if let Some(path) = &cfg.trace_out {
            if let Err(e) = tracer.append_jsonl(path, cfg.workload.name()) {
                eprintln!("e2e: cannot write {}: {e}", path.display());
            }
        }
        eprintln!(
            "e2e: {} traced: {} spans over {} reps",
            cfg.workload.name(),
            tracer.spans().len(),
            traced_reps.len()
        );
        all.extend(&traced_reps);
    }

    let mut attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = all.iter().map(|r| r.failed).sum();
    // A metric that was due and is missing or not finite is a failure,
    // not a zero: on a lower-is-better metric a gap would read as a gain.
    for m in METRICS
        .iter()
        .filter(|m| m.name != "failed_ops_ratio" && m.measured_by(cfg.workload, cfg.trace))
    {
        if !metrics.get(m.name).is_some_and(|s| s.median.is_finite()) {
            eprintln!("e2e: {}: no finite {}", cfg.workload.name(), m.name);
            attempted += 1;
            failed += 1;
        }
    }
    let ratio = failed as f64 / attempted.max(1) as f64;
    metrics.insert("failed_ops_ratio".into(), single(ratio, attempted));
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    let metrics = METRICS
        .iter()
        .filter_map(|m| {
            Some(MetricRow {
                name: m.name.to_string(),
                unit: m.unit.to_string(),
                summary: metrics.remove(m.name)?,
            })
        })
        .collect();
    WorkloadReport {
        name: cfg.workload.name().to_string(),
        seed: cfg.seed,
        traced: cfg.trace,
        quick: cfg.quick,
        attempted,
        failed,
        stream_hash: format!("{:016x}", untraced[0].stream_hash),
        metrics,
    }
}
