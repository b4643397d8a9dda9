//! The metric catalogue, the report file, the driver's result line, and
//! `compare`.
//!
//! Three classes of metric:
//!
//! * **end-to-end** — what a user of the system sees, measured untraced
//!   on every workload, each with a regression bound (`BENCHMARK.json`
//!   `end_to_end`);
//! * **workload-specific** — user-visible too and measured untraced, but
//!   defined on some workloads only (write latency needs writes), so they
//!   cannot sit in the driver's one-list-for-all-workloads `end_to_end`;
//!   they are listed with the per-layer metrics and `compare` applies
//!   their bounds;
//! * **per-layer** — from the traced ladder replay.

use crate::fingerprint::Fingerprint;
use crate::gen::Workload::{self, ColdStart, DurableIngest, UpdateMix, WarmExplore};
use crate::stats::Summary;
use serde::{Deserialize, Serialize};

/// Which run measures a metric and where it is listed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Untraced, every workload, bounded.
    EndToEnd,
    /// Untraced, some workloads.
    Specific,
    /// Traced ladder replay.
    Layer,
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed everywhere.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of "better".
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen
    /// before `compare` calls it regressed; `Some(0.0)` means "must be 0".
    pub bound: Option<f64>,
    /// Class.
    pub class: Class,
    /// The workloads that measure it. A run of one of them that comes
    /// back without the metric, or with a value that is not finite, has
    /// failed; on the others the metric does not exist.
    pub on: &'static [Workload],
    /// An exact count made by the program: reported from rep 0 (whose
    /// stream the seed fixes) instead of as a median over however many
    /// reps fit the time budget, so that it repeats exactly.
    pub exact: bool,
}

impl MetricDef {
    /// Whether a run of `workload`, traced or not, measures the metric.
    pub fn measured_by(&self, workload: Workload, traced: bool) -> bool {
        self.on.contains(&workload) && (traced || self.class != Class::Layer)
    }
}

const ALL: &[Workload] = &Workload::ALL;
const SQL: &[Workload] = &[ColdStart, WarmExplore, UpdateMix];
const COLD: &[Workload] = &[ColdStart];
const WARM: &[Workload] = &[WarmExplore];
const UPDATE: &[Workload] = &[UpdateMix];
const DURABLE: &[Workload] = &[DurableIngest];

const fn def(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: Option<f64>,
    class: Class,
    on: &'static [Workload],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound,
        class,
        on,
        exact: false,
    }
}

const fn end_to_end(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    def(name, unit, higher, Some(bound), Class::EndToEnd, ALL)
}

/// Lower is better for every workload-specific metric.
const fn specific(
    name: &'static str,
    unit: &'static str,
    bound: Option<f64>,
    on: &'static [Workload],
) -> MetricDef {
    def(name, unit, false, bound, Class::Specific, on)
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    on: &'static [Workload],
) -> MetricDef {
    def(name, unit, higher_is_better, None, Class::Layer, on)
}

const fn count(name: &'static str, on: &'static [Workload]) -> MetricDef {
    MetricDef {
        exact: true,
        ..layer(name, "count", false, on)
    }
}

/// The bound of every timing, end-to-end or workload-specific: the
/// driver's maximum. Two A/A sets of the same binary eleven minutes apart
/// differed by up to a fifth on this host (the table is in `README.md`),
/// so one rule serves them all; a tighter bound on some would call the
/// host's drift a regression.
const TIMING: f64 = 0.25;

/// Every metric the benchmark can print.
pub const METRICS: &[MetricDef] = &[
    end_to_end("setup_s", "s", false, TIMING),
    end_to_end("ops_per_s", "1/s", true, TIMING),
    end_to_end("read_p50_us", "us", false, TIMING),
    end_to_end("read_p99_us", "us", false, TIMING),
    end_to_end("first_query_ms", "ms", false, TIMING),
    end_to_end("peak_rss_per_user_byte", "ratio", false, 0.10),
    specific(
        "write_p50_us",
        "us",
        Some(TIMING),
        &[UpdateMix, DurableIngest],
    ),
    specific("write_p99_us", "us", Some(TIMING), DURABLE),
    specific("delete_p50_ms", "ms", Some(TIMING), UPDATE),
    specific("checkpoint_p50_ms", "ms", Some(TIMING), DURABLE),
    specific("recover_ms", "ms", Some(TIMING), DURABLE),
    specific("disk_bytes_per_user_byte", "ratio", Some(0.01), DURABLE),
    specific("failed_ops_ratio", "ratio", Some(0.0), ALL),
    specific("lost_acked_writes", "count", Some(0.0), DURABLE),
    specific("cracker_core.scan_equiv_ms", "ms", None, COLD),
    specific("cracker_core.first_query_over_scan", "ratio", None, COLD),
    specific("cracker_core.breakeven_query", "query", None, COLD),
    layer("sql.parser.ns_per_stmt", "ns", false, SQL),
    layer("sql.lower.ns_per_stmt", "ns", false, SQL),
    layer("sql.exec.count.self_us_p50", "us", false, SQL),
    layer("sql.exec.sideways.self_us_p50", "us", false, WARM),
    layer("sql.exec.star.self_us_p50", "us", false, WARM),
    layer("sql.exec.conjunct.self_us_p50", "us", false, WARM),
    layer("sql.exec.rows_out_per_s", "rows/s", true, SQL),
    layer("sql.exec.insert_us_p50", "us", false, UPDATE),
    layer("sql.exec.delete_ms_p50", "ms", false, UPDATE),
    layer("sql.exec.select_after_delete_ms_p50", "ms", false, UPDATE),
    count("sql.exec.rebuilds", SQL),
    layer("engine.db.select_us_p50", "us", false, ALL),
    layer("engine.db.self_us_p50", "us", false, ALL),
    layer("engine.db.append_rows_us_p50", "us", false, UPDATE),
    layer("engine.db.stage_batch_us_p50", "us", false, DURABLE),
    layer("engine.db.stage_batch_nolog_us_p50", "us", false, DURABLE),
    layer("engine.db.recover_ms", "ms", false, DURABLE),
    layer(
        "engine.db.first_query_after_recover_us",
        "us",
        false,
        DURABLE,
    ),
    layer("cracker_core.column.select_ns_p50", "ns", false, ALL),
    layer("cracker_core.column.select_ns_p99", "ns", false, ALL),
    layer("cracker_core.column.first_touch_ms", "ms", false, ALL),
    layer("cracker_core.concurrent.select_ns_p50", "ns", false, ALL),
    count("cracker_core.cracks", ALL),
    count("cracker_core.tuples_touched", ALL),
    count("cracker_core.tuples_moved", ALL),
    count("cracker_core.edge_scanned", ALL),
    count("cracker_core.merges", ALL),
    count("cracker_core.fusions", ALL),
    count("cracker_core.pieces_final", ALL),
    MetricDef {
        exact: true,
        ..layer("cracker_core.touched_per_result_row", "ratio", false, ALL)
    },
    layer("storage.wal.append_sync_us_p50", "us", false, DURABLE),
    layer("storage.wal.bytes_per_user_byte", "ratio", false, DURABLE),
    layer("storage.checkpoint.dirty_ms_p50", "ms", false, DURABLE),
    layer("storage.checkpoint.clean_ms", "ms", false, DURABLE),
    layer(
        "storage.checkpoint.bytes_per_cycle",
        "bytes",
        false,
        DURABLE,
    ),
    layer("trace.overhead_ratio", "ratio", true, ALL),
];

/// Look a metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// One metric of one workload, as stored in a result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Summary over reps.
    pub summary: Summary,
}

/// One workload's results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced ladder run.
    pub traced: bool,
    /// Whether sizes were shrunk by `--quick`.
    pub quick: bool,
    /// Ops handed to the program, over all reps.
    pub attempted: u64,
    /// Ops that errored or were answered wrongly.
    pub failed: u64,
    /// Hash of rep 0's op stream.
    pub stream_hash: String,
    /// Every metric the run measured, in catalogue order.
    pub metrics: Vec<MetricRow>,
}

impl WorkloadReport {
    /// The summary of `metric`, if the run measured it.
    pub fn get(&self, metric: &str) -> Option<&Summary> {
        self.metrics
            .iter()
            .find(|m| m.name == metric)
            .map(|m| &m.summary)
    }
}

/// A result file: what `--out` writes and `compare` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Machine fingerprint of the run.
    pub fingerprint: Fingerprint,
    /// Results, one entry per workload.
    pub workloads: Vec<WorkloadReport>,
}

/// The one-line JSON object the driver reads: every end-to-end metric
/// after an untraced run, every other metric after a traced one. The
/// driver wants one fixed key set, so a metric that does not exist on the
/// workload (see [`MetricDef::on`]) reads 0 there; the report file omits
/// it instead. A metric that was due and is missing or not finite reads
/// `null`: `run_workload` has counted it as a failure, and no number is
/// made up for it. Written by hand: the vendored `serde` renders maps as
/// pair lists, and the driver wants an object.
pub fn driver_line(r: &WorkloadReport) -> String {
    let workload = Workload::parse(&r.name);
    let metrics: Vec<String> = METRICS
        .iter()
        .filter(|m| (m.class == Class::EndToEnd) != r.traced)
        .map(|m| {
            let due = workload.is_some_and(|w| m.on.contains(&w));
            let value = match r.get(m.name).map(|s| s.median) {
                Some(v) if v.is_finite() => format!("{v:?}"),
                None if !due => "0.0".to_string(),
                _ => "null".to_string(),
            };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

/// Print every measured metric by name and unit.
pub fn print_table(r: &WorkloadReport) {
    println!(
        "# {}  seed={} traced={} quick={} attempted={} failed={} stream={}",
        r.name, r.seed, r.traced, r.quick, r.attempted, r.failed, r.stream_hash
    );
    println!(
        "{:<44} {:>8} {:>16} {:>16} {:>16} {:>5} {:>8}",
        "metric", "unit", "median", "min", "max", "reps", "samples"
    );
    for MetricRow {
        name,
        unit,
        summary: s,
    } in &r.metrics
    {
        println!(
            "{name:<44} {unit:>8} {:>16.4} {:>16.4} {:>16.4} {:>5} {:>8}",
            s.median, s.min, s.max, s.reps, s.samples
        );
    }
}

/// Verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Pass,
    /// Worse by more than the bound and by more than the reps' spread.
    Regressed,
    /// The min–max over reps is wider than the bound: no call either way.
    Unresolved,
}

/// Judge `b` against baseline `a`. Returns the relative worsening
/// (positive = worse) and the verdict.
pub fn judge(def: &MetricDef, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let bound = def.bound.expect("only bounded metrics are judged");
    if bound == 0.0 {
        let verdict = if b.median > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Pass
        };
        return (b.median - a.median, verdict);
    }
    let worse = if def.higher_is_better {
        (a.median - b.median) / a.median
    } else {
        (b.median - a.median) / a.median
    };
    let spread = |s: &Summary| (s.max - s.min) / s.median;
    let noise = spread(a).max(spread(b));
    let verdict = if worse > bound.max(noise) {
        Verdict::Regressed
    } else if noise > bound {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    };
    (worse, verdict)
}

/// The workloads of `a` paired with the same workloads of `b`, or why
/// they cannot be paired: a workload that only one report ran, or that
/// the two ran differently.
fn pairs<'r>(
    a: &'r Report,
    b: &'r Report,
) -> Result<Vec<(&'r WorkloadReport, &'r WorkloadReport)>, Vec<String>> {
    let mut paired = Vec::new();
    let mut why = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            why.push(format!("{}: missing from B", wa.name));
            continue;
        };
        let runs = |w: &WorkloadReport| (w.seed, w.quick, w.traced);
        if runs(wa) != runs(wb) {
            why.push(format!(
                "{}: (seed, quick, traced) is {:?} in A and {:?} in B",
                wa.name,
                runs(wa),
                runs(wb)
            ));
        }
        paired.push((wa, wb));
    }
    for wb in &b.workloads {
        if !a.workloads.iter().any(|w| w.name == wb.name) {
            why.push(format!("{}: missing from A", wb.name));
        }
    }
    if why.is_empty() {
        Ok(paired)
    } else {
        Err(why)
    }
}

/// Compare two report files; prints one row per (metric, workload) and
/// returns the process exit code: 0 all pass or unresolved, 1 something
/// regressed or a bounded metric of A is gone from B, 2 the files are not
/// comparable.
pub fn compare(a: &Report, b: &Report) -> i32 {
    let mut diff = crate::fingerprint::mismatches(&a.fingerprint, &b.fingerprint);
    let paired = pairs(a, b).unwrap_or_else(|why| {
        diff.extend(why);
        Vec::new()
    });
    if !diff.is_empty() {
        eprintln!("refusing to compare: the reports are of different machines or runs");
        diff.iter().for_each(|d| eprintln!("  {d}"));
        return 2;
    }
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    let mut regressed = 0;
    for (wa, wb) in paired {
        for def in METRICS.iter().filter(|m| m.bound.is_some()) {
            let bound = def.bound.unwrap_or(0.0) * 100.0;
            match (wa.get(def.name), wb.get(def.name)) {
                (Some(sa), Some(sb)) => {
                    let (worse, verdict) = judge(def, sa, sb);
                    regressed += i32::from(verdict == Verdict::Regressed);
                    println!(
                        "{:<16} {:<28} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}",
                        wa.name,
                        def.name,
                        sa.median,
                        sb.median,
                        worse * 100.0,
                        bound,
                        match verdict {
                            Verdict::Pass => "pass",
                            Verdict::Regressed => "regressed",
                            Verdict::Unresolved => "unresolved",
                        }
                    );
                }
                // A metric that disappears is not a pass.
                (Some(sa), None) => {
                    regressed += 1;
                    println!(
                        "{:<16} {:<28} {:>14.4} {:>14} {:>9} {:>6.0}%  regressed (gone from B)",
                        wa.name, def.name, sa.median, "-", "-", bound
                    );
                }
                (None, Some(sb)) => println!(
                    "{:<16} {:<28} {:>14} {:>14.4} {:>9} {:>6.0}%  no baseline",
                    wa.name, def.name, "-", sb.median, "-", bound
                ),
                (None, None) => {}
            }
        }
    }
    i32::from(regressed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, min: f64, max: f64) -> Summary {
        Summary {
            median,
            min,
            max,
            reps: 5,
            samples: 100,
        }
    }

    #[test]
    fn judge_knows_direction_bound_and_spread() {
        let lower = metric("read_p50_us").unwrap();
        let higher = metric("ops_per_s").unwrap();
        let a = s(100.0, 99.0, 101.0);
        assert_eq!(judge(lower, &a, &s(105.0, 104.0, 106.0)).1, Verdict::Pass);
        assert_eq!(
            judge(lower, &a, &s(140.0, 139.0, 141.0)).1,
            Verdict::Regressed
        );
        assert_eq!(judge(lower, &a, &s(80.0, 79.0, 81.0)).1, Verdict::Pass);
        assert_eq!(
            judge(higher, &a, &s(60.0, 59.0, 61.0)).1,
            Verdict::Regressed
        );
        assert_eq!(judge(higher, &a, &s(120.0, 119.0, 121.0)).1, Verdict::Pass);
        // Reps spread wider than the bound: no call, unless the change
        // is larger than the spread too.
        assert_eq!(
            judge(lower, &a, &s(105.0, 85.0, 125.0)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(lower, &a, &s(200.0, 180.0, 230.0)).1,
            Verdict::Regressed
        );
        let zero = metric("lost_acked_writes").unwrap();
        assert_eq!(
            judge(zero, &s(0.0, 0.0, 0.0), &s(0.0, 0.0, 0.0)).1,
            Verdict::Pass
        );
        assert_eq!(
            judge(zero, &s(0.0, 0.0, 0.0), &s(1.0, 1.0, 1.0)).1,
            Verdict::Regressed
        );
    }

    fn report(read_p50: Summary) -> Report {
        let fingerprint = crate::fingerprint::collect(std::path::Path::new("."));
        let row = MetricRow {
            name: "read_p50_us".into(),
            unit: "us".into(),
            summary: read_p50,
        };
        let w = WorkloadReport {
            name: "cold_start".into(),
            seed: 1,
            traced: false,
            quick: true,
            attempted: 10,
            failed: 0,
            stream_hash: "0".into(),
            metrics: vec![row],
        };
        Report {
            fingerprint,
            workloads: vec![w],
        }
    }

    #[test]
    fn compare_refuses_other_machines_and_flags_regressions() {
        let a = report(s(100.0, 99.0, 101.0));
        assert_eq!(compare(&a, &a), 0);
        let text = serde_json::to_string(&a).unwrap();
        assert_eq!(serde_json::from_str::<Report>(&text).unwrap(), a);
        assert_eq!(compare(&a, &report(s(150.0, 149.0, 151.0))), 1);
        let mut other = a.clone();
        other.fingerprint.nproc = "1000".into();
        assert_eq!(compare(&a, &other), 2);
    }

    #[test]
    fn compare_refuses_other_runs_and_a_vanished_metric_is_a_regression() {
        let a = report(s(100.0, 99.0, 101.0));
        let change = |f: fn(&mut WorkloadReport)| {
            let mut b = a.clone();
            f(&mut b.workloads[0]);
            b
        };
        assert_eq!(compare(&a, &change(|w| w.seed = 2)), 2);
        assert_eq!(compare(&a, &change(|w| w.quick = false)), 2);
        assert_eq!(compare(&a, &change(|w| w.traced = true)), 2);
        // A workload only one side ran, whichever side.
        let renamed = change(|w| w.name = "warm_explore".into());
        assert_eq!(compare(&a, &renamed), 2);
        let mut both = a.clone();
        both.workloads.extend(renamed.workloads);
        assert_eq!(compare(&a, &both), 2);
        assert_eq!(compare(&both, &a), 2);
        assert_eq!(compare(&both, &both), 0);
        // Gone from B: regressed. New in B: nothing to judge it against.
        let emptied = change(|w| w.metrics.clear());
        assert_eq!(compare(&a, &emptied), 1);
        assert_eq!(compare(&emptied, &a), 0);
    }

    #[test]
    fn driver_line_lists_one_class_per_mode() {
        let mut r = report(s(100.0, 99.0, 101.0)).workloads.remove(0);
        let untraced = driver_line(&r);
        assert!(untraced.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
        assert!(untraced.contains("\"read_p50_us\":{\"value\":100.0,\"unit\":\"us\"}"));
        assert!(untraced.contains("\"setup_s\"") && !untraced.contains("sql.parser"));
        assert!(!untraced.contains('\n'));
        r.traced = true;
        let traced = driver_line(&r);
        assert!(!traced.contains("\"setup_s\"") && traced.contains("sql.parser.ns_per_stmt"));
        assert!(traced.contains("\"write_p50_us\""));
    }

    #[test]
    fn driver_line_makes_no_number_up() {
        let mut r = report(s(f64::NAN, 99.0, 101.0)).workloads.remove(0);
        // Due on `cold_start` and not finite, or due and not measured.
        let untraced = driver_line(&r);
        assert!(untraced.contains("\"read_p50_us\":{\"value\":null,"));
        assert!(untraced.contains("\"setup_s\":{\"value\":null,"));
        r.traced = true;
        let traced = driver_line(&r);
        assert!(traced.contains("\"cracker_core.breakeven_query\":{\"value\":null,"));
        // `cold_start` writes nothing: the metric does not exist there.
        assert!(traced.contains("\"write_p50_us\":{\"value\":0.0,"));
        assert!(traced.contains("\"lost_acked_writes\":{\"value\":0.0,"));
    }
}
