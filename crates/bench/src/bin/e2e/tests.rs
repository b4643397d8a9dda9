//! End-to-end tests of the benchmark itself, on `--quick` sizes.

use crate::gen::Workload;
use crate::report::{Class, WorkloadReport, METRICS};
use crate::run::{run_workload, RunCfg};
use serde::Deserialize;
use std::collections::BTreeSet;

fn quick(workload: Workload, trace: bool, corrupt: Option<usize>) -> WorkloadReport {
    run_workload(&RunCfg {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        quick: true,
        corrupt,
        trace_out: None,
        tmp: crate::scratch_dir(),
    })
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Bounded {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct Unbounded {
    name: String,
    unit: String,
    better: String,
}

/// `BENCHMARK.json`, as far as these tests read it.
#[derive(Deserialize)]
struct Contract {
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Named>,
    end_to_end: Vec<Bounded>,
    per_layer: Vec<Unbounded>,
}

/// `BENCHMARK.json` sits at the repository root, some levels above
/// whichever manifest built this binary.
fn contract() -> Contract {
    let start = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = start
        .ancestors()
        .map(|dir| dir.join("BENCHMARK.json"))
        .find(|p| p.is_file())
        .expect("BENCHMARK.json above the manifest directory");
    let text = std::fs::read_to_string(path).expect("readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn every_quick_run_passes_the_oracle_and_emits_exactly_its_metrics() {
    let well_formed = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut emitted = BTreeSet::new();
    for w in Workload::ALL {
        assert!(well_formed(w.name()));
        let mut hash = None;
        for traced in [false, true] {
            let report = quick(w, traced, None);
            assert_eq!(report.failed, 0, "{} traced={traced}", w.name());
            assert!(report.attempted > 0);
            let first = hash.get_or_insert_with(|| report.stream_hash.clone());
            assert_eq!(*first, report.stream_hash);
            // What the catalogue says the workload measures, no more, no
            // less, and every value a number.
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let due: Vec<&str> = METRICS
                .iter()
                .filter(|m| m.measured_by(w, traced))
                .map(|m| m.name)
                .collect();
            assert_eq!(names, due, "{} traced={traced}", w.name());
            for m in &report.metrics {
                let v = m.summary.median;
                assert!(v.is_finite(), "{} {}", w.name(), m.name);
                let end_to_end = METRICS
                    .iter()
                    .any(|d| d.name == m.name && d.class == Class::EndToEnd);
                assert!(!end_to_end || v > 0.0, "{} {}", w.name(), m.name);
            }
            emitted.extend(names.into_iter().map(str::to_owned));
        }
    }
    let catalogue: BTreeSet<String> = METRICS.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(
        catalogue.len(),
        METRICS.len(),
        "a metric name is used twice"
    );
    assert!(catalogue.iter().all(|n| well_formed(n)));
    assert_eq!(emitted, catalogue);
}

#[test]
fn the_catalogue_is_the_contract() {
    let c = contract();
    assert_eq!(c.paths, ["crates/bench/src/bin/e2e"]);
    assert_eq!(c.run_seconds as f64, crate::DEFAULT_SECONDS);
    let names: Vec<&str> = c.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let end_to_end: Vec<_> = METRICS
        .iter()
        .filter(|m| m.class == Class::EndToEnd)
        .map(|m| (m.name, m.unit, better(m.higher_is_better), m.bound))
        .collect();
    let listed: Vec<_> = c
        .end_to_end
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                m.unit.as_str(),
                m.better.as_str(),
                Some(m.bound),
            )
        })
        .collect();
    assert_eq!(listed, end_to_end);
    let allowed = |m: &Bounded| m.bound > 0.0 && m.bound <= 0.25;
    assert!(c.end_to_end.iter().all(allowed));
    let per_layer: Vec<_> = METRICS
        .iter()
        .filter(|m| m.class != Class::EndToEnd)
        .map(|m| (m.name, m.unit, better(m.higher_is_better)))
        .collect();
    let listed: Vec<_> = c
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
        .collect();
    assert_eq!(listed, per_layer);
}

#[test]
fn a_corrupted_oracle_answer_fails_the_run() {
    let report = quick(Workload::WarmExplore, false, Some(5));
    assert_eq!(report.failed, 1);
    assert!(report
        .get("failed_ops_ratio")
        .is_some_and(|s| s.median > 0.0));
    assert!(crate::report::driver_line(&report).starts_with("{\"correct\":false,"));
    if !crate::fingerprint::knobs_set().is_empty() {
        // CI also runs the suite under CRACKER_KERNEL / DBCRACKER_EXEC,
        // where the binary rightly refuses to start.
        return;
    }
    let run = |extra: &[&str]| {
        let mut a = args(&["--workload", "cold_start", "--quick", "--seed", "3"]);
        a.extend(args(extra));
        crate::run(&a)
    };
    assert_eq!(run(&[]), 0);
    assert_eq!(run(&["--corrupt-oracle", "3"]), 1);
}

#[test]
fn bad_command_lines_are_refused() {
    assert_eq!(crate::run(&args(&["--workload", "nope"])), 2);
    assert_eq!(crate::run(&args(&["--seconds", "0"])), 2);
    assert_eq!(crate::run(&args(&["--frobnicate"])), 2);
    assert_eq!(crate::run(&args(&["compare", "only-one.json"])), 2);
    let parsed = crate::parse_args(&args(&[
        "--trace", "0", "--seed", "9", "--trace", "--quick",
    ]));
    let parsed = parsed.expect("well-formed");
    assert!(parsed.trace && parsed.quick && parsed.seed == 9);
    assert!(!crate::parse_args(&args(&["--trace", "0"])).unwrap().trace);
    assert!(crate::parse_args(&args(&["--trace", "1"])).unwrap().trace);
}
