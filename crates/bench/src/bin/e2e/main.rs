//! `e2e` — the repository's end-to-end benchmark: SQL text in, rows out,
//! four workloads, a layer ladder. `README.md` beside this file is the
//! manual; `BENCHMARK.json` at the repository root is the contract.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! e2e --seed N [--trace] [--quick] [--out FILE] [--trace-out FILE]   all four, one child process each
//! e2e compare A.json B.json                              A/A or parent/change check against the bounds
//! ```
//!
//! The last line of standard output of a one-workload run is one JSON
//! object `{correct, attempted, failed, metrics}`. The exit code is
//! non-zero on any wrong answer, error or lost write.

mod adapter;
mod durable;
mod fingerprint;
mod gen;
mod ladder;
mod oracle;
mod rep;
mod report;
mod run;
mod sqlrun;
mod stats;
mod trace;

use gen::Workload;
use report::Report;
use run::RunCfg;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default time budget of one workload, seconds (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

/// glibc's allocator serves a big buffer either from fresh `mmap`ed pages
/// or from recycled heap, and which one depends on where some small
/// allocation happens to sit: on this benchmark the seed alone flipped
/// `first_query_ms` between 23 and 54 ms, the same in every rep of a
/// process. Pinning the `mmap` threshold makes every buffer of 1 MiB or
/// more fresh pages returned on free — what a cold start really gets —
/// in every run. `main` re-executes itself once with this set; the
/// value is in the fingerprint.
pub const MALLOC_PIN: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "1048576");

const USAGE: &str = "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
[--quick] [--out FILE] [--trace-out FILE] [--corrupt-oracle OP]\n       e2e compare A.json B.json";

/// Parsed command line of a run.
#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    corrupt: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
        trace_out: None,
        corrupt: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => parsed.out = Some(value("a path")?.into()),
            "--trace-out" => parsed.trace_out = Some(value("a path")?.into()),
            "--corrupt-oracle" => {
                parsed.corrupt = Some(
                    value("an op index")?
                        .parse()
                        .map_err(|e| format!("{flag}: {e}"))?,
                );
            }
            "--quick" => parsed.quick = true,
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

/// A scratch directory of this run's own, beside the executable: inside
/// the build directory, so inside the checkout and already ignored.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let base = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    base.join("e2e-tmp")
        .join(format!("{}-{id}", std::process::id()))
}

fn read_report(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_report(path: &Path, report: &Report) -> Result<(), String> {
    let text = serde_json::to_string(report).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in this process.
fn run_one(workload: Workload, args: &Args) -> i32 {
    let tmp = scratch_dir();
    let cfg = RunCfg {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        corrupt: args.corrupt,
        trace_out: args.trace_out.clone(),
        tmp: tmp.clone(),
    };
    let fingerprint = fingerprint::collect(tmp.parent().unwrap_or(Path::new(".")));
    let result = run::run_workload(&cfg);
    report::print_table(&result);
    let line = report::driver_line(&result);
    let failed = result.failed;
    if let Some(path) = &args.out {
        let report = Report {
            fingerprint,
            workloads: vec![result],
        };
        if let Err(e) = write_report(path, &report) {
            eprintln!("e2e: {e}");
            return 2;
        }
    }
    println!("{line}");
    i32::from(failed > 0)
}

/// Run every workload, each in its own child process so that peak RSS is
/// per workload, and merge the children's reports.
fn run_all(args: &Args, raw: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: cannot find my own executable: {e}");
            return 2;
        }
    };
    let tmp = scratch_dir();
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("e2e: {}: {e}", tmp.display());
        return 2;
    }
    if let Some(path) = &args.trace_out {
        // The children append to it.
        if let Err(e) = std::fs::write(path, "") {
            eprintln!("e2e: {}: {e}", path.display());
            return 2;
        }
    }
    // Everything but --out passes through; each child reports to a part.
    let mut passed: Vec<String> = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            it.next();
        } else {
            passed.push(a.clone());
        }
    }
    let mut merged: Option<Report> = None;
    let mut code = 0;
    let mut complete = true;
    for w in Workload::ALL {
        let part = tmp.join(format!("{}.json", w.name()));
        let status = Command::new(&exe)
            .args(&passed)
            .args(["--workload", w.name(), "--out"])
            .arg(&part)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("e2e: {} exited with {s}", w.name());
                code = code.max(s.code().unwrap_or(2));
            }
            Err(e) => {
                eprintln!("e2e: cannot start {}: {e}", w.name());
                code = 2;
            }
        }
        match read_report(&part) {
            Ok(r) => match &mut merged {
                Some(m) => m.workloads.extend(r.workloads),
                None => merged = Some(r),
            },
            Err(e) => {
                eprintln!("e2e: {e}");
                code = code.max(2);
                complete = false;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    // A report that lacks a workload would pass for a complete one.
    if !complete {
        eprintln!("e2e: a workload left no report: nothing written");
    } else if let (Some(path), Some(report)) = (&args.out, &merged) {
        if let Err(e) = write_report(path, report) {
            eprintln!("e2e: {e}");
            return 2;
        }
    }
    code
}

/// The program, minus `process::exit`: returns the exit code.
fn run(raw: &[String]) -> i32 {
    if raw.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = raw else {
            eprintln!("{USAGE}");
            return 2;
        };
        return match (read_report(Path::new(a)), read_report(Path::new(b))) {
            (Ok(a), Ok(b)) => report::compare(&a, &b),
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    eprintln!("e2e: {e}");
                }
                2
            }
        };
    }
    let args = match parse_args(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return 2;
        }
    };
    let knobs = fingerprint::knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "e2e: refusing to start with {} set: results are of the defaults only",
            knobs.join(", ")
        );
        return 2;
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args, raw),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (key, value) = MALLOC_PIN;
    let pinned = std::env::var(key).as_deref() == Ok(value);
    if pinned || raw.first().map(String::as_str) == Some("compare") {
        std::process::exit(run(&raw));
    }
    let child = std::env::current_exe()
        .and_then(|exe| Command::new(exe).args(&raw).env(key, value).status());
    std::process::exit(match child {
        Ok(status) => status.code().unwrap_or(2),
        Err(e) => {
            eprintln!("e2e: cannot re-execute myself with {key} set: {e}");
            2
        }
    });
}

#[cfg(test)]
mod tests;
