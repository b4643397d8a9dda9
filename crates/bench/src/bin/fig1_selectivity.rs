//! **Figure 1** — response time vs. selectivity for the three basic
//! operations: (a) materialize into a temporary table, (b) print/ship to
//! the front-end, (c) count qualifying tuples. 1M-row, 2-column tapestry
//! table, range queries `low ≤ A < high` of varying selectivity.
//!
//! Substitution note (see the `engine::profile` module doc): the paper ran MySQL, PostgreSQL,
//! SQLite and MonetDB out of the box. Here one physical scan engine
//! produces the counters, and the per-system [`EngineProfile`]s replay
//! them into modeled response times calibrated to the cost ranges the
//! paper reports — preserving the ordering and the linear-in-selectivity
//! shape. The `measured` column is this library's own wall clock.

use bench::{data_block, secs};
use cracker_core::RangePred;
use engine::{EngineProfile, OutputMode, QueryEngine, ScanEngine};
use workload::Tapestry;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let tapestry = Tapestry::generate(n, 2, 0xF161);
    let mut scan = ScanEngine::new(tapestry.column(0).to_vec());
    let selectivities: Vec<u32> = (0..=100).step_by(10).map(|s| s.max(1)).collect();
    let profiles = EngineProfile::all();

    for mode in [
        OutputMode::Materialize,
        OutputMode::Stream,
        OutputMode::Count,
    ] {
        let mut series: Vec<(String, Vec<f64>)> = profiles
            .iter()
            .map(|p| (p.name.clone(), Vec::new()))
            .collect();
        series.push(("measured(scan)".into(), Vec::new()));
        println!("# selectivity%\tresponse(s) per system");
        for &sel in &selectivities {
            let width = (n as i64 * sel as i64) / 100;
            let pred = RangePred::half_open(1, 1 + width.max(1));
            let stats = scan.run(pred, mode);
            for (i, p) in profiles.iter().enumerate() {
                series[i].1.push(secs(p.modeled_time(&stats, mode)));
            }
            let k = series.len() - 1;
            series[k].1.push(secs(stats.elapsed));
        }
        let panel = match mode {
            OutputMode::Materialize => "(a) materialize into temporary table",
            OutputMode::Stream => "(b) deliver to front-end",
            OutputMode::Count => "(c) count only",
        };
        println!(
            "{}",
            data_block(
                &format!("Figure 1{panel} — N={n}, selectivity steps {selectivities:?}%"),
                "step(selectivity index)",
                &series,
            )
        );
    }
    println!("# Shape checks: per system materialize > print > count; MonetDB lowest;");
    println!("# materialization linear in selected fragment size.");
}
