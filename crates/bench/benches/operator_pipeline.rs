//! Block-at-a-time pipeline vs tuple-at-a-time reference — the PR-10
//! executor rebase measured on the three shapes it targets:
//!
//! * `pipeline_join_chain` — Figure-9-style chains of 2 and 16 equi-joins
//!   over permutation relations, evaluated by [`run_chain_with`] under
//!   both [`ExecMode`]s. The vector leg builds a CSR-shaped join index
//!   (dense key slots, one prefix-summed adjacency arena) and probes the
//!   frontier a block at a time; the tuple leg is the original
//!   `HashMap<i64, Vec<usize>>` per-entry walk.
//! * `pipeline_projection` — a select-then-project plan over a wide
//!   table through [`execute_plan_with`]. The vector tree moves values
//!   lane-wise with `extend_from_slice`; the tuple tree materializes a
//!   `Vec<Atom>` per row and clones per column.
//! * `pipeline_morsel_scan` — a warm, wide selection over a sharded
//!   column: the old delivery (sequential `select_oids`, then one
//!   `Vec<Atom>` row per hit) vs the morsel pool at 8 workers delivering
//!   columnar lanes. On a single-core host the pool adds no parallelism,
//!   so any win here is the block delivery itself; on multi-core hosts
//!   the claimable shards add on top.
//!
//! `BENCH_SMOKE=1` shrinks data sizes so CI can run this as a smoke
//! test; pass `--json` to record medians (see the bench harness).

use cracker_core::{ConcurrencyMode, ConcurrentColumn, CrackerConfig, RangePred};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::chain::{permutation_chain, run_chain_with, ChainStrategy};
use engine::exec::morsel::morsel_select_oids;
use engine::exec::planner::execute_plan_with;
use engine::exec::ExecMode;
use engine::plan::Plan;
use engine::{DbCatalog, Governor, RangeQuery, Table};
use storage::Atom;

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

fn samples() -> usize {
    if smoke() {
        3
    } else {
        20
    }
}

const MODES: [(&str, ExecMode); 2] = [("vector", ExecMode::Vector), ("tuple", ExecMode::Tuple)];

/// Chains of k permutation relations: every step is a 1:1 hash join, so
/// the frontier stays `n` rows deep through all k joins and the measured
/// cost is the per-step build + probe machinery, not result blow-up.
fn join_chain(c: &mut Criterion) {
    let n = if smoke() { 2_000 } else { 20_000 };
    let perm: Vec<i64> = (0..n as i64).map(|i| (i * 11 + 5) % n as i64).collect();
    let mut g = c.benchmark_group("pipeline_join_chain");
    g.sample_size(samples());
    for k in [2usize, 16] {
        let rels = permutation_chain(&perm, k);
        for (label, mode) in MODES {
            g.bench_function(BenchmarkId::new(format!("k{k}"), label), |b| {
                b.iter(|| {
                    let report =
                        run_chain_with(&rels, ChainStrategy::HashChain, mode).expect("hash chain");
                    assert_eq!(report.rows, n, "permutation joins are 1:1");
                    black_box(report.rows)
                })
            });
        }
    }
    g.finish();
}

/// Select-then-project over a wide table: the shape where tuple-at-a-time
/// pays one `Vec<Atom>` allocation plus per-column clones per surviving
/// row, and the block tree pays one lane copy per column per block.
fn projection(c: &mut Criterion) {
    let n = if smoke() { 10_000 } else { 100_000 };
    let cols: Vec<(&str, Vec<i64>)> = (0..8)
        .map(|j| {
            let name: &'static str = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"][j];
            (
                name,
                (0..n as i64)
                    .map(|i| (i * (j as i64 + 3)) % n as i64)
                    .collect(),
            )
        })
        .collect();
    let mut cat = DbCatalog::new();
    cat.register(Table::from_int_columns("w", cols).expect("columns align"))
        .expect("fresh catalog");
    // Keep ~60% of rows: wide enough that delivery, not the filter,
    // dominates.
    let plan = Plan::Project {
        attrs: vec!["c3".into(), "c1".into(), "c6".into()],
        input: Box::new(Plan::Select {
            query: RangeQuery::new("w", "c0", RangePred::lt(n as i64 * 3 / 5)),
            input: Box::new(Plan::Scan { table: "w".into() }),
        }),
    };
    let mut g = c.benchmark_group("pipeline_projection");
    g.sample_size(samples());
    for (label, mode) in MODES {
        g.bench_function(BenchmarkId::new("wide", label), |b| {
            b.iter(|| {
                let rows = execute_plan_with(&plan, &cat, mode).expect("registered");
                black_box(rows.len())
            })
        });
    }
    g.finish();
}

/// Warm wide scan over a sharded column: old tuple delivery (sequential
/// OID walk, one heap row per hit) vs the morsel pool handing back
/// columnar lanes.
fn morsel_scan(c: &mut Criterion) {
    let n = if smoke() { 40_000 } else { 400_000 };
    let vals: Vec<i64> = (0..n as u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % n as u64) as i64)
        .collect();
    let col = ConcurrentColumn::build(
        vals.clone(),
        CrackerConfig::default(),
        ConcurrencyMode { shards: 8 },
    );
    let pred = RangePred::between(n as i64 / 10, n as i64 * 7 / 10);
    // Warm: boundaries exist before timing, so both legs measure answer
    // delivery, not first cracks.
    black_box(col.select_oids(pred));
    let governor = Governor::unbounded();

    let mut g = c.benchmark_group("pipeline_morsel_scan");
    g.sample_size(samples());
    g.bench_function(BenchmarkId::new("warm_scan", "single_thread"), |b| {
        b.iter(|| {
            // The pre-PR delivery: one OID vector, then one owned
            // `Vec<Atom>` row per qualifying tuple.
            let oids = col.select_oids(pred);
            let mut rows: Vec<Vec<Atom>> = Vec::with_capacity(oids.len());
            for &oid in &oids {
                rows.push(vec![
                    Atom::Oid(u64::from(oid)),
                    Atom::Int(vals[oid as usize]),
                ]);
            }
            black_box(rows.len())
        })
    });
    g.bench_function(BenchmarkId::new("warm_scan", "morsel8"), |b| {
        b.iter(|| {
            // The block pipeline: morsel pool claims shards, output stays
            // columnar — one OID lane, one value lane.
            let oids = morsel_select_oids(&col, pred, 8, None, &governor).expect("unbounded");
            let mut lane: Vec<i64> = Vec::with_capacity(oids.len());
            for &oid in &oids {
                lane.push(vals[oid as usize]);
            }
            black_box((oids.len(), lane.len()))
        })
    });
    g.finish();
}

criterion_group!(benches, join_chain, projection, morsel_scan);
criterion_main!(benches);
