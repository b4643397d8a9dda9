//! Thread-scaling of the concurrent cracker: aggregate throughput of a
//! [`ConcurrentColumn`] with 64 shards (the `sharded/*` legs) versus one
//! shard, one latch around the whole column (the `single/*` legs), at
//! 1/2/4/8 threads, under the MQS homerun profile and a Zipf-skewed
//! ad-hoc workload.
//!
//! The point under measurement is §4's promise made concurrent: with one
//! global lock every boundary-miss serializes the whole column, while the
//! sharded index lets crackers on disjoint value ranges proceed in
//! parallel — and because the shard splits are equi-depth (sampled), even
//! a Zipf-skewed workload spreads across shards instead of piling onto
//! one.
//!
//! `BENCH_SMOKE=1` shrinks the data and query counts so CI can run this as
//! a smoke test; pass `--json` to record medians (see the bench harness).

use cracker_core::{ConcurrentColumn, RangePred};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use workload::homerun::homerun_sequence;
use workload::skew::zipf_column;
use workload::{Contraction, Tapestry};

const SHARDS: usize = 64;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

fn n() -> usize {
    if smoke() {
        40_000
    } else {
        400_000
    }
}

fn total_queries() -> usize {
    if smoke() {
        64
    } else {
        512
    }
}

/// Run `preds`, split evenly across `threads`, against `col`.
fn storm(col: &ConcurrentColumn<i64>, preds: &[RangePred<i64>], threads: usize) {
    std::thread::scope(|s| {
        for chunk in preds.chunks(preds.len().div_ceil(threads)) {
            s.spawn(move || {
                for &pred in chunk {
                    criterion::black_box(col.count(pred));
                }
            });
        }
    });
}

/// Zipf-skewed ad-hoc ranges: window origins drawn with the same skew as
/// the data, so the hot region is queried most — the regime where
/// equi-depth shards pay off.
fn zipf_preds(domain: usize, queries: usize) -> Vec<RangePred<i64>> {
    let width = (domain / 64).max(1) as i64;
    zipf_column(queries, domain, 1.0, 0x51D)
        .into_iter()
        .enumerate()
        .map(|(i, lo)| RangePred::half_open(lo, lo + 1 + (i as i64 % width)))
        .collect()
}

/// MQS homerun windows, one zooming sequence per thread offset, fired
/// round-robin so concurrent threads touch different windows.
fn homerun_preds(n: usize, queries: usize) -> Vec<RangePred<i64>> {
    let windows = homerun_sequence(n, 32, 0.05, Contraction::Linear, 7);
    (0..queries)
        .map(|i| windows[i % windows.len()].to_pred())
        .collect()
}

/// Every sample cracks a fresh column (same distribution, new seed): the
/// cold crack storm is the thing under measurement, and replaying one
/// identical buffer would let the branch predictor memorize its outcome
/// sequence across samples (see the ablation bench's kernel sweep).
fn scale(
    c: &mut Criterion,
    group: &str,
    make_vals: impl Fn(u64) -> Vec<i64>,
    preds: &[RangePred<i64>],
) {
    let mut g = c.benchmark_group(group);
    g.sample_size(if smoke() { 3 } else { 10 });
    let ctr = std::cell::Cell::new(0u64);
    let fresh = || {
        let seed = ctr.get();
        ctr.set(seed + 1);
        make_vals(seed)
    };
    for &t in &THREADS {
        for (leg, shards) in [("single", 1), ("sharded", SHARDS)] {
            g.bench_with_input(BenchmarkId::new(leg, t), &t, |b, &t| {
                b.iter_batched(
                    || ConcurrentColumn::new(fresh(), shards),
                    |col| storm(&col, preds, t),
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    g.finish();
}

fn zipf_scaling(c: &mut Criterion) {
    let preds = zipf_preds(n() / 4, total_queries());
    scale(
        c,
        "sharded_scale_zipf",
        |seed| zipf_column(n(), n() / 4, 1.0, 0xD07 + seed),
        &preds,
    );
}

fn homerun_scaling(c: &mut Criterion) {
    let preds = homerun_preds(n(), total_queries());
    scale(
        c,
        "sharded_scale_homerun",
        |seed| Tapestry::generate(n(), 1, 0xBE7C + seed).column(0).to_vec(),
        &preds,
    );
}

criterion_group!(benches, zipf_scaling, homerun_scaling);
criterion_main!(benches);
