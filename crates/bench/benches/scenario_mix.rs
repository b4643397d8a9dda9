//! Sharded vs one shard under *moving* workloads: the scenario engine's
//! shifting-hot-set and update-heavy mixes replayed concurrently against
//! [`ConcurrentColumn`] under both [`ConcurrencyMode`]s (1 and 64 shards).
//!
//! This is the first time the PR-2 concurrency work meets workloads it
//! wasn't tuned on: a hot set that relocates every `period` queries keeps
//! re-opening cold territory (fresh crack storms instead of settled
//! boundary reuse), and an update-heavy mix interleaves staged
//! inserts/deletes — write-latch traffic — with the reads. Each scenario's
//! op stream is materialized once (seeded, so every mode replays the
//! identical mix) and split across threads.
//!
//! `BENCH_SMOKE=1` shrinks data and op counts so CI can run this as a
//! smoke test; pass `--json` to record medians (see the bench harness).

use cracker_core::{ConcurrencyMode, ConcurrentColumn, CrackerConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use workload::scenario::{Op, Scenario, Shift, ShiftingHotSet, UpdateHeavy};
use workload::Mqs;

const SHARDS: usize = 64;
const THREADS: [usize; 2] = [1, 4];

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

fn n() -> usize {
    if smoke() {
        40_000
    } else {
        200_000
    }
}

fn selects() -> usize {
    if smoke() {
        96
    } else {
        512
    }
}

/// Materialize a scenario into its base column and op stream.
fn materialize<S: Scenario>(mut s: S) -> (Vec<i64>, Vec<Op>) {
    let base = s.base().to_vec();
    let ops: Vec<Op> = s.by_ref().collect();
    (base, ops)
}

/// Replay `ops`, split across `threads`, against a latched column. All
/// three op kinds go through `&self` entry points, so readers, crackers,
/// and writers genuinely contend.
fn storm(col: &ConcurrentColumn<i64>, ops: &[Op], threads: usize) {
    std::thread::scope(|s| {
        for chunk in ops.chunks(ops.len().div_ceil(threads)) {
            s.spawn(move || {
                for op in chunk {
                    match *op {
                        Op::Select(w) => {
                            criterion::black_box(col.count(w.to_pred()));
                        }
                        Op::Insert { oid, value } => col.insert(oid, value),
                        Op::Delete { oid } => {
                            // A victim staged by another thread's chunk may
                            // not be visible yet; the miss is part of the
                            // workload, not an error.
                            col.delete(oid);
                        }
                    }
                }
            });
        }
    });
}

fn scale(c: &mut Criterion, group: &str, base: &[i64], ops: &[Op]) {
    let mut g = c.benchmark_group(group);
    g.sample_size(if smoke() { 3 } else { 10 });
    for &t in &THREADS {
        for (label, mode) in [
            ("single", ConcurrencyMode::default()),
            ("sharded", ConcurrencyMode { shards: SHARDS }),
        ] {
            g.bench_with_input(BenchmarkId::new(label, t), &t, |b, &t| {
                b.iter_batched(
                    || ConcurrentColumn::build(base.to_vec(), CrackerConfig::default(), mode),
                    |col| storm(&col, ops, t),
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    g.finish();
}

fn shifting_hot_set(c: &mut Criterion) {
    let (base, ops) = materialize(ShiftingHotSet::new(n(), selects(), 16, Shift::Jump, 0x5C0A));
    scale(c, "scenario_mix_shifting", &base, &ops);
}

fn update_heavy(c: &mut Criterion) {
    let mqs = Mqs::paper_default(n(), selects(), 0.02);
    let (base, ops) = materialize(UpdateHeavy::new(mqs, 0.5, 8, 0x5C0B));
    scale(c, "scenario_mix_update_heavy", &base, &ops);
}

criterion_group!(benches, shifting_hot_set, update_heavy);
criterion_main!(benches);
