//! Durability-layer costs — the PR-8 checkpoint/redo-log/recovery work
//! measured end to end (protocol in `PERSISTENCE.md`):
//!
//! * `recovery/checkpoint_clean` — rotating an epoch when nothing
//!   changed: every payload's fingerprint matches, so the commit is just
//!   log creation + manifest rename (the incremental fast path).
//! * `recovery/checkpoint_dirty` — an epoch after real work: the cracked
//!   column's fingerprint changed, so its snapshot (one per column)
//!   re-serializes.
//! * `recovery/log_append` — one redo-logged staged insert at a group
//!   commit interval of 64 (the amortized-fsync configuration).
//! * `recovery/recover` — full recovery: manifest → payloads → piece-map
//!   validation → redo replay.
//! * `recovery/query_warm_recovered` vs `recovery/query_cold` — the
//!   paper-level claim behind the subsystem: a recovered store repeats a
//!   pre-crash query at cracked cost; a cold store pays the full scan.
//! * `recovery/checkpoint_after_merges` — the checkpoint that follows
//!   five forced merges of 1 024 staged inserts each into 1 M rows
//!   cracked into ~1 k pieces (the merges are not timed). A ripple merge
//!   shifts nearly every piece, so this is the dirty checkpoint a
//!   durable ingest pays: the column's origin stays and only its delta
//!   (the merge journal, the boundaries and the overlay) is written.
//! * `recovery/recover_with_journal` — recovering that column after four
//!   such checkpoints: the origin restores, then twenty journaled merges
//!   replay and the boundaries cracked since are cracked again.
//!
//! `BENCH_SMOKE=1` shrinks data so CI can run this as a smoke test; pass
//! `--json` to record medians (see the bench harness).

use cracker_core::CrackerConfig;
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use engine::{AdaptiveDb, OutputMode, RangeQuery, Table};
use std::path::PathBuf;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

fn n() -> usize {
    if smoke() {
        20_000
    } else {
        100_000
    }
}

/// A distinct-valued base column (multiplicative shuffle, no RNG dep).
fn base_values(n: usize) -> Vec<i64> {
    (0..n as u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % n as u64) as i64)
        .collect()
}

/// Scratch directory per bench id, cleared up front.
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dbcracker-bench-recovery-{name}"));
    let _ = std::fs::remove_dir_all(&p);
    p
}

const HOT: (i64, i64) = (3_000, 3_600);

/// A db whose cracked column is warmed by a spread of selects (so
/// checkpoints carry a real piece map).
fn warm_db(base: &[i64]) -> AdaptiveDb {
    let mut db = AdaptiveDb::new();
    db.register(Table::from_int_columns("t", vec![("v", base.to_vec())]).expect("columns align"))
        .expect("fresh catalog");
    let n = base.len() as i64;
    for k in 0..32 {
        let lo = (k * 977) % (n - 800);
        let q = RangeQuery::new("t", "v", cracker_core::RangePred::half_open(lo, lo + 800));
        db.select(&q, OutputMode::Count).expect("registered");
    }
    let hot = cracker_core::RangePred::half_open(HOT.0, HOT.1);
    db.select(&RangeQuery::new("t", "v", hot), OutputMode::Count)
        .expect("registered");
    db
}

fn checkpoint_benches(c: &mut Criterion) {
    let base = base_values(n());
    let mut g = c.benchmark_group("recovery");
    g.sample_size(if smoke() { 3 } else { 10 });

    let dir = scratch("checkpoint-clean");
    let mut db = warm_db(&base);
    db.attach_durability(&dir, 1).expect("fresh dir");
    g.bench_function("checkpoint_clean", |b| {
        b.iter(|| black_box(db.checkpoint().expect("attached")))
    });
    drop(db);
    std::fs::remove_dir_all(&dir).ok();

    let dir = scratch("checkpoint-dirty");
    let mut db = warm_db(&base);
    db.attach_durability(&dir, 1).expect("fresh dir");
    let mut oid = base.len() as u32;
    g.bench_function("checkpoint_dirty", |b| {
        b.iter(|| {
            // Dirty the overlay and the piece map, then pay the rewrite.
            db.stage_insert("t", "v", oid, (oid % 1_000) as i64)
                .expect("attached");
            oid += 1;
            black_box(db.checkpoint().expect("attached"))
        })
    });
    drop(db);
    std::fs::remove_dir_all(&dir).ok();

    let dir = scratch("log-append");
    let mut db = warm_db(&base);
    db.attach_durability(&dir, 64).expect("fresh dir");
    let mut oid = base.len() as u32;
    g.bench_function("log_append", |b| {
        b.iter(|| {
            db.stage_insert("t", "v", oid, (oid % 1_000) as i64)
                .expect("attached");
            oid += 1;
        })
    });
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    g.finish();
}

/// Rows of the merge legs.
fn merge_rows() -> usize {
    if smoke() {
        20_000
    } else {
        1_000_000
    }
}

/// `n` rows cracked into ~1 k pieces by 512 ranges, attached to `dir`
/// with a group commit of 1 024 (the staged batches are not the subject).
fn cracked_attached(n: usize, dir: &PathBuf) -> AdaptiveDb {
    let mut db = AdaptiveDb::new();
    let base = base_values(n);
    db.register(Table::from_int_columns("t", vec![("v", base)]).expect("columns align"))
        .expect("fresh catalog");
    for k in 0..512i64 {
        let lo = (k * 7_919 * 127) % (n as i64 - 600);
        let q = RangeQuery::new("t", "v", cracker_core::RangePred::half_open(lo, lo + 600));
        db.select(&q, OutputMode::Count).expect("registered");
    }
    db.attach_durability(dir, 1_024).expect("fresh dir");
    db
}

/// Stage five batches of 1 024 inserts, forcing a merge after each.
fn five_merges(db: &mut AdaptiveDb, next: &mut u32) {
    let n = merge_rows() as u32;
    for _ in 0..5 {
        let rows: Vec<(u32, i64)> = (*next..*next + 1_024)
            .map(|oid| (oid, i64::from(oid.wrapping_mul(2_654_435_761) % n)))
            .collect();
        *next += 1_024;
        db.stage_insert_batch("t", "v", &rows).expect("attached");
        db.shared_cracker("t", "v")
            .expect("cracked")
            .merge_pending();
    }
}

fn merge_benches(c: &mut Criterion) {
    let n = merge_rows();
    let mut g = c.benchmark_group("recovery");
    g.sample_size(if smoke() { 3 } else { 10 });

    let dir = scratch("checkpoint-after-merges");
    let mut db = cracked_attached(n, &dir);
    let mut next = n as u32;
    g.bench_function("checkpoint_after_merges", |b| {
        b.iter_custom(|_| {
            five_merges(&mut db, &mut next);
            let t = Instant::now();
            black_box(db.checkpoint().expect("attached"));
            t.elapsed()
        })
    });
    drop(db);
    std::fs::remove_dir_all(&dir).ok();

    let dir = scratch("recover-with-journal");
    let mut db = cracked_attached(n, &dir);
    let mut next = n as u32;
    for _ in 0..4 {
        five_merges(&mut db, &mut next);
        db.checkpoint().expect("attached");
    }
    drop(db);
    g.bench_function("recover_with_journal", |b| {
        b.iter(|| {
            black_box(AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).expect("durable"))
        })
    });
    std::fs::remove_dir_all(&dir).ok();
    g.finish();
}

fn recover_benches(c: &mut Criterion) {
    let base = base_values(n());
    let mut g = c.benchmark_group("recovery");
    g.sample_size(if smoke() { 3 } else { 10 });

    // One durable directory with a real piece map plus a redo-log tail.
    let dir = scratch("recover");
    let mut db = warm_db(&base);
    db.attach_durability(&dir, 1).expect("fresh dir");
    for i in 0..64u32 {
        db.stage_insert("t", "v", base.len() as u32 + i, i as i64)
            .expect("attached");
    }
    drop(db);

    g.bench_function("recover", |b| {
        b.iter(|| {
            black_box(AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).expect("durable"))
        })
    });

    let hot = cracker_core::RangePred::half_open(HOT.0, HOT.1);
    let mut rec = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).expect("durable");
    g.bench_function("query_warm_recovered", |b| {
        b.iter(|| {
            black_box(
                rec.select(&RangeQuery::new("t", "v", hot), OutputMode::Count)
                    .expect("registered"),
            )
        })
    });
    drop(rec);
    std::fs::remove_dir_all(&dir).ok();

    g.bench_function("query_cold", |b| {
        b.iter_batched_ref(
            || {
                let mut db = AdaptiveDb::new();
                db.register(
                    Table::from_int_columns("t", vec![("v", base.clone())]).expect("columns align"),
                )
                .expect("fresh catalog");
                db
            },
            |db| {
                black_box(
                    db.select(&RangeQuery::new("t", "v", hot), OutputMode::Count)
                        .expect("registered"),
                )
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, checkpoint_benches, recover_benches, merge_benches);
criterion_main!(benches);
