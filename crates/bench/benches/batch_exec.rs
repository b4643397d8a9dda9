//! Batched execution vs statement-at-a-time — the PR-6 executor work
//! measured end to end:
//!
//! * `batch_exec_select` — the same warm, narrow range selects answered
//!   one predicate at a time (per-query latch + per-query OID allocation)
//!   vs through the batch entry points: [`AdaptiveDb::select_batch`]
//!   from one thread (the `plain` legs — the db's one-shard column,
//!   uncontended) and [`ConcurrentColumn::select_oids_batch_into`]
//!   across [`threads`] threads with one shard and with several (the
//!   `single` and `sharded` legs), so latch traffic there is real contention, not
//!   just instruction count.
//! * `batch_exec_prepared` — the SQL front-end's amortization ladder:
//!   statement text with literals per query, binding a [`Prepared`] plan
//!   per query, and handing all bindings to
//!   [`SqlSession::execute_prepared_many`] so the whole batch rides one
//!   cracked-column pass. The first leg keeps the id
//!   `reparse_per_query` (so `bench_diff` pairs it across commits) but no
//!   longer re-parses: `execute_one(text)` normalizes the text to its
//!   shape and hits the session's plan cache, so what the leg measures
//!   over `prepared_per_query` is the `format!`, the normalizer and one
//!   map lookup per query. Measured over ten alternated runs on two
//!   shared vCPUs: 1.35× `prepared_per_query` (the median of the runs'
//!   ratios; 1.55× with the lexeme-scanner normalizer before it), about
//!   0.3 µs a query on top of a 0.9 µs prepared query. The
//!   `insert_values_32` leg runs `execute_one` over 32-row
//!   `INSERT ... VALUES` texts into a warm 1 M-row session with one
//!   cracked column: the normalizer, the shape's cached plan and
//!   `append_rows`, ~7.3 µs a statement (~11.5 µs when every `INSERT`
//!   was lexed and parsed).
//! * `batch_exec_admission` — reader p95 latency (via `iter_custom`)
//!   while an update-heavy writer session bursts staged inserts/deletes,
//!   with the [`AdmissionGate`] off vs on. The gate's per-session cap
//!   bounds how many writer threads can be mid-burst at once, which is
//!   what keeps the reader tail bounded.
//!
//! `BENCH_SMOKE=1` shrinks data and op counts so CI can run this as a
//! smoke test; pass `--json` to record medians (see the bench harness).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cracker_core::{ConcurrencyMode, ConcurrentColumn, CrackerConfig, RangePred};
use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use engine::{AdaptiveDb, AdmissionGate, Table};
use sql::SqlSession;

/// Predicates per batch handed to the amortized entry points.
const BATCH: usize = 128;
/// Shards for the sharded mode — small enough that a batch buckets many
/// predicates per shard, so amortization has teeth.
const SHARDS: usize = 8;

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

fn queries() -> usize {
    if smoke() {
        128
    } else {
        512
    }
}

fn threads() -> usize {
    if smoke() {
        2
    } else {
        8
    }
}

/// A distinct-valued base column: `i * 2654435761 mod n` is a bijection
/// on `0..n` (the multiplier is coprime to any n here), i.e. a seeded
/// shuffle without pulling in an RNG.
fn base_values(n: usize) -> Vec<i64> {
    (0..n as u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % n as u64) as i64)
        .collect()
}

/// SplitMix-style generator; deterministic so every mode and API replays
/// the identical predicate stream.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// Narrow half-open windows, 7/8 of them inside a hot tenth of the
/// domain. Narrow because batching amortizes the *fixed* per-query costs
/// (latch acquisition, piece lookup, output allocation); point-ish OLTP
/// selects are where those costs dominate the scan itself.
fn windows(n: usize, count: usize, seed: u64) -> Vec<RangePred<i64>> {
    // Narrow point-lookup-style windows: the per-query answer is a few
    // OIDs, so the storm cost is latch acquisition and boundary lookup —
    // exactly the share batching amortizes — not result copying, which
    // both paths pay identically.
    windows_of(n, count, 8, seed)
}

fn windows_of(n: usize, count: usize, width: i64, seed: u64) -> Vec<RangePred<i64>> {
    let mut rng = Lcg(seed);
    (0..count)
        .map(|_| {
            let span = if rng.next().is_multiple_of(8) {
                n as i64
            } else {
                n as i64 / 10
            };
            let lo = (rng.next() % (span - width).max(1) as u64) as i64;
            RangePred::half_open(lo, lo + width)
        })
        .collect()
}

/// A registered single-column table, warmed so every window's boundaries
/// already exist: the timed region then measures execution, not first
/// cracks.
fn warm_db(base: &[i64], preds: &[RangePred<i64>]) -> AdaptiveDb {
    let mut db = AdaptiveDb::new();
    db.register(Table::from_int_columns("t", vec![("v", base.to_vec())]).expect("columns align"))
        .expect("fresh catalog");
    black_box(db.select_batch("t", "v", preds).expect("registered"));
    db
}

/// A warmed latched column under `mode` (same boundaries as [`warm_db`]),
/// carrying a small in-flight update overlay. The staged inserts (well
/// under the merge threshold, one per region of the domain so every
/// shard holds one) put the column in the mixed OLTP state the latched
/// storms are about: a select can no longer be answered read-only, so
/// statement-at-a-time execution takes the *exclusive* latch per query —
/// eight threads convoying on every acquisition — while the batch entry
/// point takes it once per shard per batch.
fn warm_col(
    base: &[i64],
    preds: &[RangePred<i64>],
    mode: ConcurrencyMode,
) -> ConcurrentColumn<i64> {
    let col = ConcurrentColumn::build(base.to_vec(), CrackerConfig::default(), mode);
    black_box(col.select_oids_batch(preds));
    let n = base.len() as i64;
    for k in 0..8 {
        col.insert((base.len() + k) as u32, (2 * k as i64 + 1) * n / 16);
    }
    col
}

/// Rounds each storm thread replays its predicate stream — enough work
/// per thread that the storm measures query execution, not the fixed
/// cost of spawning the threads.
fn rounds() -> usize {
    if smoke() {
        1
    } else {
        8
    }
}

/// Statement-at-a-time storm: every query takes its own latch and
/// allocates its own OID vector.
fn storm_stmt(col: &ConcurrentColumn<i64>, preds: &[RangePred<i64>], threads: usize) {
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..rounds() {
                    for p in preds {
                        black_box(col.select_oids(*p));
                    }
                }
            });
        }
    });
}

/// Batched storm: [`BATCH`]-sized chunks through the amortized entry
/// point, output buffers reused across chunks (the `_into` contract is
/// append, so they are cleared between chunks).
fn storm_batch(col: &ConcurrentColumn<i64>, preds: &[RangePred<i64>], threads: usize) {
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut outs: Vec<Vec<u32>> = vec![Vec::new(); BATCH];
                for _ in 0..rounds() {
                    for chunk in preds.chunks(BATCH) {
                        let outs = &mut outs[..chunk.len()];
                        for out in outs.iter_mut() {
                            out.clear();
                        }
                        col.select_oids_batch_into(chunk, outs);
                        black_box(&outs);
                    }
                }
            });
        }
    });
}

fn batched_vs_stmt(c: &mut Criterion) {
    let base = base_values(n());
    let preds = windows(n(), queries(), 0xBA7C);
    let mut g = c.benchmark_group("batch_exec_select");
    // More samples than the other groups: the storms timeslice 8 threads
    // on however few cores the host has, so individual samples carry
    // scheduler noise the median needs depth to reject.
    g.sample_size(if smoke() { 3 } else { 20 });

    // One thread through the engine's db entry points (one
    // `select_conjunctive` per statement vs one `select_batch` per
    // chunk): the db's one-shard column with nobody to contend with.
    g.bench_function(BenchmarkId::new("plain", "stmt"), |b| {
        b.iter_batched_ref(
            || warm_db(&base, &preds),
            |db| {
                for p in &preds {
                    black_box(
                        db.select_conjunctive("t", &[("v", *p)])
                            .expect("registered"),
                    );
                }
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function(BenchmarkId::new("plain", "batch"), |b| {
        b.iter_batched_ref(
            || warm_db(&base, &preds),
            |db| {
                for chunk in preds.chunks(BATCH) {
                    black_box(db.select_batch("t", "v", chunk).expect("registered"));
                }
            },
            BatchSize::LargeInput,
        )
    });

    // The same storm across threads, per-query latching
    // vs per-batch (one shard) / per-shard-per-batch (sharded).
    for (label, mode) in [
        ("single", ConcurrencyMode::default()),
        ("sharded", ConcurrencyMode { shards: SHARDS }),
    ] {
        g.bench_function(BenchmarkId::new(label, "stmt"), |b| {
            b.iter_batched(
                || warm_col(&base, &preds, mode),
                |col| storm_stmt(&col, &preds, threads()),
                BatchSize::LargeInput,
            )
        });
        g.bench_function(BenchmarkId::new(label, "batch"), |b| {
            b.iter_batched(
                || warm_col(&base, &preds, mode),
                |col| storm_batch(&col, &preds, threads()),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// Parameter pairs `[lo, lo + 32)` drawn like [`windows`], as bindings
/// for `select v from t where v >= ? and v < ?`.
fn bindings(n: usize, count: usize, seed: u64) -> Vec<Vec<i64>> {
    let width = 32i64;
    let mut rng = Lcg(seed);
    (0..count)
        .map(|_| {
            let span = if rng.next().is_multiple_of(8) {
                n as i64
            } else {
                n as i64 / 10
            };
            let lo = (rng.next() % (span - width).max(1) as u64) as i64;
            vec![lo, lo + width]
        })
        .collect()
}

fn prepared_exec(c: &mut Criterion) {
    // The prepared group measures parse/lower amortization, so the table
    // can be smaller than the storm benches'.
    let rows = if smoke() { 10_000 } else { 50_000 };
    let runs = if smoke() { 64 } else { 256 };
    let binds = bindings(rows, runs, 0x93ED);
    let sql = "select v from t where v >= ? and v < ?";

    let mut g = c.benchmark_group("batch_exec_prepared");
    g.sample_size(if smoke() { 3 } else { 10 });

    let mut session = SqlSession::new();
    session
        .load_table("t", vec![("v".to_string(), base_values(rows))])
        .expect("fresh session");
    let prepared = session.prepare(sql).expect("two-parameter select");
    // Warm once so all three APIs run over identical cracked state.
    black_box(
        session
            .execute_prepared_many(&prepared, &binds)
            .expect("bindings are pairs"),
    );

    g.bench_function("reparse_per_query", |b| {
        b.iter(|| {
            for w in &binds {
                let text = format!("select v from t where v >= {} and v < {}", w[0], w[1]);
                black_box(session.execute_one(&text).expect("literal select"));
            }
        })
    });
    g.bench_function("prepared_per_query", |b| {
        b.iter(|| {
            for w in &binds {
                black_box(session.execute_prepared(&prepared, w).expect("bound pair"));
            }
        })
    });
    g.bench_function("prepared_batch", |b| {
        b.iter(|| {
            black_box(
                session
                    .execute_prepared_many(&prepared, &binds)
                    .expect("bound pairs"),
            )
        })
    });

    // `INSERT ... VALUES` of 32 rows as e2e `update_mix` sends it, into a
    // warm session whose `a` is cracked: each text normalizes, hits its
    // shape's plan and appends, the rows staged into `a`'s copy.
    let (n, count) = if smoke() {
        (40_000, 16)
    } else {
        (1_000_000, 64)
    };
    let mut writer = SqlSession::new();
    let columns = ["k", "a", "b"].map(|c| (c.to_string(), base_values(n)));
    writer
        .load_table("r", columns.into())
        .expect("fresh session");
    writer
        .execute_one("select count(*) from r where a >= 10 and a < 20")
        .expect("a range count");
    let mut rng = Lcg(0x1A5E);
    let mut key = n as u64;
    let inserts: Vec<String> = (0..count)
        .map(|_| {
            let tuples: Vec<String> = (0..32)
                .map(|_| {
                    key += 1;
                    let (a, b) = (1 + rng.next() % n as u64, 1 + rng.next() % n as u64);
                    format!("({key}, {a}, {b})")
                })
                .collect();
            format!("insert into r values {}", tuples.join(", "))
        })
        .collect();
    g.bench_function("insert_values_32", |b| {
        b.iter(|| {
            for text in &inserts {
                black_box(writer.execute_one(text).expect("a 32-row insert"));
            }
        })
    });
    g.finish();
}

/// One admission storm: writer threads (all session 0, so the gate's
/// per-session cap applies to the burst as a whole) hammer staged
/// updates while ungated reader threads time multi-scan reports.
/// Returns the p95 report latency — the bounded-tail claim the gate is
/// for.
fn reader_p95(base: &[i64], wins: &[RangePred<i64>], gated: bool) -> Duration {
    // Far more writer threads than the gate's session cap: ungated, all
    // of them stay runnable and every reader query risks queueing behind
    // the whole fleet's timeslices (and the staged backlog the fleet
    // accumulates); gated, at most `session_cap` are mid-burst while the
    // rest sleep in the gate, so readers keep getting slots.
    let writers = if smoke() { 4 } else { 16 };
    let readers = if smoke() { 2 } else { 4 };
    let burst = if smoke() { 128 } else { 1024 };
    let mut db = AdaptiveDb::new().with_concurrency(ConcurrencyMode { shards: SHARDS });
    if gated {
        // Total sized so the per-session cap is what does the bounding.
        db = db.with_admission(AdmissionGate::new(readers + 2, 2));
    }
    db.register(Table::from_int_columns("t", vec![("v", base.to_vec())]).expect("columns align"))
        .expect("fresh catalog");
    let gate: Option<Arc<AdmissionGate>> = db.admission().cloned();
    let col = db.shared_cracker("t", "v").expect("registered");
    let mut scratch = Vec::new();
    for p in wins {
        scratch.clear();
        col.select_oids_into(*p, &mut scratch);
    }
    black_box(scratch.len());

    let stop = AtomicBool::new(false);
    let latencies = Mutex::new(Vec::new());
    let hot = (base.len() / 10).max(1) as i64;
    std::thread::scope(|s| {
        for w in 0..writers {
            let (gate, stop) = (&gate, &stop);
            let col = &*col;
            s.spawn(move || {
                let mut oid = (base.len() + w * 100_000) as u32;
                let mut i = 0i64;
                let mut prev: Vec<u32> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    // One admission covers a run of bursts, as one
                    // admitted request covers a batch of statements: the
                    // gate's wake-everyone handoff is paid per admission,
                    // and cycling it per burst would swamp the very
                    // scheduling pressure being measured with condvar
                    // churn on a single core.
                    let _permit = gate.as_ref().map(|g| g.admit(0));
                    for _ in 0..16 {
                        // One burst: stage a window of inserts in the
                        // readers' hot region and delete the *previous*
                        // window (deleting a just-staged insert would
                        // cancel it out, leaving nothing for readers to
                        // feel). Column size stays stable; the staged
                        // backlog each reader must scan — and, past the
                        // merge threshold, fold in — scales with how many
                        // writers are mid-burst at once.
                        let mut cur = Vec::with_capacity(burst);
                        for _ in 0..burst {
                            col.insert(oid, (i * 7) % hot);
                            cur.push(oid);
                            oid = oid.wrapping_add(1);
                            i += 1;
                        }
                        for dead in prev.drain(..) {
                            col.delete(dead);
                        }
                        prev = cur;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                }
            });
        }
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let latencies = &latencies;
                let col = &*col;
                s.spawn(move || {
                    // Readers run ungated in both configurations — the
                    // gate's job is bounding the hostile writer session,
                    // and identical reader code isolates exactly that
                    // effect in the p95 comparison.
                    //
                    // The timed unit is a *report* of several wide scans,
                    // not a single scan: one scan finishes well inside a
                    // scheduler timeslice, so a per-scan p95 would only
                    // ever see the reader's own cache-warm work. A report
                    // is long enough that straddling a timeslice boundary
                    // — where an ungated writer fleet means queueing
                    // behind every runnable burst before the next scan
                    // proceeds — is the common case rather than a coin
                    // flip at the 95th percentile, so the p95 compares
                    // how *long* the two fleets stall a reader, not how
                    // often one happens to.
                    let scans_per_report = 48;
                    let reports = if smoke() { 8 } else { 32 };
                    let mut local = Vec::with_capacity(reports);
                    let mut stream = wins.iter().cycle().skip(r * 31);
                    for _ in 0..reports {
                        let t = Instant::now();
                        for _ in 0..scans_per_report {
                            let p = stream.next().expect("cycled iterator");
                            black_box(col.select_oids(*p));
                        }
                        local.push(t.elapsed());
                    }
                    latencies
                        .lock()
                        .expect("reader panicked with the lock held")
                        .extend(local);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("reader thread");
        }
        stop.store(true, Ordering::Relaxed);
    });

    let mut all = latencies.into_inner().expect("threads joined");
    all.sort_unstable();
    all[(all.len() * 95 / 100).min(all.len() - 1)]
}

fn admission(c: &mut Criterion) {
    let base = base_values(n());
    let per_reader = if smoke() { 16 } else { 64 };
    // Wide scans (half the domain each): analytical readers whose
    // queries are long enough that a concurrent writer burst visibly
    // lands inside them — the tail the gate exists to bound.
    let wins = windows_of(n(), per_reader, n() as i64 / 2, 0xAD31);
    let mut g = c.benchmark_group("batch_exec_admission");
    g.sample_size(if smoke() { 3 } else { 10 });
    for (label, gated) in [("gate_off", false), ("gate_on", true)] {
        g.bench_function(BenchmarkId::new("reader_p95", label), |b| {
            b.iter_custom(|_| reader_p95(&base, &wins, gated))
        });
    }
    g.finish();
}

criterion_group!(benches, batched_vs_stmt, prepared_exec, admission);
criterion_main!(benches);
