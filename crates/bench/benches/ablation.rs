//! Ablations over the cracker design knobs: the cut-off granule and the
//! kernel axis — the scalar and SIMD kernels across cold-crack (including
//! two-way and three-way cracks of 30 k- to 2 M-tuple pieces, the vector
//! kernels' home turf), crack_select-shaped, and scenario_mix-shaped
//! workloads. On hosts without AVX2 the `simd` label (`KernelPolicy::Auto`)
//! measures the scalar loops a second time. The `ablation_merge` legs time
//! one update merge of staged inserts or staged deletes, and base-table
//! deletes: 50 rows, which stage tombstones in every cracked copy, and
//! `len / 64` rows, which fold them. The `ablation_kernel_cold_first_touch`
//! legs time a cracked copy's whole birth (copy, dense OIDs, first crack)
//! with plain `to_vec` arrays against `storage::mem`'s huge-page-advised
//! ones, and the `ablation_first_touch` legs a copy then its crack against
//! a copy built from the base already cut by the first predicate.
//!
//! `BENCH_SMOKE=1` shrinks the column and op counts so CI can run this as
//! a smoke test; pass `--json` to record medians as `BENCH_ablation.json`
//! (see the bench harness).

use cracker_core::{CrackerColumn, CrackerConfig, KernelPolicy, RangePred};
use criterion::{criterion_group, BatchSize, BenchmarkId, Criterion};
use engine::{AdaptiveDb, CrackEngine, OutputMode, QueryEngine, RangeQuery, Table};
use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant};
use storage::mem;
use workload::scenario::{Op, Scenario, Shift, ShiftingHotSet, UpdateHeavy};
use workload::strolling::{strolling_sequence, StrollMode};
use workload::{Contraction, Mqs, Tapestry};

const K: usize = 64;

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

fn n() -> usize {
    if smoke() {
        20_000
    } else {
        200_000
    }
}

fn column() -> Vec<i64> {
    Tapestry::generate(n(), 1, 0xAB1A).column(0).to_vec()
}

fn sequence() -> Vec<workload::Window> {
    strolling_sequence(n(), K, 0.05, Contraction::Linear, StrollMode::Converge, 5)
}

fn run_sequence(cfg: CrackerConfig, vals: &[i64], seq: &[workload::Window]) {
    let mut e = CrackEngine::with_config(vals.to_vec(), cfg);
    for w in seq {
        e.run(w.to_pred(), OutputMode::Count);
    }
}

const KERNELS: [(&str, KernelPolicy); 2] = [
    ("scalar", KernelPolicy::Scalar),
    ("simd", KernelPolicy::Auto),
];

/// Cut-off granule sweep: the "disk-blocks" cut-off of §3.4.2. Large
/// cut-offs trade cracking writes for residual edge scans.
fn cutoff(c: &mut Criterion) {
    let vals = column();
    let seq = sequence();
    let mut g = c.benchmark_group("ablation_cutoff");
    g.sample_size(10);
    for &cut in &[1usize, 64, 1024, 16_384] {
        let cfg = CrackerConfig::new().with_min_piece_size(cut);
        g.bench_with_input(BenchmarkId::from_parameter(cut), &cfg, |b, &cfg| {
            b.iter(|| run_sequence(cfg, &vals, &seq))
        });
    }
    g.finish();
}

/// A fresh shuffled column per sample. Every cold-crack measurement gets
/// data the branch predictor has never seen: replaying one identical
/// buffer lets the predictor memorize the outcome sequence across
/// samples, flattering the scalar kernel with an accuracy no real cold
/// crack gets.
fn fresh_column(counter: &std::cell::Cell<u64>) -> Vec<i64> {
    let seed = 0xAB1A + counter.get();
    counter.set(counter.get() + 1);
    Tapestry::generate(n(), 1, seed).column(0).to_vec()
}

/// Both kernels on a single cold crack-in-three over a virgin random
/// column — the branch-misprediction worst case of the scalar sweep.
fn kernel_cold_crack(c: &mut Criterion) {
    let (lo, hi) = (n() as i64 / 4, 3 * n() as i64 / 4);
    let mut g = c.benchmark_group("ablation_kernel_cold_crack");
    g.sample_size(20);
    for (label, kernel) in KERNELS {
        let cfg = CrackerConfig::new().with_kernel(kernel);
        let ctr = std::cell::Cell::new(0u64);
        g.bench_function(label, |b| {
            b.iter_batched(
                || CrackerColumn::with_config(fresh_column(&ctr), cfg),
                |mut col| col.select(RangePred::between(lo, hi)),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// Both kernels on a single cold one-sided crack — a pure crack-in-two
/// over a virgin column (PR 4's acceptance benchmark).
fn kernel_cold_crack_two(c: &mut Criterion) {
    let mid = n() as i64 / 2;
    let mut g = c.benchmark_group("ablation_kernel_cold_crack_two");
    g.sample_size(20);
    for (label, kernel) in KERNELS {
        let cfg = CrackerConfig::new().with_kernel(kernel);
        let ctr = std::cell::Cell::new(0u64);
        g.bench_function(label, |b| {
            b.iter_batched(
                || CrackerColumn::with_config(fresh_column(&ctr), cfg),
                |mut col| col.select(RangePred::ge(mid)),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// Piece sizes of the sized cold-crack legs: from a piece that fits in L2
/// to the e2e `cold_start` column.
const PIECE_SIZES: [usize; 4] = [30_000, 125_000, 500_000, 2_000_000];

/// Both kernels on one cold crack of a virgin piece at each of
/// [`PIECE_SIZES`] (the two smallest under `BENCH_SMOKE`):
///
/// - `ablation_kernel_cold_crack_two_large/<kernel>/<n>`: a balanced
///   crack-in-two, where 4-wide compare + compress-permute lanes beat the
///   one-branch-per-tuple scalar loop;
/// - `ablation_kernel_cold_crack_three_large/<kernel>/<n>`: a
///   crack-in-three at a 0.1 % window, the shape of each e2e `cold_start`
///   crack, where the vector kernel's two in-place passes run over memory
///   the column has only just filled.
fn kernel_cold_crack_sizes(c: &mut Criterion) {
    let sizes = if smoke() {
        &PIECE_SIZES[..2]
    } else {
        &PIECE_SIZES[..]
    };
    // A crack-in-two at the middle value, or a crack-in-three at a
    // window of `1 / share` of the values starting there.
    for (group, seed, share) in [
        ("ablation_kernel_cold_crack_two_large", 0xB16B, None),
        (
            "ablation_kernel_cold_crack_three_large",
            0x3C01D,
            Some(1_000),
        ),
    ] {
        let mut g = c.benchmark_group(group);
        g.sample_size(20);
        for &n in sizes {
            let mid = n as i64 / 2;
            let pred = share.map_or(RangePred::ge(mid), |s| {
                RangePred::between(mid, mid + n as i64 / s)
            });
            for (label, kernel) in KERNELS {
                let cfg = CrackerConfig::new().with_kernel(kernel);
                let ctr = std::cell::Cell::new(0u64);
                g.bench_function(format!("{label}/{n}"), |b| {
                    b.iter_batched(
                        || {
                            ctr.set(ctr.get() + 1);
                            let vals = Tapestry::generate(n, 1, seed + ctr.get())
                                .column(0)
                                .to_vec();
                            CrackerColumn::with_config(vals, cfg)
                        },
                        |mut col| col.select(pred),
                        BatchSize::LargeInput,
                    )
                });
            }
        }
        g.finish();
    }
}

/// A cracked copy's first touch over a virgin 2M-tuple column, end to
/// end: build the copy and run its first select, a crack-in-three at a
/// 0.1 % window — what `AdaptiveDb`'s first touch and the first select do
/// for e2e `cold_start`'s first query. Two groups share the samples:
///
/// - `ablation_kernel_cold_first_touch`: a copy and its dense OIDs, then
///   the crack. `to_vec` builds both arrays on 4 KiB pages,
///   `storage_mem` through `storage::mem`'s huge-page advice.
/// - `ablation_first_touch`: `CrackerColumn::from_base` without the
///   predicate (`copy_then_crack`: a huge-page copy, then the crack in
///   place) and with it (`from_base`: one out-of-place pass over the base
///   cuts the window's larger outer side, and the select cracks the rest
///   in place).
///
/// The samples are taken in a child process with the allocator pinned
/// (see [`MALLOC_PIN`]), the variants interleaved sample by sample in
/// the orders of [`ORDERS`].
///
/// The result depends on the host's transparent-huge-page mode
/// (`/sys/kernel/mm/transparent_hugepage/enabled`), which the JSON report
/// does not record: note it beside any committed numbers. The committed
/// `BENCH_ablation.json` entries of these groups were taken on a 2-vCPU
/// Intel Xeon VM (AVX2 + AVX-512F), Linux 6.18 x86-64, THP `enabled
/// [madvise]` / `defrag [madvise]`, rustc 1.95.0.
fn first_touch(c: &mut Criterion) {
    let (key, value) = MALLOC_PIN;
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .arg(FIRST_TOUCH_CHILD)
            .env(key, value)
            .output()
    });
    let out = match child {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
        Ok(out) => panic!("first-touch child failed: {}", out.status),
        Err(e) => panic!("cannot start the first-touch child: {e}"),
    };
    for group in ["ablation_kernel_cold_first_touch", "ablation_first_touch"] {
        let mut g = c.benchmark_group(group);
        g.sample_size(FIRST_TOUCH_SAMPLES);
        for (id, _) in FIRST_TOUCH {
            let Some(label) = id.strip_prefix(group).and_then(|l| l.strip_prefix('/')) else {
                continue;
            };
            let mut samples = (out.lines())
                .filter_map(|l| l.strip_prefix(id)?.strip_prefix(' ')?.parse().ok())
                .map(Duration::from_nanos);
            g.bench_function(label, |b| {
                b.iter_custom(|_| samples.next().expect("one child sample per iteration"))
            });
        }
        g.finish();
    }
}

/// The argument that makes the bench binary only take the first-touch
/// samples and print them, one `group/label nanoseconds` line each.
const FIRST_TOUCH_CHILD: &str = "--first-touch-samples";

/// Timed births per variant, after one untimed warm-up.
const FIRST_TOUCH_SAMPLES: usize = 20;

/// Builds a cracked copy of a base column before its first select of the
/// given predicate.
type Birth = fn(&[i64], RangePred<i64>) -> CrackerColumn<i64>;

/// The first-touch variants, as `group/label`.
const FIRST_TOUCH: [(&str, Birth); 4] = [
    ("ablation_kernel_cold_first_touch/to_vec", |v, _| {
        let vals = v.to_vec();
        let oids = (0..v.len() as u32).collect();
        CrackerColumn::from_pairs(vals, oids, CrackerConfig::new())
    }),
    ("ablation_kernel_cold_first_touch/storage_mem", |v, _| {
        let vals = mem::copy_of(v);
        CrackerColumn::from_pairs(vals, mem::dense_oids(v.len()), CrackerConfig::new())
    }),
    ("ablation_first_touch/copy_then_crack", |v, _| {
        CrackerColumn::from_base(v, CrackerConfig::new(), None)
    }),
    ("ablation_first_touch/from_base", |v, pred| {
        CrackerColumn::from_base(v, CrackerConfig::new(), Some(pred))
    }),
];

/// The order of the variants in each round, by round: a 4 × 4 Williams
/// square, in which every variant follows every other exactly once. A
/// birth's time depends on the one before it (right after `to_vec` one
/// reads ~15 % slower), so a fixed order would bias the comparison.
const ORDERS: [[usize; 4]; 4] = [[0, 1, 3, 2], [1, 2, 0, 3], [2, 3, 1, 0], [3, 0, 2, 1]];

/// glibc raises its `mmap` threshold to the size of every big buffer
/// freed, so once one 2M-tuple column is dropped the next is served from
/// recycled, already-faulted heap and no first touch is left to measure.
/// The first-touch child runs with the threshold pinned at 1 MiB, as the
/// e2e benchmark pins it, so every buffer of 1 MiB or more is fresh pages
/// returned on free. The other legs keep the allocator's default.
const MALLOC_PIN: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "1048576");

/// The first-touch child: time the warm-up and every sample of every
/// variant, interleaved, and print them. Freeing the column is not
/// timed.
fn first_touch_samples() {
    let n_large = if smoke() { 300_000 } else { 2_000_000 };
    let lo = n_large as i64 / 2;
    let pred = RangePred::between(lo, lo + n_large as i64 / 1_000);
    let base = Tapestry::generate(n_large, 1, 0xF1257).column(0).to_vec();
    for round in 0..=FIRST_TOUCH_SAMPLES {
        for k in ORDERS[round % ORDERS.len()] {
            let (label, birth) = FIRST_TOUCH[k];
            let t = Instant::now();
            let mut col = birth(&base, pred);
            black_box(col.select(pred));
            let elapsed = t.elapsed();
            drop(col);
            println!("{label} {}", elapsed.as_nanos());
        }
    }
}

/// Both kernels over a full crack_select-shaped query sequence
/// (the strolling MQS profile): cold cracks up front, boundary reuse and
/// ever-smaller pieces toward the tail. Fresh data per sample, same
/// window sequence.
fn kernel_crack_select(c: &mut Criterion) {
    let seq = sequence();
    let mut g = c.benchmark_group("ablation_kernel_crack_select");
    g.sample_size(10);
    for (label, kernel) in KERNELS {
        let cfg = CrackerConfig::new().with_kernel(kernel);
        let ctr = std::cell::Cell::new(0u64);
        g.bench_function(label, |b| {
            b.iter_batched(
                || fresh_column(&ctr),
                |vals| run_sequence(cfg, &vals, &seq),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// Both kernels under scenario_mix shapes: a shifting hot set
/// (fresh crack storms every relocation) and an update-heavy mix (overlay
/// filtering and merges in the loop). Replayed single-threaded against a
/// plain column, with the OID buffer reused across ops via
/// `select_oids_into` so the kernels — not the allocator — dominate.
fn kernel_scenario_mix(c: &mut Criterion) {
    let selects = if smoke() { 96 } else { 512 };
    let shifting = |seed: u64| {
        materialize(ShiftingHotSet::new(
            n(),
            selects,
            16,
            Shift::Drift {
                step: n() as i64 / 8,
            },
            seed,
        ))
    };
    let updates = |seed: u64| {
        materialize(UpdateHeavy::new(
            Mqs::paper_default(n(), selects, 0.05),
            3.0,
            8,
            seed,
        ))
    };
    type Shape = (Vec<i64>, Vec<Op>);
    let shapes: [(&str, &dyn Fn(u64) -> Shape); 2] =
        [("shifting", &shifting), ("update_heavy", &updates)];
    let mut g = c.benchmark_group("ablation_kernel_scenario_mix");
    g.sample_size(10);
    for (shape, make) in shapes {
        for (label, kernel) in KERNELS {
            let cfg = CrackerConfig::new().with_kernel(kernel);
            let ctr = std::cell::Cell::new(0u64);
            g.bench_function(format!("{shape}/{label}"), |b| {
                b.iter_batched(
                    || {
                        // A fresh seeded scenario per sample (see
                        // `fresh_column` for why).
                        let seed = 0xC1D2 + ctr.get();
                        ctr.set(ctr.get() + 1);
                        let (base, ops) = make(seed);
                        (CrackerColumn::with_config(base, cfg), ops)
                    },
                    |(mut col, ops)| {
                        let mut scratch: Vec<u32> = Vec::new();
                        for op in ops {
                            match op {
                                Op::Select(w) => {
                                    scratch.clear();
                                    col.select_oids_into(w.to_pred(), &mut scratch);
                                    criterion::black_box(scratch.len());
                                }
                                Op::Insert { oid, value } => col.insert(oid, value),
                                Op::Delete { oid } => {
                                    col.delete(oid);
                                }
                            }
                        }
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
    g.finish();
}

/// One update merge of 1 024 staged rows into a 1 M-row column cracked
/// into ~1 000 pieces: staged inserts spread over the whole domain, then
/// staged deletes of spread OIDs. Only `merge_pending` is timed. In the
/// insert leg the column has grown once before, so its arrays have spare
/// capacity, as they do in steady-state ingest after the first merge.
/// Then the base-table delete: a 50-row `delete_rows`, which stages
/// tombstones, alone and with the select after it, and a `len / 64`-row
/// one, which folds them, with the select after it.
fn merge(c: &mut Criterion) {
    const STAGED: usize = 1024;
    let n_large = if smoke() { 100_000 } else { 1_000_000 };
    // Spread positions: a multiplicative hash of the counter into 0..n.
    let spread =
        |i: usize| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as usize % n_large;
    let mut base = CrackerColumn::new(Tapestry::generate(n_large, 1, 0x3E26).column(0).to_vec());
    for q in 0..500 {
        let lo = spread(q) as i64;
        base.select(RangePred::between(lo, lo + n_large as i64 / 2_000));
    }
    let mut g = c.benchmark_group("ablation_merge");
    g.sample_size(10);
    g.bench_function(format!("inserts_{STAGED}"), |b| {
        b.iter_batched(
            || {
                // A clone's arrays are exactly full; one merged row
                // doubles their capacity, untimed.
                let mut col = base.clone();
                col.insert(n_large as u32, 0);
                col.merge_pending();
                for i in 0..STAGED {
                    col.insert((n_large + 1 + i) as u32, spread(i + 7) as i64);
                }
                col
            },
            |mut col| col.merge_pending(),
            BatchSize::LargeInput,
        )
    });
    g.bench_function(format!("deletes_{STAGED}"), |b| {
        b.iter_batched(
            || {
                let mut col = base.clone();
                for i in 0..STAGED {
                    col.delete(spread(i + 11) as u32);
                }
                col
            },
            |mut col| col.merge_pending(),
            BatchSize::LargeInput,
        )
    });
    // The same column as a one-column table, cracked by the same windows:
    // a 50-row `delete_rows`, then the first select after it, together —
    // the whole price a `DELETE` puts on a cracked column, whether the
    // copy is rebuilt cold or compacted and renumbered in place.
    let vals = Tapestry::generate(n_large, 1, 0x3E26).column(0).to_vec();
    let windows: Vec<RangeQuery> = (0..500)
        .map(|q| {
            let lo = spread(q) as i64;
            RangeQuery::new(
                "r",
                "a",
                RangePred::between(lo, lo + n_large as i64 / 2_000),
            )
        })
        .collect();
    let cracked_table = || {
        let mut db = AdaptiveDb::new();
        let table = Table::from_int_columns("r", vec![("a", vals.clone())]);
        db.register(table.expect("one column")).expect("fresh name");
        for q in &windows {
            db.select(q, OutputMode::Count).expect("known column");
        }
        db
    };
    let doomed: Vec<u32> = (0..50).map(|i| spread(i + 13) as u32).collect();
    g.bench_function("delete_renumber", |b| {
        b.iter_batched_ref(
            cracked_table,
            |db| {
                db.delete_rows("r", &doomed).expect("no durability");
                db.select(&windows[0], OutputMode::Count)
                    .expect("known column")
            },
            BatchSize::LargeInput,
        )
    });
    // A `DELETE` of n / 64 rows in one call: its tombstones reach the fold
    // trigger at once, so the fold's one compaction pass over the base and
    // the cracked copy runs, then the first select after it.
    let fold: Vec<u32> = (0..n_large / 64).map(|i| (64 * i + 17) as u32).collect();
    g.bench_function("delete_fold", |b| {
        b.iter_batched_ref(
            cracked_table,
            |db| {
                db.delete_rows("r", &fold).expect("no durability");
                db.select(&windows[0], OutputMode::Count)
                    .expect("known column")
            },
            BatchSize::LargeInput,
        )
    });
    // 50 contiguous rows of a three-column table, one or all three of
    // whose columns are cracked: only `delete_rows` is timed, the price a
    // `DELETE` pays per cracked copy of its table.
    let wide = Tapestry::generate(n_large, 3, 0x3E27);
    let contiguous: Vec<u32> = (0..50).map(|i| (n_large / 3 + i) as u32).collect();
    for cracked in [1, 3] {
        g.bench_function(format!("delete_50_of_1m/{cracked}_cracked"), |b| {
            b.iter_batched_ref(
                || {
                    let mut db = AdaptiveDb::new();
                    let cols = ["a", "b", "c"].into_iter().enumerate();
                    let cols = cols.map(|(i, name)| (name, wide.column(i).to_vec()));
                    let table = Table::from_int_columns("r", cols.collect());
                    db.register(table.expect("three columns"))
                        .expect("fresh name");
                    for attr in ["a", "b", "c"].into_iter().take(cracked) {
                        for q in windows.iter().take(100) {
                            let q = RangeQuery::new("r", attr, q.pred);
                            db.select(&q, OutputMode::Count).expect("known column");
                        }
                    }
                    db
                },
                |db| db.delete_rows("r", &contiguous).expect("no durability"),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// Materialize a scenario into its base column and op stream (seeded, so
/// every kernel replays the identical mix).
fn materialize<S: Scenario>(mut s: S) -> (Vec<i64>, Vec<Op>) {
    let base = s.base().to_vec();
    let ops: Vec<Op> = s.by_ref().collect();
    (base, ops)
}

criterion_group!(
    benches,
    cutoff,
    kernel_cold_crack,
    kernel_cold_crack_two,
    kernel_cold_crack_sizes,
    first_touch,
    kernel_crack_select,
    kernel_scenario_mix,
    merge
);

/// `criterion_main!`, plus the first-touch child's entry point.
fn main() {
    if std::env::args().any(|a| a == FIRST_TOUCH_CHILD) {
        first_touch_samples();
        return;
    }
    benches();
    criterion::write_json_report();
}
