//! Cracker-index scaling: boundary resolution cost as the piece count
//! grows. §3.2 worries that "at some point, cracking is completely
//! overshadowed by cracker index maintenance overhead" — this bench
//! measures where navigation cost actually sits (`O(log p)` ordered-map
//! probes, read-only on an exact boundary hit) and what a fresh boundary
//! costs as the pieces shrink.

use cracker_core::{CrackerColumn, RangePred};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use workload::Tapestry;

/// `BENCH_SMOKE=1` shrinks the column so CI can run this as a smoke test.
fn n() -> usize {
    if std::env::var_os("BENCH_SMOKE").is_some() {
        50_000
    } else {
        500_000
    }
}

/// Crack a column into roughly `pieces` pieces with evenly spread queries.
fn cracked_with_pieces(pieces: usize) -> CrackerColumn<i64> {
    let n = n();
    let vals = Tapestry::generate(n, 1, 0x1D).column(0).to_vec();
    let mut col = CrackerColumn::new(vals);
    let queries = pieces / 2;
    for q in 0..queries {
        let lo = (q * n / queries.max(1)) as i64;
        col.select(RangePred::half_open(
            lo,
            lo + (n / (queries.max(1) * 2)) as i64,
        ));
    }
    col
}

/// Selects timed together per `index_boundary_reuse` sample. One
/// exact-hit select takes ~100 ns, so a sample of one select is mostly
/// timer and scheduling noise; a batch's mean is not.
const REUSE_BATCH: u32 = 1_000;

/// Boundary reuse: the ns per select of a batch of [`REUSE_BATCH`]
/// repeats of one query whose boundaries exist, 50 batches per piece
/// count.
fn boundary_reuse(c: &mut Criterion) {
    let n = n();
    let mut g = c.benchmark_group("index_boundary_reuse");
    g.sample_size(50);
    for &pieces in &[16usize, 256, 2048] {
        let mut col = cracked_with_pieces(pieces);
        // A query whose boundaries already exist: pure index navigation.
        let probe = RangePred::half_open((n / 2) as i64, (n / 2 + n / (pieces.max(2))) as i64);
        col.select(probe);
        g.bench_with_input(
            BenchmarkId::from_parameter(col.piece_count()),
            &probe,
            |b, &probe| {
                b.iter_custom(|_| {
                    let t = Instant::now();
                    for _ in 0..REUSE_BATCH {
                        black_box(col.select(probe).count());
                    }
                    t.elapsed() / REUSE_BATCH
                })
            },
        );
    }
    g.finish();
}

fn fresh_boundary_cost(c: &mut Criterion) {
    let n = n();
    // Bounds chosen to miss the evenly spread existing boundaries.
    let fresh_lo = (n as i64 / 3) * 2 + 1;
    let mut g = c.benchmark_group("index_fresh_boundary");
    g.sample_size(20);
    for &pieces in &[16usize, 256, 2048] {
        // Build the cracked template once; clone per iteration.
        let template = cracked_with_pieces(pieces);
        g.bench_with_input(
            BenchmarkId::from_parameter(pieces),
            &template,
            |b, template| {
                b.iter_batched(
                    || template.clone(),
                    |mut col| {
                        col.select(RangePred::half_open(fresh_lo, fresh_lo + 6))
                            .count()
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

criterion_group!(benches, boundary_reuse, fresh_boundary_cost);
criterion_main!(benches);
