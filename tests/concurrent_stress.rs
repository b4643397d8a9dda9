//! Multi-threaded stress: "hundreds of [queries] issued in rapid
//! succession" (§2.2), concurrently, against the shared cracked column.
//! Every thread checks every answer against the immutable oracle; the
//! final structure must still satisfy all cracker invariants.

use dbcracker::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn oracle_count(vals: &[i64], pred: &RangePred<i64>) -> usize {
    vals.iter().filter(|&&v| pred.matches(v)).count()
}

#[test]
fn parallel_query_storm_stays_correct() {
    let n = 50_000;
    let vals = Tapestry::generate(n, 1, 0xC0C0).column(0).to_vec();
    let shared = ConcurrentColumn::new(vals.clone(), 1);
    let threads = 8;
    let queries_per_thread = 200;

    std::thread::scope(|s| {
        for t in 0..threads {
            let shared = &shared;
            let vals = &vals;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t as u64);
                for _ in 0..queries_per_thread {
                    let lo = rng.gen_range(0..n as i64);
                    let width = rng.gen_range(1..=(n as i64 / 20));
                    let pred = RangePred::half_open(lo, lo + width);
                    let got = shared.select_oids(pred).len();
                    assert_eq!(
                        got,
                        oracle_count(vals, &pred),
                        "thread {t} disagreed on [{lo},{})",
                        lo + width
                    );
                }
            });
        }
    });

    shared.validate().expect("invariants hold after the storm");
    let stats = shared.stats();
    // Boundary-reusing queries may ride the shared-lock read-only fast
    // path, which leaves the (write-locked) counters untouched — so the
    // count is a lower bound that still must capture the bulk of the
    // storm.
    let total = threads * queries_per_thread;
    assert!(
        stats.queries <= total && stats.queries >= total / 2,
        "counted {} of {total} queries",
        stats.queries
    );
    assert!(stats.cracks > 0, "the storm physically cracked the store");
}

#[test]
fn readers_and_a_writer_interleave() {
    // Concurrent selects racing staged inserts/deletes: totals must land
    // exactly once the writer finishes.
    let n = 10_000;
    let vals: Vec<i64> = (0..n as i64).rev().collect();
    let shared = ConcurrentColumn::new(vals, 1);

    std::thread::scope(|s| {
        // Readers hammer a fixed hot range.
        for t in 0..4 {
            let shared = &shared;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(100 + t);
                for _ in 0..300 {
                    let lo = rng.gen_range(0..9_000i64);
                    let c = shared.select_oids(RangePred::half_open(lo, lo + 500)).len();
                    // The writer only adds values above the domain, so
                    // in-domain counts never change.
                    assert_eq!(c, 500);
                }
            });
        }
        // One writer stages out-of-domain inserts then removes them.
        let shared = &shared;
        s.spawn(move || {
            for i in 0..200u32 {
                shared.insert(n as u32 + i, n as i64 + i as i64);
            }
            for i in 0..100u32 {
                assert!(shared.delete(n as u32 + i));
            }
        });
    });

    // After the dust settles: 100 of the 200 staged inserts survive.
    let above = shared.select_oids(RangePred::ge(n as i64)).len();
    assert_eq!(above, 100);
    shared.validate().expect("invariants hold");
}

#[test]
fn sharded_mixed_storm_stays_correct() {
    // Oracle-checked mixed read/crack/update stress over the per-shard-
    // latched column: 8 threads firing straddling predicates (every query
    // window is wider than a shard, so the lock-ordered multi-shard path
    // is exercised continuously), then racing staged updates, with every
    // phase followed by a full invariant validation.
    let n = 50_000usize;
    let vals = Tapestry::generate(n, 1, 0x5AAD).column(0).to_vec();
    let col = ConcurrentColumn::new(vals.clone(), 16);
    assert_eq!(col.shard_count(), 16);
    let threads = 8;

    // Phase 1: read/crack storm. Shard width is ~n/16, so widths above
    // that straddle at least one split point.
    std::thread::scope(|s| {
        for t in 0..threads {
            let col = &col;
            let vals = &vals;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xF00D + t as u64);
                for _ in 0..150 {
                    let lo = rng.gen_range(0..(n - n / 8) as i64);
                    let width = rng.gen_range((n / 16) as i64..(n / 4) as i64);
                    let pred = RangePred::half_open(lo, lo + width);
                    assert_eq!(col.count(pred), oracle_count(vals, &pred));
                }
            });
        }
    });
    col.validate()
        .expect("invariants hold after the crack storm");

    // Phase 2: concurrent readers, inserters, and deleters. Writers only
    // touch values above the base domain, so in-domain answers stay
    // oracle-exact throughout.
    std::thread::scope(|s| {
        for t in 0..threads / 2 {
            let col = &col;
            let vals = &vals;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xBEEF + t as u64);
                for _ in 0..100 {
                    let lo = rng.gen_range(0..(n - n / 8) as i64);
                    let width = rng.gen_range((n / 16) as i64..(n / 4) as i64);
                    let pred = RangePred::half_open(lo, lo + width.min(n as i64 - lo));
                    assert_eq!(col.count(pred), oracle_count(vals, &pred));
                }
            });
        }
        // Writers stage values strictly above the base domain (a tapestry
        // column is a permutation of 1..=n, so "above" starts at 2n).
        for w in 0..threads / 2 {
            let col = &col;
            s.spawn(move || {
                for i in 0..200u32 {
                    let oid = (2 * n + w * 1_000 + i as usize) as u32;
                    col.insert(oid, (2 * n + w * 1_000 + i as usize) as i64);
                    if i % 2 == 0 {
                        assert!(col.delete(oid), "freshly staged insert must be found");
                    }
                }
            });
        }
    });
    col.validate()
        .expect("invariants hold after the update storm");

    // Half of each writer's 200 staged inserts survived its deletes.
    let above = col.select_oids(RangePred::ge(2 * n as i64)).len();
    assert_eq!(above, (threads / 2) * 100);

    // Phase 3: merge everything in, then re-check answers and invariants.
    col.merge_pending();
    col.validate().expect("invariants hold after the merge");
    assert_eq!(col.len(), n + (threads / 2) * 100);
    assert_eq!(col.select_oids(RangePred::ge(2 * n as i64)).len(), above);
    assert_eq!(
        col.count(RangePred::le(n as i64)),
        n,
        "the base domain is untouched by the out-of-domain writers"
    );
    assert!(
        col.stats().cracks > 0,
        "the storm physically cracked shards"
    );
}
