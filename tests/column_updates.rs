//! Integration: the paper's "open issue" of updates on a cracked column —
//! staged inserts and deletes merged during a query sequence, and a full
//! drain and refill — with a shadow model as the oracle.

use dbcracker::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use workload::strolling::{strolling_sequence, StrollMode};

#[test]
fn updates_during_a_strolling_sequence_stay_correct() {
    let n = 10_000usize;
    let t = Tapestry::generate(n, 1, 0xF00D);
    let mut rng = SmallRng::seed_from_u64(0x11);
    let cfg = CrackerConfig::new().with_merge_threshold(500);
    let mut col = CrackerColumn::with_config(t.column(0).to_vec(), cfg);
    let mut model: BTreeMap<u32, i64> = (0..n as u32)
        .map(|i| (i, t.column(0)[i as usize]))
        .collect();
    let mut next_oid = n as u32;

    for w in strolling_sequence(n, 60, 0.05, Contraction::Linear, StrollMode::Converge, 0x22) {
        // Interleave a burst of updates.
        for _ in 0..50 {
            let v = rng.gen_range(1..=n as i64);
            col.insert(next_oid, v);
            model.insert(next_oid, v);
            next_oid += 1;
        }
        for _ in 0..20 {
            let keys: Vec<u32> = model.keys().copied().collect();
            let victim = keys[rng.gen_range(0..keys.len())];
            assert!(col.delete(victim));
            model.remove(&victim);
        }
        // Query both the column and the shadow model.
        let got = col.count(w.to_pred());
        let want = model.values().filter(|&&v| v >= w.lo && v < w.hi).count();
        assert_eq!(got, want, "window {w:?}");
    }
    col.merge_pending();
    col.validate().unwrap();
    assert_eq!(col.len(), model.len());
    assert!(col.stats().merges > 0, "threshold merges must have fired");
}

#[test]
fn heavy_churn_then_full_drain() {
    // Insert and delete everything; the column must end empty and valid.
    let mut col = CrackerColumn::new((0..1000).collect::<Vec<i64>>());
    col.select(RangePred::between(100, 300));
    for oid in 0..1000u32 {
        assert!(col.delete(oid));
    }
    col.merge_pending();
    assert_eq!(col.len(), 0);
    assert_eq!(col.count(RangePred::between(0, 1000)), 0);
    col.validate().unwrap();
    // And it can be refilled.
    for (i, v) in (0..500i64).enumerate() {
        col.insert(2000 + i as u32, v);
    }
    col.merge_pending();
    assert_eq!(col.len(), 500);
    assert_eq!(col.count(RangePred::lt(250)), 250);
}
