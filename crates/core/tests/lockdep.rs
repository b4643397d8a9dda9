//! Lockdep negative and clean-run tests.
//!
//! This suite lives in its own test binary on purpose: it calls
//! [`lockdep::force_enable`], which switches the checker on for the whole
//! process, and the negative tests feed deliberate violations into the
//! global lock-order graph. Keeping them here means neither leaks into
//! unrelated suites. Every negative test uses throwaway class names
//! (`neg-*`) so the poisoned graph edges never collide with the real
//! classes (`shard`, `admission`), which the clean-run tests
//! exercise under full instrumentation in this same process.

use cracker_core::sync::{lockdep, LockGroup, RwLock};
use cracker_core::{ConcurrencyMode, ConcurrentColumn, RangePred};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Negative tests: each seeded violation must trip the checker.
// ---------------------------------------------------------------------------

/// The issue's seeded inversion: two latches of one sharded group taken
/// in descending shard order. Lockdep must refuse at the second acquire.
#[test]
#[should_panic(expected = "same-class order inversion")]
fn seeded_descending_shard_acquisition_trips_lockdep() {
    lockdep::force_enable();
    let group = LockGroup::new();
    let shard0 = RwLock::with_class(0u32, "neg-shard", 0, group);
    let shard1 = RwLock::with_class(1u32, "neg-shard", 1, group);
    let _hi = shard1.read();
    let _lo = shard0.read(); // descending: panics
}

#[test]
#[should_panic(expected = "same-class order inversion")]
fn equal_order_in_one_group_also_trips() {
    lockdep::force_enable();
    let group = LockGroup::new();
    let a = RwLock::with_class(0u32, "neg-shard-eq", 3, group);
    let b = RwLock::with_class(0u32, "neg-shard-eq", 3, group);
    let _a = a.read();
    let _b = b.read(); // equal order, same group: not strictly ascending
}

/// Distinct groups must NOT order-constrain each other: descending
/// orders across two groups of the same class are fine.
#[test]
fn distinct_groups_do_not_cross_constrain() {
    lockdep::force_enable();
    let a = RwLock::with_class(0u32, "neg-shard-groups", 1, LockGroup::new());
    let b = RwLock::with_class(0u32, "neg-shard-groups", 0, LockGroup::new());
    let _a = a.read();
    let _b = b.read();
}

#[test]
#[should_panic(expected = "lock-order cycle")]
fn cross_class_cycle_trips_lockdep() {
    lockdep::force_enable();
    let a = RwLock::with_class(0u32, "neg-cycle-a", 0, LockGroup::new());
    let b = RwLock::with_class(0u32, "neg-cycle-b", 0, LockGroup::new());
    {
        // Teach the graph a -> b.
        let _a = a.write();
        let _b = b.write();
    }
    // Now close the cycle: b -> a.
    let _b = b.write();
    let _a = a.write();
}

#[test]
#[should_panic(expected = "read->write upgrade while held")]
fn upgrade_while_held_trips_lockdep() {
    lockdep::force_enable();
    let l = RwLock::with_class(0u32, "neg-upgrade", 0, LockGroup::new());
    let _r = l.read();
    let _w = l.write(); // classic self-deadlocking upgrade
}

#[test]
#[should_panic(expected = "recursive read latch")]
fn recursive_read_trips_lockdep() {
    lockdep::force_enable();
    let l = RwLock::with_class(0u32, "neg-recursive", 0, LockGroup::new());
    let _r1 = l.read();
    let _r2 = l.read(); // deadlocks for real once a writer queues between
}

#[test]
#[should_panic(expected = "latch budget exceeded")]
fn latch_budget_trips_on_third_roundtrip() {
    lockdep::force_enable();
    let l = RwLock::with_class(0u32, "neg-budget", 0, LockGroup::new());
    let _budget = lockdep::LatchBudget::new("neg-budget", 2, "test contract");
    drop(l.read());
    drop(l.write());
    drop(l.read()); // third round-trip on one instance: over budget
}

#[test]
fn latch_budget_allows_the_contracted_roundtrips() {
    lockdep::force_enable();
    let group = LockGroup::new();
    let a = RwLock::with_class(0u32, "neg-budget-ok", 0, group);
    let b = RwLock::with_class(0u32, "neg-budget-ok", 1, group);
    let _budget = lockdep::LatchBudget::new("neg-budget-ok", 2, "test contract");
    // Two round-trips per instance, many instances: within contract.
    drop(a.read());
    drop(b.read());
    drop(a.write());
    drop(b.write());
}

// ---------------------------------------------------------------------------
// Clean runs: the real protocols under full instrumentation.
// ---------------------------------------------------------------------------

fn dataset(n: u32) -> Vec<i64> {
    // Deterministic scramble, same shape the other suites use.
    (0..n).map(|i| i64::from((i * 37) % n)).collect()
}

/// The double-checked upgrade protocol of a one-shard column (one latch
/// around the whole column) under contention: no upgrade-while-held, no
/// order violation, exactly the answers the oracle predicts.
#[test]
fn shared_column_protocol_is_clean_under_lockdep() {
    lockdep::force_enable();
    let col = Arc::new(ConcurrentColumn::new(dataset(512), 1));
    let mut handles = Vec::new();
    for t in 0..4i64 {
        let col = Arc::clone(&col);
        handles.push(std::thread::spawn(move || {
            for lo in [t * 13, t * 29, 100 + t] {
                let got = col.select_oids(RangePred::between(lo, lo + 64)).len();
                let want = dataset(512)
                    .iter()
                    .filter(|v| (lo..=lo + 64).contains(v))
                    .count();
                assert_eq!(got, want);
            }
        }));
    }
    for h in handles {
        h.join().expect("no lockdep violation in shared column");
    }
}

/// The two-phase ascending-shard protocol, point and batch paths, under
/// contention — including the batch path's two-round-trips-per-shard
/// budget, which is armed inside `select_oids_batch_into` itself.
#[test]
fn sharded_column_protocol_is_clean_under_lockdep() {
    lockdep::force_enable();
    let col = Arc::new(ConcurrentColumn::new(dataset(1024), 4));
    let mut handles = Vec::new();
    for t in 0..4i64 {
        let col = Arc::clone(&col);
        handles.push(std::thread::spawn(move || {
            let preds: Vec<_> = (0..6)
                .map(|i| RangePred::between(t * 31 + i * 7, t * 31 + i * 7 + 90))
                .collect();
            let batch = col.select_oids_batch(&preds);
            for (pred, got) in preds.iter().zip(&batch) {
                let single = col.select_oids(*pred);
                assert_eq!(got.len(), single.len());
            }
            // Mutations latch one shard at a time; keep them in the mix.
            col.insert(u32::MAX - t as u32, 7 + t);
            col.delete(u32::MAX - t as u32);
        }));
    }
    for h in handles {
        h.join().expect("no lockdep violation in sharded column");
    }
}

/// `ConcurrentColumn::build` under both shard counts, with a guarded
/// batch, under instrumentation too.
#[test]
fn concurrent_column_modes_are_clean_under_lockdep() {
    lockdep::force_enable();
    for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 2 }] {
        let col = ConcurrentColumn::build(dataset(256), Default::default(), mode);
        let oids = col.select_oids(RangePred::ge(128));
        assert_eq!(oids.len(), 128);
        let preds = [RangePred::between(10, 40), RangePred::between(100, 200)];
        let mut outs = vec![Vec::new(); preds.len()];
        assert_eq!(
            col.select_oids_batch_guarded(&preds, &mut outs, &|| true),
            2
        );
        assert_eq!((outs[0].len(), outs[1].len()), (31, 101));
    }
}
