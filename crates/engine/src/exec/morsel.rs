//! Morsel-driven intra-query parallelism for sharded scans.
//!
//! A selection over a [`ConcurrentColumn`] decomposes naturally into
//! independent units of work: each shard in the predicate's touched
//! range is answered under its own latch with a shard-clamped predicate
//! (see `cracker_core::sharded`). This module turns those shards into
//! **morsels** — independently claimable work items pulled from a shared
//! atomic counter by a small pool of workers — so one big query uses
//! more than one core while every latch rule still holds:
//!
//! * **Claiming.** Workers race on a single `AtomicUsize` over the
//!   touched shard range `first..=last`. A claim is a `fetch_add(1)`;
//!   whoever increments past `last` stops. No work queue, no stealing —
//!   the counter *is* the schedule, and skew self-balances because a
//!   fast worker simply claims more shards.
//! * **Latching.** Each morsel acquires exactly one shard latch (the
//!   two-phase read→write protocol of `select_shard_oids_into`) and
//!   releases it before the next claim. A worker never holds two shard
//!   latches, so the ascending-order deadlock rule is satisfied
//!   vacuously and morsel workers compose with every other column user.
//! * **Admission.** The caller's query already holds its own admission
//!   permit; only the *extra* workers consume additional
//!   [`AdmissionGate`] permits, acquired non-blockingly with
//!   [`AdmissionGate::try_admit`] — under load the pool degrades to
//!   sequential execution instead of queueing behind itself.
//! * **Governor polls.** The cancel/deadline guard is polled before
//!   every claim and at the crack-step boundaries of each claimed
//!   shard's cold select. On cancellation the whole query errors;
//!   **no partial answer escapes** (workers' partial buffers are
//!   dropped), though shards already cracked stay cracked — byproduct
//!   work is never torn, merely kept.
//! * **Determinism.** Each worker tags its buffers with the shard index
//!   it served; the caller sorts the fragments by shard and
//!   concatenates, so the output OID order is identical to the
//!   sequential `select_oids` walk regardless of claim interleaving.

use crate::admission::AdmissionGate;
use crate::error::EngineResult;
use crate::governor::Governor;
use cracker_core::{ConcurrentColumn, RangePred};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on morsel workers per query (including the caller's
/// thread). Kept small: shards are the parallelism grain, and a pool
/// wider than the touched shard count or the machine is pure overhead.
pub const MAX_MORSEL_WORKERS: usize = 8;

/// Claim-and-execute loop run by every pool member: pull the next
/// unclaimed shard index, answer it into a local buffer, repeat until
/// the range is exhausted or the guard trips. Returns the locally
/// answered `(shard, oids)` fragments, or `None` when cancelled (the
/// fragments are discarded — no partial answers).
fn work_loop(
    col: &ConcurrentColumn<i64>,
    pred: RangePred<i64>,
    next: &AtomicUsize,
    last: usize,
    keep_going: &(dyn Fn() -> bool + Sync),
) -> Option<Vec<(usize, Vec<u32>)>> {
    let mut parts: Vec<(usize, Vec<u32>)> = Vec::new();
    loop {
        if !keep_going() {
            return None;
        }
        let shard = next.fetch_add(1, Ordering::Relaxed);
        if shard > last {
            return Some(parts);
        }
        // lint: allow(per-tuple-alloc) — one buffer per claimed shard (morsel grain), kept as the fragment
        let mut oids = Vec::new();
        if !col.select_shard_oids_into(shard, pred, &mut oids, keep_going) {
            return None;
        }
        parts.push((shard, oids));
    }
}

/// Morsel-parallel `select_oids` over a column's shards with an explicit
/// `keep_going` guard — the testable core of
/// [`morsel_select_oids`]. Returns `None` when the guard tripped before
/// every morsel was answered (no partial answer), `Some(oids)` in
/// sequential shard order otherwise.
///
/// `workers` counts the caller's thread; values ≤ 1 run sequentially on
/// the caller with the same per-claim guard polls. Extra workers beyond
/// the caller are spawned only when `gate` grants a permit without
/// blocking, and the permits are RAII-released when the scope ends.
pub fn morsel_select_oids_guarded(
    col: &ConcurrentColumn<i64>,
    pred: RangePred<i64>,
    workers: usize,
    gate: Option<(&AdmissionGate, u64)>,
    keep_going: &(dyn Fn() -> bool + Sync),
) -> Option<Vec<u32>> {
    let Some((first, last)) = col.touched_shards(&pred) else {
        return Some(Vec::new());
    };
    let shard_count = last - first + 1;
    let want = workers.min(MAX_MORSEL_WORKERS).min(shard_count).max(1);
    let next = AtomicUsize::new(first);
    // Only the *extra* workers need permits; the caller's thread rides
    // on the query's own admission. Without a gate (single-user paths,
    // benches) the extras are free.
    let permits: Vec<crate::admission::AdmissionPermit<'_>> = match gate {
        Some((gate, session)) => (1..want).map_while(|_| gate.try_admit(session)).collect(),
        None => Vec::new(),
    };
    let extra = match gate {
        Some(_) => permits.len(),
        None => want - 1,
    };
    let mut fragments: Vec<(usize, Vec<u32>)> = Vec::new();
    let mut cancelled = false;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..extra)
            .map(|_| scope.spawn(|| work_loop(col, pred, &next, last, keep_going)))
            .collect();
        // The caller is worker zero.
        let own = work_loop(col, pred, &next, last, keep_going);
        match own {
            Some(parts) => fragments.extend(parts),
            None => cancelled = true,
        }
        for handle in handles {
            match handle.join() {
                Ok(Some(parts)) => fragments.extend(parts),
                Ok(None) => cancelled = true,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    drop(permits);
    if cancelled {
        return None;
    }
    // Stitch fragments back into ascending shard order: identical
    // output to the sequential walk, claim interleaving invisible.
    fragments.sort_by_key(|(shard, _)| *shard);
    let total = fragments.iter().map(|(_, o)| o.len()).sum();
    let mut out = Vec::with_capacity(total);
    for (_, oids) in fragments {
        out.extend_from_slice(&oids);
    }
    Some(out)
}

/// Morsel-parallel `select_oids` under a [`Governor`]: polls
/// deadline/cancel before every morsel claim and returns the governor's
/// error — with no partial answer — when it trips. See the module doc
/// for the latch/permit discipline.
pub fn morsel_select_oids(
    col: &ConcurrentColumn<i64>,
    pred: RangePred<i64>,
    workers: usize,
    gate: Option<(&AdmissionGate, u64)>,
    governor: &Governor,
) -> EngineResult<Vec<u32>> {
    let guard = governor.as_guard();
    match morsel_select_oids_guarded(col, pred, workers, gate, &guard) {
        Some(oids) => Ok(oids),
        None => {
            governor.check()?;
            unreachable!("guard tripped only when the governor denies")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn sharded(n: i64, shards: usize) -> ConcurrentColumn<i64> {
        let vals: Vec<i64> = (0..n).map(|i| (i * 7919) % n).collect();
        ConcurrentColumn::new(vals, shards)
    }

    #[test]
    fn morsel_output_equals_sequential() {
        let col = sharded(20_000, 8);
        for pred in [
            RangePred::between(100, 15_000),
            RangePred::lt(5),
            RangePred::ge(19_990),
            RangePred::between(10, 9),
        ] {
            let seq = col.select_oids(pred);
            let par = morsel_select_oids(&col, pred, 8, None, &Governor::unbounded())
                .expect("unbounded governor");
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn single_worker_equals_sequential() {
        let col = sharded(5_000, 4);
        let pred = RangePred::between(1_000, 4_000);
        let seq = col.select_oids(pred);
        let par = morsel_select_oids(&col, pred, 1, None, &Governor::unbounded())
            .expect("unbounded governor");
        assert_eq!(par, seq);
    }

    #[test]
    fn cancelled_run_returns_none_and_leaves_column_valid() {
        let col = sharded(20_000, 8);
        let pred = RangePred::between(0, 19_999);
        for cancel_at in 0..10u64 {
            let polls = AtomicU64::new(0);
            let guard = move |polls: &AtomicU64| polls.fetch_add(1, Ordering::Relaxed) < cancel_at;
            let res = morsel_select_oids_guarded(&col, pred, 4, None, &|| guard(&polls));
            if let Some(oids) = res {
                assert_eq!(oids, col.select_oids(pred));
            }
            col.validate()
                .expect("piece maps intact after cancellation");
        }
        // A guard that never trips answers fully.
        let all =
            morsel_select_oids_guarded(&col, pred, 4, None, &|| true).expect("no cancellation");
        assert_eq!(all, col.select_oids(pred));
    }

    #[test]
    fn extra_workers_bounded_by_gate() {
        let gate = AdmissionGate::new(1, 1);
        let col = sharded(10_000, 8);
        let pred = RangePred::between(0, 9_999);
        // One total slot: the pool must degrade to the caller's thread
        // alone (no extra permits available) and still answer fully.
        let held = gate.admit(7);
        let par = morsel_select_oids(&col, pred, 8, Some((&gate, 9)), &Governor::unbounded())
            .expect("unbounded governor");
        drop(held);
        assert_eq!(par, col.select_oids(pred));
    }
}
