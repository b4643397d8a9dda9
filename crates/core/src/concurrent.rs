//! A thread-safe cracked column.
//!
//! Cracking turns reads into writes: the first query over a region
//! physically reorganizes it, so a naive shared cracked column would
//! serialize every query. [`SharedCrackerColumn`] recovers read
//! parallelism for the common case the paper's own experiments highlight —
//! "with time progressing the retrieval speed would increase dramatically"
//! because later queries mostly *reuse* existing boundaries:
//!
//! 1. take the shared (read) lock and try
//!    [`CrackerColumn::try_select_readonly`] — succeeds whenever every
//!    needed boundary already exists and no updates are staged;
//! 2. otherwise take the exclusive (write) lock, **retry the read-only
//!    path under it**, and only on a genuine miss run the cracking
//!    [`CrackerColumn::select`].
//!
//! The retry in step 2 is the classic double-checked upgrade: between
//! dropping the read lock and acquiring the write lock, a contending
//! thread may have cracked the very boundaries this query needs. Without
//! the recheck the loser would re-enter `select()` — a full piece scan for
//! an answer that is already one index probe away, plus a spurious
//! `CrackStats::queries` increment. With it, exactly one of N racing
//! threads pays the cracking cost of a cold predicate; the rest reuse the
//! winner's boundaries. (The same protocol, generalized to per-shard
//! latches, is [`crate::sharded::ShardedCrackerColumn`].)
//!
//! The wrapped column inherits its crack kernel (scalar or SIMD —
//! [`crate::kernel`]) from the `CrackerConfig` it is built with, so the
//! single-lock path runs exactly the same hot loops as the plain and
//! sharded paths.
//!
//! The lock itself comes from the [`crate::sync`] facade (lockdep): under
//! `LOCK_ANALYSIS=1` every acquisition here is checked for order
//! inversions, upgrade-while-held, and the batch path's one-read-plus-
//! one-write latch budget. `CONCURRENCY.md` at the repository root
//! documents the full latch hierarchy and which invariants are checked
//! mechanically vs. stress-tested.

use crate::column::{CrackerColumn, Selection};
use crate::config::CrackerConfig;
use crate::pred::RangePred;
use crate::stats::CrackStats;
use crate::sync::{lockdep, LockGroup, RwLock};
use crate::updates::Renumbering;
use crate::value_trait::CrackValue;

/// Lockdep class of the column-wide latch.
const LATCH_CLASS: &str = "column";

/// A [`CrackerColumn`] behind a read/write lock with a boundary-reuse
/// fast path.
#[derive(Debug)]
pub struct SharedCrackerColumn<T> {
    inner: RwLock<CrackerColumn<T>>,
}

impl<T: CrackValue> SharedCrackerColumn<T> {
    /// Wrap a fresh column over `vals`.
    pub fn new(vals: Vec<T>) -> Self {
        Self::from_column(CrackerColumn::new(vals))
    }

    /// Wrap a fresh column with an explicit configuration.
    pub fn with_config(vals: Vec<T>, config: CrackerConfig) -> Self {
        Self::from_column(CrackerColumn::with_config(vals, config))
    }

    /// Wrap an existing column.
    pub fn from_column(column: CrackerColumn<T>) -> Self {
        SharedCrackerColumn {
            inner: RwLock::with_class(column, LATCH_CLASS, 0, LockGroup::new()),
        }
    }

    /// Run a cracking select with **panic containment**: a kernel dying
    /// mid-reorganization would otherwise leave the shared column torn
    /// for every later query (our locks don't poison). Catch the unwind,
    /// heal the column — validate the piece map in `O(n+p)`, rebuild it
    /// cold if the panic left moves it does not describe — and only then
    /// propagate, so the panicking query still fails loudly but the
    /// column degrades to cold instead of wedging.
    fn select_contained(column: &mut CrackerColumn<T>, pred: RangePred<T>) -> Selection {
        let attempt =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| column.select(pred)));
        match attempt {
            Ok(sel) => sel,
            Err(payload) => {
                column.heal();
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// [`select_contained`](Self::select_contained) for the guarded
    /// (cancellable) path.
    fn select_guarded_contained(
        column: &mut CrackerColumn<T>,
        pred: RangePred<T>,
        keep_going: &dyn Fn() -> bool,
    ) -> Option<Selection> {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            column.select_guarded(pred, keep_going)
        }));
        match attempt {
            Ok(sel) => sel,
            Err(payload) => {
                column.heal();
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Count qualifying tuples. Lock-shared when the boundaries already
    /// exist; lock-exclusive (cracking) otherwise.
    pub fn count(&self, pred: RangePred<T>) -> usize {
        if let Some(sel) = self.inner.read().try_select_readonly(pred) {
            return sel.count();
        }
        let mut guard = self.inner.write();
        // Double-check: a contending thread may have cracked the needed
        // boundaries while we waited for the write lock.
        if let Some(sel) = guard.try_select_readonly(pred) {
            return sel.count();
        }
        Self::select_contained(&mut guard, pred).count()
    }

    /// Qualifying OIDs (unordered), same locking discipline as
    /// [`count`](Self::count).
    pub fn select_oids(&self, pred: RangePred<T>) -> Vec<u32> {
        let mut out = Vec::new();
        self.select_oids_into(pred, &mut out);
        out
    }

    /// Append the qualifying OIDs of `pred` to `out` — the scratch-buffer
    /// twin of [`select_oids`](Self::select_oids). The caller owns (and
    /// reuses) the buffer, so a warm query allocates nothing.
    pub fn select_oids_into(&self, pred: RangePred<T>, out: &mut Vec<u32>) {
        {
            let guard = self.inner.read();
            if let Some(sel) = guard.try_select_readonly(pred) {
                guard.selection_oids_into(&sel, out);
                return;
            }
        }
        let mut guard = self.inner.write();
        // Double-check, as in `count`.
        let sel = match guard.try_select_readonly(pred) {
            Some(sel) => sel,
            None => Self::select_contained(&mut guard, pred),
        };
        guard.selection_oids_into(&sel, out);
    }

    /// Answer a whole batch of predicates, appending the OIDs of
    /// `preds[i]` to `outs[i]`, under **one** lock acquisition for the
    /// whole batch instead of one per predicate.
    ///
    /// The prefix of predicates whose boundaries already exist is answered
    /// under a single read lock; at the first boundary miss the read lock
    /// is dropped and the remainder of the batch runs under a single write
    /// lock (each predicate still double-checks the read-only path there,
    /// so the per-predicate cracking discipline — at most one `select()`
    /// entry per cold predicate — is unchanged).
    pub fn select_oids_batch_into(&self, preds: &[RangePred<T>], outs: &mut [Vec<u32>]) {
        assert_eq!(preds.len(), outs.len(), "one output buffer per predicate");
        // Machine-checked form of the amortization contract above: the
        // whole batch costs at most one read plus one write acquisition
        // of the column latch (no-op unless lock analysis is on).
        let _budget = lockdep::LatchBudget::new(LATCH_CLASS, 2, "batch select amortization");
        let mut done = 0;
        {
            let guard = self.inner.read();
            for (pred, out) in preds.iter().zip(outs.iter_mut()) {
                match guard.try_select_readonly(*pred) {
                    Some(sel) => {
                        guard.selection_oids_into(&sel, out);
                        done += 1;
                    }
                    None => break,
                }
            }
            if done == preds.len() {
                return;
            }
        }
        let mut guard = self.inner.write();
        for (pred, out) in preds[done..].iter().zip(outs[done..].iter_mut()) {
            let sel = match guard.try_select_readonly(*pred) {
                Some(sel) => sel,
                None => Self::select_contained(&mut guard, *pred),
            };
            guard.selection_oids_into(&sel, out);
        }
    }

    /// The cancellable twin of
    /// [`select_oids_batch_into`](Self::select_oids_batch_into):
    /// `keep_going` is polled before every predicate (both the read-only
    /// prefix and the cracking remainder) and at every crack-step
    /// boundary inside a cold select. Returns the number of predicates
    /// fully answered — always a prefix; `outs` beyond it are untouched,
    /// and the column is left with every piece either untouched or fully
    /// cracked (never torn), so later queries are unaffected.
    ///
    /// # Panics
    /// Panics if `preds` and `outs` differ in length.
    pub fn select_oids_batch_guarded(
        &self,
        preds: &[RangePred<T>],
        outs: &mut [Vec<u32>],
        keep_going: &dyn Fn() -> bool,
    ) -> usize {
        assert_eq!(preds.len(), outs.len(), "one output buffer per predicate");
        let _budget = lockdep::LatchBudget::new(LATCH_CLASS, 2, "batch select amortization");
        let mut done = 0;
        {
            let guard = self.inner.read();
            for (pred, out) in preds.iter().zip(outs.iter_mut()) {
                if !keep_going() {
                    return done;
                }
                match guard.try_select_readonly(*pred) {
                    Some(sel) => {
                        guard.selection_oids_into(&sel, out);
                        done += 1;
                    }
                    None => break,
                }
            }
            if done == preds.len() {
                return done;
            }
        }
        let mut guard = self.inner.write();
        for (pred, out) in preds[done..].iter().zip(outs[done..].iter_mut()) {
            let sel = match guard.try_select_readonly(*pred) {
                Some(sel) => sel,
                None => match Self::select_guarded_contained(&mut guard, *pred, keep_going) {
                    Some(sel) => sel,
                    None => return done,
                },
            };
            guard.selection_oids_into(&sel, out);
            done += 1;
        }
        done
    }

    /// Allocating convenience wrapper over
    /// [`select_oids_batch_into`](Self::select_oids_batch_into).
    pub fn select_oids_batch(&self, preds: &[RangePred<T>]) -> Vec<Vec<u32>> {
        let mut outs: Vec<Vec<u32>> = preds.iter().map(|_| Vec::new()).collect();
        self.select_oids_batch_into(preds, &mut outs);
        outs
    }

    /// Run a cracking select unconditionally (exclusive).
    pub fn select(&self, pred: RangePred<T>) -> Selection {
        let mut guard = self.inner.write();
        Self::select_contained(&mut guard, pred)
    }

    /// Chaos hook: arm the wrapped column's panic-on-crack countdown
    /// (see [`CrackerColumn::arm_panic_on_crack`]).
    pub fn arm_panic_on_crack(&self, after: u32) {
        self.inner.write().arm_panic_on_crack(after);
    }

    /// Validate-or-rebuild the piece map (see [`CrackerColumn::heal`]).
    /// Exposed so recovery paths can force a heal; the select paths
    /// already heal automatically when a contained panic unwinds through
    /// them.
    pub fn heal(&self) -> bool {
        self.inner.write().heal()
    }

    /// Stage an insert (exclusive).
    pub fn insert(&self, oid: u32, value: T) {
        self.inner.write().insert(oid, value);
    }

    /// Stage a batch of inserts under a single exclusive latch
    /// acquisition — N staged rows cost one lock round-trip instead of N.
    pub fn insert_batch(&self, rows: &[(u32, T)]) {
        if rows.is_empty() {
            return;
        }
        let mut guard = self.inner.write();
        for &(oid, value) in rows {
            guard.insert(oid, value);
        }
    }

    /// Stage a delete (exclusive). Returns whether the OID was found.
    pub fn delete(&self, oid: u32) -> bool {
        self.inner.write().delete(oid)
    }

    /// Fold staged updates into the store (exclusive).
    pub fn merge_pending(&self) {
        self.inner.write().merge_pending();
    }

    /// Follow a base-table delete in place (exclusive); see
    /// [`CrackerColumn::compact_renumber`].
    pub fn compact_renumber(&self, doomed: &Renumbering) {
        self.inner.write().compact_renumber(doomed);
    }

    /// Snapshot of the cost counters.
    pub fn stats(&self) -> CrackStats {
        *self.inner.read().stats()
    }

    /// Current number of pieces.
    pub fn piece_count(&self) -> usize {
        self.inner.read().piece_count()
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Validate all invariants (test/debug).
    pub fn validate(&self) -> Result<(), String> {
        self.inner.read().validate()
    }

    /// Run `f` against the wrapped column under the read latch — the
    /// export path for checkpointing (the durability layer snapshots the
    /// piece map and pending overlay through this).
    pub fn read_with<R>(&self, f: impl FnOnce(&CrackerColumn<T>) -> R) -> R {
        f(&self.inner.read())
    }

    /// Run `f` against the wrapped column under the write latch.
    pub fn write_with<R>(&self, f: impl FnOnce(&mut CrackerColumn<T>) -> R) -> R {
        f(&mut self.inner.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(vals: &[i64], pred: &RangePred<i64>) -> usize {
        vals.iter().filter(|&&v| pred.matches(v)).count()
    }

    #[test]
    fn readonly_fast_path_answers_repeat_queries() {
        let col = SharedCrackerColumn::new((0..1000).rev().collect::<Vec<i64>>());
        let pred = RangePred::between(100, 200);
        assert_eq!(col.count(pred), 101); // cracks (write path)
        let cracks_before = col.stats().cracks;
        let queries_before = col.stats().queries;
        assert_eq!(col.count(pred), 101); // read-only fast path
        assert_eq!(col.stats().cracks, cracks_before);
        assert_eq!(
            col.stats().queries,
            queries_before,
            "fast path does not even enter select()"
        );
    }

    #[test]
    fn pending_updates_disable_the_fast_path() {
        let col = SharedCrackerColumn::new((0..100).collect::<Vec<i64>>());
        let pred = RangePred::between(10, 20);
        col.count(pred);
        col.insert(500, 15);
        // Fast path must not be used while an insert is staged.
        assert_eq!(col.count(pred), 12);
    }

    #[test]
    fn concurrent_readers_and_crackers_agree_with_oracle() {
        let vals: Vec<i64> = (0..50_000).map(|i| (i * 31) % 50_000).collect();
        let col = SharedCrackerColumn::new(vals.clone());
        std::thread::scope(|s| {
            for t in 0..8 {
                let col = &col;
                let vals = &vals;
                s.spawn(move || {
                    for q in 0..50 {
                        let lo = ((t * 577 + q * 131) % 49_000) as i64;
                        let pred = RangePred::between(lo, lo + 800);
                        assert_eq!(col.count(pred), oracle(vals, &pred));
                    }
                });
            }
        });
        col.validate().unwrap();
    }

    #[test]
    fn concurrent_updates_and_queries_are_linearizable_at_count_level() {
        // Writers insert values outside the queried band; readers must
        // never see a torn store (counts over the fixed band stay exact).
        let col = SharedCrackerColumn::new((0..10_000).collect::<Vec<i64>>());
        let band = RangePred::between(2_000, 3_000);
        let expected = 1_001;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let col = &col;
                s.spawn(move || {
                    for q in 0..100 {
                        assert_eq!(col.count(band), expected, "query {q}");
                    }
                });
            }
            let col = &col;
            s.spawn(move || {
                for i in 0..500u32 {
                    col.insert(20_000 + i, 50_000 + i as i64);
                }
                col.merge_pending();
            });
        });
        col.validate().unwrap();
        assert_eq!(col.len(), 10_500);
        assert_eq!(col.count(band), expected);
    }

    #[test]
    fn contended_cold_predicate_enters_select_exactly_once() {
        // Regression for the contended-upgrade double-crack: N threads
        // race on the same cold predicate; exactly one may enter the
        // cracking select() (queries += 1), the rest must pick up the
        // winner's boundaries via the double-checked read-only retry
        // under the write lock.
        use std::sync::Barrier;
        let col = SharedCrackerColumn::new((0..100_000).rev().collect::<Vec<i64>>());
        let threads = 8;
        for round in 0..20i64 {
            let lo = round * 4_500;
            let pred = RangePred::between(lo, lo + 1_000);
            let expected = 1_001;
            let before = col.stats().queries;
            let barrier = Barrier::new(threads);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let col = &col;
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        // Exercise both upgrading entry points.
                        if t % 2 == 0 {
                            assert_eq!(col.count(pred), expected);
                        } else {
                            assert_eq!(col.select_oids(pred).len(), expected);
                        }
                    });
                }
            });
            assert_eq!(
                col.stats().queries,
                before + 1,
                "round {round}: a cold predicate must enter select() exactly once \
                 across {threads} racing threads"
            );
        }
        col.validate().unwrap();
    }

    #[test]
    fn batch_select_matches_statement_at_a_time() {
        let vals: Vec<i64> = (0..5_000).map(|i| (i * 17) % 5_000).collect();
        let batch = SharedCrackerColumn::new(vals.clone());
        let single = SharedCrackerColumn::new(vals);
        let preds: Vec<RangePred<i64>> = (0..20)
            .map(|i| RangePred::between(i * 190, i * 190 + 400))
            .collect();
        let got = batch.select_oids_batch(&preds);
        for (pred, mut oids) in preds.iter().zip(got) {
            let mut expect = single.select_oids(*pred);
            oids.sort_unstable();
            expect.sort_unstable();
            assert_eq!(oids, expect, "pred {pred:?}");
        }
        // Same boundaries were created either way.
        assert_eq!(batch.piece_count(), single.piece_count());
        // A warm batch is answered entirely on the read-lock fast path:
        // select() is never re-entered.
        let queries = batch.stats().queries;
        let again = batch.select_oids_batch(&preds);
        assert_eq!(again.len(), preds.len());
        assert_eq!(batch.stats().queries, queries);
        // Scratch variant appends into caller buffers.
        let mut outs: Vec<Vec<u32>> = preds.iter().map(|_| Vec::new()).collect();
        batch.select_oids_batch_into(&preds, &mut outs);
        for (pred, out) in preds.iter().zip(&outs) {
            assert_eq!(out.len(), batch.count(*pred), "pred {pred:?}");
        }
        batch.validate().unwrap();
    }

    #[test]
    fn select_and_oids_work_through_the_wrapper() {
        let col = SharedCrackerColumn::new(vec![5i64, 1, 9, 3]);
        let sel = col.select(RangePred::le(3));
        assert_eq!(sel.count(), 2);
        let mut oids = col.select_oids(RangePred::le(3));
        oids.sort_unstable();
        assert_eq!(oids, vec![1, 3]);
        assert!(col.delete(1));
        assert_eq!(col.count(RangePred::le(3)), 1);
        assert!(!col.is_empty());
        assert_eq!(col.len(), 4, "delete is staged, not yet merged");
        col.merge_pending();
        assert_eq!(col.len(), 3);
    }

    #[test]
    fn a_panicking_crack_is_contained_and_the_column_heals() {
        let vals: Vec<i64> = (0..2000).map(|i| (i * 29) % 2000).collect();
        let col = SharedCrackerColumn::new(vals.clone());
        col.count(RangePred::between(500, 1500)); // crack some boundaries
        col.arm_panic_on_crack(0);
        // The injected panic tears a pair across pieces and unwinds; the
        // wrapper heals the column and re-raises so the query still fails.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            col.count(RangePred::between(100, 200))
        }));
        assert!(r.is_err(), "the panicking query must fail loudly");
        // The lock is parking_lot-backed (no poisoning) and the column
        // already healed: every later query answers from a cold rebuild.
        col.validate().unwrap();
        assert!(!col.heal(), "containment already healed the piece map");
        for pred in [
            RangePred::between(100, 200),
            RangePred::between(500, 1500),
            RangePred::le(50),
        ] {
            assert_eq!(col.count(pred), oracle(&vals, &pred), "pred {pred:?}");
        }
    }

    #[test]
    fn guarded_batch_stops_at_a_block_boundary_and_reports_the_prefix() {
        let vals: Vec<i64> = (0..3000).map(|i| (i * 17) % 3000).collect();
        let col = SharedCrackerColumn::new(vals.clone());
        let preds: Vec<RangePred<i64>> = (0..6)
            .map(|i| RangePred::between(i * 400, i * 400 + 300))
            .collect();
        // Fail the guard once the third predicate has been admitted.
        let polls = std::cell::Cell::new(0usize);
        let guard = || {
            polls.set(polls.get() + 1);
            polls.get() <= 2
        };
        let mut outs: Vec<Vec<u32>> = preds.iter().map(|_| Vec::new()).collect();
        let done = col.select_oids_batch_guarded(&preds, &mut outs, &guard);
        assert!(done < preds.len(), "the batch must be cut short");
        for (i, out) in outs.iter().enumerate() {
            if i < done {
                let mut got = out.clone();
                got.sort_unstable();
                let mut expect: Vec<u32> = vals
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| preds[i].matches(v))
                    .map(|(p, _)| p as u32)
                    .collect();
                expect.sort_unstable();
                assert_eq!(got, expect, "completed pred {i}");
            } else {
                assert!(out.is_empty(), "abandoned pred {i} left no output");
            }
        }
        col.validate().unwrap();
        // The abandoned suffix changed no later observable answer.
        for pred in &preds {
            assert_eq!(col.count(*pred), oracle(&vals, pred));
        }
    }
}
