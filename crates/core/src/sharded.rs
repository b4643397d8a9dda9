//! A sharded, per-piece-latched concurrent cracker index.
//!
//! [`crate::concurrent::SharedCrackerColumn`] serializes every
//! boundary-miss behind one column-wide lock: two queries that would crack
//! *different* pieces still queue on the same `RwLock`. §4 of the paper
//! hints at the cure — cracking already clusters the store by value range,
//! so the value domain itself is the natural unit of concurrency control.
//! [`ShardedCrackerColumn`] makes that structural: the domain is
//! range-partitioned at construction into S shards (split points chosen by
//! sampling, like the paper's first-touch clustering), each shard an
//! independently latched [`CrackerColumn`]. Concurrent crackers whose
//! predicates land in disjoint shards proceed fully in parallel.
//!
//! # Latching protocol
//!
//! Every multi-shard operation touches shards in **ascending shard-index
//! order** and acquires latches in that order only — the global latch
//! order that makes deadlock impossible (any two operations contend on
//! their common shards in the same sequence). A straddling select runs in
//! two phases:
//!
//! 1. **Optimistic (shared)**: take the read latch of every touched shard
//!    in ascending order and try [`CrackerColumn::try_select_readonly`] on
//!    each. If all succeed while all read latches are held, the answer is
//!    a consistent cross-shard snapshot and nothing was written.
//! 2. **Pessimistic**: otherwise drop all read latches and re-visit the
//!    touched shards in ascending order. Each shard is first re-tried
//!    read-only under a fresh read latch (double-checked locking — a
//!    contended thread never re-enters the cracking path for boundaries a
//!    winner created while it waited, and shards that need no cracking
//!    keep admitting concurrent readers); only a shard that still misses
//!    has its read latch dropped and its *write* latch taken, where the
//!    read-only path is retried once more before falling through to the
//!    cracking [`CrackerColumn::select`]. Re-acquiring a latch on the same
//!    shard after releasing its read latch never requests a lower index
//!    than one already held, so the global ascending order is preserved.
//!
//! Single-shard operations (updates routed by value, per-shard merges)
//! latch exactly one shard at a time and therefore compose with the
//! ascending-order rule trivially.
//!
//! # Batched selects (latch amortization)
//!
//! [`ShardedCrackerColumn::select_oids_batch_into`] answers a whole batch
//! of predicates in one pass over the shards: the batch is first bucketed
//! by shard (each predicate contributing its clamped per-shard predicate
//! to every shard it touches), then shards are visited in ascending index
//! order exactly **once**: the prefix of a shard's bucket whose
//! predicates hit existing boundaries is answered under a single read
//! latch, and at the first boundary miss the remainder is answered under
//! a single write latch (with the usual double-checked read-only retry
//! per predicate). A batch of k predicates touching a shard thus costs at
//! most two latch round-trips instead of k — and exactly one on a warm
//! column — which is where the multi-threaded win over
//! statement-at-a-time execution comes from. Each predicate's answer
//! is consistent per shard (the same guarantee the pessimistic phase of a
//! single straddling select provides); the batch as a whole is not a
//! cross-shard snapshot.
//!
//! # Predicate clamping
//!
//! A shard only ever stores values inside its assigned range, so border
//! shards are queried with the original predicate unchanged, while
//! *interior* shards of a straddling range are queried with the unbounded
//! predicate — their entire content qualifies, which the read-only path
//! answers without a single index probe (and without cracking).
//!
//! Every shard is built from the same `CrackerConfig`, so the crack
//! kernel selected there (scalar or SIMD, [`crate::kernel`]) runs inside
//! every shard — a faster single-shard kernel multiplies through the
//! whole latching scheme.

use crate::column::{CrackerColumn, Selection};
use crate::concurrent::SharedCrackerColumn;
use crate::config::CrackerConfig;
use crate::pred::RangePred;
use crate::stats::CrackStats;
use crate::sync::{lockdep, LockGroup, RwLock, RwLockReadGuard, RwLockWriteGuard};
use crate::updates::Renumbering;
use crate::value_trait::CrackValue;

/// Upper bound on the number of values sampled to choose shard splits.
const SPLIT_SAMPLE: usize = 4096;

/// Lockdep class of the per-shard latches. Shard `i`'s latch carries
/// order key `i` inside the column's [`LockGroup`], so the ascending-
/// index discipline documented above is checked mechanically under
/// `LOCK_ANALYSIS=1` (see [`crate::sync`] and `CONCURRENCY.md`).
const LATCH_CLASS: &str = "shard";

/// A held shard latch of either strength (phase 2 mixes them: shards that
/// need no cracking stay read-latched).
enum Latch<'a, T> {
    Read(RwLockReadGuard<'a, CrackerColumn<T>>),
    Write(RwLockWriteGuard<'a, CrackerColumn<T>>),
}

impl<T> Latch<'_, T> {
    fn col(&self) -> &CrackerColumn<T> {
        match self {
            Latch::Read(g) => g,
            Latch::Write(g) => g,
        }
    }
}

/// Run a cracking select on one shard with panic containment: heal the
/// shard (validate-or-rebuild its piece map) before letting the unwind
/// continue, so a kernel dying mid-reorganization degrades that shard to
/// cold instead of leaving it torn for every later query. The mirror of
/// `SharedCrackerColumn`'s containment, per shard.
fn select_contained<T: CrackValue>(column: &mut CrackerColumn<T>, pred: RangePred<T>) -> Selection {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| column.select(pred)));
    match attempt {
        Ok(sel) => sel,
        Err(payload) => {
            column.heal();
            std::panic::resume_unwind(payload);
        }
    }
}

/// How a concurrently shared cracked column is latched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConcurrencyMode {
    /// One `RwLock` around the whole column
    /// ([`SharedCrackerColumn`]).
    #[default]
    SingleLock,
    /// Range-partitioned shards, each independently latched
    /// ([`ShardedCrackerColumn`]).
    Sharded {
        /// Number of shards requested (the realized count can be lower
        /// when the data has too few distinct values to split).
        shards: usize,
    },
}

/// A per-shard `Selection` together with the shard that produced it.
///
/// The positions inside each [`Selection`] are relative to that shard's
/// own value/OID arrays; the OIDs materialized from them are global. Like
/// [`SharedCrackerColumn`]'s selections, this is a snapshot: it describes
/// the physical layout at the moment the latches were held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedSelection {
    /// `(shard index, selection within that shard)`, ascending by shard.
    pub parts: Vec<(usize, Selection)>,
}

impl ShardedSelection {
    /// Total number of qualifying tuples across all shards.
    pub fn count(&self) -> usize {
        self.parts.iter().map(|(_, s)| s.count()).sum()
    }

    /// True when nothing qualifies anywhere.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }
}

/// A cracker index partitioned into independently latched value-range
/// shards.
#[derive(Debug)]
pub struct ShardedCrackerColumn<T> {
    /// Ascending split values: shard `i` holds `splits[i-1] <= v <
    /// splits[i]` (first shard unbounded below, last unbounded above).
    splits: Vec<T>,
    /// One latched cracker per shard; `shards.len() == splits.len() + 1`.
    shards: Vec<RwLock<CrackerColumn<T>>>,
}

impl<T: CrackValue> ShardedCrackerColumn<T> {
    /// Shard `vals` into (at most) `shards` range partitions with the
    /// default cracker configuration.
    pub fn new(vals: Vec<T>, shards: usize) -> Self {
        Self::with_config(vals, CrackerConfig::default(), shards)
    }

    /// Shard `vals` with an explicit per-shard cracker configuration.
    ///
    /// Split points are chosen by sampling up to [`SPLIT_SAMPLE`] values
    /// at a fixed stride and taking equi-depth quantiles, so a skewed
    /// value distribution still yields balanced shard populations. OIDs
    /// are assigned densely (`0..n`) over the *original* order, exactly as
    /// [`CrackerColumn::new`] would, and travel with their values into the
    /// owning shard.
    pub fn with_config(vals: Vec<T>, config: CrackerConfig, shards: usize) -> Self {
        let splits = sample_splits(&vals, shards);
        let shard_count = splits.len() + 1;
        let mut parts: Vec<(Vec<T>, Vec<u32>)> =
            (0..shard_count).map(|_| (Vec::new(), Vec::new())).collect();
        for (i, v) in vals.into_iter().enumerate() {
            let s = splits.partition_point(|split| *split <= v);
            parts[s].0.push(v);
            parts[s].1.push(i as u32);
        }
        let group = LockGroup::new();
        let shards = parts
            .into_iter()
            .enumerate()
            .map(|(i, (v, o))| {
                RwLock::with_class(
                    CrackerColumn::from_pairs(v, o, config),
                    LATCH_CLASS,
                    i as u32,
                    group,
                )
            })
            .collect();
        ShardedCrackerColumn { splits, shards }
    }

    /// Reassemble a sharded column from previously exported parts — the
    /// recovery constructor. `columns[i]` becomes shard `i` under the same
    /// latch classes and ascending order keys as
    /// [`with_config`](Self::with_config); `splits` must be strictly
    /// ascending with `columns.len() == splits.len() + 1`. The per-shard
    /// range invariant (every cracked value inside its shard's assigned
    /// range) is checked here so a tampered checkpoint fails loudly
    /// instead of producing a silently mis-routed column.
    pub fn from_parts(splits: Vec<T>, columns: Vec<CrackerColumn<T>>) -> Result<Self, String> {
        if columns.len() != splits.len() + 1 {
            return Err(format!(
                "shard count mismatch: {} columns for {} splits",
                columns.len(),
                splits.len()
            ));
        }
        if splits.windows(2).any(|w| w[0] >= w[1]) {
            return Err("split points must be strictly ascending".to_string());
        }
        for (i, col) in columns.iter().enumerate() {
            let lower = i.checked_sub(1).map(|j| splits[j]);
            let upper = splits.get(i).copied();
            for &v in col.values() {
                if lower.is_some_and(|lo| v < lo) || upper.is_some_and(|hi| v >= hi) {
                    return Err(format!(
                        "shard {i}: value {v:?} outside range {lower:?}..{upper:?}"
                    ));
                }
            }
        }
        let group = LockGroup::new();
        let shards = columns
            .into_iter()
            .enumerate()
            .map(|(i, col)| RwLock::with_class(col, LATCH_CLASS, i as u32, group))
            .collect();
        Ok(ShardedCrackerColumn { splits, shards })
    }

    /// Run `f` over every shard's column in ascending shard order, one
    /// read latch at a time — the export path for checkpointing.
    pub fn read_shards<R>(&self, mut f: impl FnMut(&CrackerColumn<T>) -> R) -> Vec<R> {
        self.shards.iter().map(|s| f(&s.read())).collect()
    }

    /// Run `f` over every shard's column in ascending shard order, one
    /// write latch at a time.
    pub fn write_shards(&self, mut f: impl FnMut(&mut CrackerColumn<T>)) {
        self.shards.iter().for_each(|s| f(&mut s.write()));
    }

    /// Number of shards actually realized.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The split values delimiting the shards (ascending, `shard_count() -
    /// 1` of them).
    pub fn splits(&self) -> &[T] {
        &self.splits
    }

    /// Index of the shard owning `value`.
    fn shard_of(&self, value: T) -> usize {
        self.splits.partition_point(|split| *split <= value)
    }

    /// Inclusive `(first, last)` range of shard indices a predicate can
    /// have matches in.
    fn touched(&self, pred: &RangePred<T>) -> (usize, usize) {
        let first = match pred.low {
            None => 0,
            Some(b) => self.shard_of(b.value),
        };
        let last = match pred.high {
            None => self.shards.len() - 1,
            // Exclusive high: values equal to the bound do not match, so a
            // shard starting exactly at the bound need not be latched.
            Some(b) if !b.inclusive => self.splits.partition_point(|split| *split < b.value),
            Some(b) => self.shard_of(b.value),
        };
        (first, last.max(first))
    }

    /// The predicate shard `i` must evaluate: border shards see the
    /// original bounds, interior shards the unbounded predicate (every
    /// value they store qualifies by construction).
    fn shard_pred(pred: &RangePred<T>, i: usize, first: usize, last: usize) -> RangePred<T> {
        RangePred {
            low: if i == first { pred.low } else { None },
            high: if i == last { pred.high } else { None },
        }
    }

    /// Run `consume` over the per-shard selections of `pred`, in ascending
    /// shard order, while the corresponding latches are held — the
    /// two-phase protocol described in the module doc.
    fn for_each_selection(
        &self,
        pred: RangePred<T>,
        consume: &mut dyn FnMut(&CrackerColumn<T>, &Selection, usize),
    ) {
        if pred.is_empty_range() {
            return;
        }
        let (first, last) = self.touched(&pred);
        // Phase 1: optimistic — shared latches, ascending.
        {
            let mut guards = Vec::with_capacity(last - first + 1);
            let mut sels = Vec::with_capacity(last - first + 1);
            let mut complete = true;
            for i in first..=last {
                let guard = self.shards[i].read();
                match guard.try_select_readonly(Self::shard_pred(&pred, i, first, last)) {
                    Some(sel) => {
                        guards.push(guard);
                        sels.push(sel);
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete {
                for (off, (guard, sel)) in guards.iter().zip(&sels).enumerate() {
                    consume(guard, sel, first + off);
                }
                return;
            }
        }
        // Phase 2: pessimistic — ascending, per shard: retry read-only
        // under a fresh read latch (keeping the shard open to concurrent
        // readers when it needs no cracking), escalating to the write
        // latch — with one more read-only retry under it — only on a
        // persistent miss.
        let mut guards: Vec<Latch<'_, T>> = Vec::with_capacity(last - first + 1);
        let mut sels = Vec::with_capacity(last - first + 1);
        for i in first..=last {
            let p = Self::shard_pred(&pred, i, first, last);
            let read = self.shards[i].read();
            if let Some(sel) = read.try_select_readonly(p) {
                guards.push(Latch::Read(read));
                sels.push(sel);
                continue;
            }
            drop(read);
            let mut write = self.shards[i].write();
            let sel = match write.try_select_readonly(p) {
                Some(sel) => sel,
                None => select_contained(&mut write, p),
            };
            guards.push(Latch::Write(write));
            sels.push(sel);
        }
        for (off, (guard, sel)) in guards.iter().zip(&sels).enumerate() {
            consume(guard.col(), sel, first + off);
        }
    }

    /// Run `consume` over the per-shard selections of a whole predicate
    /// batch, visiting each touched shard exactly once in ascending index
    /// order and answering all of that shard's predicates under a single
    /// latch acquisition — the latch-amortization protocol from the module
    /// doc. `consume` receives the batch index of the predicate a
    /// selection belongs to.
    fn for_each_selection_batch(
        &self,
        preds: &[RangePred<T>],
        consume: &mut dyn FnMut(usize, &CrackerColumn<T>, &Selection),
    ) {
        // Machine-checked form of the amortization contract: at most two
        // latch round-trips (one read + one write) per shard for the
        // whole batch (no-op unless lock analysis is on).
        let _budget = lockdep::LatchBudget::new(LATCH_CLASS, 2, "batch latch amortization");
        // Bucket the batch by shard: `work[s]` holds `(batch index,
        // clamped per-shard predicate)` for every predicate touching
        // shard `s`, in batch order.
        let mut work: Vec<Vec<(usize, RangePred<T>)>> = vec![Vec::new(); self.shards.len()];
        for (idx, pred) in preds.iter().enumerate() {
            if pred.is_empty_range() {
                continue;
            }
            let (first, last) = self.touched(pred);
            for (s, jobs) in work.iter_mut().enumerate().take(last + 1).skip(first) {
                jobs.push((idx, Self::shard_pred(pred, s, first, last)));
            }
        }
        for (s, jobs) in work.iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            // Optimistic: consume straight off the shared latch until the
            // first boundary miss (no staging buffer — each answer is
            // final the moment its boundaries are known to exist).
            let mut done = 0;
            {
                let read = self.shards[s].read();
                for (idx, p) in jobs {
                    match read.try_select_readonly(*p) {
                        Some(sel) => {
                            consume(*idx, &read, &sel);
                            done += 1;
                        }
                        None => break,
                    }
                }
            }
            if done == jobs.len() {
                continue;
            }
            // Pessimistic: escalate to the write latch once for the
            // remainder of the bucket, double-checking the read-only path
            // per predicate so a cold predicate still enters the cracking
            // select() at most once.
            let mut write = self.shards[s].write();
            for (idx, p) in &jobs[done..] {
                let sel = match write.try_select_readonly(*p) {
                    Some(sel) => sel,
                    None => select_contained(&mut write, *p),
                };
                consume(*idx, &write, &sel);
            }
        }
    }

    /// Count qualifying tuples. Shards whose boundaries already exist are
    /// read-latched only; crackers on disjoint shards run in parallel.
    pub fn count(&self, pred: RangePred<T>) -> usize {
        let mut total = 0usize;
        self.for_each_selection(pred, &mut |_, sel, _| total += sel.count());
        total
    }

    /// Qualifying OIDs (unordered across shards, physical order within
    /// each), same latching discipline as [`count`](Self::count).
    pub fn select_oids(&self, pred: RangePred<T>) -> Vec<u32> {
        let mut out = Vec::new();
        self.select_oids_into(pred, &mut out);
        out
    }

    /// Append the qualifying OIDs of `pred` to `out` — the scratch-buffer
    /// twin of [`select_oids`](Self::select_oids); a warm query allocates
    /// nothing.
    pub fn select_oids_into(&self, pred: RangePred<T>, out: &mut Vec<u32>) {
        self.for_each_selection(pred, &mut |col, sel, _| {
            col.selection_oids_into(sel, out);
        });
    }

    /// Answer a whole batch of predicates, appending the OIDs of
    /// `preds[i]` to `outs[i]`. Each touched shard's latch is acquired
    /// once for the whole batch on a warm column — at most twice (read,
    /// then write for the cold remainder) otherwise; ascending shard
    /// order preserved. See the module doc's latch-amortization section.
    pub fn select_oids_batch_into(&self, preds: &[RangePred<T>], outs: &mut [Vec<u32>]) {
        assert_eq!(preds.len(), outs.len(), "one output buffer per predicate");
        self.for_each_selection_batch(preds, &mut |idx, col, sel| {
            col.selection_oids_into(sel, &mut outs[idx]);
        });
    }

    /// Allocating convenience wrapper over
    /// [`select_oids_batch_into`](Self::select_oids_batch_into).
    pub fn select_oids_batch(&self, preds: &[RangePred<T>]) -> Vec<Vec<u32>> {
        let mut outs: Vec<Vec<u32>> = preds.iter().map(|_| Vec::new()).collect();
        self.select_oids_batch_into(preds, &mut outs);
        outs
    }

    /// The cancellable twin of
    /// [`select_oids_batch_into`](Self::select_oids_batch_into):
    /// `keep_going` is polled before every predicate, and each predicate's
    /// answer is all-or-nothing (a predicate's per-shard cracks each run
    /// to completion — pieces are never left torn). Returns the number of
    /// predicates fully answered — always a prefix; `outs` beyond it are
    /// untouched. The poll sits at predicate granularity here (rather
    /// than the single-lock path's crack-step granularity) because a
    /// straddling predicate's partial cross-shard answer could not be
    /// discarded without double-cracking; each per-shard crack remains an
    /// atomic step either way.
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
        for (i, (pred, out)) in preds.iter().zip(outs.iter_mut()).enumerate() {
            if !keep_going() {
                return i;
            }
            self.select_oids_into(*pred, out);
        }
        preds.len()
    }

    /// Qualifying `(oid, value)` pairs, same latching discipline as
    /// [`count`](Self::count).
    pub fn select_pairs(&self, pred: RangePred<T>) -> Vec<(u32, T)> {
        let mut out = Vec::new();
        self.for_each_selection(pred, &mut |col, sel, _| {
            col.copy_selection_into(sel, &mut out);
        });
        out
    }

    /// The stitched per-shard selections for `pred` — a layout snapshot
    /// (see [`ShardedSelection`]). Cracks as a side effect where needed.
    pub fn select(&self, pred: RangePred<T>) -> ShardedSelection {
        let mut parts = Vec::new();
        self.for_each_selection(pred, &mut |_, sel, shard| {
            parts.push((shard, sel.clone()));
        });
        ShardedSelection { parts }
    }

    /// The inclusive `(first, last)` shard-index range `pred` can have
    /// matches in, or `None` for an empty range — the morsel enumeration
    /// entry point: a caller that wants to claim shards as independent
    /// morsels asks for the touched range once, then answers each shard
    /// with [`select_shard_oids_into`](Self::select_shard_oids_into).
    pub fn touched_shards(&self, pred: &RangePred<T>) -> Option<(usize, usize)> {
        if pred.is_empty_range() {
            return None;
        }
        Some(self.touched(pred))
    }

    /// Answer `pred` on a single shard, appending its qualifying OIDs to
    /// `out` — the morsel execution entry point. The predicate is clamped
    /// to the shard exactly as [`select_oids`](Self::select_oids) would
    /// (border shards see the original bounds, interior shards the
    /// unbounded predicate), and the per-shard two-phase latch protocol is
    /// followed: optimistic read latch, then write latch with a read-only
    /// double-check. Shards outside the touched range contribute nothing.
    /// Because each call latches exactly one shard and the latch is
    /// released before the next claim, concurrent morsel workers never
    /// hold two shard latches at once — the ascending-order deadlock rule
    /// is satisfied vacuously.
    pub fn select_shard_oids_into(&self, shard: usize, pred: RangePred<T>, out: &mut Vec<u32>) {
        let Some((first, last)) = self.touched_shards(&pred) else {
            return;
        };
        if shard < first || shard > last {
            return;
        }
        let p = Self::shard_pred(&pred, shard, first, last);
        {
            let read = self.shards[shard].read();
            if let Some(sel) = read.try_select_readonly(p) {
                read.selection_oids_into(&sel, out);
                return;
            }
        }
        let mut write = self.shards[shard].write();
        let sel = match write.try_select_readonly(p) {
            Some(sel) => sel,
            None => select_contained(&mut write, p),
        };
        write.selection_oids_into(&sel, out);
    }

    /// Stage an insert, routed to the shard owning `value` (one exclusive
    /// shard latch).
    pub fn insert(&self, oid: u32, value: T) {
        self.shards[self.shard_of(value)].write().insert(oid, value);
    }

    /// Stage a batch of inserts under one exclusive latch acquisition per
    /// *touched* shard (ascending index order, matching the global latch
    /// rule): rows are bucketed by owning shard first, then each bucket is
    /// applied in one critical section — N staged rows cost at most
    /// `shard_count` latch round-trips instead of N.
    pub fn insert_batch(&self, rows: &[(u32, T)]) {
        if rows.is_empty() {
            return;
        }
        let mut buckets: Vec<Vec<(u32, T)>> = vec![Vec::new(); self.shards.len()];
        for &(oid, value) in rows {
            buckets[self.shard_of(value)].push((oid, value));
        }
        for (s, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut col = self.shards[s].write();
            for &(oid, value) in bucket {
                col.insert(oid, value);
            }
        }
    }

    /// Stage a delete. The value (hence shard) of `oid` is unknown, so
    /// shards are probed in ascending order — under a *read* latch, so the
    /// scan doesn't stall readers of uninvolved shards — and only the
    /// owning shard is write-latched to stage the delete. Returns whether
    /// the OID was found (false also when a racing delete got there
    /// first).
    pub fn delete(&self, oid: u32) -> bool {
        for shard in &self.shards {
            let present = {
                let col = shard.read();
                col.pending.insert_value(oid).is_some() || col.oids().contains(&oid)
            };
            if present {
                // Re-checked under the write latch: a concurrent delete
                // may have claimed the OID between the two latches.
                return shard.write().delete(oid);
            }
        }
        false
    }

    /// Fold staged updates into every shard (one exclusive latch at a
    /// time, ascending).
    pub fn merge_pending(&self) {
        for shard in &self.shards {
            shard.write().merge_pending();
        }
    }

    /// Follow a base-table delete in every shard (one exclusive latch at
    /// a time, ascending). OIDs are global, so every shard applies the
    /// same map; see [`CrackerColumn::compact_renumber`].
    pub fn compact_renumber(&self, doomed: &Renumbering) {
        for shard in &self.shards {
            shard.write().compact_renumber(doomed);
        }
    }

    /// Chaos hook: arm the first shard's panic-on-crack countdown (see
    /// [`CrackerColumn::arm_panic_on_crack`]). Arming one shard keeps the
    /// blast radius of one `arm` call at exactly one panic — the countdown
    /// disarms itself when it fires, so later queries run clean — while
    /// still exercising the per-shard containment path.
    pub fn arm_panic_on_crack(&self, after: u32) {
        if let Some(shard) = self.shards.first() {
            shard.write().arm_panic_on_crack(after);
        }
    }

    /// Validate-or-rebuild every shard's piece map (see
    /// [`CrackerColumn::heal`]); returns whether any shard was rebuilt.
    /// The select paths already heal the affected shard automatically
    /// when a contained panic unwinds through them.
    pub fn heal(&self) -> bool {
        let mut rebuilt = false;
        for shard in &self.shards {
            rebuilt |= shard.write().heal();
        }
        rebuilt
    }

    /// Aggregate cost counters over all shards.
    pub fn stats(&self) -> CrackStats {
        let mut acc = CrackStats::default();
        for shard in &self.shards {
            acc.absorb(shard.read().stats());
        }
        acc
    }

    /// Total number of pieces across all shards.
    pub fn piece_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().piece_count()).sum()
    }

    /// Total number of stored tuples (excludes pending inserts).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validate every shard's cracker invariants plus the sharding
    /// invariant itself: all values (cracked and staged) lie inside their
    /// shard's assigned range. Test/debug helper.
    pub fn validate(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            let col = shard.read();
            col.validate().map_err(|e| format!("shard {i}: {e}"))?;
            let lower = i.checked_sub(1).map(|j| self.splits[j]);
            let upper = self.splits.get(i).copied();
            for &v in col.values() {
                if lower.is_some_and(|lo| v < lo) || upper.is_some_and(|hi| v >= hi) {
                    return Err(format!(
                        "shard {i}: value {v:?} outside range {lower:?}..{upper:?}"
                    ));
                }
            }
            let range =
                RangePred::with_bounds(lower.map(|lo| (lo, true)), upper.map(|hi| (hi, false)));
            let everything = RangePred::with_bounds(None, None);
            if col.pending.matching_inserts(&range).len()
                != col.pending.matching_inserts(&everything).len()
            {
                return Err(format!("shard {i}: staged insert outside shard range"));
            }
        }
        Ok(())
    }
}

/// Equi-depth split points from a strided sample of `vals` (ascending,
/// strictly distinct; may be fewer than `shards - 1` when the data has too
/// few distinct values).
fn sample_splits<T: CrackValue>(vals: &[T], shards: usize) -> Vec<T> {
    if shards <= 1 || vals.is_empty() {
        return Vec::new();
    }
    let stride = (vals.len() / SPLIT_SAMPLE).max(1);
    let mut sample: Vec<T> = vals.iter().step_by(stride).copied().collect();
    sample.sort_unstable();
    let mut splits: Vec<T> = Vec::with_capacity(shards - 1);
    for k in 1..shards {
        let v = sample[k * sample.len() / shards];
        if splits.last() != Some(&v) {
            splits.push(v);
        }
    }
    splits
}

/// A latched cracked column under either concurrency mode — the type the
/// engine hands out when several threads share one cracked attribute.
// One long-lived handle per shared column; the size skew between the two
// variants is irrelevant next to the column data behind them, and boxing
// would put a pointer chase on every query.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ConcurrentColumn<T> {
    /// One column-wide `RwLock`.
    Single(SharedCrackerColumn<T>),
    /// Range-partitioned per-shard latches.
    Sharded(ShardedCrackerColumn<T>),
}

impl<T: CrackValue> ConcurrentColumn<T> {
    /// Build from `vals` under `mode`.
    pub fn build(vals: Vec<T>, config: CrackerConfig, mode: ConcurrencyMode) -> Self {
        match mode {
            ConcurrencyMode::SingleLock => {
                ConcurrentColumn::Single(SharedCrackerColumn::with_config(vals, config))
            }
            ConcurrencyMode::Sharded { shards } => {
                ConcurrentColumn::Sharded(ShardedCrackerColumn::with_config(vals, config, shards))
            }
        }
    }

    /// The mode this column was built under.
    pub fn mode(&self) -> ConcurrencyMode {
        match self {
            ConcurrentColumn::Single(_) => ConcurrencyMode::SingleLock,
            ConcurrentColumn::Sharded(s) => ConcurrencyMode::Sharded {
                shards: s.shard_count(),
            },
        }
    }

    /// Count qualifying tuples.
    pub fn count(&self, pred: RangePred<T>) -> usize {
        match self {
            ConcurrentColumn::Single(c) => c.count(pred),
            ConcurrentColumn::Sharded(c) => c.count(pred),
        }
    }

    /// Qualifying OIDs (unordered).
    pub fn select_oids(&self, pred: RangePred<T>) -> Vec<u32> {
        match self {
            ConcurrentColumn::Single(c) => c.select_oids(pred),
            ConcurrentColumn::Sharded(c) => c.select_oids(pred),
        }
    }

    /// Append the qualifying OIDs of `pred` to `out` (scratch-buffer
    /// variant — no per-query allocation on a warm column).
    pub fn select_oids_into(&self, pred: RangePred<T>, out: &mut Vec<u32>) {
        match self {
            ConcurrentColumn::Single(c) => c.select_oids_into(pred, out),
            ConcurrentColumn::Sharded(c) => c.select_oids_into(pred, out),
        }
    }

    /// Answer a batch of predicates under amortized locking, appending
    /// the OIDs of `preds[i]` to `outs[i]`: one lock acquisition per
    /// batch (single-lock mode) or one latch acquisition per touched
    /// shard per batch (sharded mode).
    pub fn select_oids_batch_into(&self, preds: &[RangePred<T>], outs: &mut [Vec<u32>]) {
        match self {
            ConcurrentColumn::Single(c) => c.select_oids_batch_into(preds, outs),
            ConcurrentColumn::Sharded(c) => c.select_oids_batch_into(preds, outs),
        }
    }

    /// Allocating convenience wrapper over
    /// [`select_oids_batch_into`](Self::select_oids_batch_into).
    pub fn select_oids_batch(&self, preds: &[RangePred<T>]) -> Vec<Vec<u32>> {
        match self {
            ConcurrentColumn::Single(c) => c.select_oids_batch(preds),
            ConcurrentColumn::Sharded(c) => c.select_oids_batch(preds),
        }
    }

    /// The cancellable batch select: `keep_going` is polled at safe
    /// boundaries (per predicate in both modes, plus per crack step in
    /// single-lock mode) and the batch stops — piece maps valid, later
    /// answers unaffected — once it reports false. Returns the number of
    /// predicates fully answered, always a prefix of `preds`.
    ///
    /// # Panics
    /// Panics if `preds` and `outs` differ in length.
    pub fn select_oids_batch_guarded(
        &self,
        preds: &[RangePred<T>],
        outs: &mut [Vec<u32>],
        keep_going: &dyn Fn() -> bool,
    ) -> usize {
        match self {
            ConcurrentColumn::Single(c) => c.select_oids_batch_guarded(preds, outs, keep_going),
            ConcurrentColumn::Sharded(c) => c.select_oids_batch_guarded(preds, outs, keep_going),
        }
    }

    /// Chaos hook: arm the panic-on-crack countdown (the first shard in
    /// sharded mode). See [`CrackerColumn::arm_panic_on_crack`].
    pub fn arm_panic_on_crack(&self, after: u32) {
        match self {
            ConcurrentColumn::Single(c) => c.arm_panic_on_crack(after),
            ConcurrentColumn::Sharded(c) => c.arm_panic_on_crack(after),
        }
    }

    /// Validate-or-rebuild the piece map(s); returns whether anything was
    /// rebuilt. See [`CrackerColumn::heal`].
    pub fn heal(&self) -> bool {
        match self {
            ConcurrentColumn::Single(c) => c.heal(),
            ConcurrentColumn::Sharded(c) => c.heal(),
        }
    }

    /// Stage an insert.
    pub fn insert(&self, oid: u32, value: T) {
        match self {
            ConcurrentColumn::Single(c) => c.insert(oid, value),
            ConcurrentColumn::Sharded(c) => c.insert(oid, value),
        }
    }

    /// Stage a batch of inserts under amortized latching: one write-latch
    /// acquisition total (single-lock mode) or one per touched shard
    /// (sharded mode, ascending index order).
    pub fn insert_batch(&self, rows: &[(u32, T)]) {
        match self {
            ConcurrentColumn::Single(c) => c.insert_batch(rows),
            ConcurrentColumn::Sharded(c) => c.insert_batch(rows),
        }
    }

    /// Stage a delete; returns whether the OID was found.
    pub fn delete(&self, oid: u32) -> bool {
        match self {
            ConcurrentColumn::Single(c) => c.delete(oid),
            ConcurrentColumn::Sharded(c) => c.delete(oid),
        }
    }

    /// The sharded column behind this handle, when built in sharded mode
    /// — the morsel scheduler needs the per-shard claim surface
    /// ([`ShardedCrackerColumn::touched_shards`] /
    /// [`ShardedCrackerColumn::select_shard_oids_into`]), which a
    /// column-wide lock cannot offer.
    pub fn as_sharded(&self) -> Option<&ShardedCrackerColumn<T>> {
        match self {
            ConcurrentColumn::Single(_) => None,
            ConcurrentColumn::Sharded(c) => Some(c),
        }
    }

    /// True when inserts or deletes are staged but not yet merged (see
    /// [`CrackerColumn::has_pending_updates`]).
    pub fn has_pending_updates(&self) -> bool {
        let pending = CrackerColumn::has_pending_updates;
        match self {
            ConcurrentColumn::Single(c) => c.read_with(pending),
            ConcurrentColumn::Sharded(c) => c.read_shards(pending).contains(&true),
        }
    }

    /// Fold staged updates into the store.
    pub fn merge_pending(&self) {
        match self {
            ConcurrentColumn::Single(c) => c.merge_pending(),
            ConcurrentColumn::Sharded(c) => c.merge_pending(),
        }
    }

    /// Follow a base-table delete in place; see
    /// [`CrackerColumn::compact_renumber`].
    pub fn compact_renumber(&self, doomed: &Renumbering) {
        match self {
            ConcurrentColumn::Single(c) => c.compact_renumber(doomed),
            ConcurrentColumn::Sharded(c) => c.compact_renumber(doomed),
        }
    }

    /// Switch the merge journal of every shard on or off; see
    /// [`CrackerColumn::set_journaling`].
    pub fn set_journaling(&self, on: bool) {
        self.write_each(|c| c.set_journaling(on));
    }

    /// Empty the merge journal of every shard; see
    /// [`CrackerColumn::clear_journal`].
    pub fn clear_journal(&self) {
        self.write_each(CrackerColumn::clear_journal);
    }

    /// Entries in the merge journals of all shards together. `None` when
    /// a shard is not journaling or a base-table delete compacted it: the
    /// journal no longer describes the column.
    pub fn journal_len(&self) -> Option<usize> {
        let len = |c: &CrackerColumn<T>| c.journal().filter(|j| !j.compacted()).map(|j| j.len());
        match self {
            ConcurrentColumn::Single(c) => c.read_with(len),
            ConcurrentColumn::Sharded(c) => c.read_shards(len).into_iter().sum(),
        }
    }

    fn write_each(&self, f: impl FnMut(&mut CrackerColumn<T>)) {
        match self {
            ConcurrentColumn::Single(c) => c.write_with(f),
            ConcurrentColumn::Sharded(c) => c.write_shards(f),
        }
    }

    /// Aggregate cost counters.
    pub fn stats(&self) -> CrackStats {
        match self {
            ConcurrentColumn::Single(c) => c.stats(),
            ConcurrentColumn::Sharded(c) => c.stats(),
        }
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        match self {
            ConcurrentColumn::Single(c) => c.len(),
            ConcurrentColumn::Sharded(c) => c.len(),
        }
    }

    /// True when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of pieces.
    pub fn piece_count(&self) -> usize {
        match self {
            ConcurrentColumn::Single(c) => c.piece_count(),
            ConcurrentColumn::Sharded(c) => c.piece_count(),
        }
    }

    /// Validate all invariants (test/debug).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ConcurrentColumn::Single(c) => c.validate(),
            ConcurrentColumn::Sharded(c) => c.validate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn oracle(vals: &[i64], pred: &RangePred<i64>) -> Vec<u32> {
        let mut v: Vec<u32> = vals
            .iter()
            .enumerate()
            .filter(|(_, &x)| pred.matches(x))
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn sharded_answers_agree_with_oracle() {
        let vals: Vec<i64> = (0..10_000).map(|i| (i * 37) % 10_000).collect();
        let col = ShardedCrackerColumn::new(vals.clone(), 8);
        assert_eq!(col.shard_count(), 8);
        assert_eq!(col.len(), vals.len());
        for (lo, hi) in [(0, 100), (4_990, 5_010), (9_000, 9_999), (0, 9_999)] {
            let pred = RangePred::between(lo, hi);
            let mut got = col.select_oids(pred);
            got.sort_unstable();
            assert_eq!(got, oracle(&vals, &pred));
            assert_eq!(col.count(pred), got.len());
        }
        col.validate().unwrap();
    }

    #[test]
    fn straddling_predicate_latches_interior_shards_readonly() {
        // A range covering several whole shards: the interior shards are
        // answered without cracking (their unbounded predicate needs no
        // boundary), so total cracks stay bounded by the two borders.
        let vals: Vec<i64> = (0..16_000).rev().collect();
        let col = ShardedCrackerColumn::new(vals.clone(), 16);
        let pred = RangePred::between(1_500, 14_500);
        let n = col.count(pred);
        assert_eq!(n, 13_001);
        assert!(
            col.stats().cracks <= 2,
            "only border shards may crack, got {}",
            col.stats().cracks
        );
        col.validate().unwrap();
    }

    #[test]
    fn one_sided_and_empty_predicates() {
        let vals: Vec<i64> = (0..1_000).map(|i| (i * 7) % 1_000).collect();
        let col = ShardedCrackerColumn::new(vals.clone(), 4);
        for pred in [
            RangePred::lt(250),
            RangePred::le(250),
            RangePred::gt(750),
            RangePred::ge(750),
            RangePred::eq(500),
            RangePred::with_bounds(None, None),
        ] {
            let mut got = col.select_oids(pred);
            got.sort_unstable();
            assert_eq!(got, oracle(&vals, &pred), "pred {pred:?}");
        }
        assert_eq!(col.count(RangePred::between(10, 5)), 0);
        assert_eq!(col.count(RangePred::half_open(7, 7)), 0);
        col.validate().unwrap();
    }

    #[test]
    fn empty_and_tiny_columns() {
        let col: ShardedCrackerColumn<i64> = ShardedCrackerColumn::new(Vec::new(), 8);
        assert!(col.is_empty());
        assert_eq!(col.count(RangePred::between(0, 10)), 0);
        let col = ShardedCrackerColumn::new(vec![5i64], 8);
        assert_eq!(col.count(RangePred::eq(5)), 1);
        col.validate().unwrap();
    }

    #[test]
    fn duplicates_collapse_split_points() {
        let col = ShardedCrackerColumn::new(vec![7i64; 5_000], 16);
        assert!(
            col.shard_count() <= 2,
            "constant data cannot be split 16 ways, got {} shards",
            col.shard_count()
        );
        assert_eq!(col.count(RangePred::eq(7)), 5_000);
        col.validate().unwrap();
    }

    #[test]
    fn updates_route_to_owning_shards() {
        let vals: Vec<i64> = (0..4_000).collect();
        let col = ShardedCrackerColumn::new(vals, 8);
        col.count(RangePred::between(100, 200)); // warm some boundaries
        col.insert(10_000, 150);
        col.insert(10_001, 3_999);
        assert_eq!(col.count(RangePred::between(100, 200)), 102);
        assert!(col.delete(10_000));
        assert!(col.delete(150));
        assert!(!col.delete(99_999));
        assert_eq!(col.count(RangePred::between(100, 200)), 100);
        col.validate().unwrap();
        col.merge_pending();
        assert_eq!(col.len(), 4_000); // -1 cracked tuple, +1 surviving insert
        assert_eq!(col.count(RangePred::between(100, 200)), 100);
        col.validate().unwrap();
    }

    #[test]
    fn selection_stitching_counts_match() {
        let vals: Vec<i64> = (0..8_000).rev().collect();
        let col = ShardedCrackerColumn::new(vals, 8);
        let pred = RangePred::between(1_000, 7_000);
        let stitched = col.select(pred);
        assert!(stitched.parts.len() > 1, "predicate must straddle shards");
        assert_eq!(stitched.count(), 6_001);
        assert!(!stitched.is_empty());
        // Parts arrive in ascending shard order.
        for w in stitched.parts.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert_eq!(stitched.count(), col.count(pred));
    }

    #[test]
    fn contended_cold_predicate_cracks_each_shard_at_most_once() {
        // The sharded write path must double-check the read-only path
        // under each exclusive latch: racing threads on the same cold
        // straddling predicate perform each shard's cracking select once.
        let vals: Vec<i64> = (0..50_000).rev().collect();
        let col = ShardedCrackerColumn::new(vals, 8);
        let threads = 8;
        let pred = RangePred::between(11_111, 38_888);
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let col = &col;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    assert_eq!(col.count(pred), 27_778);
                });
            }
        });
        // Only the two border shards enter select() (queries counts every
        // select() entry; interior shards answer read-only): exactly one
        // cracking select per border shard, no redundant re-entry.
        assert_eq!(
            col.stats().queries,
            2,
            "contended upgrade must not re-run select() for existing boundaries"
        );
        col.validate().unwrap();
    }

    #[test]
    fn concurrent_disjoint_shards_stay_correct() {
        let vals: Vec<i64> = (0..40_000).map(|i| (i * 31) % 40_000).collect();
        let col = ShardedCrackerColumn::new(vals.clone(), 8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let col = &col;
                let vals = &vals;
                s.spawn(move || {
                    for q in 0..40 {
                        let lo = ((t * 4_813 + q * 127) % 39_000) as i64;
                        let pred = RangePred::between(lo, lo + 500);
                        assert_eq!(col.count(pred), oracle(vals, &pred).len());
                    }
                });
            }
        });
        col.validate().unwrap();
    }

    #[test]
    fn concurrent_column_modes_agree() {
        let vals: Vec<i64> = (0..5_000).map(|i| (i * 13) % 5_000).collect();
        let single = ConcurrentColumn::build(
            vals.clone(),
            CrackerConfig::default(),
            ConcurrencyMode::SingleLock,
        );
        let sharded = ConcurrentColumn::build(
            vals.clone(),
            CrackerConfig::default(),
            ConcurrencyMode::Sharded { shards: 8 },
        );
        assert_eq!(single.mode(), ConcurrencyMode::SingleLock);
        assert!(matches!(sharded.mode(), ConcurrencyMode::Sharded { .. }));
        for col in [&single, &sharded] {
            assert_eq!(col.len(), vals.len());
            assert!(!col.is_empty());
            let pred = RangePred::between(1_000, 2_000);
            let mut got = col.select_oids(pred);
            got.sort_unstable();
            assert_eq!(got, oracle(&vals, &pred));
            assert_eq!(col.count(pred), got.len());
            col.insert(90_000, 1_500);
            assert_eq!(col.count(pred), got.len() + 1);
            assert!(col.delete(90_000));
            col.merge_pending();
            assert!(col.stats().queries > 0);
            assert!(col.piece_count() >= 1);
            col.validate().unwrap();
        }
    }

    #[test]
    fn batch_select_matches_statement_at_a_time_and_amortizes_latches() {
        let vals: Vec<i64> = (0..20_000).map(|i| (i * 29) % 20_000).collect();
        let batch = ShardedCrackerColumn::new(vals.clone(), 8);
        let single = ShardedCrackerColumn::new(vals, 8);
        let preds: Vec<RangePred<i64>> = (0..32)
            .map(|i| RangePred::between(i * 550, i * 550 + 1_200))
            .collect();
        let got = batch.select_oids_batch(&preds);
        for (pred, mut oids) in preds.iter().zip(got) {
            let mut expect = single.select_oids(*pred);
            oids.sort_unstable();
            expect.sort_unstable();
            assert_eq!(oids, expect, "pred {pred:?}");
        }
        // Batch and statement-at-a-time create the same boundaries.
        assert_eq!(batch.piece_count(), single.piece_count());
        // A warm batch never re-enters select(): every bucket is answered
        // on the optimistic read-latch pass.
        let queries = batch.stats().queries;
        batch.select_oids_batch(&preds);
        assert_eq!(batch.stats().queries, queries);
        batch.validate().unwrap();
        single.validate().unwrap();
    }

    #[test]
    fn batch_select_handles_empty_and_unbounded_predicates() {
        let vals: Vec<i64> = (0..1_000).rev().collect();
        let col = ShardedCrackerColumn::new(vals, 4);
        let preds = vec![
            RangePred::between(10, 5),          // empty range
            RangePred::with_bounds(None, None), // everything
            RangePred::eq(500),
        ];
        let got = col.select_oids_batch(&preds);
        assert!(got[0].is_empty());
        assert_eq!(got[1].len(), 1_000);
        assert_eq!(got[2].len(), 1);
        col.validate().unwrap();
    }

    #[test]
    fn select_pairs_returns_global_oids_and_values() {
        let vals = vec![30i64, 10, 20, 40, 25];
        let col = ShardedCrackerColumn::new(vals, 2);
        let mut pairs = col.select_pairs(RangePred::between(15, 35));
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 30), (2, 20), (4, 25)]);
    }

    #[test]
    fn a_panicking_crack_in_one_shard_is_contained_and_heals() {
        let vals: Vec<i64> = (0..4_000).map(|i| (i * 23) % 4_000).collect();
        let col = ShardedCrackerColumn::new(vals.clone(), 4);
        col.count(RangePred::between(1_000, 3_000)); // crack boundaries
        col.arm_panic_on_crack(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            col.count(RangePred::between(100, 300))
        }));
        assert!(r.is_err(), "the panicking query must fail loudly");
        // The torn shard healed inside the containment wrapper and the
        // countdown disarmed itself, so later queries run clean.
        col.validate().unwrap();
        assert!(!col.heal(), "containment already healed the torn shard");
        for pred in [
            RangePred::between(100, 300),
            RangePred::between(1_000, 3_000),
            RangePred::le(50),
        ] {
            let mut got = col.select_oids(pred);
            got.sort_unstable();
            assert_eq!(got, oracle(&vals, &pred), "pred {pred:?}");
        }
    }

    #[test]
    fn guarded_batch_cuts_short_between_predicates_only() {
        let vals: Vec<i64> = (0..3_000).map(|i| (i * 41) % 3_000).collect();
        let col = ShardedCrackerColumn::new(vals.clone(), 4);
        let preds: Vec<RangePred<i64>> = (0..5)
            .map(|i| RangePred::between(i * 500, i * 500 + 400))
            .collect();
        // Sharded batches poll at predicate granularity: a predicate that
        // starts runs on every shard it touches, so the guard admits two.
        let polls = std::cell::Cell::new(0usize);
        let guard = || {
            polls.set(polls.get() + 1);
            polls.get() <= 2
        };
        let mut outs: Vec<Vec<u32>> = preds.iter().map(|_| Vec::new()).collect();
        let done = col.select_oids_batch_guarded(&preds, &mut outs, &guard);
        assert_eq!(done, 2, "exactly the admitted prefix completes");
        for (i, out) in outs.iter().enumerate() {
            if i < done {
                let mut got = out.clone();
                got.sort_unstable();
                assert_eq!(got, oracle(&vals, &preds[i]), "completed pred {i}");
            } else {
                assert!(out.is_empty(), "abandoned pred {i} left no output");
            }
        }
        col.validate().unwrap();
        for pred in &preds {
            let mut got = col.select_oids(*pred);
            got.sort_unstable();
            assert_eq!(got, oracle(&vals, pred));
        }
    }
}
