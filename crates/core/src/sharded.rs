//! The latched cracked column: one cracker index per attribute, shared
//! by many threads.
//!
//! Cracking turns reads into writes: the first query over a region
//! physically reorganizes it, so a naive shared cracked column would
//! serialize every query. §4 of the paper hints at the cure — cracking
//! already clusters the store by value range, so the value domain itself
//! is the natural unit of concurrency control. [`ConcurrentColumn`]
//! range-partitions the domain at construction into S shards (split
//! points chosen by sampling, like the paper's first-touch clustering),
//! each shard an independently latched [`CrackerColumn`]. Concurrent
//! crackers whose predicates land in disjoint shards proceed fully in
//! parallel. One shard (the default, [`ConcurrencyMode::default`]) is one
//! latch around the whole column, built straight from the values with no
//! partition pass.
//!
//! # Latching protocol
//!
//! Every multi-shard operation touches shards in **ascending shard-index
//! order** and acquires latches in that order only — the global latch
//! order that makes deadlock impossible (any two operations contend on
//! their common shards in the same sequence). A select runs in two
//! phases:
//!
//! 1. **Optimistic (shared)**: take the read latch of every touched shard
//!    in ascending order and try [`CrackerColumn::try_select_readonly`] on
//!    each. If all succeed while all read latches are held, the answer is
//!    a consistent cross-shard snapshot and nothing was written.
//! 2. **Pessimistic**: otherwise drop all read latches and re-visit the
//!    touched shards in ascending order. Each shard is first re-tried
//!    read-only under a fresh read latch (shards that need no cracking
//!    keep admitting concurrent readers); only a shard that still misses
//!    has its read latch dropped and its *write* latch taken, where the
//!    read-only path is retried once more before falling through to the
//!    cracking [`CrackerColumn::select`]. Re-acquiring a latch on the same
//!    shard after releasing its read latch never requests a lower index
//!    than one already held, so the global ascending order is preserved.
//!
//! A predicate that touches one shard skips phase 1 — phase 2's first
//! step is the same read-only try — and holds no staging buffers, so a
//! warm answer allocates nothing.
//!
//! The retry under the write latch is the classic double-checked upgrade:
//! between dropping the read latch and acquiring the write latch, a
//! contending thread may have cracked the very boundaries this query
//! needs. Without the recheck the loser would re-enter `select()` — a
//! full piece scan for an answer that is already one index probe away,
//! plus a spurious `CrackStats::queries` increment. With it, exactly one
//! of N racing threads pays each shard's cracking cost of a cold
//! predicate; the rest reuse the winner's boundaries.
//!
//! Single-shard operations (updates routed by value, per-shard merges)
//! latch exactly one shard at a time and therefore compose with the
//! ascending-order rule trivially.
//!
//! # Batched selects (latch amortization)
//!
//! [`ConcurrentColumn::select_oids_batch_into`] answers a whole batch
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
//!
//! The latches come from the [`crate::sync`] facade (lockdep): under
//! `LOCK_ANALYSIS=1` every acquisition is checked for order inversions,
//! upgrade-while-held, and the batch path's one-read-plus-one-write
//! budget per shard. `CONCURRENCY.md` at the repository root documents
//! the latch hierarchy and which invariants are checked mechanically vs.
//! stress-tested.

use crate::column::{CrackerColumn, Selection, Staged};
use crate::config::CrackerConfig;
use crate::pred::RangePred;
use crate::stats::CrackStats;
use crate::sync::{lockdep, LockGroup, RwLock, RwLockReadGuard, RwLockWriteGuard};
use crate::updates::{PendingUpdates, Renumbering};
use crate::value_trait::CrackValue;
use storage::mem;

/// Upper bound on the number of values sampled to choose shard splits.
const SPLIT_SAMPLE: usize = 4096;

/// Lockdep class of the per-shard latches. Shard `i`'s latch carries
/// order key `i` inside the column's [`LockGroup`], so the ascending-
/// index discipline documented above is checked mechanically under
/// `LOCK_ANALYSIS=1` (see [`crate::sync`] and `CONCURRENCY.md`).
const LATCH_CLASS: &str = "shard";

/// A cooperative-cancellation poll, when the caller has one (see
/// [`CrackerColumn::select_guarded`]).
type Guard<'a> = Option<&'a dyn Fn() -> bool>;

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

/// The write-latched step of the protocol on one shard: retry the
/// read-only path (a contending thread may have cracked the boundaries
/// meanwhile), then run the cracking select, polling `keep_going` at its
/// crack-step boundaries. `None` when `keep_going` stopped it; the shard
/// then holds whole cracks only.
///
/// The select runs with **panic containment**: a kernel dying
/// mid-reorganization would otherwise leave the shard torn for every
/// later query (our locks don't poison). The unwind is caught, the shard
/// healed — its piece map validated in `O(n+p)` and rebuilt cold if the
/// panic left moves it does not describe — and only then propagated, so
/// the panicking query still fails loudly but the shard degrades to cold
/// instead of wedging.
fn crack<T: CrackValue>(
    column: &mut CrackerColumn<T>,
    pred: RangePred<T>,
    keep_going: Guard<'_>,
    staged: Staged,
) -> Option<Selection> {
    if let Some(sel) = column.select_readonly(pred, staged) {
        return Some(sel);
    }
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        column.select_with_guard(pred, keep_going, staged)
    }));
    match attempt {
        Ok(sel) => sel,
        Err(payload) => {
            column.heal();
            std::panic::resume_unwind(payload);
        }
    }
}

/// How a concurrently shared cracked column is latched: the number of
/// value-range shards to build it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrencyMode {
    /// Number of shards requested. One (the default) is one latch around
    /// the whole column; the realized count can be lower than requested
    /// when the data has too few distinct values to split, and 0 builds
    /// one shard.
    pub shards: usize,
}

impl Default for ConcurrencyMode {
    fn default() -> Self {
        ConcurrencyMode { shards: 1 }
    }
}

/// A per-shard `Selection` together with the shard that produced it.
///
/// The positions inside each [`Selection`] are relative to that shard's
/// own value/OID arrays; the OIDs materialized from them are global. This
/// is a snapshot: it describes the physical layout at the moment the
/// latches were held.
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

/// A cracker index partitioned into one or more independently latched
/// value-range shards — the type the engine hands out for every cracked
/// attribute.
#[derive(Debug)]
pub struct ConcurrentColumn<T> {
    /// Ascending split values: shard `i` holds `splits[i-1] <= v <
    /// splits[i]` (first shard unbounded below, last unbounded above).
    splits: Vec<T>,
    /// One latched cracker per shard; `shards.len() == splits.len() + 1`.
    shards: Vec<RwLock<CrackerColumn<T>>>,
}

impl<T: CrackValue> ConcurrentColumn<T> {
    /// Shard `vals` into (at most) `shards` range partitions with the
    /// default cracker configuration.
    pub fn new(vals: Vec<T>, shards: usize) -> Self {
        Self::build(vals, CrackerConfig::default(), ConcurrencyMode { shards })
    }

    /// Shard `vals` under `mode` with an explicit per-shard cracker
    /// configuration.
    ///
    /// Split points are chosen by sampling up to `SPLIT_SAMPLE` values
    /// at a fixed stride and taking equi-depth quantiles, so a skewed
    /// value distribution still yields balanced shard populations. OIDs
    /// are assigned densely (`0..n`) over the *original* order, exactly as
    /// [`CrackerColumn::new`] would, and travel with their values into the
    /// owning shard. With no splits the one shard is
    /// [`CrackerColumn::with_config`] over `vals` itself: no partition
    /// pass, and its dense OIDs come from `storage::mem`.
    pub fn build(vals: Vec<T>, config: CrackerConfig, mode: ConcurrencyMode) -> Self {
        let splits = sample_splits(&vals, mode.shards);
        if splits.is_empty() {
            return Self::assemble(splits, vec![CrackerColumn::with_config(vals, config)]);
        }
        Self::scatter(&vals, splits, config)
    }

    /// The cracked copy of a base column at its first touch: what
    /// [`build`](Self::build) makes of a copy of `base`, read from `base`
    /// itself. One shard is [`CrackerColumn::from_base`], which cuts the
    /// larger outer side of `first` while it copies. More shards scatter
    /// `base` straight into the shards, and `first` is left to the select
    /// that follows.
    pub fn from_base(
        base: &[T],
        config: CrackerConfig,
        mode: ConcurrencyMode,
        first: Option<RangePred<T>>,
    ) -> Self {
        let splits = sample_splits(base, mode.shards);
        if splits.is_empty() {
            let col = CrackerColumn::from_base(base, config, first);
            return Self::assemble(splits, vec![col]);
        }
        Self::scatter(base, splits, config)
    }

    /// Route every value of `vals`, with its position as OID, into the
    /// shard `splits` assigns it. A first pass counts each shard's rows,
    /// so its value and OID buffers come from `storage::mem` at their
    /// exact size, as the one-shard copy's do, and never reallocate.
    fn scatter(vals: &[T], splits: Vec<T>, config: CrackerConfig) -> Self {
        let shard_of = |v: T| splits.partition_point(|split| *split <= v);
        let mut counts = vec![0usize; splits.len() + 1];
        for &v in vals {
            counts[shard_of(v)] += 1;
        }
        let mut parts: Vec<(Vec<T>, Vec<u32>)> = (counts.iter())
            .map(|&n| (mem::column_vec(n), mem::column_vec(n)))
            .collect();
        for (i, &v) in vals.iter().enumerate() {
            let part = &mut parts[shard_of(v)];
            part.0.push(v);
            part.1.push(i as u32);
        }
        let columns = (parts.into_iter())
            .map(|(v, o)| CrackerColumn::from_pairs(v, o, config))
            .collect();
        Self::assemble(splits, columns)
    }

    /// Latch `columns[i]` as shard `i`: one [`LockGroup`] per column,
    /// ascending order keys.
    fn assemble(splits: Vec<T>, columns: Vec<CrackerColumn<T>>) -> Self {
        let group = LockGroup::new();
        let shards = (columns.into_iter().enumerate())
            .map(|(i, col)| RwLock::with_class(col, LATCH_CLASS, i as u32, group))
            .collect();
        ConcurrentColumn { splits, shards }
    }

    /// Reassemble a column from previously exported parts — the recovery
    /// constructor. `columns[i]` becomes shard `i` under the same latch
    /// classes and ascending order keys as [`build`](Self::build);
    /// `splits` must be strictly ascending with `columns.len() ==
    /// splits.len() + 1`. The per-shard range invariant (every cracked
    /// value inside its shard's assigned range) is checked here so a
    /// tampered checkpoint fails loudly instead of producing a silently
    /// mis-routed column; with no splits it holds by construction, and the
    /// pass over the values is skipped.
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
        if !splits.is_empty() {
            for (i, col) in columns.iter().enumerate() {
                check_range(i, &splits, col)?;
            }
        }
        Ok(Self::assemble(splits, columns))
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

    /// Phase 2 of the protocol on shard `i`: a read-only try under a fresh
    /// read latch, else the write latch and [`crack`]. `None` when
    /// `keep_going` stopped the crack.
    fn latch_shard(
        &self,
        i: usize,
        pred: RangePred<T>,
        keep_going: Guard<'_>,
        staged: Staged,
    ) -> Option<(Latch<'_, T>, Selection)> {
        let read = self.shards[i].read();
        if let Some(sel) = read.select_readonly(pred, staged) {
            return Some((Latch::Read(read), sel));
        }
        drop(read);
        let mut write = self.shards[i].write();
        let sel = crack(&mut write, pred, keep_going, staged)?;
        Some((Latch::Write(write), sel))
    }

    /// Run `consume` over the per-shard selections of `pred`, in ascending
    /// shard order, while the corresponding latches are held — the
    /// two-phase protocol described in the module doc. Returns false, with
    /// `consume` never called, when `keep_going` stopped a crack.
    fn for_each_selection(
        &self,
        pred: RangePred<T>,
        keep_going: Guard<'_>,
        staged: Staged,
        mut consume: impl FnMut(&CrackerColumn<T>, &Selection, usize),
    ) -> bool {
        if pred.is_empty_range() {
            return true;
        }
        let (first, last) = self.touched(&pred);
        if first == last {
            let Some((latch, sel)) = self.latch_shard(first, pred, keep_going, staged) else {
                return false;
            };
            consume(latch.col(), &sel, first);
            return true;
        }
        // Phase 1: optimistic — shared latches, ascending.
        {
            let mut guards = Vec::with_capacity(last - first + 1);
            let mut sels = Vec::with_capacity(last - first + 1);
            for i in first..=last {
                let guard = self.shards[i].read();
                match guard.select_readonly(Self::shard_pred(&pred, i, first, last), staged) {
                    Some(sel) => {
                        guards.push(guard);
                        sels.push(sel);
                    }
                    None => break,
                }
            }
            if sels.len() == last - first + 1 {
                for (off, (guard, sel)) in guards.iter().zip(&sels).enumerate() {
                    consume(guard, sel, first + off);
                }
                return true;
            }
        }
        // Phase 2: pessimistic — ascending, per shard.
        let mut latched = Vec::with_capacity(last - first + 1);
        for i in first..=last {
            let p = Self::shard_pred(&pred, i, first, last);
            let Some(shard) = self.latch_shard(i, p, keep_going, staged) else {
                return false;
            };
            latched.push(shard);
        }
        for (off, (latch, sel)) in latched.iter().enumerate() {
            consume(latch.col(), sel, first + off);
        }
        true
    }

    /// Answer one shard's bucket of a batch: the prefix whose boundaries
    /// exist under one read latch, the rest under one write latch with a
    /// read-only double-check per predicate, so a cold predicate still
    /// enters the cracking select() at most once.
    fn answer_bucket(
        shard: &RwLock<CrackerColumn<T>>,
        jobs: impl Iterator<Item = (usize, RangePred<T>)> + Clone,
        consume: &mut impl FnMut(usize, &CrackerColumn<T>, &Selection),
    ) {
        // Optimistic: consume straight off the shared latch until the
        // first boundary miss (no staging buffer — each answer is final
        // the moment its boundaries are known to exist).
        let mut done = 0;
        {
            let read = shard.read();
            for (idx, p) in jobs.clone() {
                let Some(sel) = read.try_select_readonly(p) else {
                    break;
                };
                consume(idx, &read, &sel);
                done += 1;
            }
        }
        let mut rest = jobs.skip(done).peekable();
        if rest.peek().is_none() {
            return;
        }
        let mut write = shard.write();
        for (idx, p) in rest {
            // Unguarded, the crack always completes.
            if let Some(sel) = crack(&mut write, p, None, Staged::Oids) {
                consume(idx, &write, &sel);
            }
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
        mut consume: impl FnMut(usize, &CrackerColumn<T>, &Selection),
    ) {
        // Machine-checked form of the amortization contract: at most two
        // latch round-trips (one read + one write) per shard for the
        // whole batch (no-op unless lock analysis is on).
        let _budget = lockdep::LatchBudget::new(LATCH_CLASS, 2, "batch latch amortization");
        let live = preds.iter().copied().enumerate();
        let live = live.filter(|(_, p)| !p.is_empty_range());
        if let [shard] = &self.shards[..] {
            // One shard: the batch is its bucket, every predicate unclamped.
            Self::answer_bucket(shard, live, &mut consume);
            return;
        }
        // Bucket the batch by shard: `work[s]` holds `(batch index,
        // clamped per-shard predicate)` for every predicate touching
        // shard `s`, in batch order.
        let mut work: Vec<Vec<(usize, RangePred<T>)>> = vec![Vec::new(); self.shards.len()];
        for (idx, pred) in live {
            let (first, last) = self.touched(&pred);
            for (s, jobs) in work.iter_mut().enumerate().take(last + 1).skip(first) {
                jobs.push((idx, Self::shard_pred(&pred, s, first, last)));
            }
        }
        for (shard, jobs) in self.shards.iter().zip(&work) {
            if !jobs.is_empty() {
                Self::answer_bucket(shard, jobs.iter().copied(), &mut consume);
            }
        }
    }

    /// Count qualifying tuples. Shards whose boundaries already exist are
    /// read-latched only; crackers on disjoint shards run in parallel.
    pub fn count(&self, pred: RangePred<T>) -> usize {
        let mut total = 0usize;
        self.for_each_selection(pred, None, Staged::Count, |_, sel, _| total += sel.count());
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
        self.for_each_selection(pred, None, Staged::Oids, |col, sel, _| {
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
        self.for_each_selection_batch(preds, |idx, col, sel| {
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
    /// `keep_going` is polled before every predicate and at every
    /// crack-step boundary inside each shard's cold select
    /// ([`CrackerColumn::select_guarded`], under that shard's write
    /// latch). Returns the number of predicates fully answered — always a
    /// prefix; `outs` beyond it are untouched. A stopped predicate leaves
    /// its shards with every piece either untouched or fully cracked
    /// (never torn), so later queries are unaffected.
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
            let answered = keep_going()
                && self.for_each_selection(*pred, Some(keep_going), Staged::Oids, |col, sel, _| {
                    col.selection_oids_into(sel, out);
                });
            if !answered {
                return i;
            }
        }
        preds.len()
    }

    /// Qualifying `(oid, value)` pairs, same latching discipline as
    /// [`count`](Self::count).
    pub fn select_pairs(&self, pred: RangePred<T>) -> Vec<(u32, T)> {
        let mut out = Vec::new();
        self.for_each_selection(pred, None, Staged::Oids, |col, sel, _| {
            col.copy_selection_into(sel, &mut out);
        });
        out
    }

    /// The stitched per-shard selections for `pred` — a layout snapshot
    /// (see [`ShardedSelection`]). Cracks as a side effect where needed.
    pub fn select(&self, pred: RangePred<T>) -> ShardedSelection {
        let mut parts = Vec::new();
        self.for_each_selection(pred, None, Staged::Oids, |_, sel, shard| {
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
    /// followed, polling `keep_going` at the crack-step boundaries of a
    /// cold select. Returns false, with `out` untouched, when it stopped
    /// the crack. Shards outside the touched range contribute nothing.
    /// Because each call latches exactly one shard and the latch is
    /// released before the next claim, concurrent morsel workers never
    /// hold two shard latches at once — the ascending-order deadlock rule
    /// is satisfied vacuously.
    pub fn select_shard_oids_into(
        &self,
        shard: usize,
        pred: RangePred<T>,
        out: &mut Vec<u32>,
        keep_going: &dyn Fn() -> bool,
    ) -> bool {
        let Some((first, last)) = self.touched_shards(&pred) else {
            return true;
        };
        if shard < first || shard > last {
            return true;
        }
        let p = Self::shard_pred(&pred, shard, first, last);
        let Some((latch, sel)) = self.latch_shard(shard, p, Some(keep_going), Staged::Oids) else {
            return false;
        };
        latch.col().selection_oids_into(&sel, out);
        true
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
        self.stage_batch(rows, PendingUpdates::stage_insert);
    }

    /// [`insert_batch`](Self::insert_batch) for rows just appended to the
    /// base column this copy was made from, each at its value there: a
    /// later [`stage_deletes`](Self::stage_deletes) finds them by that
    /// value (see [`PendingUpdates::stage_appended`]).
    pub fn append_batch(&self, rows: &[(u32, T)]) {
        self.stage_batch(rows, PendingUpdates::stage_appended);
    }

    /// Stage `rows` with `stage`, one latch per touched shard.
    fn stage_batch(&self, rows: &[(u32, T)], stage: fn(&mut PendingUpdates<T>, u32, T)) {
        if rows.is_empty() {
            return;
        }
        if let [shard] = &self.shards[..] {
            let mut col = shard.write();
            rows.iter()
                .for_each(|&(oid, value)| stage(&mut col.pending, oid, value));
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
                stage(&mut col.pending, oid, value);
            }
        }
    }

    /// Stage a delete. With several shards the value (hence shard) of
    /// `oid` is unknown, so shards are probed in ascending order — under a
    /// *read* latch, so the scan doesn't stall readers of uninvolved
    /// shards — for one that holds a row of it (a staged insert, or a
    /// cracked tuple not already pending deletion), and only that shard is
    /// write-latched to stage the delete. Returns whether the OID was
    /// found (false also when a racing delete got there first).
    pub fn delete(&self, oid: u32) -> bool {
        if let [shard] = &self.shards[..] {
            return shard.write().delete(oid);
        }
        for shard in &self.shards {
            let present = {
                let col = shard.read();
                col.pending.has_insert(oid)
                    || (!col.pending.is_deleted(oid) && col.oids().contains(&oid))
            };
            if present {
                // Re-checked under the write latch: a concurrent delete
                // may have claimed the OID between the two latches.
                return shard.write().delete(oid);
            }
        }
        false
    }

    /// Stage the deletion of every row of the base column `base` the OIDs
    /// in `doomed` (ascending, no repeats, each below `base.len()`) name,
    /// as a base-table delete does: one exclusive latch per shard,
    /// ascending, and no probe (see [`PendingUpdates::stage_deletes`]).
    /// The batch goes to every shard, because the shard of a row follows
    /// its value, which may not be the base table's: an insert re-staged
    /// under a new value lives in that value's shard. In a shard that
    /// holds no row of an OID, its mark hides nothing.
    pub fn stage_deletes(&self, doomed: &[u32], base: &[T]) {
        if !doomed.is_empty() {
            self.write_shards(|c| c.pending.stage_deletes(doomed, base));
        }
    }

    /// True when inserts or deletes are staged but not yet merged in any
    /// shard (see [`CrackerColumn::has_pending_updates`]).
    pub fn has_pending_updates(&self) -> bool {
        self.shards.iter().any(|s| s.read().has_pending_updates())
    }

    /// Fold staged updates into every shard (one exclusive latch at a
    /// time, ascending).
    pub fn merge_pending(&self) {
        self.write_shards(CrackerColumn::merge_pending);
    }

    /// Follow a base-table delete in every shard (one exclusive latch at
    /// a time, ascending). OIDs are global, so every shard applies the
    /// same map; see [`CrackerColumn::compact_renumber`].
    pub fn compact_renumber(&self, doomed: &Renumbering) {
        self.write_shards(|c| c.compact_renumber(doomed));
    }

    /// Switch the merge journal of every shard on or off; see
    /// [`CrackerColumn::set_journaling`].
    pub fn set_journaling(&self, on: bool) {
        self.write_shards(|c| c.set_journaling(on));
    }

    /// Empty the merge journal of every shard; see
    /// [`CrackerColumn::clear_journal`].
    pub fn clear_journal(&self) {
        self.write_shards(CrackerColumn::clear_journal);
    }

    /// Entries in the merge journals of all shards together. `None` when
    /// a shard is not journaling or a base-table delete compacted it: the
    /// journal no longer describes the column.
    pub fn journal_len(&self) -> Option<usize> {
        (self.shards.iter())
            .map(|s| {
                s.read()
                    .journal()
                    .filter(|j| !j.compacted())
                    .map(|j| j.len())
            })
            .sum()
    }

    /// Chaos hook: arm the first shard's panic-on-crack countdown (see
    /// [`CrackerColumn::arm_panic_on_crack`]). Arming one shard keeps the
    /// blast radius of one `arm` call at exactly one panic — the countdown
    /// disarms itself when it fires, so later queries run clean — while
    /// still exercising the per-shard containment path.
    pub fn arm_panic_on_crack(&self, after: u32) {
        self.shards[0].write().arm_panic_on_crack(after);
    }

    /// Validate-or-rebuild every shard's piece map (see
    /// [`CrackerColumn::heal`]); returns whether any shard was rebuilt.
    /// The select paths already heal the affected shard automatically
    /// when a contained panic unwinds through them.
    pub fn heal(&self) -> bool {
        let mut rebuilt = false;
        self.write_shards(|c| rebuilt |= c.heal());
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
            check_range(i, &self.splits, &col)?;
            let lower = i.checked_sub(1).map(|j| self.splits[j]);
            let upper = self.splits.get(i).copied();
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

/// Check that every cracked value of shard `i` lies inside the range
/// `splits` assigns it.
fn check_range<T: CrackValue>(
    i: usize,
    splits: &[T],
    col: &CrackerColumn<T>,
) -> Result<(), String> {
    let lower = i.checked_sub(1).map(|j| splits[j]);
    let upper = splits.get(i).copied();
    match (col.values().iter())
        .find(|&&v| lower.is_some_and(|lo| v < lo) || upper.is_some_and(|hi| v >= hi))
    {
        Some(v) => Err(format!(
            "shard {i}: value {v:?} outside range {lower:?}..{upper:?}"
        )),
        None => Ok(()),
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
    fn scatter_fills_each_shard_exactly() {
        let vals: Vec<i64> = (0..10_007).map(|i| (i * 7_919) % 3_001).collect();
        for shards in [2, 4] {
            let mode = ConcurrencyMode { shards };
            for col in [
                ConcurrentColumn::build(vals.clone(), CrackerConfig::default(), mode),
                ConcurrentColumn::from_base(&vals, CrackerConfig::default(), mode, None),
            ] {
                assert_eq!(col.shard_count(), shards);
                col.validate().unwrap();
                let splits = col.splits().to_vec();
                let got = col.read_shards(|c| {
                    assert_eq!(c.capacities(), (c.len(), c.len()), "spare capacity");
                    let pairs = c.values().iter().copied().zip(c.oids().iter().copied());
                    let mut pairs: Vec<(i64, u32)> = pairs.collect();
                    pairs.sort_unstable();
                    pairs
                });
                for (s, pairs) in got.iter().enumerate() {
                    let mut want: Vec<(i64, u32)> = (vals.iter().copied().zip(0u32..))
                        .filter(|&(v, _)| splits.partition_point(|split| *split <= v) == s)
                        .collect();
                    want.sort_unstable();
                    assert_eq!(pairs, &want, "{shards} shards, shard {s}");
                }
            }
        }
    }

    #[test]
    fn sharded_answers_agree_with_oracle() {
        let vals: Vec<i64> = (0..10_000).map(|i| (i * 37) % 10_000).collect();
        let col = ConcurrentColumn::new(vals.clone(), 8);
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
        let col = ConcurrentColumn::new(vals.clone(), 16);
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
        let col = ConcurrentColumn::new(vals.clone(), 4);
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
        let col: ConcurrentColumn<i64> = ConcurrentColumn::new(Vec::new(), 8);
        assert!(col.is_empty());
        assert_eq!(col.count(RangePred::between(0, 10)), 0);
        let col = ConcurrentColumn::new(vec![5i64], 8);
        assert_eq!(col.count(RangePred::eq(5)), 1);
        col.validate().unwrap();
    }

    #[test]
    fn duplicates_collapse_split_points() {
        let col = ConcurrentColumn::new(vec![7i64; 5_000], 16);
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
        let col = ConcurrentColumn::new(vals, 8);
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
    fn a_delete_batch_reaches_a_row_restaged_in_another_shard() {
        let col = ConcurrentColumn::new((0..4_000).collect::<Vec<i64>>(), 8);
        col.count(RangePred::between(100, 200));
        // OID 150 re-staged under a value of the last shard, OID 160
        // staged again without a delete: both rows leave, in every shard.
        assert!(col.delete(150));
        col.insert(150, 3_990);
        col.insert(160, 3_991);
        col.insert(4_000, 120);
        let base: Vec<i64> = (0..4_000).chain([120]).collect();
        col.stage_deletes(&[150, 160, 4_000], &base);
        assert_eq!(col.count(RangePred::between(100, 200)), 99);
        assert_eq!(col.count(RangePred::ge(3_990)), 10);
        assert_eq!(col.len(), 4_000, "nothing moved");
        col.validate().unwrap();
        col.merge_pending();
        assert_eq!(col.len(), 3_998);
        assert_eq!(col.count(RangePred::between(100, 200)), 99);
        assert_eq!(col.count(RangePred::ge(3_990)), 10);
        col.validate().unwrap();
    }

    #[test]
    fn selection_stitching_counts_match() {
        let vals: Vec<i64> = (0..8_000).rev().collect();
        let col = ConcurrentColumn::new(vals, 8);
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
        let col = ConcurrentColumn::new(vals, 8);
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
        let col = ConcurrentColumn::new(vals.clone(), 8);
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
        let build = |mode| ConcurrentColumn::build(vals.clone(), CrackerConfig::default(), mode);
        let one = build(ConcurrencyMode::default());
        let sharded = build(ConcurrencyMode { shards: 8 });
        assert_eq!((one.shard_count(), sharded.shard_count()), (1, 8));
        for col in [&one, &sharded] {
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
        let batch = ConcurrentColumn::new(vals.clone(), 8);
        let single = ConcurrentColumn::new(vals, 8);
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
        let col = ConcurrentColumn::new(vals, 4);
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
        let col = ConcurrentColumn::new(vals, 2);
        let mut pairs = col.select_pairs(RangePred::between(15, 35));
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 30), (2, 20), (4, 25)]);
    }

    #[test]
    fn a_panicking_crack_in_one_shard_is_contained_and_heals() {
        let vals: Vec<i64> = (0..4_000).map(|i| (i * 23) % 4_000).collect();
        let col = ConcurrentColumn::new(vals.clone(), 4);
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
        // The name predates crack-step polling: the guard is now polled
        // before every predicate *and* at the crack-step boundaries of
        // each shard's cold select.
        let vals: Vec<i64> = (0..3_000).map(|i| (i * 41) % 3_000).collect();
        let col = ConcurrentColumn::new(vals.clone(), 4);
        let preds: Vec<RangePred<i64>> = (0..5)
            .map(|i| RangePred::between(i * 500, i * 500 + 400))
            .collect();
        // Poll 1 admits predicate 0 (one shard, cold), poll 2 is its
        // cold select's entry poll (a virgin piece cracks in three, one
        // step), poll 3 refuses predicate 1.
        let polls = std::cell::Cell::new(0usize);
        let guard = || {
            polls.set(polls.get() + 1);
            polls.get() <= 2
        };
        let mut outs: Vec<Vec<u32>> = preds.iter().map(|_| Vec::new()).collect();
        let done = col.select_oids_batch_guarded(&preds, &mut outs, &guard);
        assert_eq!(done, 1, "exactly the admitted prefix completes");
        assert_eq!(polls.get(), 3);
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

    // One shard: the single-latch column every default engine column is.

    fn count_oracle(vals: &[i64], pred: &RangePred<i64>) -> usize {
        vals.iter().filter(|&&v| pred.matches(v)).count()
    }

    #[test]
    fn readonly_fast_path_answers_repeat_queries() {
        let col = ConcurrentColumn::new((0..1000).rev().collect::<Vec<i64>>(), 1);
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
        let col = ConcurrentColumn::new((0..100).collect::<Vec<i64>>(), 1);
        let pred = RangePred::between(10, 20);
        col.count(pred);
        col.insert(500, 15);
        assert!(col.has_pending_updates());
        // Fast path must not be used while an insert is staged.
        assert_eq!(col.count(pred), 12);
    }

    #[test]
    fn concurrent_readers_and_crackers_agree_with_oracle() {
        let vals: Vec<i64> = (0..50_000).map(|i| (i * 31) % 50_000).collect();
        let col = ConcurrentColumn::new(vals.clone(), 1);
        std::thread::scope(|s| {
            for t in 0..8 {
                let col = &col;
                let vals = &vals;
                s.spawn(move || {
                    for q in 0..50 {
                        let lo = ((t * 577 + q * 131) % 49_000) as i64;
                        let pred = RangePred::between(lo, lo + 800);
                        assert_eq!(col.count(pred), count_oracle(vals, &pred));
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
        let col = ConcurrentColumn::new((0..10_000).collect::<Vec<i64>>(), 1);
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
        // under the write latch.
        let col = ConcurrentColumn::new((0..100_000).rev().collect::<Vec<i64>>(), 1);
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
        let batch = ConcurrentColumn::new(vals.clone(), 1);
        let single = ConcurrentColumn::new(vals, 1);
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
        // A warm batch is answered entirely on the read-latch fast path:
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
        let col = ConcurrentColumn::new(vec![5i64, 1, 9, 3], 1);
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
        let col = ConcurrentColumn::new(vals.clone(), 1);
        col.count(RangePred::between(500, 1500)); // crack some boundaries
        col.arm_panic_on_crack(0);
        // The injected panic tears a pair across pieces and unwinds; the
        // containment heals the column and re-raises so the query still
        // fails.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            col.count(RangePred::between(100, 200))
        }));
        assert!(r.is_err(), "the panicking query must fail loudly");
        // The latch is parking_lot-backed (no poisoning) and the column
        // already healed: every later query answers from a cold rebuild.
        col.validate().unwrap();
        assert!(!col.heal(), "containment already healed the piece map");
        for pred in [
            RangePred::between(100, 200),
            RangePred::between(500, 1500),
            RangePred::le(50),
        ] {
            assert_eq!(col.count(pred), count_oracle(&vals, &pred), "pred {pred:?}");
        }
    }

    #[test]
    fn guarded_batch_stops_at_a_block_boundary_and_reports_the_prefix() {
        let vals: Vec<i64> = (0..3000).map(|i| (i * 17) % 3000).collect();
        let col = ConcurrentColumn::new(vals.clone(), 1);
        // One crack at [1000, 2000] first, so the first guarded predicate
        // has its two bounds in different pieces: two crack steps.
        col.count(RangePred::between(1000, 2000));
        let pieces = col.piece_count();
        let preds: Vec<RangePred<i64>> = (0..6)
            .map(|i| RangePred::between(500 + i * 400, 500 + i * 400 + 1000))
            .collect();
        // Poll 1 admits predicate 0, poll 2 enters its cold select, poll 3
        // sits at the crack-step boundary after its low bound cracked.
        let polls = std::cell::Cell::new(0usize);
        let guard = || {
            polls.set(polls.get() + 1);
            polls.get() <= 2
        };
        let mut outs: Vec<Vec<u32>> = preds.iter().map(|_| Vec::new()).collect();
        let done = col.select_oids_batch_guarded(&preds, &mut outs, &guard);
        assert_eq!(done, 0, "stopped inside the first predicate's select");
        assert_eq!(polls.get(), 3);
        assert!(outs.iter().all(Vec::is_empty), "no partial output");
        assert_eq!(col.piece_count(), pieces + 1, "the whole low crack is kept");
        col.validate().unwrap();
        // A later batch answers everything from the kept crack onwards.
        let done = col.select_oids_batch_guarded(&preds, &mut outs, &|| true);
        assert_eq!(done, preds.len());
        for (pred, out) in preds.iter().zip(&outs) {
            let mut got = out.clone();
            got.sort_unstable();
            assert_eq!(got, oracle(&vals, pred), "pred {pred:?}");
        }
        col.validate().unwrap();
    }
}
