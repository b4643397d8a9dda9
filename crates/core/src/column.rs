//! The cracked column: Ξ-cracking selections.
//!
//! A [`CrackerColumn`] is the paper's cracked BAT: a copy of one attribute's
//! values together with the parallel array of surrogate OIDs, continuously
//! reorganized by the range predicates that query it. "During each step we
//! only touch the pieces that should be cracked to solve the query" (§2.2):
//! a select locates (at most two) border pieces through the cracker index,
//! partitions them in place, and then the whole answer is a contiguous slot
//! range — retrieval cost for repeat visitors "of a nearly completely
//! indexed table" (§5.2).
//!
//! Two practical departures from the idealized algorithm, both from the
//! paper's own discussion, are configurable through
//! `CrackerConfig`:
//!
//! * **cut-off granule** (`min_piece_size`): pieces at or below this size
//!   are never cracked; residual filtering scans inside the border piece
//!   and reports matching slots as `edges`.
//! * **piece budget** (`max_pieces` + fusion policy): boundaries are fused
//!   away (index trimming — data stays put) when the index grows too large.

use crate::config::CrackerConfig;
use crate::crack::BoundaryKey;
use crate::index::CrackerIndex;
use crate::kernel::CrackKernel;
use crate::pred::RangePred;
use crate::sorted::SortedPieces;
use crate::stats::CrackStats;
use crate::updates::{MergeJournal, PendingUpdates};
use crate::value_trait::CrackValue;
use std::ops::Range;
use storage::mem;

/// Result of a cracked selection.
///
/// `core` is the contiguous cracked slot range; `edges` are matching slots
/// inside uncracked (cut-off) border pieces; `pending_oids` are matching
/// tuples still in the pending-insert staging area; `deleted_hits` counts
/// tuples inside `core` that are pending deletion and must be discounted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Contiguous range of matching slots.
    pub core: Range<usize>,
    /// Matching slots in cut-off border pieces (absolute positions, outside
    /// `core`, already filtered for pending deletes).
    pub edges: Vec<usize>,
    /// OIDs of matching tuples in the pending-insert area.
    pub pending_oids: Vec<u32>,
    /// Matching tuples inside `core` that are pending deletion.
    pub deleted_hits: usize,
}

impl Selection {
    /// An empty selection.
    pub fn empty() -> Self {
        Selection {
            core: 0..0,
            edges: Vec::new(),
            pending_oids: Vec::new(),
            deleted_hits: 0,
        }
    }

    /// Number of qualifying tuples.
    pub fn count(&self) -> usize {
        debug_assert!(
            self.deleted_hits <= self.core.len(),
            "deleted_hits ({}) exceeds the core hit count ({}): \
             the pending-delete overlay only discounts tuples inside core",
            self.deleted_hits,
            self.core.len()
        );
        self.core.len() + self.edges.len() + self.pending_oids.len() - self.deleted_hits
    }

    /// True when nothing qualifies.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// True when the whole answer is one contiguous cracked range (no
    /// cut-off edges, no pending tuples): the ideal cracked answer.
    pub fn is_contiguous(&self) -> bool {
        self.edges.is_empty() && self.pending_oids.is_empty() && self.deleted_hits == 0
    }
}

/// How a boundary was resolved during a select.
enum Resolved {
    /// Exact split position (existing or newly cracked).
    Exact(usize),
    /// The boundary falls inside a cut-off piece spanning this range.
    CutOff(Range<usize>),
}

/// A continuously cracked copy of one column.
#[derive(Debug, Clone)]
pub struct CrackerColumn<T> {
    vals: Vec<T>,
    oids: Vec<u32>,
    index: CrackerIndex<T>,
    config: CrackerConfig,
    /// The kernel the hot loops run, resolved once from `config.kernel`.
    kernel: CrackKernel,
    stats: CrackStats,
    sorted: SortedPieces,
    pub(crate) pending: PendingUpdates<T>,
    /// What the merges folded in since the last full checkpoint; `None`
    /// while no durability layer asks for it.
    pub(crate) journal: Option<MergeJournal<T>>,
    /// Chaos hook: crack countdown after which the column tears its own
    /// state and panics, simulating a kernel dying mid-reorganization.
    /// `None` (the default, and the state after firing) is a no-op.
    panic_after: Option<u32>,
}

impl<T: CrackValue> CrackerColumn<T> {
    /// Build from a value vector; OIDs are assigned densely (`0..n`), the
    /// convention when the column is the tail of a dense-headed BAT.
    pub fn new(vals: Vec<T>) -> Self {
        Self::with_config(vals, CrackerConfig::default())
    }

    /// Build with explicit configuration.
    pub fn with_config(vals: Vec<T>, config: CrackerConfig) -> Self {
        let n = vals.len();
        CrackerColumn {
            vals,
            oids: mem::dense_oids(n),
            index: CrackerIndex::new(n),
            kernel: config.kernel.resolve(),
            config,
            stats: CrackStats::default(),
            sorted: SortedPieces::new(),
            pending: PendingUpdates::new(),
            journal: None,
            panic_after: None,
        }
    }

    /// Build from parallel `(values, oids)` arrays (e.g. an explicit-head
    /// BAT).
    ///
    /// # Panics
    /// Panics if the arrays differ in length.
    pub fn from_pairs(vals: Vec<T>, oids: Vec<u32>, config: CrackerConfig) -> Self {
        assert_eq!(vals.len(), oids.len(), "values and oids must align");
        let n = vals.len();
        CrackerColumn {
            vals,
            oids,
            index: CrackerIndex::new(n),
            kernel: config.kernel.resolve(),
            config,
            stats: CrackStats::default(),
            sorted: SortedPieces::new(),
            pending: PendingUpdates::new(),
            journal: None,
            panic_after: None,
        }
    }

    /// Number of tuples in the cracked area (excludes pending inserts).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when the cracked area is empty.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The value array in its current physical order.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// The OID array in its current physical order (parallel to
    /// [`values`](Self::values)).
    pub fn oids(&self) -> &[u32] {
        &self.oids
    }

    /// The cracker index.
    pub fn index(&self) -> &CrackerIndex<T> {
        &self.index
    }

    /// Accumulated cost counters.
    pub fn stats(&self) -> &CrackStats {
        &self.stats
    }

    /// The configuration in force.
    pub fn config(&self) -> &CrackerConfig {
        &self.config
    }

    /// The crack kernel this column's hot loops run (resolved from
    /// `config.kernel` at construction).
    pub fn kernel(&self) -> CrackKernel {
        self.kernel
    }

    /// Adjust the cut-off granule on a live column — the hook the
    /// cracking optimizer ([`crate::policy`]) uses to steer piece
    /// production per query. Existing pieces are untouched; only future
    /// cracks see the new value.
    pub fn set_min_piece_size(&mut self, granule: usize) {
        self.config.min_piece_size = granule.max(1);
    }

    /// Number of pieces currently administered.
    pub fn piece_count(&self) -> usize {
        self.index.piece_count()
    }

    pub(crate) fn stats_mut(&mut self) -> &mut CrackStats {
        &mut self.stats
    }

    pub(crate) fn index_mut(&mut self) -> &mut CrackerIndex<T> {
        &mut self.index
    }

    pub(crate) fn arrays_mut(&mut self) -> (&mut Vec<T>, &mut Vec<u32>, &mut CrackerIndex<T>) {
        (&mut self.vals, &mut self.oids, &mut self.index)
    }

    pub(crate) fn sorted_ref(&self) -> &SortedPieces {
        &self.sorted
    }

    pub(crate) fn sorted_mut(&mut self) -> &mut SortedPieces {
        &mut self.sorted
    }

    /// True when inserts or deletes are staged but not yet merged into
    /// the cracked area. While this holds, the cracked copy's answers can
    /// differ from the base column it was cloned from, so derived fast
    /// paths (e.g. refining a conjunct against base-table values) must
    /// fall back to the full overlay-aware path.
    pub fn has_pending_updates(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Try to answer a range predicate **without mutating anything**:
    /// succeeds only when every needed boundary already exists in the
    /// index (exact boundary hits) and no pending updates are staged.
    /// This is the read-only fast path the latched column
    /// ([`crate::sharded`]) uses to let repeat queries proceed under a
    /// shared latch.
    pub fn try_select_readonly(&self, pred: RangePred<T>) -> Option<Selection> {
        if !self.pending.is_empty() {
            return None;
        }
        if pred.is_empty_range() || self.vals.is_empty() {
            return Some(Selection::empty());
        }
        let start = match pred.low {
            None => 0,
            Some(b) => {
                let key = if b.inclusive {
                    BoundaryKey::lt(b.value)
                } else {
                    BoundaryKey::le(b.value)
                };
                self.index.peek(key)?
            }
        };
        let end = match pred.high {
            None => self.vals.len(),
            Some(b) => {
                let key = if b.inclusive {
                    BoundaryKey::le(b.value)
                } else {
                    BoundaryKey::lt(b.value)
                };
                self.index.peek(key)?
            }
        };
        Some(Selection {
            core: start..end.max(start),
            edges: Vec::new(),
            pending_oids: Vec::new(),
            deleted_hits: 0,
        })
    }

    /// Answer a range predicate, cracking border pieces as a side effect.
    ///
    /// This is the Ξ cracker: afterwards the qualifying tuples occupy the
    /// contiguous `core` range (modulo cut-off edges and pending updates).
    pub fn select(&mut self, pred: RangePred<T>) -> Selection {
        match self.select_with_guard(pred, None) {
            Some(sel) => sel,
            // lint: allow(unwrap) — an ungoverned select has no guard to fail
            None => unreachable!("ungoverned select cannot be abandoned"),
        }
    }

    /// Like [`select`](Self::select), but polling `keep_going` at each
    /// **crack-step boundary** — on entry and between the two boundary
    /// resolutions — and returning `None` once it reports false.
    ///
    /// This is the core's cooperative-cancellation point. The contract on
    /// abandonment: any boundary already resolved stays *fully* cracked
    /// (its piece partitioned and recorded), the rest of the column stays
    /// untouched, so the piece map still satisfies
    /// [`CrackerIndex::check_pieces`] and — because cracking is a
    /// semantic no-op reorganization — every later query returns exactly
    /// what it would have returned anyway. A cancelled query costs its
    /// own answer, never anybody else's.
    pub fn select_guarded(
        &mut self,
        pred: RangePred<T>,
        keep_going: &dyn Fn() -> bool,
    ) -> Option<Selection> {
        self.select_with_guard(pred, Some(keep_going))
    }

    pub(crate) fn select_with_guard(
        &mut self,
        pred: RangePred<T>,
        guard: Option<&dyn Fn() -> bool>,
    ) -> Option<Selection> {
        if let Some(g) = guard {
            if !g() {
                return None;
            }
        }
        self.stats.queries += 1;
        self.index.next_tick();
        if self.pending.should_merge(self.config.merge_threshold) {
            self.merge_pending();
        }
        let mut sel = self.select_cracked(pred, guard)?;
        // Pending updates overlay: scan the staging areas.
        if !self.pending.is_empty() {
            sel.pending_oids = self.pending.matching_inserts(&pred);
            if self.pending.has_deletes() {
                sel.deleted_hits = self
                    .kernel
                    .count_deleted(&self.oids[sel.core.clone()], self.pending.deleted_set());
                sel.edges
                    .retain(|&p| !self.pending.is_deleted(self.oids[p]));
            }
        }
        self.enforce_piece_budget();
        Some(sel)
    }

    /// Count qualifying tuples (the paper's Figure 1(c) operation).
    pub fn count(&mut self, pred: RangePred<T>) -> usize {
        self.select(pred).count()
    }

    /// OIDs of all qualifying tuples, in physical order (core, then edges,
    /// then pending inserts).
    pub fn select_oids(&mut self, pred: RangePred<T>) -> Vec<u32> {
        let sel = self.select(pred);
        self.selection_oids(&sel)
    }

    /// Like [`select_oids`](Self::select_oids), but appending into a
    /// caller-provided buffer so a driver looping over queries allocates
    /// nothing per query.
    pub fn select_oids_into(&mut self, pred: RangePred<T>, out: &mut Vec<u32>) {
        let sel = self.select(pred);
        self.selection_oids_into(&sel, out);
    }

    /// Materialize the OIDs described by a [`Selection`].
    pub fn selection_oids(&self, sel: &Selection) -> Vec<u32> {
        let mut out = Vec::new();
        self.selection_oids_into(sel, &mut out);
        out
    }

    /// Append the OIDs described by a [`Selection`] into a caller-provided
    /// buffer — the zero-allocation sibling of
    /// [`selection_oids`](Self::selection_oids); reuse the buffer across
    /// queries to cut per-query allocations on the hot path.
    pub fn selection_oids_into(&self, sel: &Selection, out: &mut Vec<u32>) {
        out.reserve(sel.count());
        if self.pending.has_deletes() {
            let core = &self.oids[sel.core.clone()];
            self.kernel
                .for_each_live(core, self.pending.deleted_set(), |i| out.push(core[i]));
        } else {
            out.extend_from_slice(&self.oids[sel.core.clone()]);
        }
        out.extend(sel.edges.iter().map(|&p| self.oids[p]));
        out.extend_from_slice(&sel.pending_oids);
    }

    /// Materialize the qualifying `(oid, value)` pairs of a [`Selection`].
    pub fn selection_pairs(&self, sel: &Selection) -> Vec<(u32, T)> {
        let mut out = Vec::new();
        self.copy_selection_into(sel, &mut out);
        out
    }

    /// Append the qualifying `(oid, value)` pairs of a [`Selection`] into a
    /// caller-provided buffer — the zero-allocation result-delivery path
    /// (the buffer is reused across queries by the engines). The common
    /// no-pending-updates case copies the contiguous core directly.
    pub fn copy_selection_into(&self, sel: &Selection, out: &mut Vec<(u32, T)>) {
        out.reserve(sel.count());
        if self.pending.has_deletes() {
            let core_oids = &self.oids[sel.core.clone()];
            let core_vals = &self.vals[sel.core.clone()];
            self.kernel
                .for_each_live(core_oids, self.pending.deleted_set(), |i| {
                    out.push((core_oids[i], core_vals[i]));
                });
        } else {
            out.extend(
                self.oids[sel.core.clone()]
                    .iter()
                    .copied()
                    .zip(self.vals[sel.core.clone()].iter().copied()),
            );
        }
        for &p in &sel.edges {
            out.push((self.oids[p], self.vals[p]));
        }
        for &oid in &sel.pending_oids {
            if let Some(v) = self.pending.insert_value(oid) {
                out.push((oid, v));
            }
        }
    }

    /// The cracked-area part of a select: resolve both bounds, cracking
    /// where needed, and assemble core + edges. `guard` is polled between
    /// the two boundary resolutions (each an atomic crack step); `None`
    /// is returned only on abandonment, never for an empty answer.
    fn select_cracked(
        &mut self,
        pred: RangePred<T>,
        guard: Option<&dyn Fn() -> bool>,
    ) -> Option<Selection> {
        if pred.is_empty_range() || self.vals.is_empty() {
            return Some(Selection::empty());
        }
        let start_key = pred.low.map(|b| {
            if b.inclusive {
                BoundaryKey::lt(b.value)
            } else {
                BoundaryKey::le(b.value)
            }
        });
        let end_key = pred.high.map(|b| {
            if b.inclusive {
                BoundaryKey::le(b.value)
            } else {
                BoundaryKey::lt(b.value)
            }
        });

        // Crack-in-three: both boundaries are new and land in
        // the same virgin piece.
        if let (Some(k1), Some(k2)) = (start_key, end_key) {
            if self.config.mode == crate::config::CrackMode::ThreeWay
                && self.index.lookup(k1).is_none()
                && self.index.lookup(k2).is_none()
            {
                let piece1 = self.index.enclosing_piece(k1);
                let piece2 = self.index.enclosing_piece(k2);
                if piece1 == piece2
                    && piece1.len() > self.config.min_piece_size
                    && !self.sorted.contains(piece1.start)
                    && (self.config.sort_below == 0 || piece1.len() > self.config.sort_below)
                {
                    self.panic_tick();
                    let (p1, p2) = self.kernel.crack_three(
                        &mut self.vals,
                        &mut self.oids,
                        piece1.start,
                        piece1.end,
                        k1,
                        k2,
                        &mut self.stats.tuples_moved,
                    );
                    self.stats.tuples_touched += piece1.len() as u64;
                    self.stats.cracks += 1;
                    self.index.insert(k1, p1);
                    self.index.insert(k2, p2);
                    return Some(Selection {
                        core: p1..p2,
                        edges: Vec::new(),
                        pending_oids: Vec::new(),
                        deleted_hits: 0,
                    });
                }
            }
        }

        let start = match start_key {
            None => Resolved::Exact(0),
            Some(k) => self.resolve_boundary(k),
        };
        // The crack-step boundary: the start bound is fully resolved (its
        // piece either untouched or completely partitioned and recorded),
        // the end bound not yet started — abandoning here is safe.
        if let Some(g) = guard {
            if !g() {
                return None;
            }
        }
        let end = match end_key {
            None => Resolved::Exact(self.vals.len()),
            Some(k) => self.resolve_boundary(k),
        };

        Some(match (start, end) {
            (Resolved::Exact(s), Resolved::Exact(e)) => Selection {
                core: s..e.max(s),
                edges: Vec::new(),
                pending_oids: Vec::new(),
                deleted_hits: 0,
            },
            (Resolved::CutOff(piece), Resolved::Exact(e)) => {
                let core_start = piece.end.min(e);
                let mut edges = Vec::new();
                self.scan_edges_into(piece.start..piece.end.min(e), &pred, &mut edges);
                Selection {
                    core: core_start..e.max(core_start),
                    edges,
                    pending_oids: Vec::new(),
                    deleted_hits: 0,
                }
            }
            (Resolved::Exact(s), Resolved::CutOff(piece)) => {
                let core_end = piece.start.max(s);
                let mut edges = Vec::new();
                self.scan_edges_into(piece.start.max(s)..piece.end, &pred, &mut edges);
                Selection {
                    core: s..core_end,
                    edges,
                    pending_oids: Vec::new(),
                    deleted_hits: 0,
                }
            }
            (Resolved::CutOff(p1), Resolved::CutOff(p2)) => {
                if p1 == p2 {
                    // Both bounds in the same cut-off piece: scan it once.
                    let mut edges = Vec::new();
                    self.scan_edges_into(p1.clone(), &pred, &mut edges);
                    Selection {
                        core: p1.end..p1.end,
                        edges,
                        pending_oids: Vec::new(),
                        deleted_hits: 0,
                    }
                } else {
                    // One buffer for both border pieces: a single
                    // allocation per query instead of two plus a copy.
                    let mut edges = Vec::new();
                    self.scan_edges_into(p1.clone(), &pred, &mut edges);
                    self.scan_edges_into(p2.clone(), &pred, &mut edges);
                    Selection {
                        core: p1.end..p2.start.max(p1.end),
                        edges,
                        pending_oids: Vec::new(),
                        deleted_hits: 0,
                    }
                }
            }
        })
    }

    /// Find (or create by cracking) the split position for `key`.
    fn resolve_boundary(&mut self, key: BoundaryKey<T>) -> Resolved {
        if let Some(pos) = self.index.lookup(key) {
            return Resolved::Exact(pos);
        }
        let mut piece = self.index.enclosing_piece(key);
        if piece.len() <= self.config.min_piece_size {
            return Resolved::CutOff(piece);
        }
        // Known-sorted piece: split by binary search, zero moves.
        if let Some(pos) = self.resolve_in_sorted(key, piece.clone()) {
            return Resolved::Exact(pos);
        }
        // Auto-refinement: once cracking has whittled a piece below the
        // sort threshold, sort it once and binary-search forever after.
        if self.config.sort_below > 0 && piece.len() <= self.config.sort_below {
            self.sort_piece_range(piece.clone());
            self.stats.cracks += 1;
            piece = self.index.enclosing_piece(key);
            if let Some(pos) = self.resolve_in_sorted(key, piece) {
                return Resolved::Exact(pos);
            }
            unreachable!("piece was just sorted");
        }
        self.panic_tick();
        let pos = self.kernel.crack_two(
            &mut self.vals,
            &mut self.oids,
            piece.start,
            piece.end,
            key,
            &mut self.stats.tuples_moved,
        );
        self.stats.tuples_touched += piece.len() as u64;
        self.stats.cracks += 1;
        self.index.insert(key, pos);
        Resolved::Exact(pos)
    }

    /// Crack the piece enclosing `key` at `key`, whatever its size, unless
    /// `key` is already a boundary. Recovery re-imposes a recorded
    /// boundary this way; the position it lands at depends only on the
    /// piece's values, never on their order.
    pub(crate) fn crack_at(&mut self, key: BoundaryKey<T>) {
        if self.index.peek(key).is_some() {
            return;
        }
        let piece = self.index.enclosing_piece(key);
        self.sorted.remove(piece.start);
        let pos = self.kernel.crack_two(
            &mut self.vals,
            &mut self.oids,
            piece.start,
            piece.end,
            key,
            &mut self.stats.tuples_moved,
        );
        self.stats.tuples_touched += piece.len() as u64;
        self.stats.cracks += 1;
        self.index.insert(key, pos);
    }

    /// Scan a cut-off piece, appending the positions matching `pred` into
    /// a caller-provided buffer (reused across the border pieces of one
    /// query) via the configured scan kernel.
    fn scan_edges_into(&mut self, range: Range<usize>, pred: &RangePred<T>, out: &mut Vec<usize>) {
        self.stats.edge_scanned += range.len() as u64;
        self.kernel.scan_into(&self.vals, range, pred, out);
    }

    /// Verify every internal invariant (index consistency, OID permutation,
    /// multiset preservation is checked by callers that kept the original).
    /// Test/debug helper.
    pub fn validate(&self) -> Result<(), String> {
        self.index.validate(&self.vals)?;
        if self.oids.len() != self.vals.len() {
            return Err("oids and values misaligned".into());
        }
        Ok(())
    }

    /// Like [`select_oids_into`](Self::select_oids_into) over a whole
    /// batch, polling `keep_going` per predicate *and* per crack step.
    /// Returns the number of predicates fully answered — always a prefix
    /// of `preds`; `outs` beyond that prefix are untouched.
    ///
    /// # Panics
    /// Panics if `preds` and `outs` differ in length.
    pub fn select_oids_batch_guarded(
        &mut self,
        preds: &[RangePred<T>],
        outs: &mut [Vec<u32>],
        keep_going: &dyn Fn() -> bool,
    ) -> usize {
        assert_eq!(preds.len(), outs.len(), "one output buffer per predicate");
        for (i, (pred, out)) in preds.iter().zip(outs.iter_mut()).enumerate() {
            match self.select_guarded(*pred, keep_going) {
                Some(sel) => self.selection_oids_into(&sel, out),
                None => return i,
            }
        }
        preds.len()
    }

    /// Validate the piece map in `O(n + p)` and, when it no longer
    /// describes the value array, **discard all crack state** — boundary
    /// index and sorted-piece marks — degrading the column to a single
    /// cold virgin piece. Returns whether a rebuild happened.
    ///
    /// This is the panic-containment repair: a kernel that died
    /// mid-reorganization can leave moves the index does not describe,
    /// but it only ever *permutes* paired `(value, oid)` slots, so the
    /// column's content is intact and forgetting the crack state is
    /// always a correct (merely cold) recovery. Pending updates are
    /// preserved — they live outside the cracked area.
    pub fn heal(&mut self) -> bool {
        if self.index.check_pieces(&self.vals).is_ok() {
            return false;
        }
        self.index = CrackerIndex::new(self.vals.len());
        self.sorted = SortedPieces::new();
        true
    }

    /// Chaos hook: after `after` more cracks, the next crack tears the
    /// column (a paired swap the piece map does not describe) and panics —
    /// the simulated mid-kernel death that [`heal`](Self::heal) and the
    /// concurrent wrappers' containment must recover from. Fires once.
    pub fn arm_panic_on_crack(&mut self, after: u32) {
        self.panic_after = Some(after);
    }

    /// The countdown behind [`arm_panic_on_crack`](Self::arm_panic_on_crack),
    /// polled at every crack site before the kernel runs.
    fn panic_tick(&mut self) {
        let Some(n) = self.panic_after.as_mut() else {
            return;
        };
        if *n > 0 {
            *n -= 1;
            return;
        }
        self.panic_after = None;
        // Tear paired state: swap the first and last (value, oid) slots
        // together. Content (the multiset of pairs) stays intact, but any
        // recorded boundary between them is now a lie — exactly the shape
        // of a crack that moved tuples and died before recording.
        let n = self.vals.len();
        if n >= 2 {
            self.vals.swap(0, n - 1);
            self.oids.swap(0, n - 1);
        }
        panic!("injected panic mid-crack (armed by arm_panic_on_crack)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrackMode;
    use proptest::prelude::*;

    fn col(vals: Vec<i64>) -> CrackerColumn<i64> {
        CrackerColumn::new(vals)
    }

    #[test]
    fn first_select_cracks_virgin_column_in_three() {
        let mut c = col(vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3]);
        let sel = c.select(RangePred::between(5, 12));
        assert!(sel.is_contiguous());
        let got: Vec<i64> = sel.core.clone().map(|p| c.values()[p]).collect();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![7, 9, 12]);
        // One physical crack produced three pieces.
        assert_eq!(c.stats().cracks, 1);
        assert_eq!(c.piece_count(), 3);
        c.validate().unwrap();
    }

    #[test]
    fn repeat_query_touches_nothing() {
        let mut c = col((0..1000).rev().collect());
        c.select(RangePred::between(100, 200));
        let touched_before = c.stats().tuples_touched;
        let sel = c.select(RangePred::between(100, 200));
        assert_eq!(sel.count(), 101);
        assert_eq!(
            c.stats().tuples_touched,
            touched_before,
            "an exact repeat must reuse existing boundaries"
        );
    }

    #[test]
    fn narrowing_sequence_touches_less_and_less() {
        let mut c = col((0..10_000).rev().collect());
        let mut last = u64::MAX;
        for (lo, hi) in [(1000, 9000), (2000, 8000), (3000, 7000), (4000, 6000)] {
            let before = c.stats().tuples_touched;
            let sel = c.select(RangePred::between(lo, hi));
            assert_eq!(sel.count(), (hi - lo + 1) as usize);
            let delta = c.stats().tuples_touched - before;
            assert!(
                delta < last,
                "each narrower query should touch fewer tuples ({delta} !< {last})"
            );
            last = delta;
        }
    }

    #[test]
    fn one_sided_predicates() {
        let mut c = col(vec![5, 3, 8, 1, 9, 7]);
        assert_eq!(c.count(RangePred::lt(5)), 2);
        assert_eq!(c.count(RangePred::le(5)), 3);
        assert_eq!(c.count(RangePred::gt(7)), 2);
        assert_eq!(c.count(RangePred::ge(7)), 3);
        c.validate().unwrap();
    }

    #[test]
    fn point_query_is_a_degenerate_range() {
        let mut c = col(vec![5, 3, 5, 1, 5, 9]);
        let sel = c.select(RangePred::eq(5));
        assert_eq!(sel.count(), 3);
        let vals: Vec<i64> = sel.core.clone().map(|p| c.values()[p]).collect();
        assert_eq!(vals, vec![5, 5, 5]);
    }

    #[test]
    fn empty_range_returns_empty() {
        let mut c = col(vec![1, 2, 3]);
        assert_eq!(c.count(RangePred::between(5, 2)), 0);
        assert_eq!(c.count(RangePred::half_open(2, 2)), 0);
        assert_eq!(c.stats().cracks, 0, "empty ranges must not crack");
    }

    #[test]
    fn empty_column_answers_empty() {
        let mut c = col(vec![]);
        assert_eq!(c.count(RangePred::between(1, 10)), 0);
    }

    #[test]
    fn all_matching_range() {
        let mut c = col(vec![5, 1, 3]);
        let sel = c.select(RangePred::between(0, 10));
        assert_eq!(sel.count(), 3);
        assert_eq!(sel.core, 0..3);
    }

    #[test]
    fn selection_oids_track_original_rows() {
        let orig = vec![30i64, 10, 20, 40];
        let mut c = col(orig.clone());
        let oids = c.select_oids(RangePred::between(15, 35));
        let mut got: Vec<i64> = oids.iter().map(|&o| orig[o as usize]).collect();
        got.sort_unstable();
        assert_eq!(got, vec![20, 30]);
    }

    #[test]
    fn two_way_mode_needs_two_cracks_for_a_range() {
        let mut c = CrackerColumn::with_config(
            (0..100).rev().collect(),
            CrackerConfig::new().with_mode(CrackMode::TwoWay),
        );
        let sel = c.select(RangePred::between(10, 20));
        assert_eq!(sel.count(), 11);
        assert_eq!(c.stats().cracks, 2);
        assert_eq!(c.piece_count(), 3);
        c.validate().unwrap();
    }

    #[test]
    fn cutoff_produces_edge_scans_instead_of_cracks() {
        let mut c = CrackerColumn::with_config(
            (0..100).rev().collect(),
            CrackerConfig::new().with_min_piece_size(1000),
        );
        let sel = c.select(RangePred::between(10, 20));
        assert_eq!(sel.count(), 11);
        assert_eq!(c.stats().cracks, 0, "piece below cut-off: no cracking");
        assert!(!sel.edges.is_empty());
        assert!(sel.core.is_empty());
        assert!(c.stats().edge_scanned >= 100);
    }

    #[test]
    fn cutoff_edges_combine_with_cracked_core() {
        // First crack with default config, then raise the cut-off so the
        // next query's new boundary falls in a piece it may not crack.
        let mut c = col((0..1000).collect());
        c.select(RangePred::between(400, 600));
        let mut cfg = *c.config();
        cfg.min_piece_size = 500;
        c.config = cfg;
        // 450..550 lies inside the cracked middle piece (size 201 < 500).
        let sel = c.select(RangePred::between(450, 550));
        assert_eq!(sel.count(), 101);
        c.validate().unwrap();
    }

    #[test]
    fn stats_accumulate() {
        let mut c = col((0..100).collect());
        c.select(RangePred::between(10, 20));
        c.select(RangePred::between(30, 40));
        let s = c.stats();
        assert_eq!(s.queries, 2);
        assert!(s.cracks >= 2);
        assert!(s.tuples_touched >= 100);
    }

    #[test]
    fn duplicates_heavy_column() {
        let mut c = col(vec![5; 100]);
        assert_eq!(c.count(RangePred::eq(5)), 100);
        assert_eq!(c.count(RangePred::lt(5)), 0);
        assert_eq!(c.count(RangePred::gt(5)), 0);
        c.validate().unwrap();
    }

    #[test]
    fn from_pairs_respects_explicit_oids() {
        let mut c =
            CrackerColumn::from_pairs(vec![10i64, 20, 30], vec![7, 8, 9], CrackerConfig::default());
        let oids = c.select_oids(RangePred::ge(20));
        let mut sorted = oids;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![8, 9]);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn from_pairs_panics_on_misalignment() {
        CrackerColumn::from_pairs(vec![1i64], vec![1, 2], CrackerConfig::default());
    }

    #[test]
    fn selection_pairs_returns_values() {
        let mut c = col(vec![3, 1, 2]);
        let sel = c.select(RangePred::le(2));
        let mut pairs = c.selection_pairs(&sel);
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 1), (2, 2)]);
    }

    /// Oracle: a naive filter over the original data.
    fn oracle(orig: &[i64], pred: &RangePred<i64>) -> Vec<u32> {
        let mut v: Vec<u32> = orig
            .iter()
            .enumerate()
            .filter(|(_, &x)| pred.matches(x))
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn guarded_select_abandons_between_crack_steps_without_tearing() {
        let orig: Vec<i64> = (0..1000).map(|i| (i * 37) % 1000).collect();
        let mut c = col(orig.clone());
        // Pre-crack so the guarded query's two bounds land in different
        // pieces and it takes the two-step (crack-two + crack-two) path.
        c.select(RangePred::between(400, 500));
        let before = c.piece_count();
        // Allow only the entry poll: the guard fails at the crack-step
        // boundary, after the start bound is resolved but before the end.
        let polls = std::cell::Cell::new(0usize);
        let guard = || {
            polls.set(polls.get() + 1);
            polls.get() <= 1
        };
        let pred = RangePred::between(200, 700);
        assert!(c.select_guarded(pred, &guard).is_none(), "must abandon");
        assert_eq!(polls.get(), 2, "entry poll plus one boundary poll");
        // The start boundary was fully cracked and kept; nothing is torn.
        assert!(c.piece_count() > before, "resolved step is not rolled back");
        c.index().check_pieces(c.values()).unwrap();
        c.validate().unwrap();
        // And the abandoned query changed no later observable answer.
        let mut got = c.select_oids(pred);
        got.sort_unstable();
        assert_eq!(got, oracle(&orig, &pred));
    }

    #[test]
    fn heal_rebuilds_a_torn_piece_map_and_preserves_answers() {
        let orig: Vec<i64> = (0..500).map(|i| (i * 13) % 500).collect();
        let mut c = col(orig.clone());
        let pred = RangePred::between(100, 400);
        c.select(pred);
        assert!(!c.heal(), "an intact piece map must not be rebuilt");
        // Tear it: the armed crack swaps a paired slot across recorded
        // boundaries and panics before recording anything.
        c.arm_panic_on_crack(0);
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.select(RangePred::between(50, 60))
        }));
        assert!(torn.is_err(), "the armed crack must panic");
        assert!(
            c.index().check_pieces(c.values()).is_err(),
            "the tear must actually violate the piece map"
        );
        assert!(c.heal(), "a torn piece map must be rebuilt");
        c.index().check_pieces(c.values()).unwrap();
        c.validate().unwrap();
        assert_eq!(c.piece_count(), 1, "healed column degraded to cold");
        // Content survived: every answer still matches the oracle.
        for pred in [pred, RangePred::between(50, 60), RangePred::le(10)] {
            let mut got = c.select_oids(pred);
            got.sort_unstable();
            assert_eq!(got, oracle(&orig, &pred));
        }
    }

    proptest! {
        #[test]
        fn prop_arbitrary_query_sequences_agree_with_oracle(
            orig in proptest::collection::vec(-100i64..100, 0..300),
            queries in proptest::collection::vec(
                (-120i64..120, -120i64..120, proptest::bool::ANY, proptest::bool::ANY),
                1..25
            ),
            mode in proptest::bool::ANY,
            cutoff in 1usize..64,
        ) {
            let cfg = CrackerConfig::new()
                .with_mode(if mode { CrackMode::ThreeWay } else { CrackMode::TwoWay })
                .with_min_piece_size(cutoff);
            let mut c = CrackerColumn::with_config(orig.clone(), cfg);
            for (a, b, inc_lo, inc_hi) in queries {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let pred = RangePred::with_bounds(Some((lo, inc_lo)), Some((hi, inc_hi)));
                let mut got = c.select_oids(pred);
                got.sort_unstable();
                prop_assert_eq!(got, oracle(&orig, &pred));
                c.validate().map_err(TestCaseError::fail)?;
            }
        }

        #[test]
        fn prop_one_sided_queries_agree_with_oracle(
            orig in proptest::collection::vec(-50i64..50, 0..200),
            queries in proptest::collection::vec((-60i64..60, 0u8..4), 1..20),
        ) {
            let mut c = CrackerColumn::new(orig.clone());
            for (v, op) in queries {
                let pred = match op {
                    0 => RangePred::lt(v),
                    1 => RangePred::le(v),
                    2 => RangePred::gt(v),
                    _ => RangePred::ge(v),
                };
                let mut got = c.select_oids(pred);
                got.sort_unstable();
                prop_assert_eq!(got, oracle(&orig, &pred));
            }
            c.validate().map_err(TestCaseError::fail)?;
        }

        #[test]
        fn prop_interleaved_deletes_and_selects_agree_with_oracle(
            orig in proptest::collection::vec(-100i64..100, 1..200),
            ops in proptest::collection::vec(
                (proptest::bool::ANY, -120i64..120, -120i64..120, 0usize..400),
                1..40
            ),
            merge_threshold in 1usize..32,
        ) {
            // Interleave staged deletes with cracking selects (which also
            // trigger merges at the configured threshold): every count
            // must match the live-tuple oracle, and Selection::count's
            // deleted_hits bound must hold throughout.
            let cfg = CrackerConfig {
                merge_threshold,
                ..CrackerConfig::default()
            };
            let mut c = CrackerColumn::with_config(orig.clone(), cfg);
            let mut deleted = std::collections::HashSet::new();
            for (is_delete, a, b, pick) in ops {
                if is_delete {
                    let oid = (pick % orig.len()) as u32;
                    let found = c.delete(oid);
                    // A live tuple must be found; a re-delete may still
                    // report true until a merge physically removes it.
                    if !deleted.contains(&oid) {
                        prop_assert!(found);
                    }
                    deleted.insert(oid);
                } else {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let pred = RangePred::between(lo, hi);
                    let sel = c.select(pred);
                    let want = orig
                        .iter()
                        .enumerate()
                        .filter(|(i, &v)| !deleted.contains(&(*i as u32)) && pred.matches(v))
                        .count();
                    prop_assert_eq!(sel.count(), want);
                    prop_assert!(sel.deleted_hits <= sel.core.len());
                }
                c.validate().map_err(TestCaseError::fail)?;
            }
        }

        #[test]
        fn prop_guarded_select_at_any_poll_leaves_valid_state_and_answers(
            orig in proptest::collection::vec(-500i64..500, 2..300),
            queries in proptest::collection::vec((-520i64..520, 1i64..80), 1..12),
            cancel_at in 0usize..40,
        ) {
            // Cancel after an arbitrary number of guard polls, at whatever
            // block/crack-step boundary that lands on; the piece map must
            // stay valid and every answer — before and after — must match
            // the oracle.
            let mut c = CrackerColumn::new(orig.clone());
            let preds: Vec<RangePred<i64>> = queries
                .iter()
                .map(|&(lo, w)| RangePred::between(lo, lo + w))
                .collect();
            let mut outs: Vec<Vec<u32>> = preds.iter().map(|_| Vec::new()).collect();
            let polls = std::cell::Cell::new(0usize);
            let guard = || {
                polls.set(polls.get() + 1);
                polls.get() <= cancel_at
            };
            let done = c.select_oids_batch_guarded(&preds, &mut outs, &guard);
            prop_assert!(done <= preds.len());
            c.index().check_pieces(c.values()).map_err(TestCaseError::fail)?;
            c.validate().map_err(TestCaseError::fail)?;
            let oracle = |pred: &RangePred<i64>| {
                let mut want: Vec<u32> = orig
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| pred.matches(v))
                    .map(|(i, _)| i as u32)
                    .collect();
                want.sort_unstable();
                want
            };
            // Completed prefix answered correctly, remainder untouched.
            for (i, pred) in preds.iter().enumerate() {
                if i < done {
                    let mut got = outs[i].clone();
                    got.sort_unstable();
                    prop_assert_eq!(got, oracle(pred), "completed pred {} wrong", i);
                } else {
                    prop_assert!(outs[i].is_empty(), "abandoned pred {} has output", i);
                }
            }
            // The cancelled work must not alter later observable results.
            for pred in &preds {
                let mut got = c.select_oids(*pred);
                got.sort_unstable();
                prop_assert_eq!(got, oracle(pred));
            }
            c.validate().map_err(TestCaseError::fail)?;
        }

        #[test]
        fn prop_multiset_of_pairs_is_invariant(
            orig in proptest::collection::vec(-50i64..50, 1..200),
            queries in proptest::collection::vec((-60i64..60, -60i64..60), 1..15),
        ) {
            let mut c = CrackerColumn::new(orig.clone());
            for (a, b) in queries {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                c.select(RangePred::between(lo, hi));
            }
            let mut pairs: Vec<(u32, i64)> = c.oids().iter().copied()
                .zip(c.values().iter().copied()).collect();
            pairs.sort_unstable();
            let expected: Vec<(u32, i64)> =
                (0..orig.len() as u32).map(|i| (i, orig[i as usize])).collect();
            prop_assert_eq!(pairs, expected, "cracking must permute, never alter");
        }
    }
}
