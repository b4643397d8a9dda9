//! Updates on a cracked column.
//!
//! "What are the effects of updates on the scheme proposed?" is one of the
//! open questions of §2.2. We adopt the approach the paper's BAT layout
//! already hints at (Figure 7 shows dedicated `inserted` and `deleted`
//! areas): updates are staged in pending areas that every select consults,
//! and a **merge** folds them into the cracked store. The staged inserts
//! are kept in value order, as in the value-ordered delta of Héman et al.,
//! "Positional Update Handling in Column Stores" (SIGMOD 2010): staging
//! one costs `O(log k)`, and a select's overlay is one range probe,
//! `O(log k + matches)`, however many are staged. So the staging area may
//! grow with the column: a merge runs once the staged updates reach
//! `max(merge_threshold, n / STAGE_SHARE)` ([`STAGE_SHARE`]), which bounds
//! the merge's work per staged row, not a read's latency.
//!
//! The merge preserves every existing boundary, so the investment in
//! cracking survives the update burst, and it works in place with the
//! ripple idea of Idreos, Kersten & Manegold, "Updating a Cracked
//! Database" (SIGMOD 2007), applied to the whole staged batch: `k` inserts
//! over `p` pieces arrive in value order, cost `O(k + p)` and write at most
//! `Σ min(S_j, len_j) + k` tuples, where `S_j` is the number of inserts
//! landing before piece `j`. They do not cost `O(n)`, apart from the
//! arrays' amortized doubling when they run out of capacity. Staged
//! deletes add one `O(n)` compaction pass; that pass runs only when
//! deletes are staged.
//!
//! A delete from the *base* table is the other kind. It is deferred: the
//! table keeps the doomed rows as tombstones, so no OID moves, and every
//! cracked copy stages the doomed OIDs as pending deletes in one batch
//! ([`PendingUpdates::stage_deletes`]), which reads and merges already
//! honour. Once a table's tombstones reach `len / STAGE_SHARE` the engine
//! *folds* them: the table compacts its columns and renumbers the
//! survivors densely, so every OID above a deleted row moves down, and
//! [`CrackerColumn::compact_renumber`] follows in place with the same
//! compaction pass, under a different per-tuple map: a doomed tuple is
//! dropped, a survivor's OID becomes `oid − rank(oid)` ([`Renumbering`]).
//! Every boundary, and the pending overlay, survives; the next select is
//! an index lookup, not a re-copy. This is the pending-delete scheme of
//! the SIGMOD 2007 paper applied to the base table, with the renumbering
//! deferred as Héman et al. defer theirs: the `O(n)` pass runs once per
//! `len / STAGE_SHARE` deleted rows, not once per statement.

use crate::column::CrackerColumn;
use crate::config::STAGE_SHARE;
use crate::pred::RangePred;
use crate::value_trait::CrackValue;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included, Unbounded};

/// A set of OIDs backed by a growable bitmap: one bit per OID, so
/// membership is a single O(1) word probe with no hashing — the
/// representation behind the pending-delete overlay, where `select`
/// probes once per tuple in its core range and a hash probe per element
/// dominated the overlay cost.
///
/// OIDs are caller-supplied and only *conventionally* dense, so the
/// bitmap is not allowed to balloon on an outlier: it grows only while
/// the requested word stays near the already-allocated prefix (within
/// double the current size plus a fixed slack). Members beyond that —
/// e.g. one delete of a huge surrogate OID — go to a sparse side set,
/// keeping memory proportional to the dense cluster actually in use
/// rather than to `max_oid / 8`. When the bitmap grows, every side-set
/// member it now covers moves into it, so the side set only ever holds
/// OIDs beyond the bitmap and a probe of a covered OID never hashes.
#[derive(Debug, Clone, Default)]
pub struct OidSet {
    /// Bit `oid % 64` of `words[oid / 64]` marks membership of the dense
    /// prefix.
    words: Vec<u64>,
    /// Members beyond the bitmap that the growth rule kept out of it.
    sparse: std::collections::HashSet<u32>,
    /// Number of distinct members (both representations).
    len: usize,
}

/// Fixed headroom (in 64-bit words) the bitmap may grow past its current
/// end in one step: 1024 words = 64k OIDs = 8 KiB.
const DENSE_SLACK_WORDS: usize = 1024;

impl OidSet {
    /// An empty set.
    pub fn new() -> Self {
        OidSet::default()
    }

    /// Add `oid`; returns `true` when it was not yet a member.
    pub fn insert(&mut self, oid: u32) -> bool {
        let (w, bit) = (oid as usize / 64, 1u64 << (oid % 64));
        if w >= self.words.len() {
            if w > self.words.len() * 2 + DENSE_SLACK_WORDS {
                // Far beyond the dense prefix: spill to the side set
                // instead of zero-filling megabytes of bitmap.
                let fresh = self.sparse.insert(oid);
                self.len += fresh as usize;
                return fresh;
            }
            self.grow((w + 1).max(self.words.len() * 2));
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += fresh as usize;
        fresh
    }

    /// Grow the bitmap to `words` words and move every side-set member it
    /// now covers into it. Growth at least doubles, so the side set is
    /// walked `O(log max_oid)` times in all.
    fn grow(&mut self, words: usize) {
        self.words.resize(words, 0);
        let bits = &mut self.words;
        self.sparse
            .retain(|&oid| match bits.get_mut(oid as usize / 64) {
                Some(word) => {
                    *word |= 1 << (oid % 64);
                    false
                }
                None => true,
            });
    }

    /// Is `oid` a member? One bounds check plus one word probe; the
    /// sparse side set is consulted only for OIDs beyond the bitmap, and
    /// only when it is non-empty.
    #[inline(always)]
    pub fn contains(&self, oid: u32) -> bool {
        match self.words.get(oid as usize / 64) {
            Some(word) => word & (1 << (oid % 64)) != 0,
            None => !self.sparse.is_empty() && self.sparse.contains(&oid),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The dense bitmap words (bit `oid % 64` of `words[oid / 64]`) —
    /// gathered directly by the SIMD overlay probe.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// True when any member lives in the sparse side set, i.e. beyond the
    /// bitmap: the SIMD overlay probe only covers the dense bitmap and
    /// must fall back.
    pub(crate) fn has_sparse(&self) -> bool {
        !self.sparse.is_empty()
    }

    /// True when no OID is a member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate all members: the bitmap's in ascending order, then the
    /// side set's in no particular order — the export path for journaling
    /// and checkpointing the pending-delete overlay. A word costs one test
    /// when empty and one step per set bit otherwise.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let dense = self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    (w * 64) as u32 + bit
                })
            })
        });
        dense.chain(self.sparse.iter().copied())
    }
}

/// The OID map of a delete from a dense OID space: doomed OIDs go, and
/// every survivor moves down to `oid − rank(oid)`, where `rank(oid)`
/// counts the doomed OIDs below it — what a base table that compacts its
/// columns does to its row numbers. It holds one bit per OID up to the
/// largest doomed one, each 64-bit word paired with the count of doomed
/// OIDs before it, so a lookup is one word probe (plus a popcount in the
/// rare word that holds a doomed OID).
#[derive(Debug, Clone, Default)]
pub struct Renumbering {
    /// For word `w`: the doomed bits of OIDs `64·w ..`, and the number of
    /// doomed OIDs below `64·w`.
    words: Vec<(u64, u32)>,
    /// Number of doomed OIDs: the shift of every OID beyond the bitmap.
    doomed: u32,
}

impl Renumbering {
    /// The map that removes `doomed` (any order; repeats count once). It
    /// takes 16 bytes per 64 OIDs up to the largest doomed one, so the
    /// caller bounds them (`delete_rows` by the table's length).
    pub fn new(doomed: &[u32]) -> Self {
        let len = doomed.iter().max().map_or(0, |&max| max as usize / 64 + 1);
        let mut words = vec![(0u64, 0u32); len];
        for &oid in doomed {
            words[oid as usize / 64].0 |= 1 << (oid % 64);
        }
        let mut doomed = 0;
        for (bits, below) in &mut words {
            *below = doomed;
            doomed += bits.count_ones();
        }
        Renumbering { words, doomed }
    }

    /// Where `oid` moves; `None` when it is doomed.
    #[inline(always)]
    pub fn map(&self, oid: u32) -> Option<u32> {
        let Some(&(bits, below)) = self.words.get(oid as usize / 64) else {
            return Some(oid - self.doomed);
        };
        if bits == 0 {
            return Some(oid - below);
        }
        let bit = 1u64 << (oid % 64);
        (bits & bit == 0).then(|| oid - below - (bits & (bit - 1)).count_ones())
    }
}

/// Compact every piece leftwards in one stable pass over `vals` / `oids`:
/// a tuple whose OID `map` sends to `Some(new)` is kept with OID `new`,
/// the rest are dropped. `ends` holds each piece's end slot and is
/// rewritten to the new ends. The write cursor never passes the read
/// cursor, so the pass is in place. Every kept tuple is written back, so
/// the keep test is the loop's only branch. Returns the number of tuples
/// that changed slot: every kept tuple after the first dropped one.
fn compact_pieces<T: Copy>(
    vals: &mut Vec<T>,
    oids: &mut Vec<u32>,
    ends: &mut [usize],
    map: impl Fn(u32) -> Option<u32>,
) -> u64 {
    let (mut read, mut write, mut first_gap) = (0, 0, None);
    for end in ends.iter_mut() {
        // Sliced to the piece end, the loop condition bounds the reads.
        let (vals, oids) = (&mut vals[..*end], &mut oids[..*end]);
        while read < vals.len() {
            if let Some(oid) = map(oids[read]) {
                vals[write] = vals[read];
                oids[write] = oid;
                write += 1;
            } else {
                first_gap.get_or_insert(read);
            }
            read += 1;
        }
        *end = write;
    }
    vals.truncate(write);
    oids.truncate(write);
    first_gap.map_or(0, |gap| (write - gap) as u64)
}

/// What the update merges folded into a column since its last full
/// checkpoint: per merge, the `(oid, value)` inserts it wrote and the OIDs
/// it deleted. Together with that checkpoint it reproduces the column's
/// content, so a checkpoint can persist this small log instead of the
/// whole permuted column (see `PERSISTENCE.md`, "Checkpoint rule").
///
/// A column records only while its journal is switched on
/// ([`CrackerColumn::set_journaling`]). A base-table delete renumbers
/// every OID, which no entry can describe: it empties the journal and
/// marks it [`compacted`](Self::compacted) until the next
/// [`CrackerColumn::clear_journal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeJournal<T> {
    insert_oids: Vec<u32>,
    insert_values: Vec<T>,
    deletes: Vec<u32>,
    /// Per merge: its end offsets into the insert and delete lists.
    ends: Vec<(usize, usize)>,
    compacted: bool,
}

impl<T> Default for MergeJournal<T> {
    fn default() -> Self {
        MergeJournal {
            insert_oids: Vec::new(),
            insert_values: Vec::new(),
            deletes: Vec::new(),
            ends: Vec::new(),
            compacted: false,
        }
    }
}

impl<T: CrackValue> MergeJournal<T> {
    /// Rebuild a journal from its flat lists and per-merge end offsets, as
    /// a checkpoint stores it. The offsets must be ascending and end
    /// inside the lists, and every insert needs its value.
    pub fn from_parts(
        insert_oids: Vec<u32>,
        insert_values: Vec<T>,
        deletes: Vec<u32>,
        ends: Vec<(usize, usize)>,
    ) -> Result<Self, String> {
        if insert_oids.len() != insert_values.len() {
            return Err("journal insert arrays differ in length".to_string());
        }
        let mut last = (0, 0);
        for &(i, d) in &ends {
            if i < last.0 || d < last.1 || i > insert_oids.len() || d > deletes.len() {
                return Err(format!("journal batch end {:?} out of order", (i, d)));
            }
            last = (i, d);
        }
        if last != (insert_oids.len(), deletes.len()) {
            return Err("journal batches do not cover the journal".to_string());
        }
        Ok(MergeJournal {
            insert_oids,
            insert_values,
            deletes,
            ends,
            compacted: false,
        })
    }

    /// Journaled inserts plus deletes.
    pub fn len(&self) -> usize {
        self.insert_oids.len() + self.deletes.len()
    }

    /// Nothing journaled?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a base-table delete renumbered the column since the journal
    /// was last cleared.
    pub fn compacted(&self) -> bool {
        self.compacted
    }

    /// OIDs of the journaled inserts, in merge order.
    pub fn insert_oids(&self) -> &[u32] {
        &self.insert_oids
    }

    /// Values of the journaled inserts, parallel to
    /// [`insert_oids`](Self::insert_oids).
    pub fn insert_values(&self) -> &[T] {
        &self.insert_values
    }

    /// Journaled deletes, in merge order.
    pub fn deletes(&self) -> &[u32] {
        &self.deletes
    }

    /// Per merge, its end offsets into the insert and delete lists.
    pub fn ends(&self) -> &[(usize, usize)] {
        &self.ends
    }

    /// Per merge: its insert OIDs, insert values and deletes.
    pub fn batches(&self) -> impl Iterator<Item = (&[u32], &[T], &[u32])> + '_ {
        let starts = std::iter::once((0, 0)).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|((i0, d0), &(i1, d1))| {
            (
                &self.insert_oids[i0..i1],
                &self.insert_values[i0..i1],
                &self.deletes[d0..d1],
            )
        })
    }

    fn clear(&mut self) {
        self.insert_oids.clear();
        self.insert_values.clear();
        self.deletes.clear();
        self.ends.clear();
        self.compacted = false;
    }
}

/// Staging areas for not-yet-merged updates.
#[derive(Debug, Clone)]
pub struct PendingUpdates<T> {
    /// Staged inserts, not yet in the cracked area: their OIDs keyed by
    /// `(value, seq)`. Value order makes a select's overlay one range probe
    /// and hands a merge its inserts piece by piece. `seq` numbers the
    /// inserts in staging order, which breaks ties and keeps the OID out
    /// of the key, so a renumbering rewrites OIDs in place.
    inserts: BTreeMap<(T, u64), u32>,
    /// The `seq` of the next staged insert.
    next_seq: u64,
    /// A lower bound on the staged inserts' OIDs (`u32::MAX` when none is
    /// staged): a delete batch below it cannot cancel any of them.
    low_insert: u32,
    /// OIDs pending deletion from the cracked area. A pending delete hides
    /// the cracked tuple of its OID only, never a staged insert: an insert
    /// staged after the delete is a new row under the same OID.
    deletes: OidSet,
    /// Whether a staged insert may carry a value other than its row's in
    /// the base column: set by [`stage_insert`](Self::stage_insert), and
    /// clear while every staged insert came through
    /// [`stage_appended`](Self::stage_appended). While it is clear, a
    /// base-table delete finds a row's staged inserts by the row's value.
    restaged: bool,
}

impl<T: CrackValue> Default for PendingUpdates<T> {
    fn default() -> Self {
        PendingUpdates {
            inserts: BTreeMap::new(),
            next_seq: 0,
            low_insert: u32::MAX,
            deletes: OidSet::new(),
            restaged: false,
        }
    }
}

impl<T: CrackValue> PendingUpdates<T> {
    /// Empty staging areas.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage an insert of any `(oid, value)`: `O(log k)` for `k` staged
    /// inserts.
    pub fn stage_insert(&mut self, oid: u32, value: T) {
        self.restaged = true;
        self.stage_appended(oid, value);
    }

    /// Stage the insert of a row appended to the base column at `value`:
    /// [`stage_insert`](Self::stage_insert), with the promise that lets
    /// [`stage_deletes`](Self::stage_deletes) find it by that value.
    pub fn stage_appended(&mut self, oid: u32, value: T) {
        self.inserts.insert((value, self.next_seq), oid);
        self.next_seq += 1;
        self.low_insert = self.low_insert.min(oid);
    }

    /// Stage the deletion of one OID, whatever the value of its staged
    /// inserts: they are found by one walk over all of them.
    pub fn stage_delete(&mut self, oid: u32) {
        self.cancel_inserts(&[oid]);
        self.deletes.insert(oid);
    }

    /// Stage the deletion of every row of the base column `base` the OIDs
    /// in `doomed` (ascending, no repeats) name: each one's staged inserts
    /// are cancelled and its cracked tuple, if there is one, is marked
    /// deleted. A mark on an OID the cracked area does not hold hides
    /// nothing, and the next merge drops it. The staged inserts are
    /// ordered by value. While each is a row appended to `base` at its
    /// value, a doomed row's inserts are one range probe at `base[oid]`,
    /// `O(m log k)` for `m` doomed rows and `k` staged inserts; after a
    /// [`stage_insert`](Self::stage_insert) the cancellation is one walk
    /// over all `k` for the whole batch. Both skip the doomed OIDs below
    /// the lowest staged one.
    pub fn stage_deletes(&mut self, doomed: &[u32], base: &[T]) {
        if self.restaged {
            self.cancel_inserts(doomed);
        } else {
            self.cancel_by_value(doomed, base);
        }
        for &oid in doomed {
            self.deletes.insert(oid);
        }
    }

    /// [`cancel_inserts`](Self::cancel_inserts) when every staged insert
    /// is a row appended to `base` at its value: a doomed row's inserts
    /// lie under `(base[oid], _)`. Leaves `low_insert` a lower bound.
    fn cancel_by_value(&mut self, doomed: &[u32], base: &[T]) {
        debug_assert!(doomed.windows(2).all(|w| w[0] < w[1]), "ascending");
        let reach = doomed.partition_point(|&oid| oid < self.low_insert);
        for &oid in &doomed[reach..] {
            // An OID beyond `base` names no appended row.
            let Some(&v) = base.get(oid as usize) else {
                continue;
            };
            let row = |(&key, &staged): (&(T, u64), &u32)| (staged == oid).then_some(key);
            while let Some(key) = self.inserts.range((v, 0)..=(v, u64::MAX)).find_map(row) {
                self.inserts.remove(&key);
            }
        }
        if self.inserts.is_empty() {
            self.low_insert = u32::MAX;
        }
    }

    /// Cancel every staged insert whose OID is in `doomed` (ascending, no
    /// repeats) in one walk, skipped when no doomed OID reaches
    /// `low_insert`. Returns whether any was cancelled.
    fn cancel_inserts(&mut self, doomed: &[u32]) -> bool {
        debug_assert!(doomed.windows(2).all(|w| w[0] < w[1]), "ascending");
        let (Some(&first), Some(&last)) = (doomed.first(), doomed.last()) else {
            return false;
        };
        if last < self.low_insert {
            return false;
        }
        let before = self.inserts.len();
        let mut low = u32::MAX;
        self.inserts.retain(|_, &mut oid| {
            let hit = (first..=last).contains(&oid) && doomed.binary_search(&oid).is_ok();
            if !hit {
                low = low.min(oid);
            }
            !hit
        });
        self.low_insert = low;
        self.inserts.len() < before
    }

    /// Is this OID pending deletion? An O(1) bitmap probe.
    pub fn is_deleted(&self, oid: u32) -> bool {
        self.deletes.contains(oid)
    }

    /// The pending-delete set itself — handed to the overlay kernels so
    /// they can probe it per tuple without going through `self`.
    pub fn deleted_set(&self) -> &OidSet {
        &self.deletes
    }

    /// Any deletes staged?
    pub fn has_deletes(&self) -> bool {
        !self.deletes.is_empty()
    }

    /// Nothing staged at all?
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total staged entries.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// All staged inserts as `(oid, value)`, in value order (ties in
    /// staging order) — the order a merge writes them in, and the export
    /// path for checkpointing the pending-insert overlay.
    pub fn staged_inserts(&self) -> impl ExactSizeIterator<Item = (u32, T)> + Clone + '_ {
        self.inserts.iter().map(|(&(v, _), &oid)| (oid, v))
    }

    /// OIDs of staged inserts matching `pred`, in value order: one range
    /// probe, `O(log k + matches)`, which allocates nothing when nothing
    /// matches.
    pub fn matching_inserts(&self, pred: &RangePred<T>) -> Vec<u32> {
        self.matching(pred).map(|(_, &oid)| oid).collect()
    }

    /// How many staged inserts match `pred`: the probe of
    /// [`matching_inserts`](Self::matching_inserts), allocating nothing.
    pub fn count_matching(&self, pred: &RangePred<T>) -> usize {
        self.matching(pred).count()
    }

    /// The staged inserts matching `pred`, in value order.
    fn matching(&self, pred: &RangePred<T>) -> impl Iterator<Item = (&(T, u64), &u32)> {
        let low = match pred.low {
            None => Unbounded,
            Some(b) if b.inclusive => Included((b.value, 0)),
            Some(b) => Excluded((b.value, u64::MAX)),
        };
        let high = match pred.high {
            None => Unbounded,
            Some(b) if b.inclusive => Included((b.value, u64::MAX)),
            Some(b) => Excluded((b.value, 0)),
        };
        // `BTreeMap::range` panics on an inverted range.
        let live = !pred.is_empty_range();
        live.then(|| self.inserts.range((low, high)))
            .into_iter()
            .flatten()
    }

    /// Is an insert of `oid` staged? A walk over the staged inserts.
    pub fn has_insert(&self, oid: u32) -> bool {
        self.inserts.values().any(|&o| o == oid)
    }

    /// The staged `(oid, value)` pairs of `oids`, a result of
    /// [`matching_inserts`](Self::matching_inserts): they are a run in
    /// value order, so one walk finds them all. An OID names one row; if
    /// it is staged under two values, the walk takes the lower.
    pub fn pairs_of<'a>(&'a self, oids: &'a [u32]) -> impl Iterator<Item = (u32, T)> + 'a {
        let mut want = oids.iter().peekable();
        (self.staged_inserts())
            .filter(move |(oid, _)| want.next_if_eq(&oid).is_some())
            .take(oids.len())
    }

    fn take(&mut self) -> (BTreeMap<(T, u64), u32>, OidSet) {
        self.low_insert = u32::MAX;
        self.restaged = false;
        (
            std::mem::take(&mut self.inserts),
            std::mem::take(&mut self.deletes),
        )
    }

    /// Follow a base-table delete: doomed staged inserts and pending
    /// deletes are dropped, the rest renumbered. The OIDs are not part of
    /// the inserts' key, so this is one in-place pass, `O(k)`.
    fn renumber(&mut self, doomed: &Renumbering) {
        let mut low = u32::MAX;
        self.inserts.retain(|_, oid| {
            let new = doomed.map(*oid);
            if let Some(new) = new {
                *oid = new;
                low = low.min(new);
            }
            new.is_some()
        });
        self.low_insert = low;
        let deletes = std::mem::take(&mut self.deletes);
        for new in deletes.iter().filter_map(|oid| doomed.map(oid)) {
            self.deletes.insert(new);
        }
    }
}

impl<T: CrackValue> CrackerColumn<T> {
    /// Stage the insertion of `(oid, value)`. Visible to queries
    /// immediately (they probe the staging area by value); folded into
    /// the cracked store by the next merge.
    pub fn insert(&mut self, oid: u32, value: T) {
        self.pending.stage_insert(oid, value);
    }

    /// Stage the deletion of `oid`. Returns `true` if the OID names a row
    /// here: a staged insert, which the delete cancels, or else a cracked
    /// tuple not already pending deletion, which it marks. The probe walks
    /// the staged inserts and then the cracked OIDs, `O(k + n)`; a caller
    /// that knows its OIDs name rows uses
    /// [`ConcurrentColumn::stage_deletes`](crate::ConcurrentColumn::stage_deletes),
    /// which probes nothing.
    pub fn delete(&mut self, oid: u32) -> bool {
        if self.pending.cancel_inserts(&[oid]) {
            return true;
        }
        let live = !self.pending.is_deleted(oid) && self.oids().contains(&oid);
        if live {
            self.pending.stage_delete(oid);
        }
        live
    }

    /// Number of staged (unmerged) updates.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Should a merge run before the next query? Once the staged updates
    /// reach `max(merge_threshold, len / STAGE_SHARE)`: a merge writes
    /// about `len` tuples once staged rows outnumber pieces, so that is
    /// at most ~[`STAGE_SHARE`] tuple moves per staged row, and a select
    /// probes the staging area in `O(log k)` however large it grows.
    pub(crate) fn merge_due(&self) -> bool {
        let trigger = self.config().merge_threshold.max(self.len() / STAGE_SHARE);
        self.pending.len() >= trigger
    }

    /// Switch the [`MergeJournal`] on (starting empty) or off. Switching
    /// it on again keeps what it holds.
    pub fn set_journaling(&mut self, on: bool) {
        match (on, self.journal.is_some()) {
            (true, false) => self.journal = Some(MergeJournal::default()),
            (false, true) => self.journal = None,
            _ => {}
        }
    }

    /// The merge journal, while journaling is on.
    pub fn journal(&self) -> Option<&MergeJournal<T>> {
        self.journal.as_ref()
    }

    /// Empty the journal (and drop its compacted mark): the column's
    /// current content has just been persisted whole.
    pub fn clear_journal(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.clear();
        }
    }

    /// Replay the merges `journal` recorded, in order: stage each batch's
    /// deletes and inserts and merge them. Consecutive batches that name
    /// disjoint OIDs merge as one, which leaves the same tuples behind
    /// (no delete of a group can reach a tuple an earlier batch of it
    /// merged) at one ripple's cost instead of one per batch.
    pub(crate) fn replay_journal(&mut self, journal: &MergeJournal<T>) {
        // Grow the arrays once, to their size after the journal: a merge's
        // `reserve` would double them.
        let (vals, oids, _) = self.arrays_mut();
        vals.reserve_exact(journal.insert_oids.len());
        oids.reserve_exact(journal.insert_oids.len());
        let mut group = OidSet::new();
        for (oids, values, deletes) in journal.batches() {
            if oids.iter().chain(deletes).any(|&oid| group.contains(oid)) {
                self.merge_pending();
                group = OidSet::new();
            }
            // A merge never drops a staged insert, so the deletes are
            // marked as they are, cancelling nothing.
            for &oid in deletes {
                group.insert(oid);
                self.pending.deletes.insert(oid);
            }
            for (&oid, &v) in oids.iter().zip(values) {
                group.insert(oid);
                self.pending.stage_insert(oid, v);
            }
        }
        self.merge_pending();
    }

    /// Each piece's end slot, in slot order: one per boundary, then the
    /// column length.
    fn piece_ends(&self) -> Vec<usize> {
        let ends = self.index().boundaries().map(|(_, &pos)| pos);
        ends.chain([self.len()]).collect()
    }

    /// Follow a delete from the base table this column copies, in place:
    /// one pass compacts every piece leftwards, dropping the tuples whose
    /// OIDs `doomed` removes and renumbering each survivor to
    /// `oid − rank(oid)`. The pending overlay follows the same map. Every
    /// boundary survives, so the next select is a warm index lookup.
    ///
    /// The pass is `O(n)` and sequential over the arrays the column
    /// already has: nothing is copied or cracked. Pieces may become
    /// empty; they keep their boundaries.
    pub fn compact_renumber(&mut self, doomed: &Renumbering) {
        let mut ends = self.piece_ends();
        let (vals, oids, index) = self.arrays_mut();
        let moved = compact_pieces(vals, oids, &mut ends, |oid| doomed.map(oid));
        index.set_piece_ends(&ends);
        self.pending.renumber(doomed);
        if let Some(j) = self.journal.as_mut() {
            j.clear();
            j.compacted = true;
        }
        self.stats_mut().tuples_moved += moved;
        debug_assert!(self.index().check_pieces(self.values()).is_ok());
    }

    /// Fold all staged updates into the cracked store in place, preserving
    /// every existing boundary.
    ///
    /// Staged inserts cost `O(k + p)`. They write at most
    /// `Σ min(S_j, len_j) + k` tuples, all of them counted in
    /// [`CrackStats::tuples_moved`](crate::stats::CrackStats). The column
    /// grows by `k` slots; it is not rewritten. Three steps:
    ///
    /// 1. **Deletes.** This step runs only when deletes are staged. Each
    ///    piece is compacted leftwards in one pass over the column,
    ///    dropping the tuples pending deletion, and its new end is
    ///    recorded. It is the pass
    ///    [`compact_renumber`](Self::compact_renumber) runs, with every
    ///    surviving OID kept as it is.
    /// 2. **Tag the inserts.** The staging area hands them over in value
    ///    order, so one walk over the boundary keys tags each surviving
    ///    insert with its piece, and they come out sorted by piece.
    ///    `vals` / `oids` grow by `k` at the tail.
    /// 3. **Ripple, back to front.** Piece `j` must shift right by `S_j`,
    ///    the number of inserts landing in earlier pieces. A piece is an
    ///    unordered set, so only its first `min(S_j, len_j)` tuples move,
    ///    into the gap at its tail. Its own inserts are written behind
    ///    them. Its new end is `end_j + S_{j+1}`, which is also where the
    ///    boundary above it now sits.
    ///
    /// # In-place argument
    ///
    /// A destination never overwrites a tuple that has not moved yet.
    /// When piece `j` is placed, every piece above it has already moved
    /// to its final home, which starts at `end_j + S_{j+1}`. The slots
    /// `[end_j, end_j + S_{j+1})` are therefore dead: they are old slots of
    /// the pieces above, whose tuples have been copied out, plus the grown
    /// tail. Every write for piece `j` lands inside that window. If
    /// `S_j ≤ len_j`, the moved head goes to `[end_j, end_j + S_j)`. If
    /// `S_j > len_j`, the whole piece goes to `[start_j + S_j, end_j + S_j)`,
    /// which starts past `end_j`. The inserts fill the rest of the window.
    /// Pieces below `j` sit below `start_j` and are not touched, and a
    /// copy's source and destination never overlap. The compaction in
    /// step 1 is a plain stable filter: its write cursor never passes its
    /// read cursor.
    ///
    /// # Panic ordering
    ///
    /// All allocation happens before the first tuple moves: the boundary
    /// list, the tagged inserts and the `reserve` for the grown tail.
    /// Only then is the staging area taken. A panic in any of these steps
    /// leaves the column and its staged updates as they were.
    /// When the arrays already have spare capacity for `k` more slots,
    /// they are not reallocated.
    pub fn merge_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let keys: Vec<_> = self.index().boundaries().map(|(key, _)| *key).collect();
        let mut ends = self.piece_ends();
        // Every staged insert is merged. One whose OID is also pending
        // deletion was staged after that delete (the delete would have
        // cancelled an earlier one), so the delete hides the cracked tuple
        // only. Piece index = number of boundaries the value lies at or
        // after. The inserts come in value order, so each one's piece is
        // at or after the one before it.
        let mut piece = 0;
        let inserts: Vec<(usize, T, u32)> = (self.pending.staged_inserts())
            .map(|(oid, v)| {
                while keys.get(piece).is_some_and(|key| !key.before(v)) {
                    piece += 1;
                }
                (piece, v, oid)
            })
            .collect();
        let (vals, oids, _) = self.arrays_mut();
        vals.reserve(inserts.len());
        oids.reserve(inserts.len());
        if let Some(j) = self.journal.as_mut() {
            j.insert_oids.extend(inserts.iter().map(|&(_, _, oid)| oid));
            j.insert_values.extend(inserts.iter().map(|&(_, v, _)| v));
            j.deletes.extend(self.pending.deleted_set().iter());
            j.ends.push((j.insert_oids.len(), j.deletes.len()));
        }
        // Nothing allocates from here on.
        let (_, deletes) = self.pending.take();
        let (vals, oids, index) = self.arrays_mut();
        let mut moved = 0u64;

        if !deletes.is_empty() {
            let live = |oid| (!deletes.contains(oid)).then_some(oid);
            moved += compact_pieces(vals, oids, &mut ends, live);
        }

        vals.extend(inserts.iter().map(|&(_, v, _)| v));
        oids.extend(inserts.iter().map(|&(_, _, oid)| oid));
        // `hi` = inserts landing in piece `j` or below = S_{j+1}.
        let mut hi = inserts.len();
        for j in (0..ends.len()).rev() {
            if hi == 0 {
                // No insert lands at or below this piece: it and every
                // piece before it stay where they are.
                break;
            }
            let mut lo = hi;
            while lo > 0 && inserts[lo - 1].0 == j {
                lo -= 1;
            }
            // `lo` = S_j, the shift of piece `j`.
            let start = if j == 0 { 0 } else { ends[j - 1] };
            let end = ends[j];
            let head = lo.min(end - start);
            vals.copy_within(start..start + head, end + lo - head);
            oids.copy_within(start..start + head, end + lo - head);
            for (slot, &(_, v, oid)) in (end + lo..).zip(&inserts[lo..hi]) {
                vals[slot] = v;
                oids[slot] = oid;
            }
            moved += (head + hi - lo) as u64;
            ends[j] = end + hi;
            hi = lo;
        }
        index.set_piece_ends(&ends);
        let s = self.stats_mut();
        s.merges += 1;
        s.tuples_moved += moved;
        debug_assert!(self.index().check_pieces(self.values()).is_ok());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrackerConfig;
    use crate::crack::BoundaryKey;
    use crate::sharded::{ConcurrencyMode, ConcurrentColumn};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The merge this module shipped before the ripple, kept as the
    /// differential reference: every live tuple is binary-searched into
    /// its piece, and the buckets are concatenated in piece order. It is
    /// `O(n log p)` and rewrites the whole column.
    fn rebucket_merge<T: CrackValue>(c: &mut CrackerColumn<T>) {
        if c.pending.is_empty() {
            return;
        }
        let (inserts, deletes) = c.pending.take();
        let keys: Vec<BoundaryKey<T>> = c.index().boundaries().map(|(k, _)| *k).collect();
        let piece_of = |v: T| keys.partition_point(|k| !k.before(v));
        let mut buckets: Vec<Vec<(T, u32)>> = vec![Vec::new(); keys.len() + 1];
        for (&v, &oid) in c.values().iter().zip(c.oids()) {
            if !deletes.contains(oid) {
                buckets[piece_of(v)].push((v, oid));
            }
        }
        for ((v, _), oid) in inserts {
            buckets[piece_of(v)].push((v, oid));
        }
        let mut ends = Vec::with_capacity(buckets.len());
        let (vals, oids, index) = c.arrays_mut();
        vals.clear();
        oids.clear();
        for bucket in buckets {
            for (v, oid) in bucket {
                vals.push(v);
                oids.push(oid);
            }
            ends.push(vals.len());
        }
        index.set_piece_ends(&ends);
        let total = c.len() as u64;
        let s = c.stats_mut();
        s.merges += 1;
        s.tuples_moved += total;
    }

    /// Key → position map and the sorted `(value, oid)` multiset of every
    /// piece: what two merges of the same column must agree on.
    type Layout = (Vec<(BoundaryKey<i64>, usize)>, Vec<Vec<(i64, u32)>>);

    fn layout(c: &CrackerColumn<i64>) -> Layout {
        let keys = c.index().boundaries().map(|(k, &pos)| (*k, pos)).collect();
        let pieces = c
            .index()
            .pieces()
            .iter()
            .map(|p| {
                let mut m: Vec<(i64, u32)> = c.values()[p.start..p.end]
                    .iter()
                    .copied()
                    .zip(c.oids()[p.start..p.end].iter().copied())
                    .collect();
                m.sort_unstable();
                m
            })
            .collect();
        (keys, pieces)
    }

    /// `Σ min(S_j, len_j) + k` for the inserts staged on `c`: what a merge
    /// of them may write, when no deletes are staged.
    fn ripple_bound(c: &CrackerColumn<i64>) -> u64 {
        let keys: Vec<BoundaryKey<i64>> = c.index().boundaries().map(|(k, _)| *k).collect();
        let mut per_piece = vec![0usize; keys.len() + 1];
        for (_, v) in c.pending.staged_inserts() {
            per_piece[keys.partition_point(|k| !k.before(v))] += 1;
        }
        let (mut before, mut bound) = (0usize, 0usize);
        for (piece, count) in c.index().pieces().iter().zip(per_piece) {
            bound += before.min(piece.len());
            before += count;
        }
        (bound + before) as u64
    }

    /// A copy of every cracked column behind `col` (one per shard).
    fn columns(col: &ConcurrentColumn<i64>) -> Vec<CrackerColumn<i64>> {
        col.read_shards(CrackerColumn::clone)
    }

    /// `n` distinct values cracked into `pieces` pieces by one-sided
    /// selects, with room for `spare` more tuples in both arrays.
    fn cracked(n: usize, pieces: usize, spare: usize) -> CrackerColumn<i64> {
        let mut vals = Vec::with_capacity(n + spare);
        vals.extend((0..n as i64).map(|i| (i * 7919) % n as i64));
        let mut oids = Vec::with_capacity(n + spare);
        oids.extend(0..n as u32);
        let mut c = CrackerColumn::from_pairs(vals, oids, CrackerConfig::default());
        for lo in (1..pieces).map(|j| (j * n / pieces) as i64) {
            c.select(RangePred::lt(lo));
        }
        assert_eq!(c.piece_count(), pieces);
        c
    }

    #[test]
    fn merge_into_the_last_piece_moves_exactly_the_inserts_in_place() {
        let (n, k) = (10_000, 64);
        let mut c = cracked(n, 100, k);
        let (vals_at, oids_at) = (c.values().as_ptr(), c.oids().as_ptr());
        for i in 0..k {
            c.insert((n + i) as u32, (n + i) as i64);
        }
        let before = c.stats().tuples_moved;
        c.merge_pending();
        assert_eq!(
            c.stats().tuples_moved - before,
            k as u64,
            "only the inserts"
        );
        assert_eq!(c.values().as_ptr(), vals_at, "spare capacity: no realloc");
        assert_eq!(c.oids().as_ptr(), oids_at, "spare capacity: no realloc");
        assert_eq!(c.len(), n + k);
        assert_eq!(c.piece_count(), 100);
        c.validate().unwrap();
        assert_eq!(c.count(RangePred::ge(n as i64)), k);
    }

    #[test]
    fn merge_of_spread_inserts_writes_the_ripple_bound_not_the_column() {
        let (n, k) = (10_000, 64);
        let mut c = cracked(n, 100, k);
        let (vals_at, oids_at) = (c.values().as_ptr(), c.oids().as_ptr());
        for i in 0..k {
            c.insert((n + i) as u32, (i * n / k) as i64);
        }
        let bound = ripple_bound(&c);
        let before = c.stats().tuples_moved;
        c.merge_pending();
        assert_eq!(c.stats().tuples_moved - before, bound);
        // About k/2 per piece: far below the n + k of a rewrite.
        assert!(bound < n as u64 / 2, "ripple bound {bound} is not small");
        assert_eq!(c.values().as_ptr(), vals_at);
        assert_eq!(c.oids().as_ptr(), oids_at);
        c.validate().unwrap();
        assert_eq!(c.count(RangePred::between(0, n as i64)), n + k);
    }

    #[test]
    fn oidset_inserts_probes_and_counts() {
        let mut s = OidSet::new();
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert!(!s.contains(1_000_000), "probe beyond the bitmap is false");
        assert!(s.insert(63));
        assert!(s.insert(64), "word-boundary neighbors are distinct bits");
        assert!(!s.insert(63), "re-insert reports not-fresh");
        assert_eq!(s.len(), 2);
        assert!(s.contains(63) && s.contains(64));
        assert!(!s.contains(62) && !s.contains(65));
        assert!(s.insert(0));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn oidset_outliers_spill_without_ballooning() {
        let mut s = OidSet::new();
        // One delete of a huge surrogate OID must not zero-fill ~512MB.
        assert!(s.insert(u32::MAX));
        assert!(s.contains(u32::MAX));
        assert!(s.words.len() <= 1, "outlier must not grow the bitmap");
        assert_eq!(s.len(), 1);
        // A dense cluster still lands in the bitmap.
        for oid in 0..1_000 {
            assert!(s.insert(oid));
        }
        assert_eq!(s.len(), 1_001);
        assert!(s.contains(u32::MAX) && s.contains(999));
        // Re-inserting the outlier is not fresh, wherever it lives.
        assert!(!s.insert(u32::MAX));
        assert_eq!(s.len(), 1_001);
    }

    #[test]
    fn oidset_spilled_member_survives_bitmap_growth_over_its_word() {
        let mut s = OidSet::new();
        let outlier = 70_000u32; // beyond the fresh-set growth rule
        assert!(s.insert(outlier));
        assert!(s.contains(outlier));
        // Grow the dense prefix until the bitmap covers the outlier's
        // word; membership must be preserved and not double-counted.
        for oid in 0..80_000 {
            if oid != outlier {
                assert!(s.insert(oid));
            }
        }
        assert!(s.contains(outlier));
        assert!(!s.insert(outlier), "still a member after migration");
        assert_eq!(s.len(), 80_000);
    }

    #[test]
    fn oidset_growth_moves_covered_spills_into_the_bitmap() {
        let mut s = OidSet::new();
        let far: Vec<u32> = (1..=40).map(|i| i * 100_003).collect();
        for &oid in &far {
            assert!(s.insert(oid));
        }
        assert!(s.has_sparse(), "far OIDs spill past the growth rule");
        // A dense run of deletes grows the bitmap past every spill.
        for oid in 0..4_100_000 {
            if oid % 3 == 0 {
                s.insert(oid);
            }
        }
        assert!(!s.has_sparse(), "every spill is covered now");
        for &oid in &far {
            assert!(s.contains(oid), "{oid} lost in the move");
            assert!(!s.insert(oid), "{oid} counted twice");
        }
        let dense = (0..4_100_000u32).filter(|o| o % 3 == 0).count();
        let spilled_off_the_run = far.iter().filter(|&&o| o % 3 != 0).count();
        assert_eq!(s.len(), dense + spilled_off_the_run);
        assert_eq!(s.iter().count(), s.len());
        assert!(!s.contains(1) && !s.contains(4_100_001));
    }

    #[test]
    fn oidset_iter_visits_dense_and_sparse_members_once() {
        let mut s = OidSet::new();
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(u32::MAX); // spilled to the sparse side set
        let mut got: Vec<u32> = s.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 63, 64, u32::MAX]);
        assert_eq!(s.iter().count(), s.len());
    }

    #[test]
    fn oidset_iter_yields_exactly_the_members_dense_and_sparse() {
        let mut s = OidSet::new();
        // Full words, a lone top bit, empty words between, and spills past
        // the bitmap.
        let members: BTreeSet<u32> = (0..128)
            .chain([191, 1_000, 4_095, 4_096])
            .chain((5_000..9_000).step_by(37))
            .chain([3_000_000, u32::MAX - 1, u32::MAX])
            .collect();
        for &oid in &members {
            s.insert(oid);
        }
        assert!(s.has_sparse());
        let got: Vec<u32> = s.iter().collect();
        assert_eq!(got.len(), s.len(), "no repeats");
        let dense: Vec<u32> = got.iter().copied().filter(|&o| o < 9_000).collect();
        assert!(dense.windows(2).all(|w| w[0] < w[1]), "bitmap in order");
        assert_eq!(got.into_iter().collect::<BTreeSet<u32>>(), members);
        assert_eq!(OidSet::new().iter().count(), 0);
    }

    #[test]
    fn oidset_agrees_with_hashset_reference() {
        let mut s = OidSet::new();
        let mut reference = std::collections::HashSet::new();
        let mut x = 12345u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let oid = (x >> 33) as u32 % 2_000;
            assert_eq!(s.insert(oid), reference.insert(oid));
        }
        assert_eq!(s.len(), reference.len());
        for oid in 0..2_000 {
            assert_eq!(s.contains(oid), reference.contains(&oid));
        }
    }

    #[test]
    fn staged_insert_is_visible_before_merge() {
        let mut c = CrackerColumn::new(vec![1i64, 2, 3]);
        c.insert(100, 10);
        let sel = c.select(RangePred::ge(5));
        assert_eq!(sel.count(), 1);
        assert_eq!(sel.pending_oids, vec![100]);
        assert_eq!(c.selection_pairs(&sel), vec![(100, 10)]);
    }

    #[test]
    fn staged_delete_is_honored_before_merge() {
        let mut c = CrackerColumn::new(vec![10i64, 20, 30]);
        assert!(c.delete(1)); // value 20
        assert_eq!(c.count(RangePred::between(0, 100)), 2);
        let oids = c.select_oids(RangePred::between(0, 100));
        assert!(!oids.contains(&1));
    }

    #[test]
    fn delete_of_pending_insert_cancels_out() {
        let mut c = CrackerColumn::new(vec![1i64]);
        c.insert(50, 9);
        assert!(c.delete(50));
        assert_eq!(c.pending_len(), 0, "insert+delete must cancel");
        assert_eq!(c.count(RangePred::eq(9)), 0);
    }

    #[test]
    fn delete_of_unknown_oid_is_reported() {
        let mut c = CrackerColumn::new(vec![1i64]);
        assert!(!c.delete(42));
    }

    #[test]
    fn a_deleted_then_reinserted_oid_survives_the_merge() {
        let mut c = CrackerColumn::new((0..100).collect::<Vec<i64>>());
        c.select(RangePred::lt(50));
        assert!(c.delete(5));
        assert!(!c.delete(5), "a second delete finds no row");
        c.insert(5, 500);
        let everything = RangePred::ge(i64::MIN);
        assert_eq!(c.count(everything), 100);
        c.merge_pending();
        assert_eq!(c.count(everything), 100, "the re-insert is kept");
        assert_eq!(c.select_oids(RangePred::eq(500)), vec![5]);
        assert_eq!(c.count(RangePred::eq(5)), 0);
        c.validate().unwrap();
    }

    #[test]
    fn a_delete_batch_cancels_staged_inserts_and_marks_cracked_tuples() {
        // The base after three appended rows; staged as appended, they are
        // cancelled by value, staged through `insert`, by the walk.
        let base: Vec<i64> = (0..10).chain([3, 30, 7]).collect();
        for appended in [false, true] {
            let mut c = CrackerColumn::new(base[..10].to_vec());
            for (oid, v) in [(10, 3), (11, 30), (12, 7)] {
                match appended {
                    true => c.pending.stage_appended(oid, v),
                    false => c.insert(oid, v),
                }
            }
            // Below every staged OID: the cancel is skipped.
            c.pending.stage_deletes(&[1, 2], &base);
            assert_eq!(c.pending.staged_inserts().len(), 3);
            c.pending.stage_deletes(&[4, 11, 12], &base);
            assert_eq!(c.pending.staged_inserts().collect::<Vec<_>>(), [(10, 3)]);
            let mut oids = c.select_oids(RangePred::ge(0));
            oids.sort_unstable();
            assert_eq!(oids, [0, 3, 5, 6, 7, 8, 9, 10]);
            // Each OID is marked, even one whose row was a staged insert:
            // the mark hides nothing and the merge drops it.
            assert!([1, 2, 4, 11, 12].iter().all(|&o| c.pending.is_deleted(o)));
            c.merge_pending();
            assert_eq!((c.len(), c.pending_len()), (8, 0));
            c.validate().unwrap();
        }
    }

    #[test]
    fn merge_preserves_boundaries_and_answers() {
        let mut c = CrackerColumn::new((0..100).rev().collect::<Vec<i64>>());
        c.select(RangePred::between(20, 40));
        let pieces_before = c.piece_count();
        c.insert(200, 30);
        c.insert(201, 99);
        c.delete(0); // value 99 at original position 0
        c.merge_pending();
        assert_eq!(c.pending_len(), 0);
        assert_eq!(c.piece_count(), pieces_before, "merge keeps boundaries");
        c.validate().unwrap();
        // 20..=40 originally 21 values, +1 inserted (30).
        assert_eq!(c.count(RangePred::between(20, 40)), 22);
        // 99 deleted once, inserted once: still exactly one.
        assert_eq!(c.count(RangePred::eq(99)), 1);
        assert_eq!(c.stats().merges, 1);
    }

    #[test]
    fn merge_triggers_automatically_at_threshold() {
        let cfg = CrackerConfig::new().with_merge_threshold(3);
        let mut c = CrackerColumn::with_config((0..50).collect::<Vec<i64>>(), cfg);
        c.select(RangePred::between(10, 20));
        c.insert(100, 15);
        c.insert(101, 16);
        assert_eq!(c.stats().merges, 0);
        c.insert(102, 17);
        // Threshold reached: next select merges first.
        let sel = c.select(RangePred::between(10, 20));
        assert_eq!(c.stats().merges, 1);
        assert!(sel.is_contiguous(), "after merge the answer is contiguous");
        assert_eq!(sel.count(), 14);
    }

    #[test]
    fn merge_on_virgin_column_just_appends() {
        let mut c = CrackerColumn::new(vec![5i64, 6]);
        c.insert(10, 7);
        c.merge_pending();
        assert_eq!(c.len(), 3);
        assert_eq!(c.count(RangePred::eq(7)), 1);
        c.validate().unwrap();
    }

    #[test]
    fn merge_with_only_deletes_shrinks() {
        let mut c = CrackerColumn::new((0..10).collect::<Vec<i64>>());
        c.select(RangePred::lt(5));
        c.delete(3);
        c.delete(8);
        c.merge_pending();
        assert_eq!(c.len(), 8);
        assert_eq!(c.count(RangePred::lt(5)), 4);
        c.validate().unwrap();
    }

    #[test]
    fn the_journal_records_each_merge_only_while_switched_on() {
        let mut c = CrackerColumn::new((0..10).collect::<Vec<i64>>());
        c.insert(10, 4);
        c.merge_pending();
        assert!(c.journal().is_none(), "off by default");
        c.set_journaling(true);
        c.select(RangePred::lt(5));
        c.insert(11, 7);
        c.insert(12, 1);
        c.delete(3);
        c.merge_pending();
        c.insert(3, 9);
        c.merge_pending();
        let j = c.journal().unwrap();
        let batches: Vec<_> = j.batches().collect();
        assert_eq!(batches.len(), 2);
        let mut first: Vec<_> = batches[0].0.iter().zip(batches[0].1).collect();
        first.sort_unstable();
        assert_eq!(first, [(&11, &7), (&12, &1)]);
        assert_eq!(batches[0].2, [3]);
        assert_eq!(
            (batches[1].0, batches[1].1, batches[1].2),
            (&[3][..], &[9][..], &[][..])
        );
        assert_eq!((j.len(), j.compacted()), (4, false));
        c.set_journaling(true);
        assert_eq!(c.journal().unwrap().len(), 4, "switching on again keeps it");
        c.compact_renumber(&Renumbering::new(&[0]));
        let j = c.journal().unwrap();
        assert_eq!((j.len(), j.compacted()), (0, true));
        c.clear_journal();
        assert!(!c.journal().unwrap().compacted());
        c.set_journaling(false);
        assert!(c.journal().is_none());
    }

    #[test]
    fn replaying_a_journal_reproduces_every_piece() {
        // Batch 2 deletes an insert of batch 1 and batch 3 re-inserts a
        // deleted OID, so the replay cannot merge them as one.
        let mut live = cracked(400, 8, 0);
        let origin = live.clone();
        live.set_journaling(true);
        for (oid, v) in [(400, 17), (401, 390), (402, 201)] {
            live.insert(oid, v);
        }
        live.delete(5);
        live.merge_pending();
        live.delete(401);
        live.insert(403, 3);
        live.merge_pending();
        live.insert(5, 250);
        live.merge_pending();
        let mut replayed = origin;
        replayed.replay_journal(live.journal().unwrap());
        assert_eq!(layout(&replayed), layout(&live));
    }

    /// Stage `count` fresh inserts on `col`, OIDs from `*next`, with values
    /// spread over `[lo, lo + span)`.
    fn stage(col: &ConcurrentColumn<i64>, next: &mut u32, count: usize, lo: i64, span: i64) {
        for i in 0..count as i64 {
            col.insert(*next, lo + i * 7_919 % span);
            *next += 1;
        }
    }

    #[test]
    fn a_large_column_merges_once_a_sixty_fourth_of_it_is_staged() {
        let n = 1usize << 17;
        let trigger = n / STAGE_SHARE;
        assert!(trigger > CrackerConfig::default().merge_threshold);
        let col = ConcurrentColumn::build(
            (0..n as i64).rev().collect(),
            CrackerConfig::default(),
            ConcurrencyMode::default(),
        );
        col.count(RangePred::lt(n as i64 / 2));
        let mut next = n as u32;
        stage(&col, &mut next, trigger - 1, 0, n as i64);
        let everything = RangePred::ge(0);
        assert_eq!(col.count(everything), n + trigger - 1);
        assert_eq!(col.stats().merges, 0, "one row short of n / 64");
        stage(&col, &mut next, 1, 0, n as i64);
        assert_eq!(col.count(everything), n + trigger);
        assert_eq!(col.stats().merges, 1, "merged at exactly n / 64");
        assert!(!col.has_pending_updates());
        col.validate().unwrap();
    }

    #[test]
    fn a_small_column_still_merges_at_its_floor() {
        let t = 10;
        let cfg = CrackerConfig::new().with_merge_threshold(t);
        let mut c = CrackerColumn::with_config((0..200).collect::<Vec<i64>>(), cfg);
        assert!(c.len() / STAGE_SHARE < t);
        for oid in 200..200 + t as u32 - 1 {
            c.insert(oid, i64::from(oid) % 50);
        }
        assert_eq!(c.count(RangePred::lt(50)), 50 + t - 1);
        assert_eq!(c.stats().merges, 0);
        c.insert(999, 7);
        assert_eq!(c.count(RangePred::lt(50)), 50 + t);
        assert_eq!(c.stats().merges, 1, "merged at the floor");
        assert_eq!(c.pending_len(), 0);
    }

    #[test]
    fn each_shard_merges_at_a_sixty_fourth_of_its_own_length() {
        let n = 1usize << 19;
        let col = ConcurrentColumn::build(
            (0..n as i64).collect(),
            CrackerConfig::default(),
            ConcurrencyMode { shards: 4 },
        );
        let splits = col.splits().to_vec();
        let triggers = col.read_shards(|c| c.len() / STAGE_SHARE);
        assert!(triggers
            .iter()
            .all(|&t| t > CrackerConfig::default().merge_threshold));
        let merges = || col.read_shards(|c| c.stats().merges);
        let everything = RangePred::ge(0);
        let mut next = n as u32;
        // Shard 0 one row short of its trigger, shard 3 at its trigger: the
        // 4 095-odd rows staged in all are half of the whole column's n / 64.
        stage(&col, &mut next, triggers[0] - 1, 0, splits[0]);
        stage(
            &col,
            &mut next,
            triggers[3],
            splits[2],
            n as i64 - splits[2],
        );
        assert!(((next as usize) - n) < n / STAGE_SHARE);
        col.count(everything);
        assert_eq!(merges(), vec![0, 0, 0, 1]);
        stage(&col, &mut next, 1, 0, splits[0]);
        assert_eq!(col.count(everything), next as usize);
        assert_eq!(merges(), vec![1, 0, 0, 1]);
        col.validate().unwrap();
    }

    /// A probe bound's value: a small domain, so values repeat, plus both
    /// ends of `i64` and their neighbours.
    fn probe_value() -> impl Strategy<Value = i64> {
        prop_oneof![
            -6i64..6,
            Just(i64::MIN),
            Just(i64::MIN + 1),
            Just(i64::MAX - 1),
            Just(i64::MAX),
        ]
    }

    /// Any range predicate: open, inclusive or exclusive bounds, empty and
    /// inverted ranges, and `(v, v)` with both bounds exclusive.
    fn any_pred() -> impl Strategy<Value = RangePred<i64>> {
        let bound = || proptest::option::of((probe_value(), proptest::bool::ANY));
        prop_oneof![
            (bound(), bound()).prop_map(|(lo, hi)| RangePred::with_bounds(lo, hi)),
            probe_value().prop_map(|v| RangePred::with_bounds(Some((v, false)), Some((v, false)))),
        ]
    }

    proptest! {
        /// The ordered probe of the staged inserts against a linear filter
        /// of a staging-order list, on fresh staging, after staged inserts
        /// are cancelled by deletes of their OIDs, and after a base-table
        /// delete renumbers them.
        #[test]
        fn prop_ordered_probe_equals_the_linear_filter(
            staged in vec(probe_value(), 0..80),
            cancels in vec(0u32..240, 0..20),
            doomed in vec(0u32..240, 0..30),
            preds in vec(any_pred(), 1..12),
        ) {
            let mut pending = PendingUpdates::new();
            let mut list: Vec<(u32, i64)> = Vec::new();
            // Every third OID, so cancels and dooms hit and miss, staged
            // downwards, so ties in staging order are not ties in OID order.
            for (oid, &v) in (0..240).rev().step_by(3).zip(&staged) {
                pending.stage_insert(oid, v);
                list.push((oid, v));
            }
            let check = |pending: &PendingUpdates<i64>, list: &[(u32, i64)]| {
                for pred in &preds {
                    // Value order, ties in staging order: a stable sort.
                    let mut want: Vec<(u32, i64)> = (list.iter().copied())
                        .filter(|&(_, v)| pred.matches(v))
                        .collect();
                    want.sort_by_key(|&(_, v)| v);
                    let got = pending.matching_inserts(pred);
                    let oids: Vec<u32> = want.iter().map(|&(oid, _)| oid).collect();
                    prop_assert_eq!(&got, &oids, "{:?}", pred);
                    prop_assert_eq!(pending.pairs_of(&got).collect::<Vec<_>>(), want);
                }
                Ok(())
            };
            check(&pending, &list)?;
            for &oid in &cancels {
                pending.stage_delete(oid);
                list.retain(|&(o, _)| o != oid);
            }
            check(&pending, &list)?;
            let renumbering = Renumbering::new(&doomed);
            pending.renumber(&renumbering);
            let list: Vec<(u32, i64)> = (list.into_iter())
                .filter_map(|(oid, v)| Some((renumbering.map(oid)?, v)))
                .collect();
            check(&pending, &list)?;
        }

        #[test]
        fn prop_interleaved_updates_and_queries_agree_with_oracle(
            orig in proptest::collection::vec(-40i64..40, 1..120),
            ops in proptest::collection::vec(
                // (is_query, a, b) / (insert value) / (delete index)
                (0u8..3, -50i64..50, -50i64..50, 0usize..200),
                1..40
            ),
            threshold in 1usize..20,
        ) {
            let cfg = CrackerConfig::new().with_merge_threshold(threshold);
            let mut c = CrackerColumn::with_config(orig.clone(), cfg);
            // Shadow model: oid -> value.
            let mut model: std::collections::BTreeMap<u32, i64> =
                (0..orig.len() as u32).map(|i| (i, orig[i as usize])).collect();
            let mut next_oid = orig.len() as u32;
            for (kind, a, b, idx) in ops {
                match kind {
                    0 => {
                        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                        let pred = RangePred::between(lo, hi);
                        let mut got = c.select_oids(pred);
                        got.sort_unstable();
                        let mut want: Vec<u32> = model.iter()
                            .filter(|(_, &v)| pred.matches(v))
                            .map(|(&o, _)| o)
                            .collect();
                        want.sort_unstable();
                        prop_assert_eq!(got, want);
                    }
                    1 => {
                        c.insert(next_oid, a);
                        model.insert(next_oid, a);
                        next_oid += 1;
                    }
                    _ => {
                        let keys: Vec<u32> = model.keys().copied().collect();
                        if !keys.is_empty() {
                            let victim = keys[idx % keys.len()];
                            prop_assert!(c.delete(victim));
                            model.remove(&victim);
                        }
                    }
                }
            }
            c.merge_pending();
            c.validate().map_err(TestCaseError::fail)?;
            prop_assert_eq!(c.len(), model.len());
        }

        /// API inserts and deletes that reuse OIDs (a delete, then an
        /// insert under the same OID, in any shard) against an
        /// `oid → value` map: every range answers the map's OIDs before a
        /// merge, after it, after a snapshot round trip, and after an
        /// origin-plus-journal round trip, at 1 and 4 shards.
        #[test]
        fn prop_reused_oids_agree_with_a_map_through_merges_and_restores(
            orig in vec(-20i64..20, 1..120),
            ops in vec((0u8..3, -30i64..30, 0usize..400), 1..60),
            probes in vec((-25i64..25, 0i64..20), 1..5),
        ) {
            use crate::snapshot::{ConcurrentDelta, ConcurrentSnapshot};
            let config = CrackerConfig::default();
            for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 4 }] {
                let col = ConcurrentColumn::build(orig.clone(), config, mode);
                col.count(RangePred::between(-5, 5));
                col.set_journaling(true);
                let mut origin = Vec::new();
                ConcurrentSnapshot::encode(&col, &mut origin);
                let mut model: BTreeMap<u32, i64> = (0..).zip(orig.iter().copied()).collect();
                // OIDs the model has seen and lost, for re-insertion.
                let mut dead: Vec<u32> = Vec::new();
                let mut next = orig.len() as u32;
                for &(kind, v, pick) in &ops {
                    match kind {
                        0 if !model.is_empty() => {
                            let oid = *model.keys().nth(pick % model.len()).unwrap();
                            prop_assert!(col.delete(oid), "{:?}", mode);
                            prop_assert!(!col.delete(oid), "{:?}: deleted twice", mode);
                            model.remove(&oid);
                            dead.push(oid);
                        }
                        1 if !dead.is_empty() => {
                            let oid = dead.swap_remove(pick % dead.len());
                            col.insert(oid, v);
                            model.insert(oid, v);
                        }
                        _ => {
                            col.insert(next, v);
                            model.insert(next, v);
                            next += 1;
                        }
                    }
                }
                let check = |col: &ConcurrentColumn<i64>, when: &str| -> Result<(), TestCaseError> {
                    col.validate().map_err(TestCaseError::fail)?;
                    prop_assert_eq!(col.count(RangePred::ge(i64::MIN)), model.len(), "{:?} {}", mode, when);
                    for &(lo, width) in &probes {
                        let pred = RangePred::between(lo, lo + width);
                        let mut got = col.select_oids(pred);
                        got.sort_unstable();
                        let want: Vec<u32> = (model.iter())
                            .filter(|(_, &v)| pred.matches(v))
                            .map(|(&oid, _)| oid)
                            .collect();
                        prop_assert_eq!(got, want, "{:?} {}", mode, when);
                    }
                    Ok(())
                };
                check(&col, "staged")?;
                let mut snapshot = Vec::new();
                ConcurrentSnapshot::encode(&col, &mut snapshot);
                let restored = ConcurrentSnapshot::decode(&snapshot)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?
                    .restore(config)
                    .map_err(TestCaseError::fail)?;
                check(&restored, "restored staged")?;
                col.merge_pending();
                check(&col, "merged")?;
                let mut delta = Vec::new();
                ConcurrentDelta::encode(&col, true, &mut delta);
                let replayed = ConcurrentSnapshot::decode(&origin)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?
                    .restore_with(
                        ConcurrentDelta::decode(&delta).map_err(|e| TestCaseError::fail(e.to_string()))?,
                        config,
                    )
                    .map_err(TestCaseError::fail)?;
                check(&replayed, "replayed")?;
            }
        }

        /// A base-table delete cancels the staged inserts of the rows it
        /// dooms by their values exactly as the walk over every staged
        /// insert does. Two copies of one column take the same appended
        /// rows, one as appended (`append_batch`, cancelled by value) and
        /// one as arbitrary inserts (`insert_batch`, cancelled by the
        /// walk), and the same delete batches and merges: after every
        /// step their encoded snapshots are byte-equal, and both answer an
        /// `oid → value` map staged, merged and restored from a snapshot,
        /// at 1 and 4 shards.
        #[test]
        fn prop_cancel_by_value_leaves_the_overlay_of_the_walk(
            orig in vec(-20i64..20, 1..120),
            ops in vec((0u8..5, -30i64..30, 0usize..400, 1usize..8), 1..40),
            probes in vec((-25i64..25, 0i64..20), 1..5),
        ) {
            use crate::snapshot::ConcurrentSnapshot;
            let config = CrackerConfig::default();
            let encoded = |col: &ConcurrentColumn<i64>| {
                let mut buf = Vec::new();
                ConcurrentSnapshot::encode(col, &mut buf);
                buf
            };
            for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 4 }] {
                let by_value = ConcurrentColumn::build(orig.clone(), config, mode);
                let walk = ConcurrentColumn::build(orig.clone(), config, mode);
                for col in [&by_value, &walk] {
                    col.count(RangePred::between(-5, 5));
                }
                let mut base = orig.clone();
                let mut model: BTreeMap<u32, i64> = (0..).zip(orig.iter().copied()).collect();
                for &(kind, v, pick, n) in &ops {
                    match kind {
                        0 | 1 => {
                            let rows: Vec<(u32, i64)> =
                                (0..n).map(|i| ((base.len() + i) as u32, v + i as i64 % 3)).collect();
                            base.extend(rows.iter().map(|&(_, v)| v));
                            by_value.append_batch(&rows);
                            walk.insert_batch(&rows);
                            model.extend(rows);
                        }
                        2 | 3 if !model.is_empty() => {
                            let live: Vec<u32> = model.keys().copied().collect();
                            let mut doomed: Vec<u32> =
                                (0..n).map(|i| live[(pick + 5 * i) % live.len()]).collect();
                            doomed.sort_unstable();
                            doomed.dedup();
                            by_value.stage_deletes(&doomed, &base);
                            walk.stage_deletes(&doomed, &base);
                            for oid in &doomed {
                                model.remove(oid);
                            }
                        }
                        _ => {
                            by_value.merge_pending();
                            walk.merge_pending();
                        }
                    }
                    prop_assert!(encoded(&by_value) == encoded(&walk), "{:?}: after {:?}", mode, (kind, v, pick, n));
                }
                let check = |col: &ConcurrentColumn<i64>, when: &str| -> Result<(), TestCaseError> {
                    col.validate().map_err(TestCaseError::fail)?;
                    prop_assert_eq!(col.count(RangePred::ge(i64::MIN)), model.len(), "{:?} {}", mode, when);
                    for &(lo, width) in &probes {
                        let pred = RangePred::between(lo, lo + width);
                        let mut got = col.select_oids(pred);
                        got.sort_unstable();
                        let want: Vec<u32> = (model.iter())
                            .filter(|(_, &v)| pred.matches(v))
                            .map(|(&oid, _)| oid)
                            .collect();
                        prop_assert_eq!(got, want, "{:?} {}", mode, when);
                    }
                    Ok(())
                };
                // The checks crack: both copies take them.
                for (col, when) in [(&by_value, "staged"), (&walk, "staged, walked")] {
                    check(col, when)?;
                    col.merge_pending();
                }
                prop_assert!(encoded(&by_value) == encoded(&walk), "{:?}: merged", mode);
                check(&by_value, "merged")?;
                // Restored after the merge: a delete batch marks OIDs no
                // cracked tuple holds, which a staged snapshot's restore
                // refuses and a merge drops.
                let restored = ConcurrentSnapshot::decode(&encoded(&by_value))
                    .map_err(|e| TestCaseError::fail(e.to_string()))?
                    .restore(config)
                    .map_err(TestCaseError::fail)?;
                check(&restored, "restored")?;
            }
        }

        /// The ripple merge against the re-bucketing reference, through
        /// both latched column modes: random cracks (inclusive and
        /// exclusive keys, keys outside the data, so empty pieces), then
        /// random inserts (equal to keys, below the minimum, above the
        /// maximum) and deletes (of cracked tuples, of staged inserts, of
        /// a whole piece, of everything).
        #[test]
        fn prop_ripple_merge_matches_rebucketing_reference(
            orig in vec(-20i64..20, 0..150),
            cracks in vec((-25i64..25, 0i64..12, proptest::bool::ANY, proptest::bool::ANY), 0..12),
            updates in vec((0u8..5, -30i64..30, 0usize..400), 0..60),
            delete_all_one_in_ten in 0u8..10,
        ) {
            for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 4 }] {
                let col = ConcurrentColumn::build(orig.clone(), CrackerConfig::default(), mode);
                for &(lo, width, inc_lo, inc_hi) in &cracks {
                    col.count(RangePred::with_bounds(Some((lo, inc_lo)), Some((lo + width, inc_hi))));
                }
                let mut cracked: Vec<u32> = (0..orig.len() as u32).collect();
                let mut staged: Vec<u32> = Vec::new();
                let mut next_oid = orig.len() as u32;
                for &(kind, v, pick) in &updates {
                    match kind {
                        0 | 1 => {
                            col.insert(next_oid, v);
                            staged.push(next_oid);
                            next_oid += 1;
                        }
                        2 if !cracked.is_empty() => {
                            let oid = cracked.swap_remove(pick % cracked.len());
                            prop_assert!(col.delete(oid));
                        }
                        3 if !staged.is_empty() => {
                            let oid = staged.swap_remove(pick % staged.len());
                            prop_assert!(col.delete(oid));
                        }
                        4 => {
                            let pieces: Vec<Vec<u32>> = columns(&col)
                                .iter()
                                .flat_map(|c| {
                                    c.index()
                                        .pieces()
                                        .into_iter()
                                        .map(|p| c.oids()[p.start..p.end].to_vec())
                                        .collect::<Vec<_>>()
                                })
                                .collect();
                            for oid in &pieces[pick % pieces.len()] {
                                if let Some(i) = cracked.iter().position(|o| o == oid) {
                                    cracked.swap_remove(i);
                                    prop_assert!(col.delete(*oid));
                                }
                            }
                        }
                        _ => {}
                    }
                }
                if delete_all_one_in_ten == 0 {
                    for oid in cracked.drain(..).chain(staged.drain(..)) {
                        prop_assert!(col.delete(oid));
                    }
                }

                let mut reference = columns(&col);
                let pins: Vec<(u64, Option<u64>)> = reference
                    .iter()
                    .map(|c| {
                        let bound = (!c.pending.has_deletes()).then(|| ripple_bound(c));
                        (c.stats().tuples_moved, bound)
                    })
                    .collect();
                col.merge_pending();
                col.validate().map_err(TestCaseError::fail)?;
                for c in &mut reference {
                    rebucket_merge(c);
                }
                let merged = columns(&col);
                prop_assert_eq!(merged.len(), reference.len());
                for ((got, want), (moved_before, bound)) in merged.iter().zip(&reference).zip(pins) {
                    got.index().check_pieces(got.values()).map_err(TestCaseError::fail)?;
                    prop_assert_eq!(got.pending_len(), 0);
                    prop_assert_eq!(got.stats().merges, want.stats().merges);
                    prop_assert_eq!(layout(got), layout(want), "{:?}", mode);
                    if let Some(bound) = bound {
                        prop_assert!(got.stats().tuples_moved - moved_before <= bound);
                    }
                }
            }
        }

        /// `compact_renumber` against a filter-then-renumber reference,
        /// through both latched column modes, with and without a cut-off
        /// granule: random cracks, then staged inserts and deletes, then a
        /// base delete whose doomed OIDs fall in the cracked area, in the
        /// staged inserts, on the rank bitmap's word boundaries, and below
        /// survivors beyond the largest of them.
        #[test]
        fn prop_compact_renumber_matches_filter_and_renumber_reference(
            orig in vec(-20i64..20, 0..260),
            cracks in vec((-25i64..25, 0i64..12, proptest::bool::ANY, proptest::bool::ANY), 0..12),
            inserts in vec(-30i64..30, 0..24),
            staged_deletes in vec(0usize..400, 0..8),
            doomed in vec(prop_oneof![
                0u32..300,
                (1u32..5).prop_map(|w| 64 * w - 1),
                (1u32..5).prop_map(|w| 64 * w),
            ], 0..40),
            cutoff in prop_oneof![Just(1usize), 2usize..24],
            probes in vec((-25i64..25, 0i64..20), 1..6),
        ) {
            let n = orig.len() as u32;
            let config = CrackerConfig::default().with_min_piece_size(cutoff);
            let doomed_set: BTreeSet<u32> = doomed.iter().copied().collect();
            let renumber = |oid: u32| {
                let rank = doomed_set.range(..oid).count() as u32;
                (!doomed_set.contains(&oid)).then_some(oid - rank)
            };
            for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 4 }] {
                let col = ConcurrentColumn::build(orig.clone(), config, mode);
                for &(lo, width, inc_lo, inc_hi) in &cracks {
                    col.count(RangePred::with_bounds(Some((lo, inc_lo)), Some((lo + width, inc_hi))));
                }
                // The naive store: OID → value.
                let mut model: BTreeMap<u32, i64> = (0..n).zip(orig.iter().copied()).collect();
                for (oid, &v) in (n..).zip(&inserts) {
                    col.insert(oid, v);
                    model.insert(oid, v);
                }
                for &pick in &staged_deletes {
                    if let Some(&oid) = model.keys().nth(pick % model.len().max(1)) {
                        prop_assert!(col.delete(oid));
                        model.remove(&oid);
                    }
                }

                let before = columns(&col);
                col.compact_renumber(&Renumbering::new(&doomed));
                col.validate().map_err(TestCaseError::fail)?;
                for (got, was) in columns(&col).iter().zip(&before) {
                    got.index().check_pieces(got.values()).map_err(TestCaseError::fail)?;
                    let keys = |c: &CrackerColumn<i64>| -> Vec<BoundaryKey<i64>> {
                        c.index().boundaries().map(|(k, _)| *k).collect()
                    };
                    prop_assert_eq!(keys(got), keys(was), "{:?}", mode);
                    for (p, q) in got.index().pieces().iter().zip(was.index().pieces()) {
                        let pairs = |c: &CrackerColumn<i64>, s: usize, e: usize| -> Vec<(i64, u32)> {
                            c.values()[s..e].iter().copied().zip(c.oids()[s..e].iter().copied()).collect()
                        };
                        let mut want: Vec<(i64, u32)> = (pairs(was, q.start, q.end).into_iter())
                            .filter_map(|(v, oid)| Some((v, renumber(oid)?)))
                            .collect();
                        let mut have = pairs(got, p.start, p.end);
                        want.sort_unstable();
                        have.sort_unstable();
                        prop_assert_eq!(have, want, "{:?}", mode);
                    }
                    let staged: Vec<(u32, i64)> = (was.pending.staged_inserts())
                        .filter_map(|(oid, v)| Some((renumber(oid)?, v)))
                        .collect();
                    prop_assert_eq!(got.pending.staged_inserts().collect::<Vec<_>>(), staged);
                    let deleted = |set: &OidSet| set.iter().collect::<BTreeSet<u32>>();
                    let want: BTreeSet<u32> = (deleted(was.pending.deleted_set()).into_iter())
                        .filter_map(renumber)
                        .collect();
                    prop_assert_eq!(deleted(got.pending.deleted_set()), want);
                }

                let model: BTreeMap<u32, i64> = (model.into_iter())
                    .filter_map(|(oid, v)| Some((renumber(oid)?, v)))
                    .collect();
                for merged in [false, true] {
                    if merged {
                        col.merge_pending();
                        col.validate().map_err(TestCaseError::fail)?;
                    }
                    for &(lo, width) in &probes {
                        let pred = RangePred::between(lo, lo + width);
                        let mut got = col.select_oids(pred);
                        got.sort_unstable();
                        let want: Vec<u32> = (model.iter())
                            .filter(|(_, &v)| pred.matches(v))
                            .map(|(&oid, _)| oid)
                            .collect();
                        prop_assert_eq!(got, want, "{:?} merged={}", mode, merged);
                    }
                }
            }
        }
    }

    #[test]
    fn renumbering_matches_the_rank_definition_across_word_boundaries() {
        let doomed = [200, 0, 63, 64, 127, 64, 191, 192];
        let set: BTreeSet<u32> = doomed.iter().copied().collect();
        let r = Renumbering::new(&doomed);
        for oid in 0..400 {
            let want = (!set.contains(&oid)).then(|| oid - set.range(..oid).count() as u32);
            assert_eq!(r.map(oid), want, "oid {oid}");
        }
        assert_eq!(Renumbering::new(&[]).map(7), Some(7));
    }

    #[test]
    fn compact_renumber_keeps_every_boundary() {
        let mut c = CrackerColumn::new((0..100).rev().collect::<Vec<i64>>());
        for lo in [20, 30, 40, 60, 80] {
            c.select(RangePred::lt(lo));
        }
        let pieces = c.piece_count();
        // Row `i` holds `99 - i`: drop the values 99, 75, 35, 34 and all of
        // [0, 20) (a whole piece).
        let doomed: Vec<u32> = [0, 24, 64, 65].into_iter().chain(80..100).collect();
        c.compact_renumber(&Renumbering::new(&doomed));
        c.validate().unwrap();
        assert_eq!(c.piece_count(), pieces);
        assert_eq!(c.len(), 76);
        let queries = c.stats().queries;
        assert_eq!(c.count(RangePred::lt(20)), 0);
        assert_eq!(c.count(RangePred::between(20, 39)), 18);
        assert_eq!(
            c.try_select_readonly(RangePred::lt(80)).unwrap().count(),
            57
        );
        // Old OID 1 (value 98) is now OID 0; old OID 79 (value 20) has four
        // doomed OIDs below it and is now OID 75.
        assert_eq!(c.select_oids(RangePred::eq(98)), vec![0]);
        assert_eq!(c.select_oids(RangePred::eq(20)), vec![75]);
        assert_eq!(c.stats().queries - queries, 4);
    }
}
