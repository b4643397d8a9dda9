//! The block-at-a-time ("vectorized") operator pipeline.
//!
//! The tuple-at-a-time Volcano tree in [`super`] reproduces §3.4.1
//! literally: every `next()` moves one `Row = Vec<Atom>` — a heap
//! allocation and a virtual call per tuple per operator. This module is
//! the same tree shape at block granularity: operators exchange
//! [`RowBlock`]s of up to [`BLOCK_OIDS`] tuples stored **columnar** —
//! one typed lane per output column — so the per-tuple costs collapse to
//! per-block costs and filters can hand whole lanes to the
//! [`cracker_core::kernel`] residual scans (the same SIMD loops the crack
//! itself runs).
//!
//! Lanes are typed ([`Lane::Int`] / [`Lane::Oid`]) with an
//! [`Lane::Atoms`] fallback for a column mixing integers and OIDs, mirroring
//! how [`super::batch`] gathers `i64` runs for kernel scans. A block is
//! reused across calls ([`RowBlock::reset`] keeps lane capacity), so a
//! warm pipeline performs no allocation in steady state.
//!
//! Operator contract: [`VectorOperator::next_block`] fills `out` and
//! returns the number of rows produced; `0` means exhausted. Operators
//! loop internally over empty child blocks, so a non-zero return always
//! carries at least one row; blocks may be shorter than [`BLOCK_OIDS`]
//! (and a join emitting the tail of a long match list may slightly
//! overrun it — capacity is a target, not an invariant).

use super::batch::BLOCK_OIDS;
use super::Row;
use crate::query::AggFunc;
use crate::table::Table;
use cracker_core::{CrackKernel, KernelPolicy, RangePred};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;
use storage::Atom;

/// The storage class of one output column of a vector operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// 64-bit integers (the kernel-scannable fast lane).
    Int,
    /// Surrogate OIDs.
    Oid,
    /// Owned [`Atom`]s — the fallback lane for a column that mixes
    /// integers and OIDs.
    Atom,
}

/// One column of a [`RowBlock`]: a typed vector of values.
#[derive(Debug)]
pub enum Lane {
    /// Integer values.
    Int(Vec<i64>),
    /// Surrogate OIDs.
    Oid(Vec<u64>),
    /// Fallback atom lane.
    Atoms(Vec<Atom>),
}

impl Lane {
    fn empty(kind: LaneKind) -> Lane {
        match kind {
            LaneKind::Int => Lane::Int(Vec::new()),
            LaneKind::Oid => Lane::Oid(Vec::new()),
            LaneKind::Atom => Lane::Atoms(Vec::new()),
        }
    }

    /// The kind of this lane.
    pub fn kind(&self) -> LaneKind {
        match self {
            Lane::Int(_) => LaneKind::Int,
            Lane::Oid(_) => LaneKind::Oid,
            Lane::Atoms(_) => LaneKind::Atom,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Lane::Int(v) => v.len(),
            Lane::Oid(v) => v.len(),
            Lane::Atoms(v) => v.len(),
        }
    }

    /// True when the lane holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn clear(&mut self) {
        match self {
            Lane::Int(v) => v.clear(),
            Lane::Oid(v) => v.clear(),
            Lane::Atoms(v) => v.clear(),
        }
    }

    /// Borrow as `&[i64]`, when this is the integer lane.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            Lane::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The value at `i`, materialized as an [`Atom`].
    pub fn atom(&self, i: usize) -> Atom {
        match self {
            Lane::Int(v) => Atom::Int(v[i]),
            Lane::Oid(v) => Atom::Oid(v[i]),
            Lane::Atoms(v) => v[i].clone(),
        }
    }

    /// The value at `i` under tuple-mode `as_int()` semantics: integers
    /// pass through, everything else (including OIDs) is `None`.
    fn int_at(&self, i: usize) -> Option<i64> {
        match self {
            Lane::Int(v) => Some(v[i]),
            Lane::Oid(_) => None,
            Lane::Atoms(v) => v[i].as_int(),
        }
    }

    /// Append one atom; the lane kind must accept it.
    ///
    /// # Panics
    /// Panics when a typed lane receives a foreign atom kind.
    pub fn push_atom(&mut self, a: Atom) {
        match (self, a) {
            (Lane::Int(v), Atom::Int(x)) => v.push(x),
            (Lane::Oid(v), Atom::Oid(x)) => v.push(x),
            (Lane::Atoms(v), a) => v.push(a),
            (lane, a) => panic!("atom {a:?} pushed into {:?} lane", lane.kind()),
        }
    }

    /// Append `src[i]` — lane kinds must match (enforced by
    /// [`RowBlock::reset`] discipline), except that an `Atoms` lane
    /// accepts any source.
    fn push_from(&mut self, src: &Lane, i: usize) {
        match (self, src) {
            (Lane::Int(dst), Lane::Int(s)) => dst.push(s[i]),
            (Lane::Oid(dst), Lane::Oid(s)) => dst.push(s[i]),
            (Lane::Atoms(dst), s) => dst.push(s.atom(i)),
            (dst, src) => panic!("lane kind mismatch: {:?} <- {:?}", dst.kind(), src.kind()),
        }
    }

    /// Append the values of `src` at positions `hits`.
    fn gather_from(&mut self, src: &Lane, hits: &[usize]) {
        match (self, src) {
            (Lane::Int(dst), Lane::Int(s)) => dst.extend(hits.iter().map(|&i| s[i])),
            (Lane::Oid(dst), Lane::Oid(s)) => dst.extend(hits.iter().map(|&i| s[i])),
            (Lane::Atoms(dst), s) => dst.extend(hits.iter().map(|&i| s.atom(i))),
            (dst, src) => panic!("lane kind mismatch: {:?} <- {:?}", dst.kind(), src.kind()),
        }
    }

    /// Append the contiguous range `r` of `src`.
    fn extend_range_from(&mut self, src: &Lane, r: Range<usize>) {
        match (self, src) {
            (Lane::Int(dst), Lane::Int(s)) => dst.extend_from_slice(&s[r]),
            (Lane::Oid(dst), Lane::Oid(s)) => dst.extend_from_slice(&s[r]),
            (Lane::Atoms(dst), Lane::Atoms(s)) => dst.extend(s[r].iter().cloned()),
            (Lane::Atoms(dst), s) => dst.extend(r.map(|i| s.atom(i))),
            (dst, src) => panic!("lane kind mismatch: {:?} <- {:?}", dst.kind(), src.kind()),
        }
    }
}

/// A columnar block of up to (nominally) [`BLOCK_OIDS`] tuples: one
/// [`Lane`] per output column, all the same length. The unit of exchange
/// between [`VectorOperator`]s; allocated once and reused, lane capacity
/// surviving [`reset`](Self::reset).
#[derive(Debug, Default)]
pub struct RowBlock {
    lanes: Vec<Lane>,
    len: usize,
}

impl RowBlock {
    /// An empty block; the first producer shapes it via
    /// [`reset`](Self::reset).
    pub fn new() -> Self {
        RowBlock::default()
    }

    /// Clear to zero rows with the given lane layout, reusing lane
    /// buffers whose kind already matches.
    pub fn reset(&mut self, kinds: &[LaneKind]) {
        self.lanes.truncate(kinds.len());
        for (i, &kind) in kinds.iter().enumerate() {
            match self.lanes.get_mut(i) {
                Some(lane) if lane.kind() == kind => lane.clear(),
                Some(lane) => *lane = Lane::empty(kind),
                None => self.lanes.push(Lane::empty(kind)),
            }
        }
        self.len = 0;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.lanes.len()
    }

    /// Borrow column `i`.
    pub fn lane(&self, i: usize) -> &Lane {
        &self.lanes[i]
    }

    /// Mutably borrow column `i` — for producers filling lanes directly.
    pub fn lane_mut(&mut self, i: usize) -> &mut Lane {
        &mut self.lanes[i]
    }

    /// Declare the row count after filling lanes directly.
    ///
    /// # Panics
    /// Panics when any lane disagrees with `n`.
    pub fn set_len(&mut self, n: usize) {
        for lane in &self.lanes {
            assert_eq!(lane.len(), n, "lane length disagrees with block length");
        }
        self.len = n;
    }

    /// Append the rows of `src` at positions `hits` (the filter gather).
    pub fn gather_from(&mut self, src: &RowBlock, hits: &[usize]) {
        for (dst, s) in self.lanes.iter_mut().zip(&src.lanes) {
            dst.gather_from(s, hits);
        }
        self.len += hits.len();
    }

    /// Append all rows of `src`.
    pub fn append_block(&mut self, src: &RowBlock) {
        self.extend_range_from(src, 0..src.len);
    }

    /// Append the contiguous row range `r` of `src`.
    pub fn extend_range_from(&mut self, src: &RowBlock, r: Range<usize>) {
        let n = r.len();
        for (dst, s) in self.lanes.iter_mut().zip(&src.lanes) {
            // lint: allow(per-tuple-alloc) — Range clone is two usizes, heap-free
            dst.extend_range_from(s, r.clone());
        }
        self.len += n;
    }

    /// Append the concatenation of `left`'s row `li` and `right`'s row
    /// `ri` — the join emission primitive. The block's lanes must be laid
    /// out as `left.arity() + right.arity()`.
    pub fn push_joined(&mut self, left: &RowBlock, li: usize, right: &RowBlock, ri: usize) {
        let split = left.arity();
        for (k, dst) in self.lanes.iter_mut().enumerate() {
            if k < split {
                dst.push_from(&left.lanes[k], li);
            } else {
                dst.push_from(&right.lanes[k - split], ri);
            }
        }
        self.len += 1;
    }

    /// Append one row of atoms (test/builder convenience).
    pub fn push_row(&mut self, row: &[Atom]) {
        assert_eq!(row.len(), self.lanes.len(), "row arity mismatch");
        // lint: allow(per-tuple-alloc) — test/builder convenience, not a pipeline path
        for (lane, a) in self.lanes.iter_mut().zip(row.iter().cloned()) {
            lane.push_atom(a);
        }
        self.len += 1;
    }

    /// Materialize row `i` as a tuple-mode [`Row`].
    pub fn row(&self, i: usize) -> Row {
        self.lanes.iter().map(|lane| lane.atom(i)).collect()
    }

    /// Materialize every row into `out` (the block → tuple bridge).
    pub fn append_rows_to(&self, out: &mut Vec<Row>) {
        out.reserve(self.len);
        for i in 0..self.len {
            // lint: allow(per-tuple-alloc) — deliberate bridge back to tuple Rows
            out.push(self.row(i));
        }
    }
}

/// A block-at-a-time physical operator: fills `out` with the next block
/// of result rows and returns how many it produced (0 = exhausted).
pub trait VectorOperator {
    /// Produce the next block into `out`. Implementations call
    /// [`RowBlock::reset`] with their own lane layout first, loop past
    /// empty intermediate blocks, and return 0 only at end-of-stream.
    fn next_block(&mut self, out: &mut RowBlock) -> usize;

    /// The lane layout of produced blocks.
    fn lane_kinds(&self) -> &[LaneKind];

    /// Number of output columns.
    fn arity(&self) -> usize {
        self.lane_kinds().len()
    }
}

/// Drain a vector pipeline into tuple-mode rows (the compatibility
/// bridge used by the planner's materializing entry points).
pub fn run_vector_to_vec(mut op: Box<dyn VectorOperator>) -> Vec<Row> {
    let mut out = Vec::new();
    let mut block = RowBlock::new();
    while op.next_block(&mut block) > 0 {
        block.append_rows_to(&mut out);
    }
    out
}

/// Drain a vector pipeline counting rows without materializing them.
pub fn run_vector_count(mut op: Box<dyn VectorOperator>) -> usize {
    let mut n = 0;
    let mut block = RowBlock::new();
    loop {
        let produced = op.next_block(&mut block);
        if produced == 0 {
            return n;
        }
        n += produced;
    }
}

/// Block-at-a-time full-table scan: emits `[oid, col0, col1, ...]`
/// blocks in OID order, each column as a `memcpy`-style slice copy into
/// the block's int lane (the columns are shared, not copied up front).
pub struct VecTableScan {
    cols: Vec<Arc<Vec<i64>>>,
    kinds: Vec<LaneKind>,
    len: usize,
    cursor: usize,
    with_oid: bool,
}

impl VecTableScan {
    /// Scan emitting `[oid, col0, col1, ...]` blocks.
    pub fn new(table: &Table) -> Self {
        Self::build(table, true)
    }

    /// Scan emitting only the attribute columns (no OID lane).
    pub fn without_oid(table: &Table) -> Self {
        Self::build(table, false)
    }

    fn build(table: &Table, with_oid: bool) -> Self {
        let cols = table.columns().to_vec();
        let mut kinds = Vec::new();
        if with_oid {
            kinds.push(LaneKind::Oid);
        }
        kinds.resize(kinds.len() + cols.len(), LaneKind::Int);
        VecTableScan {
            cols,
            kinds,
            len: table.len(),
            cursor: 0,
            with_oid,
        }
    }
}

impl VectorOperator for VecTableScan {
    fn next_block(&mut self, out: &mut RowBlock) -> usize {
        out.reset(&self.kinds);
        let n = BLOCK_OIDS.min(self.len - self.cursor);
        if n == 0 {
            return 0;
        }
        let range = self.cursor..self.cursor + n;
        let mut slot = 0;
        if self.with_oid {
            if let Lane::Oid(dst) = out.lane_mut(slot) {
                dst.extend(range.clone().map(|p| p as u64));
            }
            slot += 1;
        }
        for col in &self.cols {
            let Lane::Int(dst) = out.lane_mut(slot) else {
                unreachable!("lane layout fixed at construction")
            };
            // lint: allow(per-tuple-alloc) — Range clone is heap-free
            dst.extend_from_slice(&col[range.clone()]);
            slot += 1;
        }
        out.set_len(n);
        self.cursor += n;
        n
    }

    fn lane_kinds(&self) -> &[LaneKind] {
        &self.kinds
    }
}

/// Block-at-a-time filter over a range predicate: integer lanes are
/// scanned by a [`CrackKernel`] residual scan (the same SIMD or scalar
/// loop that serves crack-time border pieces), other lanes fall back to
/// a scalar loop with tuple-mode `as_int()` semantics.
pub struct VecFilter {
    input: Box<dyn VectorOperator>,
    col: usize,
    pred: RangePred<i64>,
    kernel: CrackKernel,
    kinds: Vec<LaneKind>,
    child: RowBlock,
    hits: Vec<usize>,
}

impl VecFilter {
    /// Filter `input` on column `col` matching `pred`.
    pub fn new(input: Box<dyn VectorOperator>, col: usize, pred: RangePred<i64>) -> Self {
        let kinds = input.lane_kinds().to_vec();
        VecFilter {
            input,
            col,
            pred,
            kernel: KernelPolicy::default().resolve(),
            kinds,
            child: RowBlock::new(),
            hits: Vec::new(),
        }
    }
}

/// Collect the hit positions of `pred` over `lane` into `hits`,
/// kernel-scanning integer lanes and falling back to a scalar loop with
/// tuple-mode `as_int()` semantics elsewhere (OIDs never match, exactly
/// as `Atom::as_int()` returns `None` for them).
fn scan_lane(
    kernel: CrackKernel,
    lane: &Lane,
    n: usize,
    pred: &RangePred<i64>,
    hits: &mut Vec<usize>,
) {
    match lane {
        Lane::Int(vals) => kernel.scan_into(&vals[..n], 0..n, pred, hits),
        Lane::Oid(_) => {}
        Lane::Atoms(atoms) => {
            for (i, a) in atoms[..n].iter().enumerate() {
                if a.as_int().is_some_and(|v| pred.matches(v)) {
                    hits.push(i);
                }
            }
        }
    }
}

impl VectorOperator for VecFilter {
    fn next_block(&mut self, out: &mut RowBlock) -> usize {
        out.reset(&self.kinds);
        loop {
            if self.input.next_block(&mut self.child) == 0 {
                return 0;
            }
            self.hits.clear();
            scan_lane(
                self.kernel,
                self.child.lane(self.col),
                self.child.len(),
                &self.pred,
                &mut self.hits,
            );
            if !self.hits.is_empty() {
                out.gather_from(&self.child, &self.hits);
                return out.len();
            }
        }
    }

    fn lane_kinds(&self) -> &[LaneKind] {
        &self.kinds
    }
}

/// The block-at-a-time Ξ-tap (§3.4.1): a filter that *keeps* its
/// rejects, gathering the non-qualifying rows of every block into a
/// columnar reject arena so cracking-as-byproduct survives
/// vectorization — the rejects can be drained into their own piece once
/// the pipeline finishes, exactly like [`super::ops::XiTapOp`].
pub struct VecXiTap {
    input: Box<dyn VectorOperator>,
    col: usize,
    pred: RangePred<i64>,
    kernel: CrackKernel,
    kinds: Vec<LaneKind>,
    child: RowBlock,
    hits: Vec<usize>,
    misses: Vec<usize>,
    rejects: RowBlock,
}

impl VecXiTap {
    /// Wrap `input`, splitting each block by `pred` on column `col`.
    pub fn new(input: Box<dyn VectorOperator>, col: usize, pred: RangePred<i64>) -> Self {
        let kinds = input.lane_kinds().to_vec();
        let mut rejects = RowBlock::new();
        rejects.reset(&kinds);
        VecXiTap {
            input,
            col,
            pred,
            kernel: KernelPolicy::default().resolve(),
            kinds,
            child: RowBlock::new(),
            hits: Vec::new(),
            misses: Vec::new(),
            rejects,
        }
    }

    /// Rows rejected so far, as a columnar block (complete once the
    /// operator is exhausted).
    pub fn rejects(&self) -> &RowBlock {
        &self.rejects
    }

    /// Take ownership of the reject piece as tuple-mode rows — the same
    /// shape [`super::ops::XiTapOp::take_rejects`] returns, so callers
    /// that feed rejects into a Ξ-piece are pipeline-agnostic.
    pub fn take_rejects(&mut self) -> Vec<Row> {
        let mut out = Vec::new();
        self.rejects.append_rows_to(&mut out);
        self.rejects.reset(&self.kinds);
        out
    }
}

impl VectorOperator for VecXiTap {
    fn next_block(&mut self, out: &mut RowBlock) -> usize {
        out.reset(&self.kinds);
        loop {
            if self.input.next_block(&mut self.child) == 0 {
                return 0;
            }
            let n = self.child.len();
            self.hits.clear();
            scan_lane(
                self.kernel,
                self.child.lane(self.col),
                n,
                &self.pred,
                &mut self.hits,
            );
            // Complement of the hit list, per block: both sides of the
            // split are gathered columnar, nothing is dropped.
            self.misses.clear();
            let mut next_hit = self.hits.iter().copied().peekable();
            for i in 0..n {
                if next_hit.peek() == Some(&i) {
                    next_hit.next();
                } else {
                    self.misses.push(i);
                }
            }
            self.rejects.gather_from(&self.child, &self.misses);
            if !self.hits.is_empty() {
                out.gather_from(&self.child, &self.hits);
                return out.len();
            }
        }
    }

    fn lane_kinds(&self) -> &[LaneKind] {
        &self.kinds
    }
}

/// Block-at-a-time projection: whole-lane copies by column position —
/// no per-tuple work at all for typed lanes.
pub struct VecProject {
    input: Box<dyn VectorOperator>,
    indices: Vec<usize>,
    kinds: Vec<LaneKind>,
    child: RowBlock,
}

impl VecProject {
    /// Keep only the given input columns, in the given order.
    pub fn new(input: Box<dyn VectorOperator>, indices: Vec<usize>) -> Self {
        let kinds: Vec<LaneKind> = indices.iter().map(|&i| input.lane_kinds()[i]).collect();
        VecProject {
            input,
            indices,
            kinds,
            child: RowBlock::new(),
        }
    }
}

impl VectorOperator for VecProject {
    fn next_block(&mut self, out: &mut RowBlock) -> usize {
        out.reset(&self.kinds);
        let n = self.input.next_block(&mut self.child);
        if n == 0 {
            return 0;
        }
        for (slot, &src) in self.indices.iter().enumerate() {
            out.lane_mut(slot)
                .extend_range_from(self.child.lane(src), 0..n);
        }
        out.set_len(n);
        n
    }

    fn lane_kinds(&self) -> &[LaneKind] {
        &self.kinds
    }
}

/// The build-side index of a [`VecHashJoin`]: key → row indices into the
/// build arena. Integer key lanes hash raw `i64`s (no `Atom` in the loop
/// at all); other lanes key on owned [`Atom`]s, cloned once per *build
/// row*, never per probe.
enum JoinIndex {
    Int(HashMap<i64, Vec<u32>>),
    Key(HashMap<Atom, Vec<u32>>),
}

/// Block-at-a-time hash join: the left (build) input is drained **once**
/// into a columnar arena plus an index keyed by value — no per-row `Row`
/// clones anywhere — then right blocks probe the index and matches are
/// emitted as lane-wise concatenations.
pub struct VecHashJoin {
    arena: RowBlock,
    index: JoinIndex,
    right: Box<dyn VectorOperator>,
    right_key: usize,
    kinds: Vec<LaneKind>,
    probe: RowBlock,
    probe_pos: usize,
    match_off: usize,
}

impl VecHashJoin {
    /// Build from `left` on `left_key`, prepare to probe `right` on
    /// `right_key`.
    pub fn new(
        mut left: Box<dyn VectorOperator>,
        left_key: usize,
        right: Box<dyn VectorOperator>,
        right_key: usize,
    ) -> Self {
        // Drain the build side once into the columnar arena.
        let mut arena = RowBlock::new();
        arena.reset(left.lane_kinds());
        let mut block = RowBlock::new();
        while left.next_block(&mut block) > 0 {
            arena.append_block(&block);
        }
        // Index the arena's key lane. The arena is the single owner of
        // the build rows: the index holds row numbers, not clones.
        let index = match arena.lane(left_key) {
            Lane::Int(vals) => {
                let mut map: HashMap<i64, Vec<u32>> = HashMap::new();
                for (i, &v) in vals.iter().enumerate() {
                    // lint: allow(per-tuple-alloc) — one Vec per distinct key, not per row
                    map.entry(v).or_default().push(i as u32);
                }
                JoinIndex::Int(map)
            }
            lane => {
                let mut map: HashMap<Atom, Vec<u32>> = HashMap::new();
                for i in 0..lane.len() {
                    // lint: allow(per-tuple-alloc) — Atom fallback lane keys, cloned once per build row
                    map.entry(lane.atom(i)).or_default().push(i as u32);
                }
                JoinIndex::Key(map)
            }
        };
        let mut kinds = arena.lanes.iter().map(Lane::kind).collect::<Vec<_>>();
        kinds.extend_from_slice(right.lane_kinds());
        VecHashJoin {
            arena,
            index,
            right,
            right_key,
            kinds,
            probe: RowBlock::new(),
            probe_pos: 0,
            match_off: 0,
        }
    }
}

/// Look up the build-side matches for probe row `i`, honoring
/// tuple-mode `Atom` equality: an integer index only matches integer
/// probe values (an OID never equals an `Atom::Int`), the atom index
/// matches on full `Atom` equality.
fn probe_matches<'a>(index: &'a JoinIndex, lane: &Lane, i: usize) -> Option<&'a [u32]> {
    match (index, lane) {
        (JoinIndex::Int(map), Lane::Int(v)) => map.get(&v[i]).map(Vec::as_slice),
        (JoinIndex::Int(map), Lane::Atoms(a)) => {
            a[i].as_int().and_then(|v| map.get(&v)).map(Vec::as_slice)
        }
        (JoinIndex::Int(_), Lane::Oid(_)) => None,
        (JoinIndex::Key(map), lane) => map.get(&lane.atom(i)).map(Vec::as_slice),
    }
}

impl VectorOperator for VecHashJoin {
    fn next_block(&mut self, out: &mut RowBlock) -> usize {
        out.reset(&self.kinds);
        loop {
            if self.probe_pos >= self.probe.len() {
                if self.right.next_block(&mut self.probe) == 0 {
                    return out.len();
                }
                self.probe_pos = 0;
                self.match_off = 0;
            }
            while self.probe_pos < self.probe.len() {
                let matches =
                    probe_matches(&self.index, self.probe.lane(self.right_key), self.probe_pos)
                        .unwrap_or(&[]);
                while self.match_off < matches.len() {
                    if out.len() >= BLOCK_OIDS {
                        // Block full mid-list: resume here next call.
                        return out.len();
                    }
                    let build_row = matches[self.match_off] as usize;
                    out.push_joined(&self.arena, build_row, &self.probe, self.probe_pos);
                    self.match_off += 1;
                }
                self.match_off = 0;
                self.probe_pos += 1;
            }
            if !out.is_empty() {
                return out.len();
            }
        }
    }

    fn lane_kinds(&self) -> &[LaneKind] {
        &self.kinds
    }
}

/// Block-at-a-time nested-loop join — the quadratic reference the hash
/// join is differentially tested against, kept for the optimizer's cost
/// crossover experiments. Counts comparisons like its tuple twin.
pub struct VecNestedLoop {
    arena: RowBlock,
    left_key: usize,
    right: Box<dyn VectorOperator>,
    right_key: usize,
    kinds: Vec<LaneKind>,
    probe: RowBlock,
    probe_pos: usize,
    arena_off: usize,
    /// Key comparisons performed (the quadratic cost driver).
    pub comparisons: u64,
}

impl VecNestedLoop {
    /// Build from `left` on `left_key`, probe `right` on `right_key`.
    pub fn new(
        mut left: Box<dyn VectorOperator>,
        left_key: usize,
        right: Box<dyn VectorOperator>,
        right_key: usize,
    ) -> Self {
        let mut arena = RowBlock::new();
        arena.reset(left.lane_kinds());
        let mut block = RowBlock::new();
        while left.next_block(&mut block) > 0 {
            arena.append_block(&block);
        }
        let mut kinds = arena.lanes.iter().map(Lane::kind).collect::<Vec<_>>();
        kinds.extend_from_slice(right.lane_kinds());
        VecNestedLoop {
            arena,
            left_key,
            right,
            right_key,
            kinds,
            probe: RowBlock::new(),
            probe_pos: 0,
            arena_off: 0,
            comparisons: 0,
        }
    }
}

/// Tuple-mode `Atom` equality between two lane values without
/// materializing atoms on the typed fast paths.
fn lane_eq(a: &Lane, i: usize, b: &Lane, j: usize) -> bool {
    match (a, b) {
        (Lane::Int(x), Lane::Int(y)) => x[i] == y[j],
        (Lane::Oid(x), Lane::Oid(y)) => x[i] == y[j],
        (Lane::Int(_), Lane::Oid(_)) | (Lane::Oid(_), Lane::Int(_)) => false,
        (a, b) => a.atom(i) == b.atom(j),
    }
}

impl VectorOperator for VecNestedLoop {
    fn next_block(&mut self, out: &mut RowBlock) -> usize {
        out.reset(&self.kinds);
        loop {
            if self.probe_pos >= self.probe.len() {
                if self.right.next_block(&mut self.probe) == 0 {
                    return out.len();
                }
                self.probe_pos = 0;
                self.arena_off = 0;
            }
            while self.probe_pos < self.probe.len() {
                while self.arena_off < self.arena.len() {
                    if out.len() >= BLOCK_OIDS {
                        return out.len();
                    }
                    let li = self.arena_off;
                    self.arena_off += 1;
                    self.comparisons += 1;
                    if lane_eq(
                        self.arena.lane(self.left_key),
                        li,
                        self.probe.lane(self.right_key),
                        self.probe_pos,
                    ) {
                        out.push_joined(&self.arena, li, &self.probe, self.probe_pos);
                    }
                }
                self.arena_off = 0;
                self.probe_pos += 1;
            }
            if !out.is_empty() {
                return out.len();
            }
        }
    }

    fn lane_kinds(&self) -> &[LaneKind] {
        &self.kinds
    }
}

/// The running `(count, sum, min, max)` state of one group.
type AggState = (i64, i64, i64, i64);

fn agg_update(entry: &mut AggState, v: i64) {
    entry.0 += 1;
    entry.1 += v;
    entry.2 = entry.2.min(v);
    entry.3 = entry.3.max(v);
}

fn agg_finish(func: AggFunc, (count, sum, min, max): AggState) -> i64 {
    match func {
        AggFunc::Count => count,
        AggFunc::Sum => sum,
        AggFunc::Min => min,
        AggFunc::Max => max,
    }
}

/// Block-at-a-time grouped aggregation: groups on one key column,
/// aggregates one value column, emits `(key, aggregate)` blocks in key
/// order — bit-identical to [`super::group::GroupByOp`] because a typed
/// key lane is homogeneous, and `Atom`'s derived order over a single
/// variant is the underlying value order.
pub struct VecGroup {
    results: RowBlock,
    cursor: usize,
    kinds: Vec<LaneKind>,
}

impl VecGroup {
    /// Group `input` on column `key`, aggregating column `agg_col` with
    /// `func` (ignored for [`AggFunc::Count`]).
    pub fn new(
        mut input: Box<dyn VectorOperator>,
        key: usize,
        func: AggFunc,
        agg_col: Option<usize>,
    ) -> Self {
        enum Groups {
            Int(BTreeMap<i64, AggState>),
            Oid(BTreeMap<u64, AggState>),
            Atoms(BTreeMap<Atom, AggState>),
        }
        let mut groups = match input.lane_kinds()[key] {
            LaneKind::Int => Groups::Int(BTreeMap::new()),
            LaneKind::Oid => Groups::Oid(BTreeMap::new()),
            LaneKind::Atom => Groups::Atoms(BTreeMap::new()),
        };
        let mut block = RowBlock::new();
        while input.next_block(&mut block) > 0 {
            for i in 0..block.len() {
                let v = agg_col.and_then(|c| block.lane(c).int_at(i)).unwrap_or(0);
                let entry = match &mut groups {
                    Groups::Int(map) => {
                        let Lane::Int(keys) = block.lane(key) else {
                            unreachable!("key lane kind fixed at construction")
                        };
                        map.entry(keys[i]).or_insert((0, 0, i64::MAX, i64::MIN))
                    }
                    Groups::Oid(map) => {
                        let Lane::Oid(keys) = block.lane(key) else {
                            unreachable!("key lane kind fixed at construction")
                        };
                        map.entry(keys[i]).or_insert((0, 0, i64::MAX, i64::MIN))
                    }
                    Groups::Atoms(map) => map
                        // lint: allow(per-tuple-alloc) — Atom fallback lane keys
                        .entry(block.lane(key).atom(i))
                        .or_insert((0, 0, i64::MAX, i64::MIN)),
                };
                agg_update(entry, v);
            }
        }
        let key_kind = match &groups {
            Groups::Int(_) => LaneKind::Int,
            Groups::Oid(_) => LaneKind::Oid,
            Groups::Atoms(_) => LaneKind::Atom,
        };
        let kinds = vec![key_kind, LaneKind::Int];
        let mut results = RowBlock::new();
        results.reset(&kinds);
        // Per-*group* emission (groups are few): `Atom::Int`/`Atom::Oid`
        // construction is heap-free, and `push_atom` lands each key in
        // its typed lane.
        match groups {
            Groups::Int(map) => {
                for (k, state) in map {
                    results.lanes[0].push_atom(Atom::Int(k));
                    results.lanes[1].push_atom(Atom::Int(agg_finish(func, state)));
                }
            }
            Groups::Oid(map) => {
                for (k, state) in map {
                    results.lanes[0].push_atom(Atom::Oid(k));
                    results.lanes[1].push_atom(Atom::Int(agg_finish(func, state)));
                }
            }
            Groups::Atoms(map) => {
                for (k, state) in map {
                    results.lanes[0].push_atom(k);
                    results.lanes[1].push_atom(Atom::Int(agg_finish(func, state)));
                }
            }
        }
        results.len = results.lanes[0].len();
        VecGroup {
            results,
            cursor: 0,
            kinds,
        }
    }
}

impl VectorOperator for VecGroup {
    fn next_block(&mut self, out: &mut RowBlock) -> usize {
        out.reset(&self.kinds);
        let n = BLOCK_OIDS.min(self.results.len() - self.cursor);
        if n == 0 {
            return 0;
        }
        out.extend_range_from(&self.results, self.cursor..self.cursor + n);
        self.cursor += n;
        n
    }

    fn lane_kinds(&self) -> &[LaneKind] {
        &self.kinds
    }
}

/// A vector leaf over in-memory rows (tests, proptest operator trees):
/// columnarizes once at construction — a column whose atoms are all
/// `Int` (resp. all `Oid`) gets a typed lane, anything else the fallback
/// atom lane.
pub struct VecRowsOp {
    arena: RowBlock,
    cursor: usize,
    kinds: Vec<LaneKind>,
}

impl VecRowsOp {
    /// Wrap `rows` (each of length `arity`) as a block producer.
    pub fn new(rows: Vec<Row>, arity: usize) -> Self {
        let kinds: Vec<LaneKind> = (0..arity)
            .map(|c| {
                if rows.iter().all(|r| matches!(r[c], Atom::Int(_))) {
                    LaneKind::Int
                } else if rows.iter().all(|r| matches!(r[c], Atom::Oid(_))) {
                    LaneKind::Oid
                } else {
                    LaneKind::Atom
                }
            })
            .collect();
        let mut arena = RowBlock::new();
        arena.reset(&kinds);
        for row in rows {
            assert_eq!(row.len(), arity, "row arity mismatch");
            for (lane, a) in arena.lanes.iter_mut().zip(row) {
                lane.push_atom(a);
            }
            arena.len += 1;
        }
        VecRowsOp {
            arena,
            cursor: 0,
            kinds,
        }
    }
}

impl VectorOperator for VecRowsOp {
    fn next_block(&mut self, out: &mut RowBlock) -> usize {
        out.reset(&self.kinds);
        let n = BLOCK_OIDS.min(self.arena.len() - self.cursor);
        if n == 0 {
            return 0;
        }
        out.extend_range_from(&self.arena, self.cursor..self.cursor + n);
        self.cursor += n;
        n
    }

    fn lane_kinds(&self) -> &[LaneKind] {
        &self.kinds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn table() -> Table {
        let a: Vec<i64> = (0..2500).collect();
        let b: Vec<i64> = (0..2500).map(|v| v * 2).collect();
        Table::from_int_columns("t", vec![("a", a), ("b", b)]).expect("well-formed")
    }

    #[test]
    fn scan_emits_blocks_in_oid_order() {
        let t = table();
        let mut scan = VecTableScan::new(&t);
        let mut block = RowBlock::new();
        assert_eq!(scan.next_block(&mut block), BLOCK_OIDS);
        assert_eq!(block.lane(0).atom(0), Atom::Oid(0));
        assert_eq!(block.lane(1).atom(5), Atom::Int(5));
        assert_eq!(scan.next_block(&mut block), BLOCK_OIDS);
        assert_eq!(block.lane(0).atom(0), Atom::Oid(1024));
        assert_eq!(scan.next_block(&mut block), 2500 - 2 * BLOCK_OIDS);
        assert_eq!(scan.next_block(&mut block), 0);
    }

    #[test]
    fn filter_matches_scalar_oracle() {
        let t = table();
        let pred = RangePred::between(100, 199);
        let op = VecFilter::new(Box::new(VecTableScan::new(&t)), 1, pred);
        let rows = run_vector_to_vec(Box::new(op));
        assert_eq!(rows.len(), 100);
        assert!(rows
            .iter()
            .all(|r| r[1].as_int().is_some_and(|v| (100..=199).contains(&v))));
    }

    #[test]
    fn filter_on_oid_lane_matches_nothing() {
        // Tuple mode: Atom::Oid(_).as_int() is None, so a predicate on
        // the OID column never matches. The vector path must agree.
        let t = table();
        let op = VecFilter::new(Box::new(VecTableScan::new(&t)), 0, RangePred::ge(0));
        assert_eq!(run_vector_count(Box::new(op)), 0);
    }

    #[test]
    fn xitap_splits_exactly() {
        let t = table();
        let pred = RangePred::lt(1000);
        let mut tap = VecXiTap::new(Box::new(VecTableScan::new(&t)), 1, pred);
        let mut kept = 0usize;
        let mut block = RowBlock::new();
        loop {
            let n = tap.next_block(&mut block);
            if n == 0 {
                break;
            }
            kept += n;
        }
        assert_eq!(kept, 1000);
        let rejects = tap.take_rejects();
        assert_eq!(rejects.len(), 1500);
        assert!(rejects
            .iter()
            .all(|r| r[1].as_int().is_some_and(|v| v >= 1000)));
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let t = table();
        let hash = VecHashJoin::new(
            Box::new(VecTableScan::without_oid(&t)),
            0,
            Box::new(VecTableScan::without_oid(&t)),
            1,
        );
        let nested = VecNestedLoop::new(
            Box::new(VecTableScan::without_oid(&t)),
            0,
            Box::new(VecTableScan::without_oid(&t)),
            1,
        );
        let mut a = run_vector_to_vec(Box::new(hash));
        let mut b = run_vector_to_vec(Box::new(nested));
        a.sort();
        b.sort();
        assert_eq!(a.len(), 1250, "a == 2*b has 1250 solutions under 2500");
        assert_eq!(a, b);
    }

    #[test]
    fn group_matches_tuple_op() {
        let rows: Vec<Row> = (0..100)
            .map(|i| vec![Atom::Int(i % 7), Atom::Int(i)])
            .collect();
        let vec_g = VecGroup::new(
            Box::new(VecRowsOp::new(rows.clone(), 2)),
            0,
            AggFunc::Sum,
            Some(1),
        );
        let tup_g = super::super::group::GroupByOp::new(
            Box::new(super::super::ops::RowsOp::new(rows, 2)),
            0,
            AggFunc::Sum,
            Some(1),
        );
        assert_eq!(
            run_vector_to_vec(Box::new(vec_g)),
            super::super::run_to_vec(Box::new(tup_g))
        );
    }

    #[test]
    fn project_reorders_lanes() {
        let t = table();
        let op = VecProject::new(Box::new(VecTableScan::new(&t)), vec![2, 1]);
        let rows = run_vector_to_vec(Box::new(op));
        assert_eq!(rows[3], vec![Atom::Int(6), Atom::Int(3)]);
    }
}
