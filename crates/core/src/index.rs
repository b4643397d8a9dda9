//! The cracker index — a "decorated interval tree" (§5.2).
//!
//! For each piece the paper's index "keeps track of the (min,max) bounds of
//! the (range) attributes, its size, and its location in the database"
//! (§3.2). Because our cracked pieces are *contiguous* slot ranges of one
//! array, a piece is fully described by its two bounding **boundaries**:
//! an ordered map from [`BoundaryKey`] to split position is the whole
//! index. Piece size falls out of adjacent positions; piece value bounds
//! fall out of adjacent keys; navigation is an `O(log p)` ordered-map
//! lookup.

use crate::crack::BoundaryKey;
use crate::value_trait::CrackValue;
use std::collections::BTreeMap;
use std::ops::Range;

/// One piece as reported by [`CrackerIndex::pieces`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece<T> {
    /// Slot range `[start, end)` of the piece.
    pub start: usize,
    /// End of the slot range (exclusive).
    pub end: usize,
    /// Boundary delimiting the piece from below (None for the first piece).
    pub lower: Option<BoundaryKey<T>>,
    /// Boundary delimiting the piece from above (None for the last piece).
    pub upper: Option<BoundaryKey<T>>,
}

impl<T> Piece<T> {
    /// Number of slots in the piece.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for zero-width pieces.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Ordered map of crack boundaries over a column of `n` slots: each key
/// maps to its split position (slots before it hold the values "before"
/// the key).
#[derive(Debug, Clone, Default)]
pub struct CrackerIndex<T> {
    bounds: BTreeMap<BoundaryKey<T>, usize>,
    n: usize,
}

impl<T: CrackValue> CrackerIndex<T> {
    /// An index over `n` slots with no boundaries: one virgin piece.
    pub fn new(n: usize) -> Self {
        CrackerIndex {
            bounds: BTreeMap::new(),
            n,
        }
    }

    /// Number of slots covered.
    pub fn slots(&self) -> usize {
        self.n
    }

    /// Rewrite every boundary position and the slot count in one sweep —
    /// the update merge's relayout, which keeps every key.
    /// `ends` holds each piece's end slot in slot order: one per boundary,
    /// then the new slot count.
    pub fn set_piece_ends(&mut self, ends: &[usize]) {
        debug_assert_eq!(ends.len(), self.piece_count(), "one end per piece");
        for (pos, &end) in self.bounds.values_mut().zip(ends) {
            *pos = end;
        }
        self.n = ends.last().copied().unwrap_or(0);
    }

    /// Number of boundaries.
    pub fn boundary_count(&self) -> usize {
        self.bounds.len()
    }

    /// Number of pieces (boundaries + 1; a fresh index has one piece).
    pub fn piece_count(&self) -> usize {
        self.bounds.len() + 1
    }

    /// Position for `key` if this exact boundary exists.
    pub fn position(&self, key: BoundaryKey<T>) -> Option<usize> {
        self.bounds.get(&key).copied()
    }

    /// The unbroken slot range within which the boundary `key` would fall:
    /// delimited by the nearest existing boundaries on either side.
    pub fn enclosing_piece(&self, key: BoundaryKey<T>) -> Range<usize> {
        let lo = self
            .bounds
            .range(..key)
            .next_back()
            .map_or(0, |(_, &pos)| pos);
        let hi = self
            .bounds
            .range(key..)
            .next()
            .map_or(self.n, |(_, &pos)| pos);
        lo..hi
    }

    /// Record a new boundary at `pos`. Panics (debug) if it contradicts an
    /// existing boundary ordering — that would mean cracked data corruption.
    pub fn insert(&mut self, key: BoundaryKey<T>, pos: usize) {
        debug_assert!(pos <= self.n);
        debug_assert!(
            self.enclosing_piece(key).contains(&pos)
                || self.enclosing_piece(key).start == pos
                || self.enclosing_piece(key).end == pos,
            "boundary position must fall inside its enclosing piece"
        );
        self.bounds.insert(key, pos);
    }

    /// Set a boundary position unconditionally, bypassing the containment
    /// check — for bulk rebuilds (update merges) where neighbor positions
    /// are rewritten in one sweep and are transiently inconsistent. The
    /// caller must restore full consistency before the next query;
    /// [`CrackerIndex::validate`] checks it in tests.
    pub fn set_position(&mut self, key: BoundaryKey<T>, pos: usize) {
        self.bounds.insert(key, pos);
    }

    /// Remove a boundary, joining its two adjacent pieces. Returns the
    /// removed position. No tuple moves: pieces are contiguous, so
    /// dropping the boundary re-forms the union in place.
    pub fn remove(&mut self, key: &BoundaryKey<T>) -> Option<usize> {
        self.bounds.remove(key)
    }

    /// Iterate `(key, position)` pairs in key order.
    pub fn boundaries(&self) -> impl ExactSizeIterator<Item = (&BoundaryKey<T>, &usize)> + Clone {
        self.bounds.iter()
    }

    /// Enumerate all pieces in slot order.
    pub fn pieces(&self) -> Vec<Piece<T>> {
        let mut out = Vec::with_capacity(self.bounds.len() + 1);
        let mut start = 0usize;
        let mut lower: Option<BoundaryKey<T>> = None;
        for (&key, &pos) in &self.bounds {
            out.push(Piece {
                start,
                end: pos,
                lower,
                upper: Some(key),
            });
            start = pos;
            lower = Some(key);
        }
        out.push(Piece {
            start,
            end: self.n,
            lower,
            upper: None,
        });
        out
    }

    /// Check every index invariant against the actual values. Test/debug
    /// helper; `O(n · p)`.
    ///
    /// Invariants: boundary positions are monotone in key order, each lies
    /// in `0..=n`, and every value respects every boundary (values before
    /// the split satisfy `key.before`, values after do not).
    pub fn validate(&self, vals: &[T]) -> Result<(), String> {
        if vals.len() != self.n {
            return Err(format!(
                "slot count mismatch: index says {}, column has {}",
                self.n,
                vals.len()
            ));
        }
        let mut prev_pos = 0usize;
        for (key, &pos) in &self.bounds {
            if pos < prev_pos {
                return Err(format!(
                    "boundary {key:?} at {pos} violates monotonicity (prev {prev_pos})"
                ));
            }
            if pos > self.n {
                return Err(format!("boundary {key:?} beyond end: {pos}"));
            }
            for (i, &v) in vals.iter().enumerate() {
                let before = key.before(v);
                if i < pos && !before {
                    return Err(format!(
                        "value {v:?} at slot {i} should be before boundary {key:?} (pos {pos})"
                    ));
                }
                if i >= pos && before {
                    return Err(format!(
                        "value {v:?} at slot {i} should be after boundary {key:?} (pos {pos})"
                    ));
                }
            }
            prev_pos = pos;
        }
        Ok(())
    }
    /// Check every index invariant against the actual values in `O(n + p)`
    /// — the recovery-time counterpart of [`CrackerIndex::validate`].
    ///
    /// Boundary before-sets are nested along key order, so a value that
    /// respects its piece's two *adjacent* boundaries respects every other
    /// boundary by transitivity: checking each slot against only its
    /// enclosing piece's bounds proves the full `O(n · p)` property.
    pub fn check_pieces(&self, vals: &[T]) -> Result<(), String> {
        if vals.len() != self.n {
            return Err(format!(
                "slot count mismatch: index says {}, column has {}",
                self.n,
                vals.len()
            ));
        }
        let mut prev_pos = 0usize;
        for (key, &pos) in &self.bounds {
            if pos < prev_pos {
                return Err(format!(
                    "boundary {key:?} at {pos} violates monotonicity (prev {prev_pos})"
                ));
            }
            if pos > self.n {
                return Err(format!("boundary {key:?} beyond end: {pos}"));
            }
            prev_pos = pos;
        }
        for piece in self.pieces() {
            for (i, &v) in vals[piece.start..piece.end].iter().enumerate() {
                if let Some(lower) = piece.lower {
                    if lower.before(v) {
                        return Err(format!(
                            "value {v:?} at slot {} should be after boundary {lower:?}",
                            piece.start + i
                        ));
                    }
                }
                if let Some(upper) = piece.upper {
                    if !upper.before(v) {
                        return Err(format!(
                            "value {v:?} at slot {} should be before boundary {upper:?}",
                            piece.start + i
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_index_is_one_virgin_piece() {
        let idx: CrackerIndex<i64> = CrackerIndex::new(10);
        assert_eq!(idx.piece_count(), 1);
        let pieces = idx.pieces();
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].start, 0);
        assert_eq!(pieces[0].end, 10);
        assert_eq!(pieces[0].lower, None);
        assert_eq!(pieces[0].upper, None);
    }

    #[test]
    fn enclosing_piece_narrows_with_boundaries() {
        let mut idx: CrackerIndex<i64> = CrackerIndex::new(100);
        assert_eq!(idx.enclosing_piece(BoundaryKey::lt(50)), 0..100);
        idx.insert(BoundaryKey::lt(50), 40);
        assert_eq!(idx.enclosing_piece(BoundaryKey::lt(20)), 0..40);
        assert_eq!(idx.enclosing_piece(BoundaryKey::lt(70)), 40..100);
        idx.insert(BoundaryKey::lt(20), 15);
        assert_eq!(idx.enclosing_piece(BoundaryKey::lt(30)), 15..40);
    }

    #[test]
    fn position_finds_exact_boundaries_only() {
        let mut idx: CrackerIndex<i64> = CrackerIndex::new(10);
        idx.insert(BoundaryKey::lt(5), 4);
        assert_eq!(idx.position(BoundaryKey::lt(5)), Some(4));
        assert_eq!(idx.position(BoundaryKey::le(5)), None);
    }

    #[test]
    fn lt_and_le_boundaries_coexist_for_same_value() {
        let mut idx: CrackerIndex<i64> = CrackerIndex::new(10);
        idx.insert(BoundaryKey::lt(5), 3);
        idx.insert(BoundaryKey::le(5), 6);
        assert_eq!(idx.position(BoundaryKey::lt(5)), Some(3));
        assert_eq!(idx.position(BoundaryKey::le(5)), Some(6));
        // The middle piece holds exactly the values equal to 5.
        let pieces = idx.pieces();
        assert_eq!(pieces.len(), 3);
        assert_eq!(pieces[1].start, 3);
        assert_eq!(pieces[1].end, 6);
    }

    #[test]
    fn pieces_tile_the_whole_range() {
        let mut idx: CrackerIndex<i64> = CrackerIndex::new(50);
        idx.insert(BoundaryKey::lt(10), 12);
        idx.insert(BoundaryKey::lt(30), 33);
        idx.insert(BoundaryKey::lt(20), 25);
        let pieces = idx.pieces();
        assert_eq!(pieces.len(), 4);
        assert_eq!(pieces[0].start, 0);
        for w in pieces.windows(2) {
            assert_eq!(w[0].end, w[1].start, "pieces must tile contiguously");
        }
        assert_eq!(pieces.last().unwrap().end, 50);
        assert_eq!(pieces.iter().map(Piece::len).sum::<usize>(), 50);
    }

    #[test]
    fn remove_fuses_adjacent_pieces() {
        let mut idx: CrackerIndex<i64> = CrackerIndex::new(50);
        idx.insert(BoundaryKey::lt(10), 12);
        idx.insert(BoundaryKey::lt(30), 33);
        assert_eq!(idx.piece_count(), 3);
        assert!(idx.remove(&BoundaryKey::lt(10)).is_some());
        assert_eq!(idx.piece_count(), 2);
        let pieces = idx.pieces();
        assert_eq!(pieces[0].start, 0);
        assert_eq!(pieces[0].end, 33);
        assert!(idx.remove(&BoundaryKey::lt(10)).is_none());
    }

    #[test]
    fn validate_accepts_consistent_state() {
        let vals = vec![1i64, 2, 3, 10, 12, 20, 25];
        let mut idx = CrackerIndex::new(vals.len());
        idx.insert(BoundaryKey::lt(10), 3);
        idx.insert(BoundaryKey::lt(20), 5);
        assert!(idx.validate(&vals).is_ok());
    }

    #[test]
    fn validate_rejects_wrong_position() {
        let vals = vec![1i64, 2, 3, 10, 12];
        let mut idx = CrackerIndex::new(vals.len());
        idx.insert(BoundaryKey::lt(10), 2); // wrong: should be 3
        assert!(idx.validate(&vals).is_err());
    }

    #[test]
    fn validate_rejects_slot_mismatch() {
        let idx: CrackerIndex<i64> = CrackerIndex::new(5);
        assert!(idx.validate(&[1, 2, 3]).is_err());
    }

    #[test]
    fn set_piece_ends_moves_boundaries() {
        let mut idx: CrackerIndex<i64> = CrackerIndex::new(4);
        idx.insert(BoundaryKey::lt(10), 2);
        idx.insert(BoundaryKey::lt(20), 3);
        // Column grew: two more small values arrived (already clustered).
        let vals = vec![1i64, 5, 7, 9, 15, 20];
        idx.set_piece_ends(&[4, 5, 6]);
        assert_eq!(idx.slots(), 6);
        assert_eq!(idx.position(BoundaryKey::lt(10)), Some(4));
        assert_eq!(idx.position(BoundaryKey::lt(20)), Some(5));
        assert!(idx.validate(&vals).is_ok());
    }

    #[test]
    fn piece_len_and_empty() {
        let p: Piece<i64> = Piece {
            start: 3,
            end: 3,
            lower: None,
            upper: None,
        };
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }
}
