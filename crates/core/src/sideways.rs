//! Sideways cracking: a cracker map for multi-column queries, kept as a
//! standalone experiment structure.
//!
//! The Ψ cracker of §3.1 splits relations vertically, "each vertical
//! fragment include\[s\] ... a unique surrogate (oid), that allows simple
//! reconstruction by means of a natural 1:1-join". After Ξ-cracking the
//! selection column its tuples sit in *cracked* (shuffled) order, so
//! projecting another attribute of the qualifying tuples means one random
//! access per OID.
//!
//! A **cracker map** (Idreos, Kersten & Manegold, *Self-organizing tuple
//! reconstruction in column-stores*, SIGMOD 2009) stores, for one
//! (selection attribute, projection attribute) pair `A→B`, the `B` values
//! *physically aligned with the cracked order of `A`* and cracks them
//! together. A selection on `A` then yields the qualifying `B` values as
//! one contiguous slice.
//!
//! The engine does not use [`CrackerMap`]: `AdaptiveDb::select_project`
//! cracks the head column's one cracked copy and gathers the tail from
//! the base by OID. A map is a second cracked copy of the head plus a
//! tail copy (20 bytes per row), cracked by its own scalar loop, with no
//! update overlay, no latch and no checkpoint. On the e2e `warm_explore`
//! workload (2-vCPU VM, 10 alternating pairs), whose sideways selects
//! return at most 200 of 2 M rows, dropping the maps cut peak RSS per
//! user byte by 20 % and raised throughput by 9 %. The shape itself got
//! slower: its p50 rose from 5.2 to 8.1 µs, mostly the OID sort and the
//! cold OID copy of the SQL single-table path. The map's contiguous copy
//! wins on such selects, and more so on wide windows; the `ext_sideways`
//! experiment and the extensions bench keep that comparison.

use crate::crack::BoundaryKey;
use crate::index::CrackerIndex;
use crate::pred::RangePred;
use crate::stats::CrackStats;
use crate::value_trait::CrackValue;
use std::ops::Range;

/// One head→tail cracker map: tail values kept physically aligned with
/// the cracked order of the head attribute.
#[derive(Debug, Clone)]
pub struct CrackerMap<T> {
    head: Vec<T>,
    tail: Vec<T>,
    oids: Vec<u32>,
    index: CrackerIndex<T>,
    stats: CrackStats,
}

/// Three-array swap: head, tail and surrogate travel together.
#[inline(always)]
fn swap3<T>(head: &mut [T], tail: &mut [T], oids: &mut [u32], a: usize, b: usize) {
    head.swap(a, b);
    tail.swap(a, b);
    oids.swap(a, b);
}

impl<T: CrackValue> CrackerMap<T> {
    /// Build a map from parallel head/tail columns (dense OIDs).
    ///
    /// # Panics
    /// Panics if the columns differ in length.
    pub fn new(head: Vec<T>, tail: Vec<T>) -> Self {
        assert_eq!(head.len(), tail.len(), "head and tail must align");
        let n = head.len();
        CrackerMap {
            head,
            tail,
            oids: (0..n as u32).collect(),
            index: CrackerIndex::new(n),
            stats: CrackStats::default(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.head.len()
    }

    /// True when the map is empty.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    /// Cost counters.
    pub fn stats(&self) -> &CrackStats {
        &self.stats
    }

    /// Select on the head attribute, cracking the map; the answer is the
    /// slot range whose **tail** values (and OIDs) are contiguous.
    pub fn select(&mut self, pred: RangePred<T>) -> Range<usize> {
        self.stats.queries += 1;
        if pred.is_empty_range() || self.head.is_empty() {
            return 0..0;
        }
        let start = match pred.low {
            None => 0,
            Some(b) => {
                let key = if b.inclusive {
                    BoundaryKey::lt(b.value)
                } else {
                    BoundaryKey::le(b.value)
                };
                self.resolve(key)
            }
        };
        let end = match pred.high {
            None => self.head.len(),
            Some(b) => {
                let key = if b.inclusive {
                    BoundaryKey::le(b.value)
                } else {
                    BoundaryKey::lt(b.value)
                };
                self.resolve(key)
            }
        };
        start..end.max(start)
    }

    /// The contiguous tail projection of a selection: this is the whole
    /// point of the map — no per-OID random access.
    pub fn project(&self, slots: Range<usize>) -> &[T] {
        &self.tail[slots]
    }

    /// Find or create the split position for `key` (two-way crack over
    /// all three arrays).
    fn resolve(&mut self, key: BoundaryKey<T>) -> usize {
        if let Some(pos) = self.index.position(key) {
            return pos;
        }
        let piece = self.index.enclosing_piece(key);
        let pos = self.crack2(piece.clone(), key);
        self.stats.tuples_touched += piece.len() as u64;
        self.stats.cracks += 1;
        self.index.insert(key, pos);
        pos
    }

    /// Hoare-style partition mirrored across head/tail/oids.
    fn crack2(&mut self, piece: Range<usize>, key: BoundaryKey<T>) -> usize {
        let (mut i, mut j) = (piece.start, piece.end);
        loop {
            while i < j && key.before(self.head[i]) {
                i += 1;
            }
            while i < j && !key.before(self.head[j - 1]) {
                j -= 1;
            }
            if i >= j {
                break;
            }
            swap3(&mut self.head, &mut self.tail, &mut self.oids, i, j - 1);
            self.stats.tuples_moved += 2;
            i += 1;
            j -= 1;
        }
        i
    }

    /// Check internal invariants (index tiling/ordering over the head).
    pub fn validate(&self) -> Result<(), String> {
        self.index.validate(&self.head)?;
        if self.tail.len() != self.head.len() || self.oids.len() != self.head.len() {
            return Err("map arrays misaligned".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Oracle: (tail values of tuples whose head matches), as a sorted
    /// multiset.
    fn oracle(head: &[i64], tail: &[i64], pred: &RangePred<i64>) -> Vec<i64> {
        let mut v: Vec<i64> = head
            .iter()
            .zip(tail)
            .filter(|(&h, _)| pred.matches(h))
            .map(|(_, &t)| t)
            .collect();
        v.sort_unstable();
        v
    }

    fn sample(n: usize) -> (Vec<i64>, Vec<i64>) {
        // head: reversed values; tail: head * 10 + 1 so pairs are checkable.
        let head: Vec<i64> = (0..n as i64).rev().collect();
        let tail: Vec<i64> = head.iter().map(|h| h * 10 + 1).collect();
        (head, tail)
    }

    #[test]
    fn projection_is_contiguous_and_correct() {
        let (head, tail) = sample(1_000);
        let mut m = CrackerMap::new(head.clone(), tail.clone());
        let pred = RangePred::between(100, 199);
        let r = m.select(pred);
        assert_eq!(r.len(), 100);
        let mut got: Vec<i64> = m.project(r).to_vec();
        got.sort_unstable();
        assert_eq!(got, oracle(&head, &tail, &pred));
        m.validate().unwrap();
    }

    #[test]
    fn tail_and_oids_travel_with_the_head() {
        let (head, tail) = sample(500);
        let mut m = CrackerMap::new(head.clone(), tail.clone());
        for (lo, hi) in [(10, 50), (200, 450), (0, 499), (30, 31)] {
            m.select(RangePred::between(lo, hi));
        }
        // Invariant: at every slot, tail == head*10+1 and oid recovers the
        // original pair.
        for i in 0..m.len() {
            let h = m.head[i];
            assert_eq!(m.project(i..i + 1)[0], h * 10 + 1);
            let oid = m.oids[i] as usize;
            assert_eq!(head[oid], h);
        }
    }

    #[test]
    fn repeat_selections_reuse_boundaries() {
        let (head, tail) = sample(2_000);
        let mut m = CrackerMap::new(head, tail);
        m.select(RangePred::between(500, 700));
        let touched = m.stats().tuples_touched;
        let r = m.select(RangePred::between(500, 700));
        assert_eq!(r.len(), 201);
        assert_eq!(m.stats().tuples_touched, touched, "repeat is index-only");
    }

    #[test]
    fn empty_ranges_columns_and_misalignment() {
        let (head, tail) = sample(100);
        let mut m = CrackerMap::new(head, tail);
        assert_eq!(m.select(RangePred::between(50, 10)), 0..0);
        let mut e = CrackerMap::new(Vec::<i64>::new(), Vec::new());
        assert_eq!(e.select(RangePred::lt(5)), 0..0);
        assert!(e.is_empty());
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_columns_panic() {
        CrackerMap::new(vec![1i64, 2], vec![1i64]);
    }

    proptest! {
        #[test]
        fn prop_map_selections_agree_with_oracle(
            pairs in proptest::collection::vec((-50i64..50, -50i64..50), 0..300),
            queries in proptest::collection::vec((-60i64..60, -60i64..60), 1..20),
        ) {
            let head: Vec<i64> = pairs.iter().map(|&(h, _)| h).collect();
            let tail: Vec<i64> = pairs.iter().map(|&(_, t)| t).collect();
            let mut m = CrackerMap::new(head.clone(), tail.clone());
            for (a, b) in queries {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let pred = RangePred::between(lo, hi);
                let r = m.select(pred);
                let mut got: Vec<i64> = m.project(r).to_vec();
                got.sort_unstable();
                prop_assert_eq!(got, oracle(&head, &tail, &pred));
                m.validate().map_err(TestCaseError::fail)?;
            }
        }

        #[test]
        fn prop_pairs_are_never_separated(
            pairs in proptest::collection::vec((-50i64..50, -50i64..50), 1..200),
            queries in proptest::collection::vec((-60i64..60, -60i64..60), 1..12),
        ) {
            let head: Vec<i64> = pairs.iter().map(|&(h, _)| h).collect();
            let tail: Vec<i64> = pairs.iter().map(|&(_, t)| t).collect();
            let mut m = CrackerMap::new(head, tail);
            for (a, b) in queries {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                m.select(RangePred::between(lo, hi));
            }
            // Every slot still holds an original (head, tail, oid) triple.
            for i in 0..m.len() {
                let oid = m.oids[i] as usize;
                prop_assert_eq!(m.head[i], pairs[oid].0);
                prop_assert_eq!(m.project(i..i + 1)[0], pairs[oid].1);
            }
        }
    }
}
