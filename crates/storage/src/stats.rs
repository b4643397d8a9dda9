//! Per-BAT statistics.
//!
//! The cracker index of the paper "keeps track of the (min,max) bounds of
//! the (range) attributes, its size, and its location in the database"
//! (§3.2). The bounds and sortedness computed here are exactly that raw
//! material; `cracker-core` copies them into its piece descriptors, and the
//! engine's cost model uses the cardinalities.

use crate::bat::TailData;
use crate::value::Atom;

/// Summary statistics of one BAT tail.
#[derive(Debug, Clone, PartialEq)]
pub struct BatStats {
    /// Number of BUNs.
    pub count: usize,
    /// Smallest tail value (None for empty BATs).
    pub min: Option<Atom>,
    /// Largest tail value (None for empty BATs).
    pub max: Option<Atom>,
    /// True when tail values are non-decreasing in physical order.
    pub sorted: bool,
    /// Number of distinct tail values.
    pub distinct: usize,
}

impl BatStats {
    /// Compute statistics over a tail column in one pass (plus a hash set
    /// for the distinct count).
    pub fn compute(tail: &TailData) -> Self {
        let n = tail.len();
        if n == 0 {
            return BatStats {
                count: 0,
                min: None,
                max: None,
                sorted: true,
                distinct: 0,
            };
        }
        let mut min = tail.atom_at(0);
        let mut max = tail.atom_at(0);
        let mut sorted = true;
        let mut prev = tail.atom_at(0);
        let mut seen = std::collections::HashSet::with_capacity(n.min(1 << 16));
        seen.insert(prev.clone());
        for pos in 1..n {
            let a = tail.atom_at(pos);
            if a < min {
                min = a.clone();
            }
            if a > max {
                max = a.clone();
            }
            if a < prev {
                sorted = false;
            }
            seen.insert(a.clone());
            prev = a;
        }
        BatStats {
            count: n,
            min: Some(min),
            max: Some(max),
            sorted,
            distinct: seen.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tail_stats() {
        let s = BatStats::compute(&TailData::Int(vec![]));
        assert_eq!(s.count, 0);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert!(s.sorted, "empty column is vacuously sorted");
        assert_eq!(s.distinct, 0);
    }

    #[test]
    fn min_max_and_distinct() {
        let s = BatStats::compute(&TailData::Int(vec![4, -1, 4, 9]));
        assert_eq!(s.min, Some(Atom::Int(-1)));
        assert_eq!(s.max, Some(Atom::Int(9)));
        assert_eq!(s.count, 4);
        assert_eq!(s.distinct, 3);
        assert!(!s.sorted);
    }

    #[test]
    fn sortedness_detection() {
        assert!(BatStats::compute(&TailData::Int(vec![1, 2, 2, 3])).sorted);
        assert!(!BatStats::compute(&TailData::Int(vec![1, 3, 2])).sorted);
        assert!(BatStats::compute(&TailData::Int(vec![7])).sorted);
    }

    #[test]
    fn float_stats_use_total_order() {
        let s = BatStats::compute(&TailData::Float(vec![1.5, -2.0, 0.0]));
        assert_eq!(s.min, Some(Atom::Float(-2.0)));
        assert_eq!(s.max, Some(Atom::Float(1.5)));
    }

    #[test]
    fn string_stats() {
        let mut heap = crate::heap::StrHeap::new();
        let refs = ["b", "a", "c", "a"]
            .iter()
            .map(|s| heap.intern(s))
            .collect();
        let s = BatStats::compute(&TailData::Str { refs, heap });
        assert_eq!(s.min, Some(Atom::from("a")));
        assert_eq!(s.max, Some(Atom::from("c")));
        assert_eq!(s.distinct, 3);
    }
}
