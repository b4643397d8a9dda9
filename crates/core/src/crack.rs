//! In-place partitioning primitives — the physical act of cracking.
//!
//! §3.4.2: "The Ξ cracker algorithm takes a value-range and performs a
//! shuffle-exchange sort over all tuples to cluster them according to their
//! tail value. The shuffling takes place in the original storage area."
//!
//! These functions operate on a value array and a parallel OID array (the
//! head of the cracked BAT): every swap is mirrored so the surrogate keys
//! travel with their values. Both a two-way (Hoare-style) and a single-pass
//! three-way (Dutch-national-flag) partition are provided; the three-way
//! variant is what gives double-sided range predicates their single-pass
//! crack-in-three. One partition is not in place: `crack_two_from` builds
//! a cracked copy's arrays from the base column already cracked in two,
//! so a first touch pays no separate copy pass.

use crate::value_trait::CrackValue;
use storage::mem;

/// A crack boundary: a value plus the side on which equal values fall.
///
/// `lte == false` places equal values to the *right* ("before" the boundary
/// means `x < value`); `lte == true` places them to the *left* ("before"
/// means `x ≤ value`). The derived lexicographic order — `bool` orders
/// `false < true` — matches physical order: the `< v` split position never
/// exceeds the `≤ v` split position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BoundaryKey<T> {
    /// Boundary value.
    pub value: T,
    /// Whether values equal to `value` belong before the boundary.
    pub lte: bool,
}

impl<T: CrackValue> BoundaryKey<T> {
    /// Boundary placing equal values on the right (`before ⇔ x < value`).
    pub fn lt(value: T) -> Self {
        BoundaryKey { value, lte: false }
    }

    /// Boundary placing equal values on the left (`before ⇔ x ≤ value`).
    pub fn le(value: T) -> Self {
        BoundaryKey { value, lte: true }
    }

    /// Does `x` belong before this boundary?
    #[inline(always)]
    pub fn before(&self, x: T) -> bool {
        if self.lte {
            x <= self.value
        } else {
            x < self.value
        }
    }
}

/// Values [`side_sample`] reads: enough to tell which outer side of a
/// range is larger, or that a side looks empty, without reading a large
/// piece once more.
pub(crate) const SIDE_SAMPLE: usize = 1024;

/// Adjacent values per run of the sample: four cache lines of 64-bit
/// values. A sample of single values spread over a cold piece pays a
/// cache miss per value (28–72 µs for 1 024 of them over a 30 k–2 M
/// `i64` piece evicted from cache, 2-vCPU Xeon VM), about what a count of
/// a 30 k piece costs; runs pay one per line.
const SAMPLE_RUN: usize = 32;

/// A sample of `vals` against boundaries `k1 ≤ k2`: `(before, after,
/// sampled)`, the sampled values before `k1`, those not before `k2`, and
/// how many were read. A slice under `2 × SIDE_SAMPLE` values is read
/// whole, so its counts are exact; a longer one is read as `SIDE_SAMPLE /
/// SAMPLE_RUN` runs of adjacent values spread evenly over it. Always
/// inlined, and each run is a plain loop, so a caller compiled for wider
/// vectors reads the sample with vector compares.
#[inline(always)]
pub(crate) fn side_sample<T: CrackValue>(
    vals: &[T],
    k1: BoundaryKey<T>,
    k2: BoundaryKey<T>,
) -> (usize, usize, usize) {
    let (runs, run, gap) = sample_runs(vals.len());
    let (mut before, mut after) = (0, 0);
    for r in 0..runs {
        for &v in &vals[r * gap..r * gap + run] {
            before += usize::from(k1.before(v));
            after += usize::from(!k2.before(v));
        }
    }
    (before, after, runs * run)
}

/// Whether the values [`side_sample`] would read include one on each side
/// of `key`. The walk stops at the first such pair, so a balanced piece
/// costs a few reads; `true` proves the piece two-sided.
pub(crate) fn sample_finds_both_sides<T: CrackValue>(vals: &[T], key: BoundaryKey<T>) -> bool {
    let (runs, run, gap) = sample_runs(vals.len());
    let mut sides =
        (0..runs).flat_map(|r| vals[r * gap..r * gap + run].iter().map(|&v| key.before(v)));
    sides.next().is_some_and(|first| sides.any(|b| b != first))
}

/// The side sample's shape over `len` values: `(runs, run length, gap
/// between run starts)`.
fn sample_runs(len: usize) -> (usize, usize, usize) {
    if len < 2 * SIDE_SAMPLE {
        (1, len, 0)
    } else {
        let runs = SIDE_SAMPLE / SAMPLE_RUN;
        (runs, SAMPLE_RUN, len / runs)
    }
}

/// Swap positions `a` and `b` in both parallel arrays.
#[inline(always)]
fn swap_pair<T>(vals: &mut [T], oids: &mut [u32], a: usize, b: usize) {
    vals.swap(a, b);
    oids.swap(a, b);
}

/// Two-way in-place partition of `vals[lo..hi]` (and the parallel
/// `oids[lo..hi]`) around `key`: afterwards every element before the
/// returned split position satisfies `key.before(v)` and no element at or
/// after it does. Returns the absolute split position in `lo..=hi`.
///
/// `moved` is incremented by 2 per swap (two tuples relocated), matching
/// the paper's write accounting.
pub fn crack_two<T: CrackValue>(
    vals: &mut [T],
    oids: &mut [u32],
    lo: usize,
    hi: usize,
    key: BoundaryKey<T>,
    moved: &mut u64,
) -> usize {
    debug_assert!(lo <= hi && hi <= vals.len());
    let mut i = lo;
    let mut j = hi;
    loop {
        // Advance i over elements already on the correct (left) side.
        while i < j && key.before(vals[i]) {
            i += 1;
        }
        // Retreat j over elements already on the correct (right) side.
        while i < j && !key.before(vals[j - 1]) {
            j -= 1;
        }
        if i >= j {
            break;
        }
        swap_pair(vals, oids, i, j - 1);
        *moved += 2;
        i += 1;
        j -= 1;
    }
    i
}

/// Out-of-place two-way partition of a whole base column around `key`:
/// returns fresh `(values, oids, split)` arrays where the tuples before
/// `key` fill `..split` in base order and the rest fill `split..` in
/// reverse base order. The OIDs are the dense base positions. This is a
/// cracked copy born already cracked, with no copy pass before the crack.
///
/// Two reads of `base`, one per side, and one write of each output slot:
/// the scalar twin of the vector pass, which writes both sides in one
/// read.
pub fn crack_two_from<T: CrackValue>(base: &[T], key: BoundaryKey<T>) -> (Vec<T>, Vec<u32>, usize) {
    let n = base.len();
    assert!(
        u32::try_from(n).is_ok(),
        "{n} rows exceed the u32 OID space"
    );
    let mut vals = mem::column_vec(n);
    let mut oids = mem::column_vec(n);
    for (i, &v) in base.iter().enumerate() {
        if key.before(v) {
            vals.push(v);
            oids.push(i as u32);
        }
    }
    let split = vals.len();
    for (i, &v) in base.iter().enumerate().rev() {
        if !key.before(v) {
            vals.push(v);
            oids.push(i as u32);
        }
    }
    (vals, oids, split)
}

/// Single-pass three-way partition of `vals[lo..hi]` around two boundaries
/// `k1 ≤ k2`: afterwards the slice is laid out as
///
/// ```text
/// [ before k1 | between k1 and k2 | after k2 ]
///             p1                  p2
/// ```
///
/// Returns `(p1, p2)` (absolute). This is the Dutch-national-flag sweep
/// specialised to boundary predicates; equal-value placement follows each
/// key's `lte` flag, so inclusive/exclusive range ends come out exact.
pub fn crack_three<T: CrackValue>(
    vals: &mut [T],
    oids: &mut [u32],
    lo: usize,
    hi: usize,
    k1: BoundaryKey<T>,
    k2: BoundaryKey<T>,
    moved: &mut u64,
) -> (usize, usize) {
    debug_assert!(lo <= hi && hi <= vals.len());
    debug_assert!(k1 <= k2, "boundaries must be ordered");
    let mut lt = lo; // next slot for the "before k1" region
    let mut i = lo; // scan cursor
    let mut gt = hi; // one past the last unexamined slot from the right
    while i < gt {
        let v = vals[i];
        if k1.before(v) {
            if i != lt {
                swap_pair(vals, oids, i, lt);
                *moved += 2;
            }
            lt += 1;
            i += 1;
        } else if !k2.before(v) {
            gt -= 1;
            if i != gt {
                swap_pair(vals, oids, i, gt);
                *moved += 2;
            }
            // Do not advance i: the swapped-in element is unexamined.
        } else {
            i += 1;
        }
    }
    (lt, gt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn multiset(vals: &[i64], oids: &[u32]) -> Vec<(i64, u32)> {
        let mut pairs: Vec<_> = vals.iter().copied().zip(oids.iter().copied()).collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn crack_two_basic_lt() {
        let mut vals = vec![5, 1, 9, 3, 7];
        let mut oids: Vec<u32> = (0..5).collect();
        let mut moved = 0;
        let n = vals.len();
        let p = crack_two(&mut vals, &mut oids, 0, n, BoundaryKey::lt(5), &mut moved);
        assert_eq!(p, 2);
        assert!(vals[..p].iter().all(|&v| v < 5));
        assert!(vals[p..].iter().all(|&v| v >= 5));
        // OIDs travelled with their values.
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(v, [5i64, 1, 9, 3, 7][oids[i] as usize]);
        }
    }

    #[test]
    fn crack_two_le_places_equals_left() {
        let mut vals = vec![5, 5, 1, 9, 5];
        let mut oids: Vec<u32> = (0..5).collect();
        let mut moved = 0;
        let n = vals.len();
        let p = crack_two(&mut vals, &mut oids, 0, n, BoundaryKey::le(5), &mut moved);
        assert_eq!(p, 4);
        assert!(vals[..p].iter().all(|&v| v <= 5));
        assert!(vals[p..].iter().all(|&v| v > 5));
    }

    #[test]
    fn crack_two_on_subrange_leaves_rest_untouched() {
        let mut vals = vec![100, 4, 2, 3, 1, -100];
        let mut oids: Vec<u32> = (0..6).collect();
        let mut moved = 0;
        let p = crack_two(&mut vals, &mut oids, 1, 5, BoundaryKey::lt(3), &mut moved);
        assert_eq!(vals[0], 100);
        assert_eq!(vals[5], -100);
        assert!(vals[1..p].iter().all(|&v| v < 3));
        assert!(vals[p..5].iter().all(|&v| v >= 3));
    }

    #[test]
    fn crack_two_already_partitioned_moves_nothing() {
        let mut vals = vec![1, 2, 8, 9];
        let mut oids: Vec<u32> = (0..4).collect();
        let mut moved = 0;
        let p = crack_two(&mut vals, &mut oids, 0, 4, BoundaryKey::lt(5), &mut moved);
        assert_eq!(p, 2);
        assert_eq!(moved, 0);
    }

    #[test]
    fn crack_two_empty_and_singleton() {
        let mut vals: Vec<i64> = vec![];
        let mut oids: Vec<u32> = vec![];
        let mut moved = 0;
        assert_eq!(
            crack_two(&mut vals, &mut oids, 0, 0, BoundaryKey::lt(5), &mut moved),
            0
        );
        let mut vals = vec![7i64];
        let mut oids = vec![0u32];
        let p = crack_two(&mut vals, &mut oids, 0, 1, BoundaryKey::lt(5), &mut moved);
        assert_eq!(p, 0);
        let p = crack_two(&mut vals, &mut oids, 0, 1, BoundaryKey::lt(10), &mut moved);
        assert_eq!(p, 1);
    }

    #[test]
    fn crack_three_basic_inclusive_range() {
        // Range query 3 <= v <= 7: k1 = lt(3), k2 = le(7).
        let mut vals = vec![9, 3, 1, 7, 5, 2, 8];
        let mut oids: Vec<u32> = (0..7).collect();
        let mut moved = 0;
        let n = vals.len();
        let (p1, p2) = crack_three(
            &mut vals,
            &mut oids,
            0,
            n,
            BoundaryKey::lt(3),
            BoundaryKey::le(7),
            &mut moved,
        );
        assert!(vals[..p1].iter().all(|&v| v < 3));
        assert!(vals[p1..p2].iter().all(|&v| (3..=7).contains(&v)));
        assert!(vals[p2..].iter().all(|&v| v > 7));
        assert_eq!(p1, 2);
        assert_eq!(p2, 5);
    }

    #[test]
    fn crack_three_exclusive_ends() {
        // Range query 3 < v < 7: k1 = le(3), k2 = lt(7).
        let mut vals = vec![3, 7, 4, 6, 3, 7, 5];
        let mut oids: Vec<u32> = (0..7).collect();
        let mut moved = 0;
        let n = vals.len();
        let (p1, p2) = crack_three(
            &mut vals,
            &mut oids,
            0,
            n,
            BoundaryKey::le(3),
            BoundaryKey::lt(7),
            &mut moved,
        );
        assert!(vals[..p1].iter().all(|&v| v <= 3));
        assert!(vals[p1..p2].iter().all(|&v| v > 3 && v < 7));
        assert!(vals[p2..].iter().all(|&v| v >= 7));
    }

    #[test]
    fn crack_three_point_query_isolates_equals() {
        // v == 5: k1 = lt(5), k2 = le(5).
        let mut vals = vec![5, 2, 5, 8, 5, 1];
        let mut oids: Vec<u32> = (0..6).collect();
        let mut moved = 0;
        let n = vals.len();
        let (p1, p2) = crack_three(
            &mut vals,
            &mut oids,
            0,
            n,
            BoundaryKey::lt(5),
            BoundaryKey::le(5),
            &mut moved,
        );
        assert_eq!(&vals[p1..p2], &[5, 5, 5]);
    }

    #[test]
    fn crack_three_empty_middle() {
        let mut vals = vec![1, 9, 2, 8];
        let mut oids: Vec<u32> = (0..4).collect();
        let mut moved = 0;
        let (p1, p2) = crack_three(
            &mut vals,
            &mut oids,
            0,
            4,
            BoundaryKey::lt(5),
            BoundaryKey::le(5),
            &mut moved,
        );
        assert_eq!(p1, p2, "no value equals 5, middle region is empty");
    }

    #[test]
    fn boundary_key_ordering_matches_physical_order() {
        assert!(BoundaryKey::lt(5) < BoundaryKey::le(5));
        assert!(BoundaryKey::le(4) < BoundaryKey::lt(5));
    }

    proptest! {
        #[test]
        fn prop_crack_two_partitions_and_preserves_multiset(
            mut vals in proptest::collection::vec(-50i64..50, 0..200),
            pivot in -60i64..60,
            lte in proptest::bool::ANY,
        ) {
            let mut oids: Vec<u32> = (0..vals.len() as u32).collect();
            let before = multiset(&vals, &oids);
            let key = if lte { BoundaryKey::le(pivot) } else { BoundaryKey::lt(pivot) };
            let mut moved = 0;
            let n = vals.len();
            let p = crack_two(&mut vals, &mut oids, 0, n, key, &mut moved);
            prop_assert!(vals[..p].iter().all(|&v| key.before(v)));
            prop_assert!(vals[p..].iter().all(|&v| !key.before(v)));
            prop_assert_eq!(multiset(&vals, &oids), before);
        }

        #[test]
        fn prop_crack_three_partitions_and_preserves_multiset(
            mut vals in proptest::collection::vec(-50i64..50, 0..200),
            a in -60i64..60,
            b in -60i64..60,
            lte1 in proptest::bool::ANY,
            lte2 in proptest::bool::ANY,
        ) {
            let mut k1 = BoundaryKey { value: a, lte: lte1 };
            let mut k2 = BoundaryKey { value: b, lte: lte2 };
            if k1 > k2 { std::mem::swap(&mut k1, &mut k2); }
            let mut oids: Vec<u32> = (0..vals.len() as u32).collect();
            let before = multiset(&vals, &oids);
            let mut moved = 0;
            let n = vals.len();
            let (p1, p2) = crack_three(&mut vals, &mut oids, 0, n, k1, k2, &mut moved);
            prop_assert!(p1 <= p2);
            prop_assert!(vals[..p1].iter().all(|&v| k1.before(v)));
            prop_assert!(vals[p1..p2].iter().all(|&v| !k1.before(v) && k2.before(v)));
            prop_assert!(vals[p2..].iter().all(|&v| !k2.before(v)));
            prop_assert_eq!(multiset(&vals, &oids), before);
        }

        #[test]
        fn prop_crack_two_agrees_with_stable_filter_count(
            mut vals in proptest::collection::vec(-20i64..20, 0..100),
            pivot in -25i64..25,
        ) {
            let expected = vals.iter().filter(|&&v| v < pivot).count();
            let mut oids: Vec<u32> = (0..vals.len() as u32).collect();
            let mut moved = 0;
            let n = vals.len();
            let p = crack_two(&mut vals, &mut oids, 0, n, BoundaryKey::lt(pivot), &mut moved);
            prop_assert_eq!(p, expected);
        }

        #[test]
        fn prop_oids_always_travel_with_values(
            orig in proptest::collection::vec(-50i64..50, 1..150),
            pivot in -60i64..60,
        ) {
            let mut vals = orig.clone();
            let mut oids: Vec<u32> = (0..vals.len() as u32).collect();
            let mut moved = 0;
            let n = vals.len();
            crack_two(&mut vals, &mut oids, 0, n, BoundaryKey::lt(pivot), &mut moved);
            for (i, &oid) in oids.iter().enumerate() {
                prop_assert_eq!(vals[i], orig[oid as usize]);
            }
        }
    }
}
