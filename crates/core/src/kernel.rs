//! Crack kernels: the scalar loops and their AVX2 siblings, one of which
//! a column is given when it is built.
//!
//! The cracker's per-query cost is dominated by three inner loops: the
//! two-way / three-way partition sweeps of [`crate::crack`] (the paper's
//! crack-in-two / crack-in-three, §3.1), the residual scans over cut-off
//! border pieces, and the pending-delete overlay probe. Each has two
//! implementations:
//!
//! * [`CrackKernel::Scalar`] — the straight-line safe-Rust loops of
//!   [`crate::crack`]: one data-dependent branch per tuple. The reference
//!   every equivalence test and the ablation bench compare against.
//! * [`CrackKernel::Simd`] — explicit vector lanes (the `simd` module):
//!   AVX2 `vpcmpgtq` compares and LUT-driven compress permutes process 4
//!   tuples per iteration. A `simd` entry point *declines* a call it has
//!   no vector form for — a piece under `simd::SIMD_MIN` tuples, a value
//!   type without a 64-bit compare (`i32` / `u32` / `OrdF64`), a delete
//!   set with members outside its dense bitmap — and the call runs the
//!   scalar loop instead, so short pieces keep the loop whose branches
//!   recover fast on cache-resident data.
//!
//! # The shared contract
//!
//! Both kernels produce the same split positions, the same value/OID
//! multiset per piece, the same residual-scan position lists and the same
//! overlay counts; the arrangement *within* a piece is kernel-specific,
//! which cracking never observes (pieces are unordered sets). Two-way
//! `moved` is identical bit for bit: the canonical crossing-pair count, 2
//! per pair, i.e. the number of tuples that were not already inside their
//! destination piece. Three-way `moved` is trace-defined for both kernels,
//! and so differs between them: the scalar Dutch-flag sweep counts 2 per
//! *swap* (middle-class tuples may shuffle along repeatedly). The vector
//! kernel is one of two traces. On a middle-dominant piece, or one it
//! declines, it is the scalar sweep, swap count and all. Otherwise it is
//! two vector two-way cracks, larger outer side first: `k2` over the
//! piece and then `k1` over its left part when more sampled tuples lie
//! after `k2` than before `k1`, else `k1` over the piece and then `k2`
//! over its right part. `moved` is the sum of their crossing-pair counts.
//! The route and the order come from one sample of the piece
//! (`crack::side_sample`, exact under `2 × crack::SIDE_SAMPLE` tuples).
//! Both routes are pinned bit for bit in this module's proptests. The
//! out-of-place two-way pass ([`CrackKernel::crack_two_from`]) that gives
//! a cracked copy its first crack straight from the base column keeps the
//! two-way contract against `crack_two` over a dense copy; its `moved` is
//! the same canonical count.
//!
//! # The selection rule
//!
//! [`KernelPolicy`] is the [`crate::config::CrackerConfig`] knob, resolved
//! to a [`CrackKernel`] once, when a column is built:
//! [`KernelPolicy::Auto`] (the default) reads the CPU — AVX2 and popcnt
//! detected ([`simd_supported`]) gives `Simd`, anything else `Scalar` —
//! and [`KernelPolicy::Scalar`] forces the reference loops. Nothing is
//! timed and no environment variable is read: the same binary on the same
//! CPU always runs the same kernel. Because the latched column
//! ([`crate::sharded`]) and the engine build their
//! columns through `CrackerConfig`, the choice flows to every crack path
//! without further plumbing.
//!
//! # No skew guard
//!
//! A compress partition's cost is data-independent — every chunk loads,
//! compares, permutes and stores whatever the mask says — so a lopsided
//! split cannot make the vector two-way partition slower than a balanced
//! one, and no balance probe decides between the kernels. The one
//! data-dependent route left lives in `simd::crack_three` and is judged
//! on a sample of the piece (`crack::side_sample`), not on exact
//! counts: no counting pass reads the piece before it is cracked. When ≥
//! 9/10 of the sample stays in the middle region (every crack of a
//! contracting sequence) the crack is the scalar sweep, which never moves
//! a middle-class tuple, rather than two vector passes that each rewrite
//! their whole range (`simd::SWEEP_SHARE` holds the measurement). Which
//! route runs never changes a split or a multiset, only the arrangement
//! within a piece and the trace-defined three-way `moved`.

use crate::crack::{self, BoundaryKey};
use crate::pred::RangePred;
use crate::simd;
use crate::updates::OidSet;
use crate::value_trait::CrackValue;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// How a column chooses its crack kernel (the `CrackerConfig` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelPolicy {
    /// The vector kernels where the CPU has them ([`simd_supported`]),
    /// the scalar loops elsewhere.
    Auto,
    /// Force the scalar (branchy) kernels.
    Scalar,
}

// Not derived: the serde shim's derive macro hand-parses enum bodies and
// must not see a `#[default]` variant attribute.
#[allow(clippy::derivable_impls)]
impl Default for KernelPolicy {
    fn default() -> Self {
        KernelPolicy::Auto
    }
}

impl KernelPolicy {
    /// Resolve the policy to a concrete kernel (see the module docs for
    /// the rule).
    pub fn resolve(self) -> CrackKernel {
        match self {
            KernelPolicy::Scalar => CrackKernel::Scalar,
            KernelPolicy::Auto if simd_supported() => CrackKernel::Simd,
            KernelPolicy::Auto => CrackKernel::Scalar,
        }
    }
}

/// True when the running CPU has the vector kernels' features (AVX2 and
/// popcnt): the condition under which [`KernelPolicy::Auto`] resolves to
/// [`CrackKernel::Simd`].
pub fn simd_supported() -> bool {
    simd::available()
}

/// A concrete kernel implementation, resolved from a [`KernelPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrackKernel {
    /// The straight-line safe-Rust loops of [`crate::crack`]: one
    /// data-dependent branch per tuple.
    Scalar,
    /// Explicit vector lanes (the `simd` module): AVX2 compare +
    /// compress-permute partitions, vector residual scans, gathered
    /// overlay probes; a call the vector path declines runs the scalar
    /// loop.
    Simd,
}

impl CrackKernel {
    /// Two-way in-place partition of `vals[lo..hi]` (and the parallel
    /// `oids[lo..hi]`) around `key`; returns the absolute split position.
    /// Both kernels produce the same split, the same per-piece multisets,
    /// and the same `moved` delta (2 per crossing pair — the number of
    /// tuples that were not already inside their destination piece, the
    /// paper's write accounting); the arrangement *within* each piece is
    /// kernel-specific, which cracking never observes.
    #[inline]
    pub fn crack_two<T: CrackValue>(
        self,
        vals: &mut [T],
        oids: &mut [u32],
        lo: usize,
        hi: usize,
        key: BoundaryKey<T>,
        moved: &mut u64,
    ) -> usize {
        if self == CrackKernel::Simd {
            if let Some(split) = simd::crack_two(vals, oids, lo, hi, key, moved) {
                return split;
            }
        }
        crack::crack_two(vals, oids, lo, hi, key, moved)
    }

    /// Three-way in-place partition of `vals[lo..hi]` around `k1 ≤ k2`;
    /// returns the absolute `(p1, p2)` split positions. Both kernels
    /// produce the same splits and per-piece multisets; `moved` is
    /// trace-defined: the scalar sweep's swap count, or for the vector
    /// kernel's two-pass route the two passes' crossing-pair counts (see
    /// the module docs).
    // Mirrors `crack::crack_three`'s signature plus the receiver.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn crack_three<T: CrackValue>(
        self,
        vals: &mut [T],
        oids: &mut [u32],
        lo: usize,
        hi: usize,
        k1: BoundaryKey<T>,
        k2: BoundaryKey<T>,
        moved: &mut u64,
    ) -> (usize, usize) {
        if self == CrackKernel::Simd {
            if let Some(splits) = simd::crack_three(vals, oids, lo, hi, k1, k2, moved) {
                return splits;
            }
        }
        crack::crack_three(vals, oids, lo, hi, k1, k2, moved)
    }

    /// Out-of-place two-way partition of a whole base column around `key`
    /// into fresh `storage::mem` arrays: returns `(values, oids, split)`,
    /// the OIDs being the dense base positions. The contract is
    /// [`crack_two`](Self::crack_two)'s over a dense copy of `base`: the
    /// same split, the same per-side multisets and the same `moved` delta.
    /// Both kernels leave the left side in base order, so the tuples that
    /// were already left of the split are a prefix of it and `moved` is
    /// one binary search.
    pub fn crack_two_from<T: CrackValue>(
        self,
        base: &[T],
        key: BoundaryKey<T>,
        moved: &mut u64,
    ) -> (Vec<T>, Vec<u32>, usize) {
        let vector = match self {
            CrackKernel::Simd => simd::crack_two_from(base, key),
            CrackKernel::Scalar => None,
        };
        let (vals, oids, split) = vector.unwrap_or_else(|| crack::crack_two_from(base, key));
        let stayed = oids[..split].partition_point(|&o| (o as usize) < split);
        *moved += 2 * (split - stayed) as u64;
        (vals, oids, split)
    }

    /// Append the absolute positions in `range` whose value matches `pred`
    /// — the residual scan over a cut-off border piece.
    #[inline]
    pub fn scan_into<T: CrackValue>(
        self,
        vals: &[T],
        range: Range<usize>,
        pred: &RangePred<T>,
        out: &mut Vec<usize>,
    ) {
        if self == CrackKernel::Simd && simd::scan_into(vals, range.clone(), pred, out) {
            return;
        }
        out.extend(range.filter(|&p| pred.matches(vals[p])));
    }

    /// Count how many of `oids` are present in the pending-delete set —
    /// the overlay discount applied to a selection's core range.
    #[inline]
    pub fn count_deleted(self, oids: &[u32], deleted: &OidSet) -> usize {
        if self == CrackKernel::Simd {
            if let Some(count) = simd::count_deleted(oids, deleted) {
                return count;
            }
        }
        oids.iter().filter(|&&o| deleted.contains(o)).count()
    }

    /// Invoke `emit` with the relative index of every OID in `oids` that
    /// is *not* pending deletion — the overlay filter behind
    /// `selection_oids` / `copy_selection_into`. One loop for both
    /// kernels: the per-hit `emit` callback dominates it, not the bitmap
    /// probe.
    #[inline]
    pub fn for_each_live(self, oids: &[u32], deleted: &OidSet, mut emit: impl FnMut(usize)) {
        for (i, &o) in oids.iter().enumerate() {
            if !deleted.contains(o) {
                emit(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KERNELS: [CrackKernel; 2] = [CrackKernel::Scalar, CrackKernel::Simd];

    /// An `n`-element pseudo-random buffer (xorshift64: deterministic,
    /// dependency-free), uniform in [0, 2^48).
    fn pseudo_random(n: usize, seed: u64) -> Vec<i64> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 16) as i64
            })
            .collect()
    }

    fn keys(a: i64, lte1: bool, b: i64, lte2: bool) -> (BoundaryKey<i64>, BoundaryKey<i64>) {
        let mut k1 = BoundaryKey {
            value: a,
            lte: lte1,
        };
        let mut k2 = BoundaryKey {
            value: b,
            lte: lte2,
        };
        if k1 > k2 {
            std::mem::swap(&mut k1, &mut k2);
        }
        (k1, k2)
    }

    #[test]
    fn policies_resolve() {
        assert_eq!(KernelPolicy::Scalar.resolve(), CrackKernel::Scalar);
        // The whole rule: Auto is the vector kernel exactly where the CPU
        // has AVX2 + popcnt, and the scalar loops everywhere else.
        let expect = if simd_supported() {
            CrackKernel::Simd
        } else {
            CrackKernel::Scalar
        };
        assert_eq!(KernelPolicy::Auto.resolve(), expect);
        assert_eq!(KernelPolicy::default(), KernelPolicy::Auto);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            simd_supported(),
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!simd_supported());
        // The choice is a fact of the CPU: nothing in this file may
        // consult the process environment. (The needle is assembled so
        // the test does not find itself.)
        let needle = ["std", "::", "env"].concat();
        assert!(!include_str!("kernel.rs").contains(&needle));
    }

    #[test]
    fn short_piece_crack_two_known_case() {
        // Under `SIMD_MIN` the vector entry point declines and the call
        // runs the scalar loop: same arrangement, same `moved`.
        let orig = [5i64, 1, 9, 3, 7];
        let mut results = Vec::new();
        for k in KERNELS {
            let mut vals = orig.to_vec();
            let mut oids: Vec<u32> = (0..5).collect();
            let mut moved = 0;
            let p = k.crack_two(&mut vals, &mut oids, 0, 5, BoundaryKey::lt(5), &mut moved);
            assert_eq!(p, 2);
            assert!(vals[..p].iter().all(|&v| v < 5));
            assert!(vals[p..].iter().all(|&v| v >= 5));
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(v, orig[oids[i] as usize]);
            }
            results.push((vals, oids, moved));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn short_piece_crack_three_known_case() {
        let orig = [9i64, 3, 1, 7, 5, 2, 8];
        let mut results = Vec::new();
        for k in KERNELS {
            let mut vals = orig.to_vec();
            let mut oids: Vec<u32> = (0..7).collect();
            let mut moved = 0;
            let (p1, p2) = k.crack_three(
                &mut vals,
                &mut oids,
                0,
                7,
                BoundaryKey::lt(3),
                BoundaryKey::le(7),
                &mut moved,
            );
            assert_eq!((p1, p2), (2, 5));
            assert!(vals[..p1].iter().all(|&v| v < 3));
            assert!(vals[p1..p2].iter().all(|&v| (3..=7).contains(&v)));
            assert!(vals[p2..].iter().all(|&v| v > 7));
            results.push((vals, oids, moved));
        }
        // A declined three-way crack is the scalar sweep, swap count and
        // all.
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn vector_paths_engage_on_large_balanced_pieces() {
        // Well above `SIMD_MIN` and dead balanced, so the vector loops run
        // where the CPU has them; the contract must hold against the
        // scalar kernel (crack_two `moved` is canonical for both).
        let n = 4 * simd::SIMD_MIN;
        let vals: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % n as i64).collect();
        let key = BoundaryKey::lt(n as i64 / 2);
        let mut results = Vec::new();
        for k in KERNELS {
            let mut v = vals.clone();
            let mut o: Vec<u32> = (0..n as u32).collect();
            let mut moved = 0u64;
            let p = k.crack_two(&mut v, &mut o, 0, n, key, &mut moved);
            assert!(v[..p].iter().all(|&x| key.before(x)));
            assert!(v[p..].iter().all(|&x| !key.before(x)));
            for (i, &oid) in o.iter().enumerate() {
                assert_eq!(v[i], vals[oid as usize], "oids must travel");
            }
            results.push((p, moved));
        }
        assert_eq!(results[0], results[1], "split/moved contract diverged");
        if simd_supported() {
            let (mut v, mut o) = (vals.clone(), (0..n as u32).collect::<Vec<_>>());
            assert!(simd::crack_two(&mut v, &mut o, 0, n, key, &mut 0).is_some());
        }
    }

    #[test]
    fn skew_guard_falls_back_without_breaking_the_contract() {
        // A 99%-skewed two-way split: no guard exists (the compress
        // partition's cost is data-independent), and the answer must be
        // indistinguishable from the scalar loop's.
        let n = 8 * simd::SIMD_MIN;
        let vals: Vec<i64> = (0..n as i64).map(|i| (i * 31) % n as i64).collect();
        let key = BoundaryKey::lt(n as i64 / 100);
        let mut results = Vec::new();
        for k in KERNELS {
            let mut v = vals.clone();
            let mut o: Vec<u32> = (0..n as u32).collect();
            let mut moved = 0u64;
            let p = k.crack_two(&mut v, &mut o, 0, n, key, &mut moved);
            assert!(v[..p].iter().all(|&x| key.before(x)));
            results.push((p, moved));
        }
        assert_eq!(results[0], results[1]);

        // The one guard left: a middle-dominant three-way crack (≥ 9/10
        // of the piece stays put) is the scalar sweep — same arrangement,
        // same swap-count `moved` as the scalar kernel.
        let (k1, k2) = (
            BoundaryKey::lt(n as i64 / 100),
            BoundaryKey::le(n as i64 - n as i64 / 100),
        );
        let mut traces = Vec::new();
        for k in KERNELS {
            let mut v = vals.clone();
            let mut o: Vec<u32> = (0..n as u32).collect();
            let mut moved = 0u64;
            let splits = k.crack_three(&mut v, &mut o, 0, n, k1, k2, &mut moved);
            traces.push((splits, v, o, moved));
        }
        assert_eq!(traces[0], traces[1]);
    }

    #[test]
    fn simd_scan_matches_scalar_on_chunk_boundaries() {
        // Lengths straddling the size floor and the 4-lane chunk width
        // above it (every tail length 0..=3), plus the trivial ones.
        let m = simd::SIMD_MIN;
        for n in [0usize, 1, m - 1, m, m + 1, m + 2, m + 3, m + 4, 2 * m + 1] {
            let vals: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 100).collect();
            let pred = RangePred::between(20, 60);
            let mut scalar = Vec::new();
            CrackKernel::Scalar.scan_into(&vals, 0..n, &pred, &mut scalar);
            let mut got = Vec::new();
            CrackKernel::Simd.scan_into(&vals, 0..n, &pred, &mut got);
            assert_eq!(scalar, got, "n = {n}");
        }
    }

    #[test]
    fn overlay_kernels_agree() {
        let mut set = OidSet::new();
        for oid in [3u32, 64, 65, 200] {
            set.insert(oid);
        }
        let oids: Vec<u32> = (0..300).collect();
        for k in KERNELS {
            assert_eq!(k.count_deleted(&oids, &set), 4);
            let mut live = Vec::new();
            k.for_each_live(&oids, &set, |i| live.push(i));
            assert_eq!(live.len(), 296);
            assert!(!live.contains(&3));
            assert!(!live.contains(&200));
        }
    }

    /// The canonical destination-displacement count for a three-way
    /// partition of `vals[lo..hi)`: tuples whose original position lies
    /// outside the region their class ends up in. With `k1 == k2` and
    /// `p1 == p2` it is the two-way count.
    fn displaced_oracle(
        vals: &[i64],
        lo: usize,
        hi: usize,
        k1: BoundaryKey<i64>,
        k2: BoundaryKey<i64>,
        p1: usize,
        p2: usize,
    ) -> u64 {
        let mut displaced = 0u64;
        for (pos, &v) in vals.iter().enumerate().take(hi).skip(lo) {
            let in_region = if k1.before(v) {
                pos < p1
            } else if !k2.before(v) {
                pos >= p2
            } else {
                (p1..p2).contains(&pos)
            };
            displaced += !in_region as u64;
        }
        displaced
    }

    proptest! {
        /// The core pin for the two-way partition: identical split
        /// position, identical per-piece multisets, identical `moved`
        /// accounting — and OIDs still travel with their values — under
        /// both kernels. (The arrangement *within* a piece is
        /// kernel-specific by design.)
        #[test]
        fn prop_crack_two_kernels_share_the_contract(
            vals in proptest::collection::vec(-50i64..50, 0..300),
            pivot in -60i64..60,
            lte in proptest::bool::ANY,
            lo_frac in 0.0f64..1.0,
            hi_frac in 0.0f64..1.0,
        ) {
            let n = vals.len();
            let (mut lo, mut hi) = (
                (lo_frac * n as f64) as usize,
                (hi_frac * n as f64) as usize,
            );
            if lo > hi { std::mem::swap(&mut lo, &mut hi); }
            let key = if lte { BoundaryKey::le(pivot) } else { BoundaryKey::lt(pivot) };
            let mut results = Vec::new();
            for k in KERNELS {
                let mut v = vals.clone();
                let mut o: Vec<u32> = (0..n as u32).collect();
                let mut moved = 0u64;
                let p = k.crack_two(&mut v, &mut o, lo, hi, key, &mut moved);
                prop_assert!(v[lo..p].iter().all(|&x| key.before(x)));
                prop_assert!(v[p..hi].iter().all(|&x| !key.before(x)));
                // OIDs travelled with their values, and untouched slots
                // outside lo..hi stayed put.
                for (i, &oid) in o.iter().enumerate() {
                    prop_assert_eq!(v[i], vals[oid as usize]);
                    if i < lo || i >= hi {
                        prop_assert_eq!(oid as usize, i);
                    }
                }
                let mut left: Vec<i64> = v[lo..p].to_vec();
                let mut right: Vec<i64> = v[p..hi].to_vec();
                left.sort_unstable();
                right.sort_unstable();
                results.push((p, moved, left, right));
            }
            prop_assert_eq!(&results[0], &results[1]);
        }

        /// Large pieces drive the vector two-way partition through its
        /// full structure (buffered registers, bidirectional reads,
        /// odd tails): split, moved, multisets, and OID travel must
        /// match the scalar kernel exactly.
        #[test]
        fn prop_simd_crack_two_matches_scalar_on_large_pieces(
            seed in 0u64..1000,
            n in 64usize..800,
            pivot_frac in 0.0f64..1.0,
            lte in proptest::bool::ANY,
        ) {
            let vals = pseudo_random(n, seed);
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            let pivot = sorted[((pivot_frac * (n - 1) as f64) as usize).min(n - 1)];
            let key = if lte { BoundaryKey::le(pivot) } else { BoundaryKey::lt(pivot) };
            let mut results = Vec::new();
            for k in [CrackKernel::Scalar, CrackKernel::Simd] {
                let mut v = vals.clone();
                let mut o: Vec<u32> = (0..n as u32).collect();
                let mut moved = 0u64;
                let p = k.crack_two(&mut v, &mut o, 0, n, key, &mut moved);
                prop_assert!(v[..p].iter().all(|&x| key.before(x)));
                prop_assert!(v[p..].iter().all(|&x| !key.before(x)));
                for (i, &oid) in o.iter().enumerate() {
                    prop_assert_eq!(v[i], vals[oid as usize]);
                }
                let mut left: Vec<i64> = v[..p].to_vec();
                left.sort_unstable();
                results.push((p, moved, left));
            }
            prop_assert_eq!(&results[0], &results[1]);
        }

        /// The three-way partition under both kernels: identical splits
        /// and per-region multisets; a piece under the vector floor is
        /// additionally bit-identical (arrangement and swap-count
        /// `moved`), because the declined call is the scalar sweep.
        #[test]
        fn prop_crack_three_kernels_share_observables(
            vals in proptest::collection::vec(-50i64..50, 0..300),
            a in -60i64..60,
            b in -60i64..60,
            lte1 in proptest::bool::ANY,
            lte2 in proptest::bool::ANY,
        ) {
            let n = vals.len();
            let (k1, k2) = keys(a, lte1, b, lte2);
            let mut traces = Vec::new();
            let mut observables = Vec::new();
            for k in KERNELS {
                let mut v = vals.clone();
                let mut o: Vec<u32> = (0..n as u32).collect();
                let mut moved = 0u64;
                let (p1, p2) = k.crack_three(&mut v, &mut o, 0, n, k1, k2, &mut moved);
                prop_assert!(p1 <= p2);
                prop_assert!(v[..p1].iter().all(|&x| k1.before(x)));
                prop_assert!(v[p1..p2].iter().all(|&x| !k1.before(x) && k2.before(x)));
                prop_assert!(v[p2..].iter().all(|&x| !k2.before(x)));
                for (i, &oid) in o.iter().enumerate() {
                    prop_assert_eq!(v[i], vals[oid as usize]);
                }
                let mut regions: Vec<Vec<i64>> =
                    vec![v[..p1].to_vec(), v[p1..p2].to_vec(), v[p2..].to_vec()];
                for r in &mut regions { r.sort_unstable(); }
                observables.push((p1, p2, regions));
                traces.push((v, o, moved));
            }
            prop_assert_eq!(&observables[0], &observables[1], "splits/multisets diverged");
            if n < simd::SIMD_MIN {
                prop_assert_eq!(&traces[0], &traces[1], "declined crack left the scalar trace");
            }
        }

        /// The vector three-way crack is, bit for bit, one of two traces:
        /// on a middle-dominant piece (or one the vector path declines)
        /// the scalar sweep, otherwise two `Simd.crack_two` passes, larger
        /// outer side first: `k2` over the piece then `k1` over its left
        /// part when more sampled tuples lie after `k2` than before `k1`,
        /// else `k1` over the piece then `k2` over its right part — same
        /// splits, arrangement, OIDs and `moved`. Route and order are
        /// derived from `crack::side_sample`, which the kernel reads too;
        /// `n` reaches past `2 × SIDE_SAMPLE`, where the sample reads runs.
        /// The sweep's swap count is at least the destination-displacement
        /// count; each vector pass's `moved` is exactly the two-way
        /// displacement of that pass's input. (The sum of the two can fall
        /// short of the three-way displacement: the first pass rearranges
        /// the rest before the second sees it.) `squeeze` pulls both keys
        /// toward the ends so the sweep route is drawn often; `edge` 1 / 2
        /// moves `k1` below / `k2` above every value, so the left / right
        /// region is empty; `n` straddles `SIMD_MIN` for both the piece and
        /// the second pass.
        #[test]
        fn prop_simd_crack_three_is_the_sweep_or_two_vector_cracks(
            seed in 0u64..1000,
            n in 64usize..6000,
            fa in 0.0f64..1.0,
            fb in 0.0f64..1.0,
            squeeze in proptest::bool::ANY,
            edge in 0u8..6,
            lte1 in proptest::bool::ANY,
            lte2 in proptest::bool::ANY,
        ) {
            let vals = pseudo_random(n, seed ^ 0xC0FFEE);
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            let (fa, fb) = if squeeze { (fa * 0.1, 1.0 - fb * 0.1) } else { (fa, fb) };
            let pick = |f: f64| sorted[((f * (n - 1) as f64) as usize).min(n - 1)];
            let (a, b) = match edge {
                1 => (i64::MIN, pick(fb)),
                2 => (pick(fa), i64::MAX),
                _ => (pick(fa), pick(fb)),
            };
            let (k1, k2) = keys(a, lte1, b, lte2);
            let (before, after, sampled) = crack::side_sample(&vals, k1, k2);
            let sweep = !simd_supported()
                || n < simd::SIMD_MIN
                || (before + after) * simd::SWEEP_SHARE <= sampled;

            let fresh = || (vals.clone(), (0..n as u32).collect::<Vec<u32>>(), 0u64);
            let (mut wv, mut wo, mut wm) = fresh();
            let want = if sweep {
                let splits =
                    CrackKernel::Scalar.crack_three(&mut wv, &mut wo, 0, n, k1, k2, &mut wm);
                prop_assert!(wm >= displaced_oracle(&vals, 0, n, k1, k2, splits.0, splits.1));
                splits
            } else if after > before {
                let p2 = CrackKernel::Simd.crack_two(&mut wv, &mut wo, 0, n, k2, &mut wm);
                prop_assert_eq!(wm, displaced_oracle(&vals, 0, n, k2, k2, p2, p2));
                let mid = wv.clone();
                let p1 = CrackKernel::Simd.crack_two(&mut wv, &mut wo, 0, p2, k1, &mut wm);
                prop_assert_eq!(
                    wm,
                    displaced_oracle(&vals, 0, n, k2, k2, p2, p2)
                        + displaced_oracle(&mid, 0, p2, k1, k1, p1, p1)
                );
                (p1, p2)
            } else {
                let p1 = CrackKernel::Simd.crack_two(&mut wv, &mut wo, 0, n, k1, &mut wm);
                prop_assert_eq!(wm, displaced_oracle(&vals, 0, n, k1, k1, p1, p1));
                let mid = wv.clone();
                let p2 = CrackKernel::Simd.crack_two(&mut wv, &mut wo, p1, n, k2, &mut wm);
                prop_assert_eq!(
                    wm,
                    displaced_oracle(&vals, 0, n, k1, k1, p1, p1)
                        + displaced_oracle(&mid, p1, n, k2, k2, p2, p2)
                );
                (p1, p2)
            };
            let (mut xv, mut xo, mut xm) = fresh();
            let got = CrackKernel::Simd.crack_three(&mut xv, &mut xo, 0, n, k1, k2, &mut xm);
            prop_assert_eq!(got, want, "split pair diverged (sweep route: {})", sweep);
            prop_assert_eq!(&xv, &wv, "arrangement diverged (sweep route: {})", sweep);
            prop_assert_eq!(&xo, &wo, "OIDs diverged (sweep route: {})", sweep);
            prop_assert_eq!(xm, wm, "moved diverged (sweep route: {})", sweep);
        }

        /// Scan kernels emit identical position lists for arbitrary
        /// predicates (one-sided, empty, inverted).
        #[test]
        fn prop_scan_kernels_agree(
            vals in proptest::collection::vec(-50i64..50, 0..200),
            lo in proptest::option::of((-60i64..60, proptest::bool::ANY)),
            hi in proptest::option::of((-60i64..60, proptest::bool::ANY)),
        ) {
            let pred = RangePred::with_bounds(lo, hi);
            let n = vals.len();
            let mut scalar = Vec::new();
            CrackKernel::Scalar.scan_into(&vals, 0..n, &pred, &mut scalar);
            let mut got = Vec::new();
            CrackKernel::Simd.scan_into(&vals, 0..n, &pred, &mut got);
            prop_assert_eq!(&scalar, &got);
        }

        /// The vector scan at sizes above its floor, where the 4-lane
        /// compare masks actually run.
        #[test]
        fn prop_simd_scan_matches_scalar_on_large_pieces(
            seed in 0u64..1000,
            n in 64usize..500,
            lo in proptest::option::of((0.0f64..1.0, proptest::bool::ANY)),
            hi in proptest::option::of((0.0f64..1.0, proptest::bool::ANY)),
        ) {
            let vals = pseudo_random(n, seed ^ 0x5CA7);
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            let pick = |f: f64| sorted[((f * (n - 1) as f64) as usize).min(n - 1)];
            let pred = RangePred::with_bounds(
                lo.map(|(f, inc)| (pick(f), inc)),
                hi.map(|(f, inc)| (pick(f), inc)),
            );
            let mut scalar = Vec::new();
            CrackKernel::Scalar.scan_into(&vals, 0..n, &pred, &mut scalar);
            let mut got = Vec::new();
            CrackKernel::Simd.scan_into(&vals, 0..n, &pred, &mut got);
            prop_assert_eq!(scalar, got);
        }

        /// Overlay kernels agree on arbitrary delete sets.
        #[test]
        fn prop_overlay_kernels_agree(
            oids in proptest::collection::vec(0u32..500, 0..300),
            dels in proptest::collection::vec(0u32..500, 0..100),
        ) {
            let mut set = OidSet::new();
            for d in dels { set.insert(d); }
            let scalar_count = CrackKernel::Scalar.count_deleted(&oids, &set);
            let mut scalar_live = Vec::new();
            CrackKernel::Scalar.for_each_live(&oids, &set, |i| scalar_live.push(i));
            prop_assert_eq!(scalar_live.len() + scalar_count, oids.len());
            prop_assert_eq!(CrackKernel::Simd.count_deleted(&oids, &set), scalar_count);
            let mut live = Vec::new();
            CrackKernel::Simd.for_each_live(&oids, &set, |i| live.push(i));
            prop_assert_eq!(&scalar_live, &live);
        }

        /// The gathered overlay probe at sizes above its floor, with
        /// OIDs far beyond the bitmap so the gather's bounds mask is
        /// exercised.
        #[test]
        fn prop_simd_count_deleted_matches_scalar_on_large_sets(
            n in 64usize..400,
            dels in proptest::collection::vec(0u32..2000, 0..400),
            stride in 1u32..17,
        ) {
            let mut set = OidSet::new();
            for d in dels { set.insert(d); }
            let oids: Vec<u32> = (0..n as u32).map(|i| i * stride).collect();
            prop_assert_eq!(
                CrackKernel::Simd.count_deleted(&oids, &set),
                CrackKernel::Scalar.count_deleted(&oids, &set)
            );
        }
    }
}
