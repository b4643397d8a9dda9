//! Kernel equivalence suite: the SIMD kernels (`KernelPolicy::Auto` on an
//! AVX2 host) are pinned to the scalar kernels across every concurrency
//! mode a cracked column can run under (plain, one shard, sharded). On
//! a host without AVX2 `Auto` *is* the scalar kernel and the suite
//! compares it with itself.
//!
//! What is pinned at which strength:
//!
//! * **Everywhere**: split positions (piece boundaries), core ranges,
//!   sorted answer sets, whole-column `(oid, value)` multisets, and the
//!   arrangement-independent cost counters (`queries`, `cracks`,
//!   `tuples_touched`, `edge_scanned`, `merges`).
//! * **Per invocation**: two-way `moved` — both kernels report the
//!   canonical crossing-pair count (pinned here on virgin first cracks
//!   and exhaustively in `cracker_core::kernel`'s proptests).
//! * **Not across kernels**: three-way `moved`. It is trace-defined: the
//!   scalar sweep counts its swaps, and the SIMD three-way kernel is
//!   either that sweep or two SIMD two-way cracks (pinned here per
//!   invocation on the table below, and in the kernel proptests); so
//!   `tuples_moved` is compared only where no crack-in-three could have
//!   diverged.
//! * **Per sequence**: the arrangement *within* a piece is
//!   kernel-specific (pieces are unordered sets by construction), so
//!   from the second crack on, each kernel partitions a
//!   differently-arranged piece and the *cumulative* `tuples_moved` may
//!   legitimately drift. Everything cracking observes stays pinned.
//!
//! The table-driven test drives the places the two kernels part ways:
//! piece lengths around the vector size floor (128) and its 4-lane /
//! 32-tuple block structure, extreme keys, degenerate ranges, the
//! `u64` sign-flip seam, and three-way key pairs that take each route of
//! the vector crack-in-three (the sweep, two passes, an empty outer
//! region, a second pass under the size floor).

use cracker_core::crack::BoundaryKey;
use cracker_core::{
    simd_supported, ConcurrencyMode, ConcurrentColumn, CrackKernel, CrackValue, CrackerColumn,
    CrackerConfig, KernelPolicy, RangePred,
};
use proptest::prelude::*;

fn cfg(kernel: KernelPolicy) -> CrackerConfig {
    CrackerConfig::new().with_kernel(kernel)
}

/// The lower half of a double-sided, non-empty `pred`. Selecting it
/// first cracks the lower bound in two and leaves the upper bound in a
/// different piece, so the full range then cracks that bound in two as
/// well: both bounds go through `crack_two` instead of one crack-in-three.
fn lower_half<T: CrackValue>(pred: RangePred<T>) -> Option<RangePred<T>> {
    (pred.is_double_sided() && !pred.is_empty_range()).then_some(RangePred {
        low: pred.low,
        high: None,
    })
}

/// Both policies, the scalar reference first.
const POLICIES: [KernelPolicy; 2] = [KernelPolicy::Scalar, KernelPolicy::Auto];

#[test]
fn kernel_policy_flows_through_every_construction_path() {
    let vals: Vec<i64> = (0..100).rev().collect();
    let col = CrackerColumn::with_config(vals.clone(), cfg(KernelPolicy::Scalar));
    assert_eq!(col.kernel(), CrackKernel::Scalar);
    // Auto is the vector kernel exactly where the CPU has AVX2 + popcnt,
    // and the scalar loops elsewhere.
    let expect = if simd_supported() {
        CrackKernel::Simd
    } else {
        CrackKernel::Scalar
    };
    let col = CrackerColumn::with_config(vals.clone(), cfg(KernelPolicy::Auto));
    assert_eq!(col.kernel(), expect);
    assert_eq!(CrackerColumn::new(vals.clone()).kernel(), expect);
    let col =
        CrackerColumn::from_pairs(vals.clone(), (0..100).collect(), cfg(KernelPolicy::Scalar));
    assert_eq!(col.kernel(), CrackKernel::Scalar);
    let col = CrackerColumn::from_pairs(vals, (0..100).collect(), cfg(KernelPolicy::Auto));
    assert_eq!(col.kernel(), expect);
}

/// One query sequence, both kernels, every concurrency mode:
/// all executions must agree with the oracle and with each other.
#[test]
fn all_three_concurrency_modes_agree_under_every_kernel() {
    let vals: Vec<i64> = (0..20_000).map(|i| (i * 31) % 20_000).collect();
    let queries: Vec<RangePred<i64>> = (0..40)
        .map(|q| {
            let lo = (q * 977) % 18_000;
            RangePred::between(lo, lo + 700 + (q % 7) * 113)
        })
        .collect();
    for kernel in POLICIES {
        let mut plain = CrackerColumn::with_config(vals.clone(), cfg(kernel));
        let single = ConcurrentColumn::build(vals.clone(), cfg(kernel), ConcurrencyMode::default());
        let sharded =
            ConcurrentColumn::build(vals.clone(), cfg(kernel), ConcurrencyMode { shards: 8 });
        for pred in &queries {
            let mut want: Vec<u32> = vals
                .iter()
                .enumerate()
                .filter(|(_, &v)| pred.matches(v))
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            let mut a = plain.select_oids(*pred);
            a.sort_unstable();
            let mut b = single.select_oids(*pred);
            b.sort_unstable();
            let mut c = sharded.select_oids(*pred);
            c.sort_unstable();
            assert_eq!(a, want, "plain/{kernel:?} disagrees with oracle");
            assert_eq!(b, want, "one-shard/{kernel:?} disagrees with oracle");
            assert_eq!(c, want, "sharded/{kernel:?} disagrees with oracle");
        }
        plain.validate().unwrap();
        single.validate().unwrap();
        sharded.validate().unwrap();
    }
}

/// The concurrent wrappers must produce kernel-independent physical cost
/// accounting too: same cracks, same tuples touched, for the same
/// single-threaded op sequence — under either kernel.
#[test]
fn stats_are_kernel_independent_in_every_mode() {
    let vals: Vec<i64> = (0..30_000).map(|i| (i * 7919) % 30_000).collect();
    for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 8 }] {
        let mut per_kernel = Vec::new();
        for kernel in POLICIES {
            let col = ConcurrentColumn::build(vals.clone(), cfg(kernel), mode);
            for q in 0..30i64 {
                let lo = (q * 887) % 27_000;
                col.count(RangePred::between(lo, lo + 1_500));
            }
            col.insert(100_000, 15_000);
            assert!(col.delete(100_000));
            assert!(col.delete(7));
            col.count(RangePred::between(0, 30_000));
            col.merge_pending();
            col.count(RangePred::between(5, 29_000));
            // `tuples_moved` is arrangement-dependent across a sequence
            // (see the module docs); the arrangement-independent counters
            // must match exactly.
            let s = col.stats();
            per_kernel.push((s.queries, s.cracks, s.tuples_touched, s.merges));
            col.validate().unwrap();
        }
        for k in &per_kernel[1..] {
            assert_eq!(
                &per_kernel[0], k,
                "{mode:?}: kernels must do identical physical work"
            );
        }
    }
}

/// The cracker-index boundaries as `(value, equal-side, split position)`
/// triples — the split-position fingerprint the kernels must share.
fn boundaries<T: CrackValue>(col: &CrackerColumn<T>) -> Vec<(T, bool, usize)> {
    col.index()
        .boundaries()
        .map(|(k, &pos)| (k.value, k.lte, pos))
        .collect()
}

/// Parallel `oids` / `vals` slices as a sorted `(oid, value)` multiset.
fn pairs<T: CrackValue>(oids: &[u32], vals: &[T]) -> Vec<(u32, T)> {
    let mut pairs: Vec<(u32, T)> = oids.iter().copied().zip(vals.iter().copied()).collect();
    pairs.sort_unstable();
    pairs
}

/// The whole column as a sorted `(oid, value)` multiset.
fn multiset<T: CrackValue>(col: &CrackerColumn<T>) -> Vec<(u32, T)> {
    pairs(col.oids(), col.values())
}

/// One sorted `(oid, value)` multiset per piece, in piece order.
fn piece_multisets<T: CrackValue>(col: &CrackerColumn<T>) -> Vec<Vec<(u32, T)>> {
    let mut cuts: Vec<usize> = boundaries(col).iter().map(|b| b.2).collect();
    cuts.push(col.len());
    let mut start = 0;
    cuts.iter()
        .map(|&end| {
            let piece = pairs(&col.oids()[start..end], &col.values()[start..end]);
            start = end;
            piece
        })
        .collect()
}

/// One row of the table below: a virgin column under both kernels. The
/// raw two-way partition around every `key` must give the same split,
/// the same `moved` and the same multiset on each side; then, with each
/// range's bounds cracked in three and split by [`lower_half`], the
/// `preds` run in sequence must leave the same splits,
/// per-piece multisets and answer sets — the oracle's answer sets.
fn scalar_and_auto_agree<T: CrackValue>(
    vals: &[T],
    keys: &[BoundaryKey<T>],
    preds: &[RangePred<T>],
) {
    let n = vals.len();
    for &key in keys {
        let mut sides = Vec::new();
        for kernel in POLICIES.map(KernelPolicy::resolve) {
            let mut v = vals.to_vec();
            let mut o: Vec<u32> = (0..n as u32).collect();
            let mut moved = 0u64;
            let p = kernel.crack_two(&mut v, &mut o, 0, n, key, &mut moved);
            assert!(v[..p].iter().all(|&x| key.before(x)), "n={n} {key:?}");
            assert!(v[p..].iter().all(|&x| !key.before(x)), "n={n} {key:?}");
            for (i, &oid) in o.iter().enumerate() {
                assert_eq!(v[i], vals[oid as usize], "n={n}: oids must travel");
            }
            sides.push((p, moved, pairs(&o[..p], &v[..p]), pairs(&o[p..], &v[p..])));
        }
        assert_eq!(
            sides[0], sides[1],
            "n={n} {key:?}: two-way contract diverged"
        );
    }
    // The raw three-way partition over every ordered key pair: the same
    // splits and per-region multisets, and `Auto`'s trace (arrangement,
    // OIDs, `moved`) is either the scalar sweep's or that of two `Auto`
    // two-way cracks, larger outer side first: `k2` over the piece and
    // then `k1` over its left part when more tuples lie after `k2` than
    // before `k1`, else `k1` over the piece and then `k2` over its right
    // part. A piece the vector path declines is the sweep; one with at
    // least half its tuples outside the middle region is never
    // middle-dominant, so it is the two passes; in between the guard
    // chooses.
    let fresh = || (vals.to_vec(), (0..n as u32).collect::<Vec<u32>>(), 0u64);
    let auto = KernelPolicy::Auto.resolve();
    for (i, &a) in keys.iter().enumerate() {
        for &b in &keys[i..] {
            let (k1, k2) = (a.min(b), a.max(b));
            let [sweep, got] = POLICIES.map(|policy| {
                let (mut v, mut o, mut moved) = fresh();
                let splits = policy
                    .resolve()
                    .crack_three(&mut v, &mut o, 0, n, k1, k2, &mut moved);
                (splits, v, o, moved)
            });
            let regions = |(s, v, o, _): &((usize, usize), Vec<T>, Vec<u32>, u64)| {
                let (p1, p2) = *s;
                (
                    *s,
                    pairs(&o[..p1], &v[..p1]),
                    pairs(&o[p1..p2], &v[p1..p2]),
                    pairs(&o[p2..], &v[p2..]),
                )
            };
            assert_eq!(
                regions(&sweep),
                regions(&got),
                "n={n} {k1:?} {k2:?}: three-way contract diverged"
            );
            let c1 = vals.iter().filter(|&&x| k1.before(x)).count();
            let c3 = vals.iter().filter(|&&x| !k2.before(x)).count();
            let (mut v, mut o, mut moved) = fresh();
            let (p1, p2) = if c3 > c1 {
                let p2 = auto.crack_two(&mut v, &mut o, 0, n, k2, &mut moved);
                (auto.crack_two(&mut v, &mut o, 0, p2, k1, &mut moved), p2)
            } else {
                let p1 = auto.crack_two(&mut v, &mut o, 0, n, k1, &mut moved);
                (p1, auto.crack_two(&mut v, &mut o, p1, n, k2, &mut moved))
            };
            let two_passes = ((p1, p2), v, o, moved);
            let outer = p1 + (n - p2);
            let (is_sweep, is_two) = (got == sweep, got == two_passes);
            let route_ok = if auto == CrackKernel::Scalar || n < 128 {
                is_sweep
            } else if 2 * outer >= n {
                is_two
            } else {
                is_sweep || is_two
            };
            assert!(
                route_ok,
                "n={n} {k1:?} {k2:?}: three-way trace is not the expected route \
                 (sweep: {is_sweep}, two passes: {is_two})"
            );
        }
    }
    for split in [true, false] {
        let [mut scalar, mut auto] =
            POLICIES.map(|k| CrackerColumn::with_config(vals.to_vec(), cfg(k)));
        for pred in preds {
            if let Some(half) = lower_half(*pred).filter(|_| split) {
                scalar.select(half);
                auto.select(half);
            }
            let mut want: Vec<u32> = (0..n as u32)
                .filter(|&o| pred.matches(vals[o as usize]))
                .collect();
            want.sort_unstable();
            let [got_s, got_a] = [&mut scalar, &mut auto].map(|col| {
                let mut got = col.select_oids(*pred);
                got.sort_unstable();
                got
            });
            assert_eq!(
                got_s, want,
                "n={n} split={split} {pred:?}: scalar vs oracle"
            );
            assert_eq!(got_a, want, "n={n} split={split} {pred:?}: auto vs oracle");
            assert_eq!(
                boundaries(&scalar),
                boundaries(&auto),
                "n={n} split={split} {pred:?}: splits diverged"
            );
            assert_eq!(
                piece_multisets(&scalar),
                piece_multisets(&auto),
                "n={n} split={split} {pred:?}: per-piece multisets diverged"
            );
        }
        scalar.validate().unwrap();
        auto.validate().unwrap();
    }
}

/// Where the kernels part ways, driven as a table: piece lengths around
/// the vector floor (128), its 4-lane chunks and 32-tuple blocks; the
/// extreme keys with both equal-side flags; an all-equal column; point,
/// empty and inverted ranges; and a `u64` column straddling 2^63, where
/// the vector compare runs behind a sign flip.
#[test]
fn scalar_and_auto_agree_on_boundary_cases() {
    for n in [0usize, 1, 3, 4, 5, 127, 128, 129, 131, 1_023, 1_024, 1_025] {
        let m = n.max(1) as i64;
        let vals: Vec<i64> = (0..n as i64).map(|i| (i * 7_919) % m - m / 2).collect();
        let keys = [
            BoundaryKey::lt(i64::MIN),
            BoundaryKey::le(i64::MIN),
            BoundaryKey::lt(i64::MAX),
            BoundaryKey::le(i64::MAX),
            BoundaryKey::lt(0),
            BoundaryKey::le(0),
            BoundaryKey::le(m / 4),
            // Paired with each other and the keys above: a middle-dominant
            // piece (the sweep route), a second pass under `SIMD_MIN`
            // with tuples on both of its sides, and — with `lt(MIN)` /
            // `le(MAX)` — an empty left (`c1 == 0`) or right (`c3 == 0`)
            // region.
            BoundaryKey::lt(-m / 2 + m / 20),
            BoundaryKey::lt(m / 2 - m / 10),
            BoundaryKey::le(m / 2 - m / 20),
        ];
        let preds = [
            RangePred::between(-m / 4, m / 4),
            RangePred::eq(m / 8),
            RangePred::half_open(m / 8, m / 8),
            RangePred::between(m / 3, -m / 3),
            RangePred::between(i64::MIN, i64::MAX),
            RangePred::with_bounds(Some((i64::MIN, false)), Some((i64::MAX, false))),
            RangePred::ge(m / 3),
            RangePred::lt(-m / 3),
        ];
        scalar_and_auto_agree(&vals, &keys, &preds);

        // Extreme values *in the column*, not only in the keys.
        let mut edged = vals.clone();
        for (i, v) in edged.iter_mut().enumerate() {
            match i % 5 {
                0 => *v = i64::MIN,
                1 => *v = i64::MAX,
                _ => {}
            }
        }
        scalar_and_auto_agree(&edged, &keys, &preds);

        // An all-equal column: every key puts everything on one side.
        let same = vec![7i64; n];
        let keys = [BoundaryKey::lt(7), BoundaryKey::le(7), BoundaryKey::lt(8)];
        let preds = [
            RangePred::eq(7),
            RangePred::between(8, 9),
            RangePred::half_open(7, 7),
            RangePred::between(9, 5),
            RangePred::le(7),
        ];
        scalar_and_auto_agree(&same, &keys, &preds);

        // `u64` straddling 2^63: an unsigned compare must not be fooled
        // by the `i64` lanes the vector kernel reinterprets it as.
        let seam = 1u64 << 63;
        let vals: Vec<u64> = (0..n as u64)
            .map(|i| {
                seam.wrapping_add((i * 7_919) % n.max(1) as u64)
                    .wrapping_sub(n as u64 / 2)
            })
            .collect();
        let keys = [
            BoundaryKey::lt(seam),
            BoundaryKey::le(seam),
            BoundaryKey::le(seam - 1),
            BoundaryKey::lt(0),
            BoundaryKey::le(0),
            BoundaryKey::lt(u64::MAX),
            BoundaryKey::le(u64::MAX),
            BoundaryKey::lt(seam - n as u64 / 2 + n as u64 / 20),
            BoundaryKey::lt(seam + n as u64 / 2 - n as u64 / 10),
            BoundaryKey::le(seam + n as u64 / 2 - n as u64 / 20),
        ];
        let q = n as u64 / 4;
        let preds = [
            RangePred::between(seam - q, seam + q),
            RangePred::eq(seam),
            RangePred::half_open(seam, seam),
            RangePred::between(seam + q, seam - q),
            RangePred::between(0, u64::MAX),
            RangePred::ge(seam),
            RangePred::lt(seam),
        ];
        scalar_and_auto_agree(&vals, &keys, &preds);
    }
}

proptest! {
    /// The central pin, on the plain column: after every query of an
    /// arbitrary sequence (bounds split or cracked in three, any cut-off),
    /// both kernels
    /// have produced identical split positions, identical
    /// core ranges and answer sets, an identical whole-column multiset,
    /// and identical touched/scanned/crack accounting.
    #[test]
    fn prop_plain_columns_share_splits_multisets_and_accounting(
        orig in proptest::collection::vec(-100i64..100, 0..300),
        queries in proptest::collection::vec(
            (-120i64..120, -120i64..120, proptest::bool::ANY, proptest::bool::ANY),
            1..20
        ),
        split in proptest::bool::ANY,
        cutoff in 1usize..48,
    ) {
        let base = CrackerConfig::new().with_min_piece_size(cutoff);
        let mut scalar = CrackerColumn::with_config(
            orig.clone(), base.with_kernel(KernelPolicy::Scalar));
        let mut others: Vec<CrackerColumn<i64>> = POLICIES[1..]
            .iter()
            .map(|&k| CrackerColumn::with_config(orig.clone(), base.with_kernel(k)))
            .collect();
        let mut first = true;
        for (a, b, inc_lo, inc_hi) in queries {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let pred = RangePred::with_bounds(Some((lo, inc_lo)), Some((hi, inc_hi)));
            if let Some(half) = lower_half(pred).filter(|_| split) {
                scalar.select(half);
                for col in &mut others {
                    col.select(half);
                }
            }
            let sel_s = scalar.select(pred);
            let mut oids_s = scalar.selection_oids(&sel_s);
            oids_s.sort_unstable();
            for (col, &policy) in others.iter_mut().zip(&POLICIES[1..]) {
                let sel_o = col.select(pred);
                // Identical split positions: the contiguous core and
                // every boundary the index administers.
                prop_assert_eq!(
                    sel_s.core.clone(), sel_o.core.clone(),
                    "{:?}: cores diverged", policy
                );
                prop_assert_eq!(
                    boundaries(&scalar), boundaries(col),
                    "{:?}: splits diverged", policy
                );
                prop_assert_eq!(scalar.piece_count(), col.piece_count());
                // Identical answer sets (edge positions may differ
                // inside a cut-off piece; the tuples they name may not).
                let mut oids_o = col.selection_oids(&sel_o);
                oids_o.sort_unstable();
                prop_assert_eq!(&oids_s, &oids_o, "{:?}: answer sets diverged", policy);
                prop_assert_eq!(sel_s.count(), sel_o.count());
                // Identical multiset: cracking permutes, never alters.
                prop_assert_eq!(
                    multiset(&scalar), multiset(col),
                    "{:?}: multisets diverged", policy
                );
                // Identical arrangement-independent accounting; `moved`
                // is additionally pinned on the virgin column when the
                // first query needed a single *two-way* crack — the one
                // case where both kernels partitioned the identical
                // input under the shared canonical two-way count (a
                // crack-in-three's `moved` is kernel-specific, and later
                // cracks see kernel-specific arrangements).
                let (ss, so) = (scalar.stats(), col.stats());
                if first && ss.cracks <= 1 && split {
                    prop_assert_eq!(
                        ss.tuples_moved, so.tuples_moved,
                        "{:?}: moved diverged on a virgin two-way crack", policy
                    );
                }
                prop_assert_eq!(ss.tuples_touched, so.tuples_touched);
                prop_assert_eq!(ss.edge_scanned, so.edge_scanned);
                prop_assert_eq!(ss.cracks, so.cracks);
            }
            first = false;
        }
        scalar.validate().map_err(TestCaseError::fail)?;
        for col in &others {
            col.validate().map_err(TestCaseError::fail)?;
        }
    }

    /// Same pin with updates interleaved: staged inserts/deletes, overlay
    /// filtering, and merges must all be kernel-independent.
    #[test]
    fn prop_update_heavy_sequences_stay_identical(
        orig in proptest::collection::vec(-60i64..60, 1..150),
        ops in proptest::collection::vec(
            (0u8..4, -70i64..70, -70i64..70, 0usize..300),
            1..30
        ),
        merge_threshold in 1usize..24,
    ) {
        let base = CrackerConfig::new().with_merge_threshold(merge_threshold);
        let mut scalar = CrackerColumn::with_config(
            orig.clone(), base.with_kernel(KernelPolicy::Scalar));
        let mut others: Vec<CrackerColumn<i64>> = POLICIES[1..]
            .iter()
            .map(|&k| CrackerColumn::with_config(orig.clone(), base.with_kernel(k)))
            .collect();
        let mut next_oid = orig.len() as u32;
        for (kind, a, b, pick) in ops {
            match kind {
                0 | 1 => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let pred = RangePred::between(lo, hi);
                    let mut got_s = scalar.select_oids(pred);
                    got_s.sort_unstable();
                    for col in others.iter_mut() {
                        let mut got_o = col.select_oids(pred);
                        got_o.sort_unstable();
                        prop_assert_eq!(&got_s, &got_o, "answer sets diverged");
                    }
                }
                2 => {
                    scalar.insert(next_oid, a);
                    for col in others.iter_mut() {
                        col.insert(next_oid, a);
                    }
                    next_oid += 1;
                }
                _ => {
                    let victim = (pick % next_oid as usize) as u32;
                    let want = scalar.delete(victim);
                    for col in others.iter_mut() {
                        prop_assert_eq!(want, col.delete(victim));
                    }
                }
            }
            for col in &others {
                prop_assert_eq!(scalar.pending_len(), col.pending_len());
            }
        }
        scalar.merge_pending();
        scalar.validate().map_err(TestCaseError::fail)?;
        for col in others.iter_mut() {
            col.merge_pending();
            prop_assert_eq!(scalar.len(), col.len());
            prop_assert_eq!(multiset(&scalar), multiset(col));
            prop_assert_eq!(boundaries(&scalar), boundaries(col));
            prop_assert_eq!(scalar.stats().merges, col.stats().merges);
            col.validate().map_err(TestCaseError::fail)?;
        }
    }

    /// One-shard and sharded columns replay the same op stream under
    /// both kernels; answers must match position-for-position (the
    /// wrappers are deterministic when driven single-threaded).
    #[test]
    fn prop_concurrent_modes_agree_across_kernels(
        orig in proptest::collection::vec(-200i64..200, 1..300),
        queries in proptest::collection::vec((-220i64..220, 0i64..80), 1..15),
        shards in 2usize..6,
    ) {
        for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards }] {
            let scalar = ConcurrentColumn::build(
                orig.clone(), cfg(KernelPolicy::Scalar), mode);
            let others: Vec<ConcurrentColumn<i64>> = POLICIES[1..]
                .iter()
                .map(|&k| ConcurrentColumn::build(orig.clone(), cfg(k), mode))
                .collect();
            for &(lo, width) in &queries {
                let pred = RangePred::between(lo, lo + width);
                let mut a = scalar.select_oids(pred);
                a.sort_unstable();
                let want_count = scalar.count(pred);
                for col in &others {
                    let mut b = col.select_oids(pred);
                    b.sort_unstable();
                    prop_assert_eq!(&a, &b, "mode {:?} diverged", mode);
                    prop_assert_eq!(want_count, col.count(pred));
                }
            }
            scalar.validate().map_err(TestCaseError::fail)?;
            for col in &others {
                prop_assert_eq!(scalar.stats().cracks, col.stats().cracks);
                col.validate().map_err(TestCaseError::fail)?;
            }
        }
    }
}

/// An `n`-element pseudo-random column (xorshift64) over `domain` values
/// around zero: a small domain makes long runs of duplicates. With
/// `extremes`, every seventh value is `i64::MIN` and every eleventh
/// `i64::MAX`.
fn pseudo_column(n: usize, seed: u64, domain: u64, extremes: bool) -> Vec<i64> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match i {
                _ if extremes && i % 7 == 3 => i64::MIN,
                _ if extremes && i % 11 == 5 => i64::MAX,
                _ => (x % domain) as i64 - (domain / 2) as i64,
            }
        })
        .collect()
}

/// The out-of-place pass under both kernels against `crack_two` over a
/// dense copy of `base`: the same split, the same `(oid, value)` multiset
/// on each side and the same `moved`, and every output slot holds
/// `(base[oid], oid)`.
fn from_base_agrees<T: CrackValue>(base: &[T], key: BoundaryKey<T>) -> Result<(), TestCaseError> {
    let n = base.len();
    let (mut v, mut o) = (base.to_vec(), (0..n as u32).collect::<Vec<u32>>());
    let mut moved = 0u64;
    let split = CrackKernel::Scalar.crack_two(&mut v, &mut o, 0, n, key, &mut moved);
    let want = (
        split,
        pairs(&o[..split], &v[..split]),
        pairs(&o[split..], &v[split..]),
        moved,
    );
    for kernel in [CrackKernel::Scalar, CrackKernel::Simd] {
        let mut moved = 0u64;
        let (v, o, split) = kernel.crack_two_from(base, key, &mut moved);
        prop_assert_eq!((v.len(), o.len()), (n, n), "{:?}: n={} lengths", kernel, n);
        for (&x, &oid) in v.iter().zip(&o) {
            prop_assert!(
                base[oid as usize] == x,
                "{:?}: n={} slot is not (base[oid], oid)",
                kernel,
                n
            );
        }
        let got = (
            split,
            pairs(&o[..split], &v[..split]),
            pairs(&o[split..], &v[split..]),
            moved,
        );
        prop_assert!(
            got == want,
            "{:?}: n={} {:?} diverged from crack_two",
            kernel,
            n,
            key
        );
    }
    Ok(())
}

/// Column lengths the out-of-place pass must cover: empty, tiny, under
/// the vector floor, not a multiple of the 4-lane chunk, and 2^17.
fn from_base_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1),
        Just(3),
        Just(100),
        Just(131),
        Just(1 << 17),
        0usize..1_200
    ]
}

proptest! {
    /// The from-base pass on `i64` columns: keys at a column value, below
    /// and above every value, and at `i64::MIN` / `i64::MAX`, over
    /// columns with and without duplicates and extreme values.
    #[test]
    fn prop_from_base_pass_matches_crack_two_on_a_dense_copy(
        n in from_base_len(),
        seed in 0u64..1_000_000,
        domain in prop_oneof![Just(4u64), Just(1_000), Just(u64::MAX / 2)],
        extremes in proptest::bool::ANY,
        (pick, frac, lte) in (0u8..5, 0.0f64..1.0, proptest::bool::ANY),
    ) {
        let base = pseudo_column(n, seed, domain, extremes);
        let at = |f: f64| base.get((f * n as f64) as usize).copied().unwrap_or(0);
        let (lo, hi) = (base.iter().min().copied(), base.iter().max().copied());
        let value = match pick {
            0 => at(frac),
            1 => lo.map_or(0, |v| v.saturating_sub(1)),
            2 => hi.map_or(0, |v| v.saturating_add(1)),
            3 => i64::MIN,
            _ => i64::MAX,
        };
        from_base_agrees(&base, BoundaryKey { value, lte })?;
    }

    /// The from-base pass on `u64` columns straddling 2^63, where the
    /// vector compare runs behind the sign flip.
    #[test]
    fn prop_from_base_pass_rides_the_u64_sign_flip(
        n in from_base_len(),
        seed in 0u64..1_000_000,
        (pick, frac, lte) in (0u8..4, 0.0f64..1.0, proptest::bool::ANY),
    ) {
        let seam = 1u64 << 63;
        let base: Vec<u64> = pseudo_column(n, seed, 1 << 20, false)
            .into_iter()
            .map(|v| seam.wrapping_add(v as u64))
            .collect();
        let value = match pick {
            0 => base.get((frac * n as f64) as usize).copied().unwrap_or(seam),
            1 => seam,
            2 => 0,
            _ => u64::MAX,
        };
        from_base_agrees(&base, BoundaryKey { value, lte })?;
    }

    /// A copy built from the base with its first predicate, under both
    /// kernels, at one shard and several: the first select answers like
    /// the oracle, and every later one like a column built from a plain
    /// copy, with a valid piece map throughout.
    #[test]
    fn prop_from_base_first_touch_answers_like_a_copy(
        orig in proptest::collection::vec(-200i64..200, 0..400),
        queries in proptest::collection::vec((-220i64..220, 0i64..120), 1..10),
        shards in 1usize..5,
    ) {
        let mode = ConcurrencyMode { shards };
        let copy = ConcurrentColumn::build(orig.clone(), cfg(KernelPolicy::Scalar), mode);
        let first = RangePred::between(queries[0].0, queries[0].0 + queries[0].1);
        for kernel in POLICIES {
            let col = ConcurrentColumn::from_base(&orig, cfg(kernel), mode, Some(first));
            for &(lo, width) in &queries {
                let pred = RangePred::between(lo, lo + width);
                let mut want: Vec<u32> = (0..orig.len() as u32)
                    .filter(|&o| pred.matches(orig[o as usize]))
                    .collect();
                let mut got = col.select_oids(pred);
                got.sort_unstable();
                prop_assert_eq!(&got, &want, "{:?} {:?} vs oracle", kernel, pred);
                want = copy.select_oids(pred);
                want.sort_unstable();
                prop_assert_eq!(&got, &want, "{:?} {:?} vs a copy", kernel, pred);
                col.validate().map_err(TestCaseError::fail)?;
            }
        }
    }
}

/// The vector kernels' size floor and partition block (`simd::SIMD_MIN`
/// and the block of `simd::partition_two_avx2`).
const SIMD_MIN: usize = 128;
const BLOCK: usize = 32;

/// The in-place two-way crack of `vals[lo..hi)` under both kernels: the
/// same split, the same `(oid, value)` multiset on each side and the same
/// `moved`, with every slot outside `lo..hi` untouched. A one-sided crack
/// (split at `lo` or `hi`) leaves both arrays byte-identical: it writes
/// nothing.
fn crack_two_agrees<T: CrackValue>(
    vals: &[T],
    lo: usize,
    hi: usize,
    key: BoundaryKey<T>,
) -> Result<(), TestCaseError> {
    let oids: Vec<u32> = (0..vals.len() as u32).collect();
    let mut results = Vec::new();
    for kernel in [CrackKernel::Scalar, CrackKernel::Simd] {
        let (mut v, mut o) = (vals.to_vec(), oids.clone());
        let mut moved = 0u64;
        let split = kernel.crack_two(&mut v, &mut o, lo, hi, key, &mut moved);
        prop_assert!(
            v[lo..split].iter().all(|&x| key.before(x))
                && v[split..hi].iter().all(|&x| !key.before(x)),
            "{:?}: {}..{} {:?} split {} is not a partition",
            kernel,
            lo,
            hi,
            key,
            split
        );
        prop_assert!(
            v[..lo] == vals[..lo]
                && v[hi..] == vals[hi..]
                && o[..lo] == oids[..lo]
                && o[hi..] == oids[hi..],
            "{:?}: wrote outside the piece",
            kernel
        );
        if split == lo || split == hi {
            prop_assert!(
                v == vals && o == oids,
                "{:?}: one-sided crack {}..{} {:?} wrote",
                kernel,
                lo,
                hi,
                key
            );
        }
        results.push((
            split,
            pairs(&o[lo..split], &v[lo..split]),
            pairs(&o[split..hi], &v[split..hi]),
            moved,
        ));
    }
    prop_assert!(
        results[0] == results[1],
        "{}..{} {:?}: split, sides or moved diverged",
        lo,
        hi,
        key
    );
    Ok(())
}

/// In-place piece lengths around the vector partition's structure:
/// exactly the size floor, the floor plus two blocks and one tuple, and
/// a whole number of blocks plus every tail of 0–31 tuples.
fn piece_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(SIMD_MIN),
        Just(SIMD_MIN + 2 * BLOCK + 1),
        (SIMD_MIN / BLOCK..40, 0..BLOCK).prop_map(|(blocks, tail)| blocks * BLOCK + tail),
    ]
}

proptest! {
    /// The count-free vector two-way pass on `i64` pieces placed anywhere
    /// in a column: keys at a piece value, below and above every value,
    /// and at `i64::MIN` / `i64::MAX`, over pieces with duplicates,
    /// extreme values, and all values equal (`domain` 1).
    #[test]
    fn prop_in_place_pass_matches_scalar_on_split_sides_and_moved(
        len in piece_len(),
        (pad_lo, pad_hi) in (0usize..40, 0usize..40),
        seed in 0u64..1_000_000,
        domain in prop_oneof![Just(1u64), Just(4), Just(1_000), Just(u64::MAX / 2)],
        extremes in proptest::bool::ANY,
        (pick, frac, lte) in (0u8..5, 0.0f64..1.0, proptest::bool::ANY),
    ) {
        let vals = pseudo_column(pad_lo + len + pad_hi, seed, domain, extremes);
        let (lo, hi) = (pad_lo, pad_lo + len);
        let piece = &vals[lo..hi];
        let value = match pick {
            0 => piece[((frac * len as f64) as usize).min(len - 1)],
            1 => piece.iter().min().unwrap().saturating_sub(1),
            2 => piece.iter().max().unwrap().saturating_add(1),
            3 => i64::MIN,
            _ => i64::MAX,
        };
        crack_two_agrees(&vals, lo, hi, BoundaryKey { value, lte })?;
    }

    /// The same pass on `u64` pieces straddling 2^63, where the vector
    /// compare runs behind the sign flip.
    #[test]
    fn prop_in_place_pass_rides_the_u64_sign_flip(
        len in piece_len(),
        (pad_lo, pad_hi) in (0usize..40, 0usize..40),
        seed in 0u64..1_000_000,
        (pick, frac, lte) in (0u8..4, 0.0f64..1.0, proptest::bool::ANY),
    ) {
        let seam = 1u64 << 63;
        let vals: Vec<u64> = pseudo_column(pad_lo + len + pad_hi, seed, 1 << 20, false)
            .into_iter()
            .map(|v| seam.wrapping_add(v as u64))
            .collect();
        let (lo, hi) = (pad_lo, pad_lo + len);
        let value = match pick {
            0 => vals[lo + ((frac * len as f64) as usize).min(len - 1)],
            1 => seam,
            2 => 0,
            _ => u64::MAX,
        };
        crack_two_agrees(&vals, lo, hi, BoundaryKey { value, lte })?;
    }
}
