//! Explicit SIMD crack kernels: AVX2 behind runtime CPU detection.
//!
//! This module is the vector half of the two-kernel family
//! ([`crate::kernel`]): where the scalar loops of [`crate::crack`] take
//! one data-dependent branch per tuple, these kernels process 4 tuples
//! per iteration with `core::arch::x86_64` intrinsics — `vpcmpgtq`
//! compares, sign-bit `movemask` extraction, and LUT-driven compress
//! permutes — inside `#[target_feature]` functions guarded by
//! `is_x86_feature_detected!`. Everything is stable Rust; on non-x86-64
//! hosts, on CPUs without AVX2 + popcnt, on value types without a 64-bit
//! vector compare (`i32`/`u32`/`OrdF64`), or below the [`SIMD_MIN`] size
//! floor, every entry point returns `None`/`false` and the caller runs
//! the scalar loop.
//!
//! # Kernels
//!
//! * **Two-way partition** (`crack_two`): a counting pass (vector
//!   compare + lane-popcount) fixes the split position up front, then a
//!   block-bidirectional in-place compress partition walks both ends
//!   inward: one block from each end is buffered to open write room,
//!   each iteration reads a 32-tuple block from whichever side has less
//!   free space (one amortized, rather than per-chunk, branch) and
//!   compress-stores each 4-tuple chunk's "before" lanes ascending from
//!   the left cursor and the rest descending from the right cursor.
//!   Compression is a 16-entry permutation LUT (`vpermd` for the 64-bit
//!   values, `pshufb` for the parallel 32-bit OIDs) indexed by the
//!   4-bit compare mask; the canonical crossing-pair `moved` count is
//!   folded into the same pass via source-position masks. Stores are
//!   full registers whose garbage lanes land only in free space (the
//!   per-side invariant `free ≥ block` is maintained by always reading
//!   from the tighter side, and a right-read block is processed
//!   high→low so its stores chase its loads); the two buffered blocks
//!   and the `len % 32` tail are placed scalarly at the end, when the
//!   remaining free space exactly fits them.
//! * **Three-way partition** (`crack_three`): a counting pass (two
//!   compares per chunk) fixes both split positions, then one pass
//!   compress-scatters each class into three thread-local scratch
//!   regions (each padded by one register so full-width stores stay in
//!   bounds) which are copied back contiguously. Middle-dominant pieces
//!   (≥ 7/8 of the tuples staying put, the shape every contracting
//!   query sequence produces) skip the scatter: the counting pass has
//!   already fixed the exact class populations, so the data movement is
//!   delegated to the scalar sweep — which never moves a middle-class
//!   tuple — while two small extra counts over the outer regions
//!   recover the displacement total. `moved` is always the canonical
//!   destination-displacement count — the number of tuples that were
//!   not already inside their destination piece, the same accounting
//!   the two-way kernels report. The scalar three-way sweep counts
//!   Dutch-flag *swaps* instead, which can exceed the displacement count
//!   (middle-class tuples shuffle along multiple times), so three-way
//!   `moved` is pinned per kernel, not across the two; see the `kernel`
//!   module docs.
//! * **Residual scan** (`scan_into`): 4-lane predicate masks
//!   (lower/upper bound compares folded into one nibble) with a
//!   fast path for all-matching chunks.
//! * **Overlay probe** (`count_deleted`): the pending-delete bitmap is
//!   probed 4 OIDs at a time with a masked `vpgatherqq` over the bitmap
//!   words plus per-lane variable shifts; out-of-range OIDs are masked
//!   off (matching `OidSet::contains`'s bounds behavior). The live-tuple
//!   walk (`for_each_live`) has no vector form: its cost is dominated by
//!   the per-hit `emit` callback, not the probe.
//!
//! `u64` columns ride the `i64` kernels through the order-preserving
//! sign-flip bijection (`x ^ i64::MIN`): loaded vectors are flipped only
//! for the compare, never in memory.

// The workspace forbids unsafe code; this module is the one kernel file
// where the rule is waived (`sync.rs` holds the only other waiver in the
// crate). Every unsafe block carries a SAFETY comment, the loops' cursor
// invariants are stated inline, and the kernel-equivalence proptests pin
// every kernel to the scalar reference across splits, multisets, answer
// sets, and `moved`.
#![allow(unsafe_code)]

use crate::crack::BoundaryKey;
use crate::pred::RangePred;
use crate::updates::OidSet;
use crate::value_trait::CrackValue;
use std::any::TypeId;
use std::ops::Range;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Pieces below this many tuples never take a vector kernel: the fixed
/// costs (block buffering, scalar flush) outweigh the lane win, and the
/// scalar loop's branches recover fast on a cache-resident piece. Must
/// stay ≥ two partition blocks plus a tail (see `crack_two_avx2`).
pub(crate) const SIMD_MIN: usize = 128;

/// True when the running CPU has the vector tier: AVX2 `vpcmpgtq` /
/// `vpermd` plus `popcnt`. (`is_x86_feature_detected!` caches its answer,
/// so this is a couple of relaxed loads per call.)
pub(crate) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Reinterpret a `CrackValue` slice as `i64` lanes when the type has a
/// 64-bit vector compare: `i64` directly, `u64` via the sign-flip
/// bijection. Returns the lane slice plus the XOR applied before every
/// compare (`0` or `i64::MIN`); other types get `None` and fall back.
fn lanes_mut<T: CrackValue>(vals: &mut [T]) -> Option<(&mut [i64], i64)> {
    let flip = lane_flip::<T>()?;
    // SAFETY: the TypeId check in `lane_flip` proves `T` is exactly
    // `i64` or `u64`; both have the size, alignment, and bit validity
    // of `i64`, so the slice reinterpretation is sound.
    Some((unsafe { &mut *(vals as *mut [T] as *mut [i64]) }, flip))
}

/// Shared-reference sibling of [`lanes_mut`].
fn lanes_ref<T: CrackValue>(vals: &[T]) -> Option<(&[i64], i64)> {
    let flip = lane_flip::<T>()?;
    // SAFETY: as in `lanes_mut`.
    Some((unsafe { &*(vals as *const [T] as *const [i64]) }, flip))
}

/// The compare-domain XOR for a supported lane type, or `None`.
fn lane_flip<T: CrackValue>() -> Option<i64> {
    if TypeId::of::<T>() == TypeId::of::<i64>() {
        Some(0)
    } else if TypeId::of::<T>() == TypeId::of::<u64>() {
        Some(i64::MIN)
    } else {
        None
    }
}

/// A boundary key's value as compare-domain `i64` bits plus its
/// equal-side flag. Only called once `lane_flip::<T>()` succeeded.
fn key_bits<T: CrackValue>(key: BoundaryKey<T>, flip: i64) -> (i64, bool) {
    debug_assert_eq!(std::mem::size_of::<T>(), 8);
    // SAFETY: `lane_flip` proved `T` is `i64` or `u64`; `transmute_copy`
    // of either to `i64` is a bit copy of the same width.
    let raw: i64 = unsafe { std::mem::transmute_copy(&key.value) };
    (raw ^ flip, key.lte)
}

/// Scalar compare-domain "belongs before the boundary" test, used for
/// tails and the buffered-register flush.
#[inline(always)]
fn before_scalar(x: i64, pivot: i64, flip: i64, lte: bool) -> bool {
    let x = x ^ flip;
    if lte {
        x <= pivot
    } else {
        x < pivot
    }
}

/// Vector two-way partition entry point: `Some(split)` when the vector
/// kernel handled the piece, `None` to fall back (unsupported CPU or
/// value type, or a piece under the size floor). The contract is the
/// scalar kernel's: same split, same per-piece multisets, `moved`
/// incremented by the canonical crossing-pair count.
pub(crate) fn crack_two<T: CrackValue>(
    vals: &mut [T],
    oids: &mut [u32],
    lo: usize,
    hi: usize,
    key: BoundaryKey<T>,
    moved: &mut u64,
) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        if !available() || hi - lo < SIMD_MIN {
            return None;
        }
        let (lanes, flip) = lanes_mut(vals)?;
        let (pivot, lte) = key_bits(key, flip);
        debug_assert!(lo <= hi && hi <= lanes.len() && lanes.len() == oids.len());
        // SAFETY: `available()` proved AVX2 and popcnt are present on
        // this CPU; bounds are asserted above.
        unsafe {
            Some(if lte {
                crack_two_avx2::<true>(lanes, oids, lo, hi, pivot, flip, moved)
            } else {
                crack_two_avx2::<false>(lanes, oids, lo, hi, pivot, flip, moved)
            })
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (vals, oids, lo, hi, key, moved);
        None
    }
}

/// Vector three-way partition entry point: `Some((p1, p2))`
/// or `None` to fall back. Splits and per-piece multisets match the
/// scalar sweep; `moved` is incremented by the canonical
/// destination-displacement count (see the module docs).
pub(crate) fn crack_three<T: CrackValue>(
    vals: &mut [T],
    oids: &mut [u32],
    lo: usize,
    hi: usize,
    k1: BoundaryKey<T>,
    k2: BoundaryKey<T>,
    moved: &mut u64,
) -> Option<(usize, usize)> {
    #[cfg(target_arch = "x86_64")]
    {
        if !available() || hi - lo < SIMD_MIN {
            return None;
        }
        let flip = lane_flip::<T>()?;
        let (p1v, lte1) = key_bits(k1, flip);
        let (p2v, lte2) = key_bits(k2, flip);
        debug_assert!(lo <= hi && hi <= vals.len() && vals.len() == oids.len());
        // Counting pass: fixes both split positions (and the class
        // populations) before anything moves.
        let (c1, c3) = {
            let (lanes, _) = lanes_mut(vals)?;
            // SAFETY: AVX2 (and popcnt) verified by `available()`; bounds
            // asserted above.
            unsafe { count3_avx2(lanes, lo, hi, p1v, lte1, p2v, lte2, flip) }
        };
        let (split1, split2) = (lo + c1, hi - c3);
        if c1 == 0 && c3 == 0 {
            // Everything is middle-class: no movement, no displacement.
            return Some((split1, split2));
        }

        // Middle-dominance guard — exact, not sampled, because the
        // counting pass has already fixed the class populations.
        // Contracting query sequences (MQS homerun) crack pieces where
        // ≥ 7/8 of the
        // tuples stay in the middle region; the scalar sweep never
        // moves a middle-class tuple (one cheap pass whose rare
        // branches predict well), while the compress-scatter would
        // still push every tuple through scratch and back. Delegate the
        // data movement to the scalar sweep in the original typed
        // domain (an i64 sweep over reinterpreted u64 bits would order
        // the sign bit wrongly), and keep this kernel's
        // destination-displacement `moved` contract by deriving the
        // count from the two small outer regions alone: with `a_l`/`a_g`
        // the L/G-class populations of the final left region and
        // `c_l`/`c_g` those of the final right region, the mismatches
        // are `(|left| - a_l) + (|right| - c_g)` in the outer regions
        // plus the L/G tuples stranded in the middle,
        // `(c1 - a_l - c_l) + (c3 - a_g - c_g)`.
        if (c1 + c3) * 8 <= hi - lo {
            let (a_l, a_g, c_l, c_g) = {
                let (lanes, _) = lanes_mut(vals)?;
                // SAFETY: both count ranges are within `lo..hi`.
                unsafe {
                    let (a_l, a_g) = count3_avx2(lanes, lo, split1, p1v, lte1, p2v, lte2, flip);
                    let (c_l, c_g) = count3_avx2(lanes, split2, hi, p1v, lte1, p2v, lte2, flip);
                    (a_l, a_g, c_l, c_g)
                }
            };
            let displaced =
                (split1 - lo - a_l) + (hi - split2 - c_g) + (c1 - a_l - c_l) + (c3 - a_g - c_g);
            let mut swap_moved = 0u64;
            let splits = crate::crack::crack_three(vals, oids, lo, hi, k1, k2, &mut swap_moved);
            debug_assert_eq!(splits, (split1, split2));
            *moved += displaced as u64;
            return Some(splits);
        }

        let (lanes, _) = lanes_mut(vals)?;
        // SAFETY: as above; `c1`/`c3` are the exact class populations of
        // `lanes[lo..hi)` just counted.
        unsafe {
            Some(crack_three_avx2(
                lanes, oids, lo, hi, p1v, lte1, p2v, lte2, flip, c1, c3, moved,
            ))
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (vals, oids, lo, hi, k1, k2, moved);
        None
    }
}

/// Vector residual scan over a cut-off piece: appends the
/// absolute positions in `range` matching `pred` to `out`, in ascending
/// order — exactly the scalar filter's output. Returns `false` to fall
/// back.
pub(crate) fn scan_into<T: CrackValue>(
    vals: &[T],
    range: Range<usize>,
    pred: &RangePred<T>,
    out: &mut Vec<usize>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !available() || range.len() < SIMD_MIN {
            return false;
        }
        let Some((lanes, flip)) = lanes_ref(vals) else {
            return false;
        };
        // Express the bounds as boundary keys so each test is one
        // compare: matched ⇔ !lo_key.before(v) && hi_key.before(v).
        let lo_key = pred.low.map(|b| {
            let k = if b.inclusive {
                BoundaryKey::lt(b.value)
            } else {
                BoundaryKey::le(b.value)
            };
            key_bits(k, flip)
        });
        let hi_key = pred.high.map(|b| {
            let k = if b.inclusive {
                BoundaryKey::le(b.value)
            } else {
                BoundaryKey::lt(b.value)
            };
            key_bits(k, flip)
        });
        debug_assert!(range.end <= lanes.len());
        // SAFETY: AVX2 verified by `available()`; `range` is in bounds.
        unsafe { scan_avx2(lanes, range, lo_key, hi_key, flip, out) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (vals, range, pred, out);
        false
    }
}

/// Vector pending-delete overlay count: how many of `oids`
/// are in `deleted`. Returns `None` to fall back.
pub(crate) fn count_deleted(oids: &[u32], deleted: &OidSet) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        if !available() || oids.len() < SIMD_MIN || deleted.has_sparse() {
            // The gather only probes the dense bitmap; members in the
            // sparse side set need the scalar probe.
            return None;
        }
        // SAFETY: AVX2 verified by `available()`.
        Some(unsafe { count_deleted_avx2(oids, deleted.words()) })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (oids, deleted);
        None
    }
}

// ---------------------------------------------------------------------
// Compress-permutation lookup tables.
// ---------------------------------------------------------------------

/// `vpermd` index vectors compressing the 64-bit lanes named by a 4-bit
/// mask to the **front** of a ymm register, original order preserved
/// (each 64-bit lane is the dword pair `2j, 2j+1`). Unselected lanes
/// fill the back; their contents are garbage by contract.
#[cfg(target_arch = "x86_64")]
static PERM64_FRONT: [[u32; 8]; 16] = build_perm64(true);
/// As [`PERM64_FRONT`] but compressing the masked lanes to the **back**.
#[cfg(target_arch = "x86_64")]
static PERM64_BACK: [[u32; 8]; 16] = build_perm64(false);
/// `pshufb` byte masks compressing the 32-bit OID lanes named by a 4-bit
/// mask to the front of an xmm register.
#[cfg(target_arch = "x86_64")]
static OID_FRONT: [[u8; 16]; 16] = build_oid_shuf(true);
/// As [`OID_FRONT`] but to the back.
#[cfg(target_arch = "x86_64")]
static OID_BACK: [[u8; 16]; 16] = build_oid_shuf(false);

/// Lane order for a compress: masked lanes first (front) or last
/// (back), relative order preserved on both sides.
const fn lane_order(mask: usize, front: bool) -> [usize; 4] {
    let mut order = [0usize; 4];
    let mut slot = 0;
    // Two passes over the lanes: the selected group is placed first for
    // a front compress and last for a back compress, relative order
    // preserved within each group.
    let mut pass = 0;
    while pass < 2 {
        let want_selected = if front { pass == 0 } else { pass == 1 };
        let mut j = 0;
        while j < 4 {
            if ((mask >> j) & 1 == 1) == want_selected {
                order[slot] = j;
                slot += 1;
            }
            j += 1;
        }
        pass += 1;
    }
    order
}

/// Build the `vpermd` LUT for 4×64-bit compresses.
const fn build_perm64(front: bool) -> [[u32; 8]; 16] {
    let mut out = [[0u32; 8]; 16];
    let mut m = 0;
    while m < 16 {
        let order = lane_order(m, front);
        let mut k = 0;
        while k < 4 {
            out[m][2 * k] = (2 * order[k]) as u32;
            out[m][2 * k + 1] = (2 * order[k] + 1) as u32;
            k += 1;
        }
        m += 1;
    }
    out
}

/// Build the `pshufb` LUT for 4×32-bit OID compresses.
const fn build_oid_shuf(front: bool) -> [[u8; 16]; 16] {
    let mut out = [[0u8; 16]; 16];
    let mut m = 0;
    while m < 16 {
        let order = lane_order(m, front);
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 4 {
                out[m][4 * k + b] = (4 * order[k] + b) as u8;
                b += 1;
            }
            k += 1;
        }
        m += 1;
    }
    out
}

// ---------------------------------------------------------------------
// AVX2 kernels.
// ---------------------------------------------------------------------

/// Count `before(v)` over `lanes[from..to)` with 4-lane compares.
///
/// # Safety
/// Caller guarantees AVX2+popcnt and `from <= to <= lanes.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn count_before_avx2<const LTE: bool>(
    lanes: &[i64],
    from: usize,
    to: usize,
    pivot: i64,
    flip: i64,
) -> usize {
    // For `<` count the `pivot > x` lanes directly; for `≤` count the
    // `x > pivot` lanes and subtract (no `cmpge` in AVX2).
    let pv = _mm256_set1_epi64x(pivot);
    let fv = _mm256_set1_epi64x(flip);
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let ptr = lanes.as_ptr();
    let mut i = from;
    // SAFETY: the loads are bounded by `i + 8 <= to` / `i + 4 <= to`,
    // with `to <= lanes.len()`.
    unsafe {
        // Two accumulator chains so the lane-wise subtract is not the
        // loop-carried bottleneck.
        while i + 8 <= to {
            let x0 = _mm256_xor_si256(_mm256_loadu_si256(ptr.add(i) as *const __m256i), fv);
            let x1 = _mm256_xor_si256(_mm256_loadu_si256(ptr.add(i + 4) as *const __m256i), fv);
            let (m0, m1) = if LTE {
                (_mm256_cmpgt_epi64(x0, pv), _mm256_cmpgt_epi64(x1, pv))
            } else {
                (_mm256_cmpgt_epi64(pv, x0), _mm256_cmpgt_epi64(pv, x1))
            };
            // Lanes are 0 or -1: subtracting accumulates a per-lane count.
            acc0 = _mm256_sub_epi64(acc0, m0);
            acc1 = _mm256_sub_epi64(acc1, m1);
            i += 8;
        }
        while i + 4 <= to {
            let x = _mm256_xor_si256(_mm256_loadu_si256(ptr.add(i) as *const __m256i), fv);
            let m = if LTE {
                _mm256_cmpgt_epi64(x, pv)
            } else {
                _mm256_cmpgt_epi64(pv, x)
            };
            acc0 = _mm256_sub_epi64(acc0, m);
            i += 4;
        }
    }
    let mut parts = [0i64; 4];
    // SAFETY: `parts` is 32 bytes, matching the unaligned store width.
    unsafe {
        _mm256_storeu_si256(
            parts.as_mut_ptr() as *mut __m256i,
            _mm256_add_epi64(acc0, acc1),
        )
    };
    let mut cnt = (parts[0] + parts[1] + parts[2] + parts[3]) as usize;
    while i < to {
        let x = lanes[i] ^ flip;
        cnt += if LTE { x > pivot } else { pivot > x } as usize;
        i += 1;
    }
    if LTE {
        (to - from) - cnt
    } else {
        cnt
    }
}

/// The 4-bit "belongs before" mask of one ymm chunk.
///
/// # Safety
/// Caller guarantees AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mask4_before<const LTE: bool>(v: __m256i, pv: __m256i, fv: __m256i) -> usize {
    let x = _mm256_xor_si256(v, fv);
    let m = if LTE {
        // before ⇔ x ≤ pivot ⇔ !(x > pivot): invert the mask bits.
        let gt = _mm256_cmpgt_epi64(x, pv);
        (!_mm256_movemask_pd(_mm256_castsi256_pd(gt))) & 0xF
    } else {
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(pv, x)))
    };
    m as usize
}

/// Scalar placement of one tuple into the partition's free window —
/// used for the buffered registers and the vector-width tail, when the
/// free window exactly fits the remaining tuples.
///
/// # Safety
/// Caller guarantees `*l_write < *r_write ≤ len` and that the slot
/// consumed is free.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn place_scalar(
    vals: *mut i64,
    oids: *mut u32,
    x: i64,
    o: u32,
    goes_left: bool,
    l_write: &mut usize,
    r_write: &mut usize,
) {
    // SAFETY: per the contract, the targeted slot is inside the free
    // window `[*l_write, *r_write)`.
    unsafe {
        if goes_left {
            *vals.add(*l_write) = x;
            *oids.add(*l_write) = o;
            *l_write += 1;
        } else {
            *r_write -= 1;
            *vals.add(*r_write) = x;
            *oids.add(*r_write) = o;
        }
    }
}

/// AVX2 two-way partition of `lanes[lo..hi)` / `oids[lo..hi)`; returns
/// the split. See the module docs for the algorithm and the in-place
/// safety argument.
///
/// # Safety
/// Caller guarantees AVX2+popcnt, `lo ≤ hi ≤ lanes.len() == oids.len()`,
/// and `hi - lo ≥ SIMD_MIN`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
#[allow(clippy::too_many_arguments)] // kernel entry point: partition state arrives unpacked by design
unsafe fn crack_two_avx2<const LTE: bool>(
    lanes: &mut [i64],
    oids: &mut [u32],
    lo: usize,
    hi: usize,
    pivot: i64,
    flip: i64,
    moved: &mut u64,
) -> usize {
    // Counting pass: fixes the split up front. The canonical
    // crossing-pair `moved` (each "before" tuple stranded at or beyond
    // the split pairs with one "after" tuple stranded below it) is
    // accumulated inside the partition pass, which sees every tuple's
    // original position exactly once.
    // SAFETY: the range is within `lo..hi`.
    let c = unsafe { count_before_avx2::<LTE>(lanes, lo, hi, pivot, flip) };
    let split = lo + c;
    if c == 0 || split == hi {
        // One-sided: nothing can be misplaced, nothing to move.
        return split;
    }
    let mut misplaced = 0usize;

    // Block size: the read side is chosen once per block (one branch
    // per B tuples, amortizing its misprediction), and the block's four
    // chunk loads are sequential from the block base, so they issue and
    // pipeline without waiting on the cursor arithmetic. (A per-chunk
    // side choice mispredicts on every balanced crack; a cmov'd choice
    // serializes the load address behind the previous chunk's popcount
    // — both measurably slower.)
    const B: usize = 32;
    let len = hi - lo;
    let tail = len % B;
    let hi_vec = hi - tail;
    let vp = lanes.as_mut_ptr();
    let op = oids.as_mut_ptr();
    let pv = _mm256_set1_epi64x(pivot);
    let fv = _mm256_set1_epi64x(flip);

    // Copy the tail out (its slots become free space for the right
    // write cursor) and buffer the first and last block of the vector
    // span to open the free window. `SIMD_MIN ≥ 128` guarantees the
    // span holds ≥ 2 blocks.
    let mut tail_v = [0i64; B];
    let mut tail_o = [0u32; B];
    let mut buf_v = [0i64; 2 * B];
    let mut buf_o = [0u32; 2 * B];
    // SAFETY: `[hi_vec, hi)` (tail < B), `[lo, lo+B)` and
    // `[hi_vec-B, hi_vec)` are all in bounds, and the two buffered
    // blocks are disjoint (span ≥ 2B).
    unsafe {
        std::ptr::copy_nonoverlapping(vp.add(hi_vec), tail_v.as_mut_ptr(), tail);
        std::ptr::copy_nonoverlapping(op.add(hi_vec), tail_o.as_mut_ptr(), tail);
        std::ptr::copy_nonoverlapping(vp.add(lo), buf_v.as_mut_ptr(), B);
        std::ptr::copy_nonoverlapping(op.add(lo), buf_o.as_mut_ptr(), B);
        std::ptr::copy_nonoverlapping(vp.add(hi_vec - B), buf_v.as_mut_ptr().add(B), B);
        std::ptr::copy_nonoverlapping(op.add(hi_vec - B), buf_o.as_mut_ptr().add(B), B);
    }
    let mut l_read = lo + B;
    let mut r_read = hi_vec - B;
    let mut l_write = lo;
    let mut r_write = hi;

    // SAFETY: loop invariants — `l_write ≤ l_read ≤ r_read ≤ r_write`,
    // `free_left = l_read - l_write` and `free_right = r_write - r_read`
    // sum to `2B + tail`. Reading a block from the side with less free
    // space first makes both frees ≥ B before the block's stores, and a
    // block stores at most B tuples per side, so the block's stores fit
    // the free window. Within a block the stores must additionally
    // never overtake the block's own not-yet-loaded chunks: a
    // left-read block is processed low→high (left stores trail the
    // ascending loads), a right-read block high→low (right stores,
    // which can descend into the block itself when `free_right == B`,
    // chase the descending loads). Full-width garbage lanes need 4 free
    // slots, covered by the same bound.
    unsafe {
        while l_read < r_read {
            let base;
            let rev;
            if l_read - l_write <= r_write - r_read {
                base = l_read;
                l_read += B;
                rev = 0;
            } else {
                r_read -= B;
                base = r_read;
                rev = B / 4 - 1;
            }
            for idx in 0..B / 4 {
                let k = idx ^ rev;
                let src = base + 4 * k;
                let v = _mm256_loadu_si256(vp.add(src) as *const __m256i);
                let o = _mm_loadu_si128(op.add(src) as *const __m128i);
                let m = mask4_before::<LTE>(v, pv, fv);
                // Crossing pairs: "before" lanes whose original
                // position is at or beyond the split.
                misplaced += ((m & pos_mask_ge(src, split)) as u32).count_ones() as usize;
                let cl = (m as u32).count_ones() as usize;
                // Left: compress the "before" lanes to the front, store
                // at the left cursor.
                let vl_c = _mm256_permutevar8x32_epi32(
                    v,
                    _mm256_loadu_si256(PERM64_FRONT[m].as_ptr() as *const __m256i),
                );
                let ol_c =
                    _mm_shuffle_epi8(o, _mm_loadu_si128(OID_FRONT[m].as_ptr() as *const __m128i));
                _mm256_storeu_si256(vp.add(l_write) as *mut __m256i, vl_c);
                _mm_storeu_si128(op.add(l_write) as *mut __m128i, ol_c);
                // Right: compress the rest to the back, store ending at
                // the right cursor.
                let mr = (!m) & 0xF;
                let vr_c = _mm256_permutevar8x32_epi32(
                    v,
                    _mm256_loadu_si256(PERM64_BACK[mr].as_ptr() as *const __m256i),
                );
                let or_c =
                    _mm_shuffle_epi8(o, _mm_loadu_si128(OID_BACK[mr].as_ptr() as *const __m128i));
                _mm256_storeu_si256(vp.add(r_write - 4) as *mut __m256i, vr_c);
                _mm_storeu_si128(op.add(r_write - 4) as *mut __m128i, or_c);
                l_write += cl;
                r_write -= 4 - cl;
            }
        }
    }
    debug_assert_eq!(l_read, r_read);

    // Flush the two buffered blocks and the tail scalarly: the free
    // window now exactly fits them (2B + tail slots).
    // SAFETY: every `place_scalar` consumes one free slot of the
    // remaining window.
    unsafe {
        for k in 0..2 * B {
            // Source positions: the first buffered block came from
            // `[lo, lo+B)`, the second from `[hi_vec-B, hi_vec)`.
            let src = if k < B { lo + k } else { hi_vec - 2 * B + k };
            let b = before_scalar(buf_v[k], pivot, flip, LTE);
            misplaced += (b && src >= split) as usize;
            place_scalar(vp, op, buf_v[k], buf_o[k], b, &mut l_write, &mut r_write);
        }
        for k in 0..tail {
            let b = before_scalar(tail_v[k], pivot, flip, LTE);
            misplaced += (b && hi_vec + k >= split) as usize;
            place_scalar(vp, op, tail_v[k], tail_o[k], b, &mut l_write, &mut r_write);
        }
    }
    debug_assert_eq!(l_write, r_write);
    debug_assert_eq!(l_write, split);
    *moved += 2 * misplaced as u64;
    split
}

/// The 4-bit mask of chunk lanes whose absolute position is `≥ bound`,
/// for a chunk starting at `pos` (lane `j` is position `pos + j`).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn pos_mask_ge(pos: usize, bound: usize) -> usize {
    0xF & !pos_mask_below(pos, bound)
}

/// Elements per class buffer the three-way scratch may keep across
/// cracks (~2 MB values + 1 MB OIDs per class at the cap); larger
/// allocations are released after the copyback.
#[cfg(target_arch = "x86_64")]
const SCRATCH_RETAIN: usize = 262_144;

/// Thread-local scratch for the three-way compress-scatter: one
/// (values, oids) buffer pair per output class.
#[cfg(target_arch = "x86_64")]
struct ThreeWayScratch {
    vals: [Vec<i64>; 3],
    oids: [Vec<u32>; 3],
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    static SCRATCH3: std::cell::RefCell<ThreeWayScratch> =
        const {
            std::cell::RefCell::new(ThreeWayScratch {
                vals: [Vec::new(), Vec::new(), Vec::new()],
                oids: [Vec::new(), Vec::new(), Vec::new()],
            })
        };
}

/// The 4-bit masks `(before_k1, !before_k2)` of one ymm chunk.
///
/// # Safety
/// Caller guarantees AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn masks3(
    v: __m256i,
    p1: __m256i,
    lte1: bool,
    p2: __m256i,
    lte2: bool,
    fv: __m256i,
) -> (usize, usize) {
    let x = _mm256_xor_si256(v, fv);
    let m_l = if lte1 {
        (!_mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(x, p1)))) & 0xF
    } else {
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(p1, x)))
    } as usize;
    // G-class: !before_k2 — for `lte2` that is `x > p2`, otherwise
    // `x ≥ p2` ⇔ !(p2 > x).
    let m_g = if lte2 {
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(x, p2))) as usize
    } else {
        (!_mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(p2, x))) & 0xF) as usize
    };
    (m_l, m_g)
}

/// The 4-bit mask of chunk lanes whose absolute position is `< bound`,
/// for a chunk starting at `pos` (lane `j` is position `pos + j`).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn pos_mask_below(pos: usize, bound: usize) -> usize {
    if bound <= pos {
        0
    } else if bound >= pos + 4 {
        0xF
    } else {
        (1 << (bound - pos)) - 1
    }
}

/// The L- and G-class populations of `lanes[from..to)` — the counting
/// pass that fixes a three-way partition's split positions (and, run
/// over a sub-range, the per-region populations the middle-dominance
/// guard's displacement formula needs).
///
/// # Safety
/// Caller guarantees AVX2+popcnt and `from ≤ to ≤ lanes.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
#[allow(clippy::too_many_arguments)] // kernel entry point: partition state arrives unpacked by design
unsafe fn count3_avx2(
    lanes: &[i64],
    from: usize,
    to: usize,
    p1v: i64,
    lte1: bool,
    p2v: i64,
    lte2: bool,
    flip: i64,
) -> (usize, usize) {
    let p1 = _mm256_set1_epi64x(p1v);
    let p2 = _mm256_set1_epi64x(p2v);
    let fv = _mm256_set1_epi64x(flip);
    let ptr = lanes.as_ptr();
    let (mut c1, mut c3) = (0usize, 0usize);
    let mut i = from;
    // SAFETY: `i + 4 <= to` bounds every load.
    unsafe {
        while i + 4 <= to {
            let v = _mm256_loadu_si256(ptr.add(i) as *const __m256i);
            let (m_l, m_g) = masks3(v, p1, lte1, p2, lte2, fv);
            c1 += (m_l as u32).count_ones() as usize;
            c3 += (m_g as u32).count_ones() as usize;
            i += 4;
        }
    }
    while i < to {
        let x = lanes[i] ^ flip;
        let is_l = if lte1 { x <= p1v } else { x < p1v };
        let is_g = if lte2 { x > p2v } else { x >= p2v };
        c1 += is_l as usize;
        c3 += is_g as usize;
        i += 1;
    }
    (c1, c3)
}

/// AVX2 three-way partition, after the counting pass: compress-scatter
/// into the thread-local scratch, copy back contiguously. Returns the
/// split pair; `moved` gains the destination-displacement count.
///
/// # Safety
/// Caller guarantees AVX2+popcnt, `lo ≤ hi ≤ lanes.len() == oids.len()`,
/// `hi - lo ≥ SIMD_MIN`, `k1 ≤ k2` (compare-domain), and that
/// `c1`/`c3` are the exact L/G-class populations of `lanes[lo..hi)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
#[allow(clippy::too_many_arguments)] // kernel entry point: partition state arrives unpacked by design
unsafe fn crack_three_avx2(
    lanes: &mut [i64],
    oids: &mut [u32],
    lo: usize,
    hi: usize,
    p1v: i64,
    lte1: bool,
    p2v: i64,
    lte2: bool,
    flip: i64,
    c1: usize,
    c3: usize,
    moved: &mut u64,
) -> (usize, usize) {
    let p1 = _mm256_set1_epi64x(p1v);
    let p2 = _mm256_set1_epi64x(p2v);
    let fv = _mm256_set1_epi64x(flip);
    let vp = lanes.as_mut_ptr();
    let op = oids.as_mut_ptr();
    let split1 = lo + c1;
    let split2 = hi - c3;

    let counts = [c1, split2 - split1, c3];
    SCRATCH3.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let scratch = &mut *scratch;
        for ((vbuf, obuf), &cnt) in scratch
            .vals
            .iter_mut()
            .zip(scratch.oids.iter_mut())
            .zip(counts.iter())
        {
            // One register of slack so full-width compress stores stay
            // inside the allocation.
            let need = cnt + 4;
            if vbuf.capacity() < need {
                vbuf.reserve(need - vbuf.len());
                obuf.reserve(need - obuf.len());
            }
        }
        let dv: [*mut i64; 3] = std::array::from_fn(|r| scratch.vals[r].as_mut_ptr());
        let do_: [*mut u32; 3] = std::array::from_fn(|r| scratch.oids[r].as_mut_ptr());
        let mut cur = [0usize; 3];
        let mut displaced = 0usize;

        // Scatter pass.
        let mut i = lo;
        // SAFETY: loads are bounded by `i + 4 <= hi`; scratch stores are
        // bounded by `cur[r] + 4 ≤ counts[r] + 4 ≤` the reserved
        // capacity (each class cursor can only advance to its final
        // population).
        unsafe {
            while i + 4 <= hi {
                let v = _mm256_loadu_si256(vp.add(i) as *const __m256i);
                let o = _mm_loadu_si128(op.add(i) as *const __m128i);
                let (m_l, m_g) = masks3(v, p1, lte1, p2, lte2, fv);
                let m_m = 0xF & !(m_l | m_g);
                // Displacement: lanes whose class region differs from
                // the region their position already lies in.
                let pos_l = pos_mask_below(i, split1);
                let pos_m = pos_mask_below(i, split2) & !pos_l;
                let pos_g = 0xF & !(pos_l | pos_m);
                displaced += ((m_l & !pos_l) as u32).count_ones() as usize
                    + ((m_m & !pos_m) as u32).count_ones() as usize
                    + ((m_g & !pos_g) as u32).count_ones() as usize;
                // Unconditional compress-store for every class: an
                // empty class stores garbage at its cursor and advances
                // it by zero (overwritten by the next store), which is
                // cheaper than a data-dependent "is this class present"
                // branch per chunk.
                for (r, m) in [(0usize, m_l), (1, m_m), (2, m_g)] {
                    let vc = _mm256_permutevar8x32_epi32(
                        v,
                        _mm256_loadu_si256(PERM64_FRONT[m].as_ptr() as *const __m256i),
                    );
                    let oc = _mm_shuffle_epi8(
                        o,
                        _mm_loadu_si128(OID_FRONT[m].as_ptr() as *const __m128i),
                    );
                    _mm256_storeu_si256(dv[r].add(cur[r]) as *mut __m256i, vc);
                    _mm_storeu_si128(do_[r].add(cur[r]) as *mut __m128i, oc);
                    cur[r] += (m as u32).count_ones() as usize;
                }
                i += 4;
            }
            while i < hi {
                let x = lanes[i] ^ flip;
                let is_l = if lte1 { x <= p1v } else { x < p1v };
                let is_g = if lte2 { x > p2v } else { x >= p2v };
                let r = if is_l {
                    0
                } else if is_g {
                    2
                } else {
                    1
                };
                let in_region = match r {
                    0 => i < split1,
                    1 => (split1..split2).contains(&i),
                    _ => i >= split2,
                };
                displaced += !in_region as usize;
                *dv[r].add(cur[r]) = lanes[i];
                *do_[r].add(cur[r]) = oids[i];
                cur[r] += 1;
                i += 1;
            }
        }
        debug_assert_eq!(cur, counts);

        // Copy back: the three class regions are contiguous.
        let starts = [lo, split1, split2];
        // SAFETY: each scratch prefix of `cnt` elements was fully
        // initialized by the scatter pass, and each destination range
        // lies inside `[lo, hi)`.
        unsafe {
            for ((&sv, &so), (&start, &cnt)) in dv
                .iter()
                .zip(do_.iter())
                .zip(starts.iter().zip(counts.iter()))
            {
                std::ptr::copy_nonoverlapping(sv, vp.add(start), cnt);
                std::ptr::copy_nonoverlapping(so, op.add(start), cnt);
            }
        }
        // Don't let one huge cold crack pin its scratch for the thread's
        // lifetime: pieces only shrink after the first few queries, so
        // capacity beyond the retention cap is dead weight.
        for (vbuf, obuf) in scratch.vals.iter_mut().zip(scratch.oids.iter_mut()) {
            if vbuf.capacity() > SCRATCH_RETAIN {
                vbuf.shrink_to(SCRATCH_RETAIN);
                obuf.shrink_to(SCRATCH_RETAIN);
            }
        }
        *moved += displaced as u64;
    });
    (split1, split2)
}

/// AVX2 residual scan: emit matching absolute positions in ascending
/// order.
///
/// # Safety
/// Caller guarantees AVX2 and `range.end ≤ lanes.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn scan_avx2(
    lanes: &[i64],
    range: Range<usize>,
    lo_key: Option<(i64, bool)>,
    hi_key: Option<(i64, bool)>,
    flip: i64,
    out: &mut Vec<usize>,
) {
    let fv = _mm256_set1_epi64x(flip);
    let lo_v = lo_key.map(|(p, lte)| (_mm256_set1_epi64x(p), p, lte));
    let hi_v = hi_key.map(|(p, lte)| (_mm256_set1_epi64x(p), p, lte));
    let ptr = lanes.as_ptr();
    let mut i = range.start;
    // SAFETY: `i + 4 <= range.end ≤ lanes.len()` bounds every load.
    unsafe {
        while i + 4 <= range.end {
            let v = _mm256_loadu_si256(ptr.add(i) as *const __m256i);
            let mut m = 0xFusize;
            if let Some((pv, _, lte)) = lo_v {
                // Matched ⇔ !before(lo_key): clear the "before" lanes.
                m &= !(if lte {
                    mask4_before::<true>(v, pv, fv)
                } else {
                    mask4_before::<false>(v, pv, fv)
                });
            }
            if let Some((pv, _, lte)) = hi_v {
                m &= if lte {
                    mask4_before::<true>(v, pv, fv)
                } else {
                    mask4_before::<false>(v, pv, fv)
                };
            }
            if m == 0xF {
                out.extend_from_slice(&[i, i + 1, i + 2, i + 3]);
            } else {
                let mut bits = m;
                while bits != 0 {
                    out.push(i + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
            i += 4;
        }
    }
    while i < range.end {
        let x = lanes[i];
        let ok_lo = lo_v.is_none_or(|(_, p, lte)| !before_scalar(x, p, flip, lte));
        let ok_hi = hi_v.is_none_or(|(_, p, lte)| before_scalar(x, p, flip, lte));
        if ok_lo && ok_hi {
            out.push(i);
        }
        i += 1;
    }
}

/// AVX2 pending-delete probe: masked 4-lane gathers over the bitmap
/// words, per-lane variable shifts, lane-summed.
///
/// # Safety
/// Caller guarantees AVX2+popcnt.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn count_deleted_avx2(oids: &[u32], words: &[u64]) -> usize {
    if words.is_empty() {
        return 0;
    }
    let len_w = _mm256_set1_epi64x(words.len() as i64);
    let sixty_three = _mm_set1_epi32(63);
    let one = _mm256_set1_epi64x(1);
    let zero = _mm256_setzero_si256();
    let base = words.as_ptr() as *const i64;
    let mut acc = _mm256_setzero_si256();
    let mut i = 0usize;
    // SAFETY: 16-byte loads are bounded by `i + 4 <= oids.len()`; the
    // gather mask clears every lane whose word index is out of range, so
    // no out-of-bounds word is dereferenced (masked-off gather elements
    // are architecturally not loaded).
    unsafe {
        while i + 4 <= oids.len() {
            let o = _mm_loadu_si128(oids.as_ptr().add(i) as *const __m128i);
            let idx32 = _mm_srli_epi32::<6>(o);
            let idx64 = _mm256_cvtepu32_epi64(idx32);
            let valid = _mm256_cmpgt_epi64(len_w, idx64);
            let shift = _mm256_cvtepu32_epi64(_mm_and_si128(o, sixty_three));
            let w = _mm256_mask_i32gather_epi64::<8>(zero, base, idx32, valid);
            let bit = _mm256_and_si256(_mm256_srlv_epi64(w, shift), one);
            acc = _mm256_add_epi64(acc, bit);
            i += 4;
        }
    }
    let mut parts = [0i64; 4];
    // SAFETY: `parts` matches the 32-byte store width.
    unsafe { _mm256_storeu_si256(parts.as_mut_ptr() as *mut __m256i, acc) };
    let mut cnt = (parts[0] + parts[1] + parts[2] + parts[3]) as usize;
    while i < oids.len() {
        let o = oids[i];
        let wi = (o >> 6) as usize;
        cnt += (wi < words.len() && (words[wi] >> (o & 63)) & 1 == 1) as usize;
        i += 1;
    }
    cnt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_order_tables_are_permutations() {
        let mut m = 0;
        while m < 16 {
            let front = lane_order(m, true);
            let back = lane_order(m, false);
            let mut seen_f = [false; 4];
            let mut seen_b = [false; 4];
            for k in 0..4 {
                seen_f[front[k]] = true;
                seen_b[back[k]] = true;
            }
            assert_eq!(seen_f, [true; 4], "front mask {m}");
            assert_eq!(seen_b, [true; 4], "back mask {m}");
            // Selected lanes occupy the first popcount slots (front) /
            // last popcount slots (back), in ascending lane order.
            let pc = (m as u32).count_ones() as usize;
            let mut prev = None;
            for &lane in front.iter().take(pc) {
                assert_eq!((m >> lane) & 1, 1);
                assert!(prev.is_none_or(|p| p < lane));
                prev = Some(lane);
            }
            let mut prev = None;
            for &lane in back.iter().skip(4 - pc) {
                assert_eq!((m >> lane) & 1, 1);
                assert!(prev.is_none_or(|p| p < lane));
                prev = Some(lane);
            }
            m += 1;
        }
    }

    #[test]
    fn detection_is_stable() {
        assert_eq!(available(), available());
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!available());
    }

    #[test]
    fn unsupported_types_fall_back() {
        use crate::value_trait::OrdF64;
        let mut vals = vec![OrdF64(1.0); 100];
        let mut oids: Vec<u32> = (0..100).collect();
        let mut moved = 0;
        assert!(crack_two(
            &mut vals,
            &mut oids,
            0,
            100,
            BoundaryKey::lt(OrdF64(0.5)),
            &mut moved
        )
        .is_none());
        let mut small = vec![1i32; 100];
        assert!(crack_two(
            &mut small,
            &mut oids,
            0,
            100,
            BoundaryKey::lt(1i32),
            &mut moved
        )
        .is_none());
    }

    #[test]
    fn u64_rides_the_sign_flip() {
        if !available() {
            return;
        }
        // Values straddling the sign bit: an unsigned compare must not
        // be confused by the i64 reinterpretation.
        let n = 256usize;
        let vals: Vec<u64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ (1u64 << 63))
            .collect();
        let pivot = vals[n / 3];
        let mut v = vals.clone();
        let mut o: Vec<u32> = (0..n as u32).collect();
        let mut moved = 0;
        let p = crack_two(&mut v, &mut o, 0, n, BoundaryKey::lt(pivot), &mut moved)
            .expect("u64 columns take the vector kernel");
        assert_eq!(p, vals.iter().filter(|&&x| x < pivot).count());
        assert!(v[..p].iter().all(|&x| x < pivot));
        assert!(v[p..].iter().all(|&x| x >= pivot));
        for (i, &oid) in o.iter().enumerate() {
            assert_eq!(v[i], vals[oid as usize]);
        }

        // Crack-in-three across the sign bit too.
        let (k1, k2) = (
            BoundaryKey::lt(vals[n / 4]),
            BoundaryKey::le(vals[2 * n / 3]),
        );
        let (k1, k2) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
        let mut v = vals.clone();
        let mut o: Vec<u32> = (0..n as u32).collect();
        let mut moved = 0;
        if let Some((p1, p2)) = crack_three(&mut v, &mut o, 0, n, k1, k2, &mut moved) {
            assert!(v[..p1].iter().all(|&x| k1.before(x)));
            assert!(v[p1..p2].iter().all(|&x| !k1.before(x) && k2.before(x)));
            assert!(v[p2..].iter().all(|&x| !k2.before(x)));
            for (i, &oid) in o.iter().enumerate() {
                assert_eq!(v[i], vals[oid as usize]);
            }
        }
    }
}
