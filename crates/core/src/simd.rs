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
//! * **Two-way partition** (`crack_two`): one block-bidirectional
//!   in-place compress pass (`partition_two_avx2`) walks both ends
//!   inward, and the split is wherever its two write cursors meet; no
//!   counting pass runs first. One block from each end is buffered to
//!   open write room, each iteration reads a 32-tuple block from
//!   whichever side has less free space (one amortized, rather than
//!   per-chunk, branch) and compress-stores each 4-tuple chunk's "before"
//!   lanes ascending from the left cursor and the rest descending from the
//!   right cursor. Compression is a 16-entry permutation LUT (`vpermd` for
//!   the 64-bit values, `pshufb` for the parallel 32-bit OIDs) indexed by
//!   the 4-bit compare mask. Stores are full registers whose garbage lanes
//!   land only in free space (the per-side invariant `free ≥ block` is
//!   maintained by always reading from the tighter side, and a right-read
//!   block is processed high→low so its stores chase its loads); the two
//!   buffered blocks and the `len % 32` tail are placed scalarly at the
//!   end, when the remaining free space exactly fits them. The canonical
//!   crossing-pair `moved` needs the split. The "before" tuples the right
//!   side reads all started at or beyond the point where the read
//!   cursors meet, so they are summed as they are read; the split ends
//!   within three blocks of that point, so only the "before" lane masks
//!   of the last four blocks read from each side (and of the buffered
//!   blocks and the tail) are kept, and the bits between the split and
//!   the meeting point settle the count. No array grows with the piece.
//!   The values a [`side_sample`] would read are walked
//!   until one turns up on each side ([`sample_finds_both_sides`], a few
//!   reads on a balanced piece); a piece where none does is counted first
//!   (read only), and a crack that really is one-sided returns without
//!   writing.
//! * **Out-of-place two-way partition** (`crack_two_from`): a cracked
//!   copy's first crack, read straight from the base column. Each chunk is
//!   compared once and compress-stored into fresh `storage::mem` arrays,
//!   its "before" lanes ascending from the left and the rest descending
//!   from the right, with its dense OIDs built in a register rather than
//!   loaded. No counting pass is needed: the two cursors meet at the
//!   split. The left side comes out in base order, which is what lets the
//!   caller derive the canonical `moved` by one binary search.
//! * **Three-way partition** (`crack_three`): one [`side_sample`] of the
//!   piece picks the route and the order, and no counting pass runs.
//!   Middle-dominant pieces (at most `1 /` [`SWEEP_SHARE`] of the sampled
//!   tuples outside the middle region, the shape every contracting query
//!   sequence produces) run the scalar Dutch-flag sweep: it never moves a
//!   middle-class tuple, and reports its swap count as `moved` (see the
//!   `kernel` module docs). Otherwise two count-free two-way passes run,
//!   the larger sampled outer side first: `[lo, hi)` at `k2` then `[lo,
//!   p2)` at `k1` when more sampled tuples lie after `k2` than before
//!   `k1`, else `[lo, hi)` at `k1` then `[p1, hi)` at `k2`. The second
//!   pass thus reads only what the first one leaves. The trace, `moved`
//!   included, is the trace of the two `crack_two` calls, and a second
//!   pass shorter than [`SIMD_MIN`] runs the scalar two-way loop as
//!   `crack_two` would. A piece under `2 ×` `SIDE_SAMPLE` tuples is
//!   sampled whole, so there the route and order follow exact counts.
//!   Each pass's one-sided guard reads the same sample: a class it saw is
//!   present in the range that pass cracks.
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

use crate::crack::{sample_finds_both_sides, side_sample, BoundaryKey};
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
/// stay ≥ two partition blocks plus a tail (see `partition_two_avx2`).
pub(crate) const SIMD_MIN: usize = 128;

/// Middle-dominance guard of the three-way crack: when at most
/// `1 / SWEEP_SHARE` of a piece leaves the middle region, the crack is the
/// scalar sweep, not the two vector passes. The sweep reads the piece
/// once and pays a branch miss and a swap per outer tuple; each vector
/// pass rewrites its whole range. Two-pass time ÷ sweep time on one fresh
/// random piece, outer tuples split evenly between the two sides, medians
/// of 15 interleaved runs on a 2-vCPU AVX2 Xeon VM:
///
/// | middle share | 16 k | 64 k | 200 k | 1 M | 2 M |
/// |---|---|---|---|---|---|
/// | 85 % | 0.71 | 0.67 | 0.68 | 0.88 | 0.93 |
/// | 87.5 % | 0.80 | 0.73 | 0.79 | 0.92 | 1.05 |
/// | 90 % | 0.92 | 0.84 | 0.89 | 0.93 | 1.24 |
/// | 95 % | 1.28 | 1.28 | 1.41 | 1.45 | 1.61 |
/// | 99 % | 2.28 | 1.85 | 1.85 | 1.85 | 1.54 |
///
/// Over four such runs the 90 % row read 0.84–1.16 up to 1 M and
/// 0.92–1.28 at 2 M: the crossover is ~90 % middle at every size. A
/// one-sided piece (no tuple before `k1` or none after `k2`) runs one
/// vector pass, not two, and breaks even near 97 %; it is not
/// special-cased. The share is judged on the piece's [`side_sample`], not
/// on exact counts, so a piece near the threshold can take either route;
/// both are correct, and the table shows neither costs much more there.
/// The table predates the count-free passes: each vector pass then read
/// its range once more first, so the crossover now lies somewhat above
/// 90 % middle (not re-measured).
pub(crate) const SWEEP_SHARE: usize = 10;

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

/// True when the vector kernels take a piece of `len` tuples of `T`: the
/// CPU has them, `T` has a 64-bit vector compare, and the piece is at
/// least [`SIMD_MIN`] long.
fn vector_piece<T: CrackValue>(len: usize) -> bool {
    available() && len >= SIMD_MIN && lane_flip::<T>().is_some()
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
    if !vector_piece::<T>(hi - lo) {
        return None;
    }
    let maybe_one_sided = !sample_finds_both_sides(&vals[lo..hi], key);
    Some(crack_two_vec(
        vals,
        oids,
        lo,
        hi,
        key,
        maybe_one_sided,
        moved,
    ))
}

/// Vector three-way partition entry point: `Some((p1, p2))` or `None` to
/// fall back. Splits and per-piece multisets match the scalar sweep. The
/// result is, bit for bit, one of two traces (see the module docs): the
/// scalar sweep (middle-dominant pieces) or two `crack_two` calls, the
/// larger outer side cut off first. Both the route and the order come
/// from one [`side_sample`] of the piece.
pub(crate) fn crack_three<T: CrackValue>(
    vals: &mut [T],
    oids: &mut [u32],
    lo: usize,
    hi: usize,
    k1: BoundaryKey<T>,
    k2: BoundaryKey<T>,
    moved: &mut u64,
) -> Option<(usize, usize)> {
    if !vector_piece::<T>(hi - lo) {
        return None;
    }
    let (before, after, sampled) = vector_side_sample(&vals[lo..hi], k1, k2);
    if (before + after) * SWEEP_SHARE <= sampled {
        // Middle-dominant (see `SWEEP_SHARE`): the scalar sweep, run in
        // the original typed domain (an i64 sweep over reinterpreted u64
        // bits would order the sign bit wrongly).
        return Some(crate::crack::crack_three(vals, oids, lo, hi, k1, k2, moved));
    }
    // Two two-way passes, the larger outer side cut off first so the
    // second pass only reads the smaller side and the middle. `k1 ≤ k2`,
    // so after a cut at `k2` the "before k1" tuples of `[lo, p2)` are
    // exactly the first class, and after a cut at `k1` the "before k2"
    // tuples of `[p1, hi)` are exactly the middle class. A class the
    // sample saw is present, so each pass's one-sided guard reads this
    // sample; a second pass under `SIMD_MIN` runs the scalar loop.
    let middle = sampled - before - after;
    Some(if after > before {
        let p2 = crack_two_vec(vals, oids, lo, hi, k2, before + middle == 0, moved);
        let p1 = crack_two_vec(vals, oids, lo, p2, k1, before == 0 || middle == 0, moved);
        (p1, p2)
    } else {
        let p1 = crack_two_vec(vals, oids, lo, hi, k1, middle + after == 0, moved);
        let p2 = crack_two_vec(vals, oids, p1, hi, k2, middle == 0 || after == 0, moved);
        (p1, p2)
    })
}

/// [`side_sample`], compiled for AVX2 where the CPU has it: a piece under
/// `2 ×` `SIDE_SAMPLE` tuples is sampled whole, and the scalar loop would
/// read it at about four times the cost of vector compares.
fn vector_side_sample<T: CrackValue>(
    vals: &[T],
    k1: BoundaryKey<T>,
    k2: BoundaryKey<T>,
) -> (usize, usize, usize) {
    #[cfg(target_arch = "x86_64")]
    if available() {
        /// # Safety
        /// Caller guarantees AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn sample<T: CrackValue>(
            vals: &[T],
            k1: BoundaryKey<T>,
            k2: BoundaryKey<T>,
        ) -> (usize, usize, usize) {
            side_sample(vals, k1, k2)
        }
        // SAFETY: `available()` proved AVX2 is present on this CPU.
        return unsafe { sample(vals, k1, k2) };
    }
    side_sample(vals, k1, k2)
}

/// The two-way crack of `vals[lo..hi)` for a value type and CPU that
/// [`vector_piece`] accepted: the vector pass, or the scalar loop for a
/// piece under [`SIMD_MIN`]; returns the split. When the sample found no
/// tuple on one side (`maybe_one_sided`), a read-only count runs first,
/// and a crack that really is one-sided returns without writing.
fn crack_two_vec<T: CrackValue>(
    vals: &mut [T],
    oids: &mut [u32],
    lo: usize,
    hi: usize,
    key: BoundaryKey<T>,
    maybe_one_sided: bool,
    moved: &mut u64,
) -> usize {
    if hi - lo < SIMD_MIN {
        return crate::crack::crack_two(vals, oids, lo, hi, key, moved);
    }
    #[cfg(target_arch = "x86_64")]
    {
        // lint: allow(unwrap) — `vector_piece` checked the lane type
        let (lanes, flip) = lanes_mut(vals).expect("a 64-bit lane type");
        let (pivot, lte) = key_bits(key, flip);
        assert!(lo + SIMD_MIN <= hi && hi <= lanes.len() && lanes.len() == oids.len());
        // SAFETY: `vector_piece` proved AVX2 and popcnt are present on
        // this CPU; the piece's length and bounds are asserted above.
        unsafe {
            if maybe_one_sided {
                let count = if lte {
                    count_before_avx2::<true>(lanes, lo, hi, pivot, flip)
                } else {
                    count_before_avx2::<false>(lanes, lo, hi, pivot, flip)
                };
                if count == 0 || count == hi - lo {
                    // One-sided: nothing is misplaced, nothing moves.
                    return lo + count;
                }
            }
            if lte {
                partition_two_avx2::<true>(lanes, oids, lo, hi, pivot, flip, moved)
            } else {
                partition_two_avx2::<false>(lanes, oids, lo, hi, pivot, flip, moved)
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (vals, oids, lo, hi, key, maybe_one_sided, moved);
        unreachable!("`vector_piece` is false off x86-64")
    }
}

/// Vector out-of-place two-way partition of a whole base column:
/// `Some((values, oids, split))` in fresh `storage::mem` arrays, or `None`
/// to fall back. The "before" tuples fill `..split` in base order, as
/// `crack::crack_two_from` places them; the rest fill `split..` chunk by
/// chunk from the right, so only their multiset matches the scalar twin.
pub(crate) fn crack_two_from<T: CrackValue>(
    base: &[T],
    key: BoundaryKey<T>,
) -> Option<(Vec<T>, Vec<u32>, usize)> {
    #[cfg(target_arch = "x86_64")]
    {
        let n = base.len();
        if !available() || n < SIMD_MIN || u32::try_from(n).is_err() {
            return None;
        }
        let (lanes, flip) = lanes_ref(base)?;
        let (pivot, lte) = key_bits(key, flip);
        let mut vals: Vec<T> = storage::mem::column_vec(n);
        let mut oids: Vec<u32> = storage::mem::column_vec(n);
        // SAFETY: AVX2 and popcnt verified by `available()`; both outputs
        // have capacity for exactly `n` elements, `T` is `i64` or `u64`
        // (`lanes_ref` succeeded) so its buffer is a valid `i64` buffer,
        // and the pass writes every slot of `0..n` once with a base tuple
        // before returning, so `set_len(n)` exposes initialized elements
        // only (`u32` and `i64` have no invalid bit patterns).
        unsafe {
            let dst = vals.as_mut_ptr() as *mut i64;
            let split = if lte {
                partition_from_avx2::<true>(lanes, dst, oids.as_mut_ptr(), pivot, flip)
            } else {
                partition_from_avx2::<false>(lanes, dst, oids.as_mut_ptr(), pivot, flip)
            };
            vals.set_len(n);
            oids.set_len(n);
            Some((vals, oids, split))
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (base, key);
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
/// the split, which is where the two write cursors meet. See the module
/// docs for the algorithm and the in-place safety argument.
///
/// # Safety
/// Caller guarantees AVX2+popcnt, `lo ≤ hi ≤ lanes.len() == oids.len()`
/// and `hi - lo ≥ SIMD_MIN`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn partition_two_avx2<const LTE: bool>(
    lanes: &mut [i64],
    oids: &mut [u32],
    lo: usize,
    hi: usize,
    pivot: i64,
    flip: i64,
    moved: &mut u64,
) -> usize {
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
    let blocks = len / B;
    // The canonical crossing-pair `moved` counts the "before" tuples that
    // started at or beyond the split, which is known only once the
    // cursors meet. A block's "before" lane mask has bit `j` for source
    // position `lo + B * block + j`, the tail being block `blocks`. The
    // right side's blocks all lie at or beyond the read cursors' meeting
    // point, so their "before" tuples are summed as they are read. The
    // split ends within `2B + tail < 3B` of that point (the free window
    // at the meeting), so only masks of blocks next to it are needed:
    // the last four read from each side are kept, in a ring by block
    // index, with the two buffered blocks' and the tail's. No buffer
    // grows with the piece.
    let mut near_left = [0u32; 4];
    let mut near_right = [0u32; 4];
    let mut right_before = 0u32;
    let (mut first_mask, mut last_mask, mut tail_mask) = (0u32, 0u32, 0u32);
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
            let mut block_mask = 0u32;
            for idx in 0..B / 4 {
                let k = idx ^ rev;
                let src = base + 4 * k;
                let v = _mm256_loadu_si256(vp.add(src) as *const __m256i);
                let o = _mm_loadu_si128(op.add(src) as *const __m128i);
                let m = mask4_before::<LTE>(v, pv, fv);
                block_mask |= (m as u32) << (4 * k);
                let cl = (m as u32).count_ones() as usize;
                // Left: compress the "before" lanes to the front, store
                // at the left cursor. Right: compress the rest to the
                // back, store ending at the right cursor.
                let (l, r) = (l_write, r_write - 4);
                compress_store(v, o, m, vp.add(l), op.add(l), &PERM64_FRONT, &OID_FRONT);
                let mr = (!m) & 0xF;
                compress_store(v, o, mr, vp.add(r), op.add(r), &PERM64_BACK, &OID_BACK);
                l_write += cl;
                r_write -= 4 - cl;
            }
            let block = (base - lo) / B;
            if rev == 0 {
                near_left[block % 4] = block_mask;
            } else {
                near_right[block % 4] = block_mask;
                right_before += block_mask.count_ones();
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
            // The first buffered block came from block 0, the second
            // from block `blocks - 1`.
            let b = before_scalar(buf_v[k], pivot, flip, LTE);
            let bit = u32::from(b) << (k % B);
            if k < B {
                first_mask |= bit;
            } else {
                last_mask |= bit;
            }
            place_scalar(vp, op, buf_v[k], buf_o[k], b, &mut l_write, &mut r_write);
        }
        for k in 0..tail {
            let b = before_scalar(tail_v[k], pivot, flip, LTE);
            tail_mask |= u32::from(b) << k;
            place_scalar(vp, op, tail_v[k], tail_o[k], b, &mut l_write, &mut r_write);
        }
    }
    debug_assert_eq!(l_write, r_write);
    let split = l_write;
    debug_assert_eq!(
        split - lo,
        lanes[lo..hi]
            .iter()
            .filter(|&&x| before_scalar(x, pivot, flip, LTE))
            .count()
    );
    // Crossing pairs: "before" tuples whose source position is at or
    // beyond the split. Those at or beyond the meeting point were summed;
    // the ones between it and the split are added or taken away from the
    // masks kept next to it.
    let meet = l_read - lo;
    let m = meet / B;
    let mask_of = |block: usize| match block {
        0 => first_mask,
        b if b == blocks - 1 => last_mask,
        b if b == blocks => tail_mask,
        b if b < m => near_left[b % 4],
        b => near_right[b % 4],
    };
    // "Before" tuples at source offsets `[from, to)`, within `3B` of the
    // meeting point.
    let bits_in = |from: usize, to: usize| {
        let (mut n, mut at) = (0, from);
        while at < to {
            let (block, off) = (at / B, at % B);
            let end = to.min((block + 1) * B);
            let width = end - at;
            let window = if width == B {
                u32::MAX
            } else {
                ((1u32 << width) - 1) << off
            };
            n += (mask_of(block) & window).count_ones();
            at = end;
        }
        n
    };
    let beyond_meet = right_before + last_mask.count_ones() + tail_mask.count_ones();
    let split_off = split - lo;
    let misplaced = if split_off <= meet {
        beyond_meet + bits_in(split_off, meet)
    } else {
        beyond_meet - bits_in(meet, split_off)
    };
    *moved += 2 * u64::from(misplaced);
    split
}

/// AVX2 out-of-place two-way partition of `src` into the fresh arrays
/// `vals` / `oids`; returns the split. Each 4-tuple chunk is compared once
/// and compress-stored twice, its "before" lanes ascending from the left
/// cursor and the rest descending from the right cursor, with its dense
/// OIDs built in a register rather than loaded. A store writes four lanes
/// whatever the mask, so the vector loop stops while at least 8 slots are
/// unfilled: the left store's `[l, l+4)` and the right store's
/// `[r-4, r)` are then disjoint and both inside the unfilled window, and
/// each garbage lane lands in a slot a later store overwrites. The last
/// `< 8` tuples are placed one by one.
///
/// # Safety
/// Caller guarantees AVX2+popcnt, `src.len() ≤ u32::MAX`, and that `vals`
/// and `oids` are valid for writes of `src.len()` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn partition_from_avx2<const LTE: bool>(
    src: &[i64],
    vals: *mut i64,
    oids: *mut u32,
    pivot: i64,
    flip: i64,
) -> usize {
    let n = src.len();
    let sp = src.as_ptr();
    let pv = _mm256_set1_epi64x(pivot);
    let fv = _mm256_set1_epi64x(flip);
    let step = _mm_set1_epi32(4);
    let mut ov = _mm_setr_epi32(0, 1, 2, 3);
    let (mut l, mut r, mut i) = (0usize, n, 0usize);
    // SAFETY: loads are bounded by `i + 8 <= n`; `r - l == n - i ≥ 8`
    // before each chunk, so both 4-lane stores land in `[l, r)` (see the
    // doc comment), which lies inside the caller's `n`-element buffers.
    unsafe {
        while i + 8 <= n {
            let v = _mm256_loadu_si256(sp.add(i) as *const __m256i);
            let m = mask4_before::<LTE>(v, pv, fv);
            let cl = (m as u32).count_ones() as usize;
            compress_store(
                v,
                ov,
                m,
                vals.add(l),
                oids.add(l),
                &PERM64_FRONT,
                &OID_FRONT,
            );
            let (mr, rs) = ((!m) & 0xF, r - 4);
            compress_store(
                v,
                ov,
                mr,
                vals.add(rs),
                oids.add(rs),
                &PERM64_BACK,
                &OID_BACK,
            );
            l += cl;
            r -= 4 - cl;
            ov = _mm_add_epi32(ov, step);
            i += 4;
        }
        // SAFETY: one slot of the `n - i == r - l` unfilled ones per tuple.
        while i < n {
            let x = *sp.add(i);
            let b = before_scalar(x, pivot, flip, LTE);
            place_scalar(vals, oids, x, i as u32, b, &mut l, &mut r);
            i += 1;
        }
    }
    debug_assert_eq!(l, r);
    l
}

/// Compress the lanes of one chunk (`v` values, `o` OIDs) named by `mask`
/// with the given LUTs and store all four lanes at `vals` / `oids`.
///
/// # Safety
/// Caller guarantees AVX2 and that `vals` / `oids` are valid for writes of
/// four elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn compress_store(
    v: __m256i,
    o: __m128i,
    mask: usize,
    vals: *mut i64,
    oids: *mut u32,
    perm: &[[u32; 8]; 16],
    shuf: &[[u8; 16]; 16],
) {
    // SAFETY: the LUT rows are 32 and 16 bytes; the caller vouches for
    // the destinations.
    unsafe {
        let pv = _mm256_loadu_si256(perm[mask].as_ptr() as *const __m256i);
        let sv = _mm_loadu_si128(shuf[mask].as_ptr() as *const __m128i);
        _mm256_storeu_si256(vals as *mut __m256i, _mm256_permutevar8x32_epi32(v, pv));
        _mm_storeu_si128(oids as *mut __m128i, _mm_shuffle_epi8(o, sv));
    }
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
