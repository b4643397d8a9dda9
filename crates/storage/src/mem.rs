//! Column-length arrays on huge pages.
//!
//! A cracked copy is born by writing a whole column into fresh memory:
//! the value copy, the dense OID array beside it, a recovered column's
//! decoded arrays. On 4 KiB pages that first write takes one page fault
//! per 4 KiB: for a 2 M-row column (16 MB of values + 8 MB of OIDs) about
//! 5 900 faults, which cost more than the crack itself. With huge pages
//! it takes about 750: one per 2 MiB page, plus 4 KiB faults for each
//! array's tail past its last 2 MiB boundary. The arrays a cracked copy
//! is born with are therefore built here: [`column_vec`] reserves the
//! exact capacity and, on Linux, advises the kernel with
//! `madvise(MADV_HUGEPAGE)` once, before the first write. Its callers:
//! - `cracker_core::crack::crack_two_from` and its vector twin, which
//!   fill a first-touched column's values and dense OIDs already cracked
//!   in two (`CrackerColumn::from_base` with a first predicate, the path
//!   every `AdaptiveDb` select takes);
//! - [`copy_of`] and [`dense_oids`], a plain copy and its dense OIDs
//!   (`CrackerColumn::from_base` without one, and
//!   `CrackerColumn::with_config`);
//! - the decoder's columns.
//!
//! **The whole page range is advised**, `[floor4k(ptr),
//! ceil4k(ptr + cap·size))`, not only its 2 MiB-aligned interior. A
//! buffer that large is normally its own `mmap`, so its whole page range
//! is exactly that mapping and the advice flags it in one piece. Advising
//! only the interior would split the mapping into three, and the
//! allocator's `realloc` can no longer move a split mapping with
//! `mremap`: the first ripple merge that grows a cracked column would
//! copy both arrays instead, which costs time and raises peak memory by a
//! column's worth. That reasoning, and every measurement behind this
//! module, assumes the buffer is its own mapping, as it is when glibc's
//! `mmap` threshold is pinned (the e2e benchmark pins it at 1 MiB). Under
//! glibc's default dynamic threshold a buffer may instead be carved from
//! the heap, where the advice splits the heap's mapping around it; that
//! case's memory footprint has not been measured. Arrays below one huge
//! page are not advised: they cannot hold one, and such an allocation
//! lives in the allocator's heap, whose mapping the advice would split
//! for nothing.
//!
//! **The cost is resident memory once an array grows.** A fresh array is
//! written whole, so its huge pages hold nothing unused, and the partial
//! 2 MiB range at its end stays on 4 KiB pages because it reaches past
//! the mapping. Once the array grows past its capacity, `realloc`
//! extends the mapping, which keeps the advice. khugepaged may then
//! collapse every 2 MiB range of it that holds at least one written page
//! (with the kernel's default `max_ptes_none` of 511). That makes the
//! old tail and the first grown range resident in full: a 1 M-row copy
//! and its OIDs, grown by 5 400 rows, gained 2.7 MB of RSS within 24 s
//! of the growth, and none without it.
//!
//! **There is no knob.** The host's transparent-huge-page mode already is
//! one: under `madvise` the advice turns huge pages on for these arrays,
//! under `always` it is redundant, and under `never` (or on a kernel
//! without THP, where the call fails) it does nothing. Off Linux the
//! advice is a no-op. The advice never changes what an array holds, so a
//! second, in-process switch would only add a configuration to test and
//! benchmark: contents and capacity are the same as `to_vec()` /
//! `(0..n).collect()` in every case.

// The workspace forbids unsafe code; this module is one of its three
// waivers (beside `cracker_core::simd` and `cracker_core::sync`). It
// holds one `extern "C"` declaration and the one call to it, which only
// passes advice about memory this module just allocated.
#![allow(unsafe_code)]

/// The huge-page size the advice targets (x86-64 and aarch64 with 4 KiB
/// base pages).
const HUGE_PAGE: usize = 2 << 20;

/// The base page size the advised range is rounded out to.
const PAGE: usize = 4 << 10;

/// An empty vector with capacity for exactly `cap` elements, advised onto
/// huge pages when it spans at least one.
pub fn column_vec<T>(cap: usize) -> Vec<T> {
    let v = Vec::with_capacity(cap);
    advise_huge(v.as_ptr() as usize, v.capacity() * std::mem::size_of::<T>());
    v
}

/// A huge-page-backed copy of `src`: the same contents and capacity as
/// `src.to_vec()`.
pub fn copy_of<T: Copy>(src: &[T]) -> Vec<T> {
    let mut v = column_vec(src.len());
    v.extend_from_slice(src);
    v
}

/// The dense OIDs `0..n` of an `n`-row column, huge-page-backed: the same
/// contents and capacity as `(0..n as u32).collect()`.
///
/// # Panics
/// Panics if `n` exceeds `u32::MAX`, the OID space.
pub fn dense_oids(n: usize) -> Vec<u32> {
    let end = u32::try_from(n).unwrap_or_else(|_| panic!("{n} rows exceed the u32 OID space"));
    let mut v = column_vec(n);
    v.extend(0..end);
    v
}

/// Advise the page range `[floor4k(addr), ceil4k(addr + bytes))` onto
/// huge pages when it spans at least one. Failure is ignored: the advice
/// only changes how the range is backed, never what it holds.
fn advise_huge(addr: usize, bytes: usize) {
    if bytes < HUGE_PAGE {
        return;
    }
    let start = addr & !(PAGE - 1);
    let end = (addr + bytes).next_multiple_of(PAGE);
    sys::advise_hugepage(start, end - start);
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_void};

    /// `MADV_HUGEPAGE` from `<asm-generic/mman-common.h>`.
    const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        /// `madvise(2)` from the C library.
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    pub(super) fn advise_hugepage(start: usize, len: usize) {
        // SAFETY: `[start, start + len)` is the page-rounded range of one
        // live allocation the caller just made and still owns, so every
        // page in it is mapped, and `start` is page-aligned as madvise
        // requires. MADV_HUGEPAGE only sets a flag on those mappings: it
        // neither moves, frees nor changes the contents of any byte, so no
        // Rust reference into the range is invalidated. The return value
        // is ignored because the advice is optional.
        unsafe { madvise(start as *mut c_void, len, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    /// No huge-page advice off Linux.
    pub(super) fn advise_hugepage(_start: usize, _len: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sizes on both sides of one huge page: empty, below 2 MiB, and a
    /// `cold_start`-sized column (16 MB of `i64`, 8 MB of OIDs).
    const SIZES: [usize; 3] = [0, 1000, 2_000_000];

    #[test]
    fn copy_of_matches_to_vec() {
        for n in SIZES {
            let src: Vec<i64> = (0..n as i64).map(|i| i.wrapping_mul(7919) % 1009).collect();
            let want = src.to_vec();
            let got = copy_of(&src);
            assert_eq!(got, want, "n = {n}");
            assert_eq!(got.capacity(), want.capacity(), "n = {n}");
        }
    }

    #[test]
    fn dense_oids_match_collect() {
        for n in SIZES {
            let want: Vec<u32> = (0..n as u32).collect();
            let got = dense_oids(n);
            assert_eq!(got, want, "n = {n}");
            assert_eq!(got.capacity(), want.capacity(), "n = {n}");
        }
    }

    /// Growing past the advised capacity goes through `realloc`; every
    /// element must survive the move.
    #[test]
    fn push_past_capacity_keeps_every_element() {
        for n in SIZES {
            let mut v = dense_oids(n);
            assert_eq!(v.len(), v.capacity());
            v.push(u32::MAX);
            v.extend((0..1000).map(|i| i * 3));
            assert_eq!(v.len(), n + 1001);
            assert!(v[..n].iter().enumerate().all(|(i, &o)| o as usize == i));
            assert_eq!(v[n], u32::MAX);
            assert!(v[n + 1..]
                .iter()
                .enumerate()
                .all(|(i, &o)| o as usize == i * 3));
        }
    }

    /// The advice must flag the buffer's mapping whole: advising only its
    /// 2 MiB-aligned interior splits it in three, and `realloc` then
    /// copies instead of remapping. Reads `/proc/self/smaps`.
    #[cfg(target_os = "linux")]
    #[test]
    fn advised_buffer_is_one_thp_eligible_mapping() {
        let v = copy_of(&vec![7i64; 2_000_000]);
        let (lo, hi) = (v.as_ptr() as usize, v.as_ptr() as usize + v.capacity() * 8);
        let smaps = match std::fs::read_to_string("/proc/self/smaps") {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping: /proc/self/smaps is unreadable ({e})");
                return;
            }
        };
        let mapping = smaps_entries(&smaps)
            .into_iter()
            .find(|m| m.start <= lo && lo < m.end)
            .expect("the buffer's first byte lies in some mapping");
        assert!(
            hi <= mapping.end,
            "buffer {lo:#x}..{hi:#x} spans more than the mapping {:#x}..{:#x}",
            mapping.start,
            mapping.end
        );
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        match mode {
            Ok(mode) if !mode.contains("[never]") => assert_eq!(
                mapping.thp_eligible,
                Some(true),
                "THP mode {}: the advised mapping is not THPeligible",
                mode.trim()
            ),
            Ok(_) => eprintln!("THP mode is [never]: eligibility not checked"),
            Err(e) => eprintln!("THP mode unreadable ({e}): eligibility not checked"),
        }
    }

    #[cfg(target_os = "linux")]
    struct Mapping {
        start: usize,
        end: usize,
        thp_eligible: Option<bool>,
    }

    /// Each smaps entry's address range and its `THPeligible` field.
    #[cfg(target_os = "linux")]
    fn smaps_entries(smaps: &str) -> Vec<Mapping> {
        let mut out: Vec<Mapping> = Vec::new();
        for line in smaps.lines() {
            if let Some(flag) = line.strip_prefix("THPeligible:") {
                if let Some(last) = out.last_mut() {
                    last.thp_eligible = Some(flag.trim() == "1");
                }
                continue;
            }
            let range = line.split_whitespace().next().unwrap_or("");
            let Some((a, b)) = range.split_once('-') else {
                continue;
            };
            if let (Ok(start), Ok(end)) =
                (usize::from_str_radix(a, 16), usize::from_str_radix(b, 16))
            {
                out.push(Mapping {
                    start,
                    end,
                    thp_eligible: None,
                });
            }
        }
        out
    }
}
