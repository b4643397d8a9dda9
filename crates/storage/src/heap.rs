//! Variable-sized atom heap.
//!
//! The BAT layout in the paper's Figure 7 keeps fixed-length BUNs in the
//! record area; variable-length atoms (strings) are appended to a separate
//! heap and the BUN tail stores a byte offset. We reproduce that split:
//! [`StrHeap`] owns one contiguous byte buffer, appends return stable
//! offsets, and an optional dictionary makes repeated values share storage
//! (MonetDB's "double elimination").

use std::collections::HashMap;

/// Offset of a string inside a [`StrHeap`].
pub type HeapRef = u32;

/// A grow-only heap of UTF-8 strings.
///
/// Each entry is stored as the string bytes preceded by nothing — lengths
/// live in a parallel table inside the heap so that a `HeapRef` alone
/// resolves a value. Entries are never moved, so offsets handed out remain
/// valid for the lifetime of the heap.
#[derive(Debug, Clone, Default)]
pub struct StrHeap {
    /// Concatenated string bytes.
    bytes: Vec<u8>,
    /// `entries[i] = (offset, len)` for the i-th interned string.
    /// `HeapRef` indexes into this table.
    entries: Vec<(u32, u32)>,
    /// Dictionary for double elimination: string -> existing HeapRef.
    dedup: HashMap<String, HeapRef>,
    /// Whether double elimination is active.
    dedup_enabled: bool,
}

impl StrHeap {
    /// Create an empty heap with double elimination enabled.
    pub fn new() -> Self {
        StrHeap {
            bytes: Vec::new(),
            entries: Vec::new(),
            dedup: HashMap::new(),
            dedup_enabled: true,
        }
    }

    /// Create an empty heap without value deduplication (faster appends for
    /// unique-heavy data like the tapestry tables).
    pub fn without_dedup() -> Self {
        StrHeap {
            dedup_enabled: false,
            ..Self::new()
        }
    }

    /// Intern `s`, returning a stable reference. With dedup enabled, equal
    /// strings return the same reference.
    pub fn intern(&mut self, s: &str) -> HeapRef {
        if self.dedup_enabled {
            if let Some(&r) = self.dedup.get(s) {
                return r;
            }
        }
        let offset = self.bytes.len() as u32;
        self.bytes.extend_from_slice(s.as_bytes());
        let r = self.entries.len() as HeapRef;
        self.entries.push((offset, s.len() as u32));
        if self.dedup_enabled {
            self.dedup.insert(s.to_owned(), r);
        }
        r
    }

    /// Resolve a reference to its string slice.
    ///
    /// # Panics
    /// Panics if `r` was not produced by this heap.
    pub fn get(&self, r: HeapRef) -> &str {
        let (off, len) = self.entries[r as usize];
        let slice = &self.bytes[off as usize..(off + len) as usize];
        // Safety of contents: only ever filled from &str in `intern`.
        // lint: allow(unwrap) — bytes come exclusively from &str input
        std::str::from_utf8(slice).expect("heap contains valid UTF-8 by construction")
    }

    /// Number of distinct interned entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes held by the heap buffer.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_get_round_trip() {
        let mut h = StrHeap::new();
        let a = h.intern("hello");
        let b = h.intern("world");
        assert_eq!(h.get(a), "hello");
        assert_eq!(h.get(b), "world");
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn dedup_returns_same_ref_for_equal_strings() {
        let mut h = StrHeap::new();
        let a = h.intern("dup");
        let b = h.intern("dup");
        assert_eq!(a, b);
        assert_eq!(h.len(), 1);
        assert_eq!(h.heap_bytes(), 3);
    }

    #[test]
    fn without_dedup_stores_duplicates_separately() {
        let mut h = StrHeap::without_dedup();
        let a = h.intern("dup");
        let b = h.intern("dup");
        assert_ne!(a, b);
        assert_eq!(h.len(), 2);
        assert_eq!(h.heap_bytes(), 6);
    }

    #[test]
    fn empty_string_is_representable() {
        let mut h = StrHeap::new();
        let r = h.intern("");
        assert_eq!(h.get(r), "");
        assert!(!h.is_empty());
    }

    #[test]
    fn refs_stay_stable_across_growth() {
        let mut h = StrHeap::without_dedup();
        let first = h.intern("first");
        for i in 0..1000 {
            h.intern(&format!("filler-{i}"));
        }
        assert_eq!(h.get(first), "first");
    }

    #[test]
    fn unicode_round_trips() {
        let mut h = StrHeap::new();
        let r = h.intern("héllo → wörld ✓");
        assert_eq!(h.get(r), "héllo → wörld ✓");
    }
}
