//! A cheap hasher for maps keyed by names the program makes itself.
//!
//! `std`'s default SipHash resists collision attacks, and pays for it on
//! every probe: it was a visible share of a warm SQL statement, which
//! hashes its plan-cache key and its column's `(table, column)` name.
//! Both maps are small and bounded by the program: a session's plan
//! cache holds at most 128 statement shapes, and the cracked copies one
//! per catalog column. Keys made to collide cost at most that many
//! comparisons a probe, not an unbounded chain. So both maps use
//! [`FastHasher`], the multiplicative word hash of the Rust compiler's
//! `FxHasher`: one rotate, xor and multiply per 8 input bytes, and one
//! rotate to finish.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative word hasher; see the [module docs](self). Not for a
/// map that keys an adversary can grow without bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

/// An odd constant with well-spread bits (the one `FxHasher` uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            self.add(u64::from_le_bytes(w));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    /// One word for the byte that ends every hashed `str`.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    /// The product's high bits are its best mixed; the rotation brings
    /// them down to where a table takes its bucket index from.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(x: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(x)
    }

    /// Distinct keys of the kinds the maps hold — statement shapes that
    /// differ in one word or only in length, and `(table, column)`
    /// names — hash apart, and spread over a table's bucket bits, which
    /// a `HashMap` takes from both ends of the hash.
    #[test]
    fn names_and_shapes_hash_apart_and_spread() {
        let mut keys: Vec<String> = (0..300)
            .map(|n| {
                format!(
                    "select count ( * ) from r where a >= ?{}",
                    " and a < ?".repeat(n)
                )
            })
            .collect();
        keys.extend((0..300).map(|n| format!("insert into t{n} values ( ? , ? )")));
        keys.extend((0..300).map(|n| "( ? ) , ".repeat(n)));
        keys.sort();
        keys.dedup();
        let hashes: HashSet<u64> = keys.iter().map(hash).collect();
        assert_eq!(hashes.len(), keys.len(), "a collision among distinct keys");
        let low: HashSet<u64> = hashes.iter().map(|h| h & 127).collect();
        let high: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(
            low.len() > 100 && high.len() > 100,
            "{} low, {} high",
            low.len(),
            high.len()
        );
        let names: HashSet<u64> = (0..100)
            .flat_map(|t| (0..10).map(move |c| (format!("t{t}"), format!("c{c}"))))
            .map(|k| hash(&k))
            .collect();
        assert_eq!(names.len(), 1_000);
        // The split between the two names is part of the key.
        assert_ne!(hash(&("ab", "c")), hash(&("a", "bc")));
    }
}
