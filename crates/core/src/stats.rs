//! Cracking cost counters.
//!
//! The paper's §2.2 outlook reasons entirely in reads and writes: a scan is
//! `N` reads plus `σN` result writes; cracking adds up to `(1-σ)N` writes
//! for relocated tuples. [`CrackStats`] counts exactly those quantities so
//! the figures (2, 3, 10, 11) can report both wall-clock and the paper's
//! own cost units.

use serde::{Deserialize, Serialize};

/// Monotone counters accumulated by a cracker column over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrackStats {
    /// Range queries answered.
    pub queries: usize,
    /// Physical crack operations performed (a three-way crack counts once).
    pub cracks: usize,
    /// Tuples inspected while partitioning border pieces ("reads").
    pub tuples_touched: u64,
    /// Tuples relocated ("writes"). A two-way crack counts the tuples
    /// that were not already inside their destination piece (2 per
    /// crossing pair). A three-way crack counts by its trace: the scalar
    /// sweep 2 per swap; the vector kernel's two-pass route the sum of its
    /// two two-way counts, so a tuple both passes relocate counts twice.
    /// An update merge counts the tuples it writes: its staged inserts,
    /// the piece heads its ripple shifts, and the tuples its delete
    /// compaction slides left. A base-table delete's compaction
    /// (`compact_renumber`) counts the tuples it slides left too.
    pub tuples_moved: u64,
    /// Tuples scanned inside cut-off pieces to filter residual edges.
    pub edge_scanned: u64,
    /// Always 0: no code path fuses pieces. Kept because the e2e ladder
    /// reports it and the checkpoint fingerprint's `f` component carries
    /// it; both go in one later change.
    pub fusions: usize,
    /// Pending-update merges performed.
    pub merges: usize,
}

impl CrackStats {
    /// Add another column's counters into this accumulator — used to
    /// aggregate stats across shards and across a database's cracked
    /// columns.
    pub fn absorb(&mut self, other: &CrackStats) {
        self.queries += other.queries;
        self.cracks += other.cracks;
        self.tuples_touched += other.tuples_touched;
        self.tuples_moved += other.tuples_moved;
        self.edge_scanned += other.edge_scanned;
        self.fusions += other.fusions;
        self.merges += other.merges;
    }

    /// Difference `self - earlier`, for per-query deltas.
    pub fn delta_since(&self, earlier: &CrackStats) -> CrackStats {
        CrackStats {
            queries: self.queries - earlier.queries,
            cracks: self.cracks - earlier.cracks,
            tuples_touched: self.tuples_touched - earlier.tuples_touched,
            tuples_moved: self.tuples_moved - earlier.tuples_moved,
            edge_scanned: self.edge_scanned - earlier.edge_scanned,
            fusions: self.fusions - earlier.fusions,
            merges: self.merges - earlier.merges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = CrackStats {
            queries: 10,
            cracks: 5,
            tuples_touched: 100,
            tuples_moved: 40,
            edge_scanned: 7,
            fusions: 1,
            merges: 2,
        };
        let b = CrackStats {
            queries: 4,
            cracks: 2,
            tuples_touched: 60,
            tuples_moved: 10,
            edge_scanned: 3,
            fusions: 0,
            merges: 1,
        };
        let d = a.delta_since(&b);
        assert_eq!(d.queries, 6);
        assert_eq!(d.cracks, 3);
        assert_eq!(d.tuples_touched, 40);
        assert_eq!(d.tuples_moved, 30);
        assert_eq!(d.edge_scanned, 4);
        assert_eq!(d.fusions, 1);
        assert_eq!(d.merges, 1);
    }

    #[test]
    fn default_is_zero() {
        let s = CrackStats::default();
        assert_eq!(s.queries, 0);
        assert_eq!(s.tuples_moved, 0);
    }
}
