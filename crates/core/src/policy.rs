//! The cracking optimizer: when (not) to crack.
//!
//! §3.3 observes that the cracker index "grows quickly and becomes the
//! target of a resource management challenge" and calls for "a cracking
//! optimizer which controls the number of pieces to produce. It is as
//! yet unclear, if this optimizer should work towards the smallest
//! pieces or try to retain large chunks. A plausible strategy is to
//! optimize towards many pieces in the beginning and shift to the larger
//! chunks when we already have a large cracker index."
//!
//! [`CrackPolicy`] makes that decision pluggable: before every select,
//! the policy inspects the column's state and sets the effective cut-off
//! granule (pieces at or below it are scanned, not cracked). The
//! candidates implemented — including the paper's own "plausible
//! strategy" as [`CrackPolicy::ManyThenChunks`] — are compared by the
//! `ext_policy` ablation.

use crate::column::{CrackerColumn, Selection};
use crate::pred::RangePred;
use crate::value_trait::CrackValue;

/// A rule mapping column state to the effective cut-off granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrackPolicy {
    /// Crack every touched piece down to single tuples (the idealized
    /// algorithm of §2.2).
    Always,
    /// Never crack: every query scans its border pieces — the `nocrack`
    /// baseline expressed as a policy (the virgin column is one piece, so
    /// this is a full scan per query).
    Never,
    /// A fixed cut-off granule (the paper's disk-block cut-off).
    FixedGranule {
        /// Pieces at or below this size are scanned, not cracked.
        granule: usize,
    },
    /// The paper's "plausible strategy": crack eagerly while the index
    /// is small, retain large chunks once it has grown.
    ManyThenChunks {
        /// Piece count at which the shift happens.
        switch_at_pieces: usize,
        /// Cut-off granule after the shift.
        late_granule: usize,
    },
    /// A hard piece budget: once the index holds this many pieces, stop
    /// producing new ones altogether.
    PieceBudget {
        /// Maximum number of pieces to ever produce.
        limit: usize,
    },
}

impl CrackPolicy {
    /// Short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            CrackPolicy::Always => "always",
            CrackPolicy::Never => "never",
            CrackPolicy::FixedGranule { .. } => "fixed-granule",
            CrackPolicy::ManyThenChunks { .. } => "many-then-chunks",
            CrackPolicy::PieceBudget { .. } => "piece-budget",
        }
    }

    /// The effective cut-off granule for a column with `piece_count`
    /// pieces over `n` tuples.
    pub fn effective_granule(&self, piece_count: usize, n: usize) -> usize {
        match *self {
            CrackPolicy::Always => 1,
            // A granule of n (or more) means no piece is ever cracked.
            CrackPolicy::Never => n.max(1),
            CrackPolicy::FixedGranule { granule } => granule.max(1),
            CrackPolicy::ManyThenChunks {
                switch_at_pieces,
                late_granule,
            } => {
                if piece_count < switch_at_pieces {
                    1
                } else {
                    late_granule.max(1)
                }
            }
            CrackPolicy::PieceBudget { limit } => {
                if piece_count < limit {
                    1
                } else {
                    n.max(1)
                }
            }
        }
    }
}

/// A cracked column whose cut-off granule is driven by a [`CrackPolicy`]
/// instead of a fixed configuration value.
#[derive(Debug, Clone)]
pub struct PolicyCracker<T> {
    col: CrackerColumn<T>,
    policy: CrackPolicy,
}

impl<T: CrackValue> PolicyCracker<T> {
    /// Wrap a value vector under `policy`.
    pub fn new(vals: Vec<T>, policy: CrackPolicy) -> Self {
        PolicyCracker {
            col: CrackerColumn::new(vals),
            policy,
        }
    }

    /// The wrapped column.
    pub fn column(&self) -> &CrackerColumn<T> {
        &self.col
    }

    /// The policy in force.
    pub fn policy(&self) -> CrackPolicy {
        self.policy
    }

    /// Answer a range predicate; the policy decides how deep the border
    /// pieces may crack.
    pub fn select(&mut self, pred: RangePred<T>) -> Selection {
        let granule = self
            .policy
            .effective_granule(self.col.piece_count(), self.col.len());
        self.col.set_min_piece_size(granule);
        self.col.select(pred)
    }

    /// Count qualifying tuples.
    pub fn count(&mut self, pred: RangePred<T>) -> usize {
        self.select(pred).count()
    }

    /// OIDs of qualifying tuples.
    pub fn select_oids(&mut self, pred: RangePred<T>) -> Vec<u32> {
        let sel = self.select(pred);
        self.col.selection_oids(&sel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn oracle(orig: &[i64], pred: &RangePred<i64>) -> Vec<u32> {
        let mut v: Vec<u32> = orig
            .iter()
            .enumerate()
            .filter(|(_, &x)| pred.matches(x))
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    const POLICIES: [CrackPolicy; 5] = [
        CrackPolicy::Always,
        CrackPolicy::Never,
        CrackPolicy::FixedGranule { granule: 64 },
        CrackPolicy::ManyThenChunks {
            switch_at_pieces: 16,
            late_granule: 256,
        },
        CrackPolicy::PieceBudget { limit: 16 },
    ];

    #[test]
    fn effective_granule_shapes() {
        assert_eq!(CrackPolicy::Always.effective_granule(100, 1000), 1);
        assert_eq!(CrackPolicy::Never.effective_granule(0, 1000), 1000);
        assert_eq!(
            CrackPolicy::FixedGranule { granule: 64 }.effective_granule(5, 1000),
            64
        );
        let shift = CrackPolicy::ManyThenChunks {
            switch_at_pieces: 10,
            late_granule: 200,
        };
        assert_eq!(shift.effective_granule(9, 1000), 1, "eager while small");
        assert_eq!(shift.effective_granule(10, 1000), 200, "chunky once grown");
        let budget = CrackPolicy::PieceBudget { limit: 4 };
        assert_eq!(budget.effective_granule(3, 1000), 1);
        assert_eq!(budget.effective_granule(4, 1000), 1000, "budget reached");
    }

    #[test]
    fn never_policy_is_a_scan_engine() {
        let mut c = PolicyCracker::new((0..1000).rev().collect(), CrackPolicy::Never);
        for _ in 0..3 {
            let sel = c.select(RangePred::between(100, 199));
            assert_eq!(sel.count(), 100);
        }
        assert_eq!(c.column().piece_count(), 1, "never cracked");
        assert_eq!(c.column().stats().cracks, 0);
        // Every query scanned the whole (single) piece.
        assert!(c.column().stats().edge_scanned >= 3000);
    }

    #[test]
    fn piece_budget_freezes_the_index() {
        let mut c = PolicyCracker::new(
            (0..10_000).rev().collect(),
            CrackPolicy::PieceBudget { limit: 8 },
        );
        for lo in (0..10_000).step_by(500) {
            c.count(RangePred::half_open(lo, lo + 100));
        }
        // The budget halts *new* cracking once reached; one final query
        // may still have pushed the count a couple past the threshold
        // (both bounds of the triggering query crack).
        assert!(
            c.column().piece_count() <= 10,
            "index frozen near the budget (got {})",
            c.column().piece_count()
        );
    }

    #[test]
    fn many_then_chunks_shifts_behaviour() {
        let policy = CrackPolicy::ManyThenChunks {
            switch_at_pieces: 8,
            late_granule: 6_000,
        };
        let mut c = PolicyCracker::new((0..20_000).rev().collect(), policy);
        // Early queries crack exactly (single-tuple granule).
        for lo in [1_000, 5_000, 9_000, 12_000] {
            let sel = c.select(RangePred::half_open(lo, lo + 10));
            assert!(sel.edges.is_empty(), "early phase cracks exactly");
        }
        assert!(c.column().piece_count() >= 8);
        // A late query into one of the ~4000-wide retained chunks (below
        // the late granule) is answered by scanning, not cracking.
        let sel = c.select(RangePred::half_open(6_000, 6_010));
        assert!(
            !sel.edges.is_empty(),
            "late phase scans inside retained chunks"
        );
    }

    proptest! {
        /// Whatever the policy decides, answers stay correct.
        #[test]
        fn prop_policies_never_affect_answers(
            orig in proptest::collection::vec(-100i64..100, 0..300),
            queries in proptest::collection::vec((-120i64..120, -120i64..120), 1..15),
            policy_idx in 0usize..POLICIES.len(),
        ) {
            let mut c = PolicyCracker::new(orig.clone(), POLICIES[policy_idx]);
            for (a, b) in queries {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let pred = RangePred::between(lo, hi);
                let mut got = c.select_oids(pred);
                got.sort_unstable();
                prop_assert_eq!(got, oracle(&orig, &pred));
                c.column().validate().map_err(TestCaseError::fail)?;
            }
        }
    }
}
