//! Stochastic cracking: robustness against adversarial query sequences.
//!
//! The paper's outlook experiment draws ranges "at random" (§2.2), and
//! under random workloads plain cracking converges fast. Its summary,
//! however, asks for "heuristics or learning algorithms" to keep the
//! scheme healthy in general (§7) — and the best-known failure mode,
//! identified by the follow-on literature (Halim et al., *Stochastic
//! Database Cracking*, VLDB 2012), is the **sequential workload**: if
//! queries sweep the domain in order (`[0,w), [w,2w), ...` — exactly what
//! a batch export or a time-ordered scan produces), every query's upper
//! boundary falls into the one giant not-yet-cracked tail piece. Each
//! query then scans nearly the whole tail: per-query cost stays Θ(N) and
//! the total degenerates to Θ(k·N), the very behaviour cracking was meant
//! to escape.
//!
//! The fix is to *decouple reorganization from the query bounds*: in
//! addition to the exact boundary cracks, cut large pieces at pivots the
//! workload cannot control. This module implements the canonical
//! variants as a [`StochasticPolicy`] wrapped around
//! [`CrackerColumn`]:
//!
//! * **`DD1R`** — *data-driven, one random cut*: before resolving a query
//!   boundary inside a large piece, crack that piece once at a random
//!   element's value. Cheap (one extra partition pass over pieces that
//!   had to be touched anyway) and enough to shrink the tail
//!   geometrically in expectation.
//! * **`DDR`** — *data-driven recursive random*: keep cutting the
//!   sub-piece that still contains the boundary until it is at most
//!   `floor` tuples. Heavier first queries, tighter convergence.
//! * **`DD1C` / `DDC`** — the center-cut counterparts: the pivot is the
//!   median of the piece (computed exactly via quickselect on a scratch
//!   copy). Deterministic balance at a higher per-cut cost.
//!
//! All variants leave the answer computation untouched: the auxiliary
//! cuts only add boundaries to the cracker index, so every invariant of
//! the plain column (tiling, multiset preservation, contiguous answers)
//! is preserved — the property tests below run the same oracle the plain
//! column is tested against.

use crate::column::{CrackerColumn, Selection};
use crate::config::CrackerConfig;
use crate::crack::{crack_two, BoundaryKey};
use crate::pred::RangePred;
use crate::value_trait::CrackValue;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Where auxiliary (non-query-driven) cuts come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StochasticPolicy {
    /// Plain cracking — no auxiliary cuts (the baseline).
    Vanilla,
    /// One random cut per touched large piece (`DD1R`).
    DD1R,
    /// Recursive random cuts until the boundary's piece is ≤ `floor`.
    DDR {
        /// Stop recursing once the enclosing piece is at most this big.
        floor: usize,
    },
    /// One median cut per touched large piece (`DD1C`).
    DD1C,
    /// Recursive median cuts until the boundary's piece is ≤ `floor`
    /// (`DDC`).
    DDC {
        /// Stop recursing once the enclosing piece is at most this big.
        floor: usize,
    },
}

impl StochasticPolicy {
    /// True when the policy adds auxiliary cuts at all.
    pub fn is_auxiliary(&self) -> bool {
        !matches!(self, StochasticPolicy::Vanilla)
    }

    /// Short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            StochasticPolicy::Vanilla => "vanilla",
            StochasticPolicy::DD1R => "dd1r",
            StochasticPolicy::DDR { .. } => "ddr",
            StochasticPolicy::DD1C => "dd1c",
            StochasticPolicy::DDC { .. } => "ddc",
        }
    }
}

/// Counters specific to the stochastic layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StochasticStats {
    /// Auxiliary cuts performed.
    pub auxiliary_cuts: u64,
    /// Tuples touched by auxiliary cuts (each cut scans its piece once).
    pub auxiliary_touched: u64,
}

/// A cracked column whose large pieces are additionally cut at
/// workload-independent pivots.
#[derive(Debug, Clone)]
pub struct StochasticCracker<T> {
    col: CrackerColumn<T>,
    policy: StochasticPolicy,
    rng: SmallRng,
    stats: StochasticStats,
    /// Pieces at or below this size receive no auxiliary cuts. Defaults
    /// to the config's `min_piece_size` scaled up; kept separate so the
    /// cut-off granule and the stochastic floor can be swept
    /// independently.
    aux_threshold: usize,
}

impl<T: CrackValue> StochasticCracker<T> {
    /// Wrap a value vector with the given policy. `seed` makes runs
    /// reproducible.
    pub fn new(vals: Vec<T>, policy: StochasticPolicy, seed: u64) -> Self {
        Self::with_config(vals, CrackerConfig::default(), policy, seed)
    }

    /// Wrap with an explicit cracker configuration.
    pub fn with_config(
        vals: Vec<T>,
        config: CrackerConfig,
        policy: StochasticPolicy,
        seed: u64,
    ) -> Self {
        let aux_threshold = match policy {
            StochasticPolicy::DDR { floor } | StochasticPolicy::DDC { floor } => {
                floor.max(config.min_piece_size)
            }
            _ => config.min_piece_size.max(128),
        };
        StochasticCracker {
            col: CrackerColumn::with_config(vals, config),
            policy,
            rng: SmallRng::seed_from_u64(seed),
            stats: StochasticStats::default(),
            aux_threshold,
        }
    }

    /// The wrapped column (index, values, base statistics).
    pub fn column(&self) -> &CrackerColumn<T> {
        &self.col
    }

    /// The policy in force.
    pub fn policy(&self) -> StochasticPolicy {
        self.policy
    }

    /// Auxiliary-cut counters.
    pub fn stats(&self) -> &StochasticStats {
        &self.stats
    }

    /// Total tuples touched by this column, query-driven and auxiliary
    /// combined — the robustness metric the experiments compare.
    pub fn total_touched(&self) -> u64 {
        self.col.stats().tuples_touched + self.col.stats().edge_scanned
    }

    /// Answer a range predicate. Auxiliary cuts are applied to the pieces
    /// enclosing the query bounds first; the exact boundary cracks then
    /// operate on much smaller pieces.
    pub fn select(&mut self, pred: RangePred<T>) -> Selection {
        if !pred.is_empty_range() && self.policy.is_auxiliary() {
            if let Some(b) = pred.low {
                let key = if b.inclusive {
                    BoundaryKey::lt(b.value)
                } else {
                    BoundaryKey::le(b.value)
                };
                self.auxiliary_cuts(key);
            }
            if let Some(b) = pred.high {
                let key = if b.inclusive {
                    BoundaryKey::le(b.value)
                } else {
                    BoundaryKey::lt(b.value)
                };
                self.auxiliary_cuts(key);
            }
        }
        self.col.select(pred)
    }

    /// Count qualifying tuples.
    pub fn count(&mut self, pred: RangePred<T>) -> usize {
        self.select(pred).count()
    }

    /// OIDs of qualifying tuples (physical order).
    pub fn select_oids(&mut self, pred: RangePred<T>) -> Vec<u32> {
        let sel = self.select(pred);
        self.col.selection_oids(&sel)
    }

    /// Cut the piece(s) enclosing `key` per the policy, stopping when the
    /// enclosing piece is small enough (or the boundary already exists).
    fn auxiliary_cuts(&mut self, key: BoundaryKey<T>) {
        loop {
            if self.col.index().position(key).is_some() {
                return; // exact boundary already known
            }
            let piece = self.col.index().enclosing_piece(key);
            if piece.len() <= self.aux_threshold {
                return;
            }
            let Some(cut_key) = self.pick_pivot(piece.clone()) else {
                return; // piece is constant-valued; cutting cannot help
            };
            self.cut_at(piece, cut_key);
            match self.policy {
                StochasticPolicy::DD1R | StochasticPolicy::DD1C => return,
                StochasticPolicy::DDR { .. } | StochasticPolicy::DDC { .. } => continue,
                StochasticPolicy::Vanilla => unreachable!("checked by caller"),
            }
        }
    }

    /// Choose the cut boundary for a piece: a random element's value
    /// (DD1R/DDR) or the piece median (DD1C/DDC). Returns `None` when
    /// every element carries the same value (no cut can split it); for a
    /// pivot equal to the piece minimum the boundary switches from `<` to
    /// `≤` so the cut always separates something — this is what makes the
    /// recursive policies terminate.
    fn pick_pivot(&mut self, piece: Range<usize>) -> Option<BoundaryKey<T>> {
        let vals = self.col.values();
        let candidate = match self.policy {
            StochasticPolicy::DD1R | StochasticPolicy::DDR { .. } => {
                vals[self.rng.gen_range(piece.clone())]
            }
            StochasticPolicy::DD1C | StochasticPolicy::DDC { .. } => {
                // Exact median via quickselect on a scratch copy — the
                // "center" pivot of DDC. O(piece) time and space.
                let mut scratch: Vec<T> = vals[piece.clone()].to_vec();
                let mid = scratch.len() / 2;
                let (_, m, _) = scratch.select_nth_unstable(mid);
                *m
            }
            StochasticPolicy::Vanilla => unreachable!("checked by caller"),
        };
        let lt = BoundaryKey::lt(candidate);
        if vals[piece.clone()].iter().any(|&v| lt.before(v)) {
            return Some(lt);
        }
        // `candidate` is the piece minimum: split equals-to-min away
        // instead, unless the piece is constant.
        let le = BoundaryKey::le(candidate);
        if vals[piece].iter().all(|&v| le.before(v)) {
            None
        } else {
            Some(le)
        }
    }

    /// Physically cut `piece` at `key` and record the new boundary.
    fn cut_at(&mut self, piece: Range<usize>, key: BoundaryKey<T>) {
        let (vals, oids, index) = self.col.arrays_mut();
        let mut moved = 0;
        let pos = crack_two(vals, oids, piece.start, piece.end, key, &mut moved);
        debug_assert!(
            pos > piece.start && pos < piece.end,
            "pick_pivot guarantees a separating cut"
        );
        if pos == piece.start || pos == piece.end {
            // Defensive: never record a boundary that creates an empty
            // piece.
            return;
        }
        index.insert(key, pos);
        self.stats.auxiliary_cuts += 1;
        self.stats.auxiliary_touched += piece.len() as u64;
        let s = self.col.stats_mut();
        s.tuples_touched += piece.len() as u64;
        s.tuples_moved += moved;
        s.cracks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import: both globs above export an `Rng` name.
    use rand::Rng;

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

    /// A shuffled 0..n permutation (tapestry-like, deterministic).
    fn shuffled(n: usize, seed: u64) -> Vec<i64> {
        let mut v: Vec<i64> = (0..n as i64).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
        v
    }

    /// The adversarial sequence: fixed-width windows sweeping left→right.
    fn sequential_windows(n: usize, k: usize) -> Vec<(i64, i64)> {
        let w = (n / k).max(1) as i64;
        (0..k as i64).map(|i| (i * w, (i + 1) * w)).collect()
    }

    const POLICIES: [StochasticPolicy; 5] = [
        StochasticPolicy::Vanilla,
        StochasticPolicy::DD1R,
        StochasticPolicy::DDR { floor: 64 },
        StochasticPolicy::DD1C,
        StochasticPolicy::DDC { floor: 64 },
    ];

    #[test]
    fn every_policy_answers_correctly_on_a_sweep() {
        let orig = shuffled(4_000, 5);
        for policy in POLICIES {
            let mut c = StochasticCracker::new(orig.clone(), policy, 42);
            for (lo, hi) in sequential_windows(4_000, 25) {
                let pred = RangePred::half_open(lo, hi);
                let mut got = c.select_oids(pred);
                got.sort_unstable();
                assert_eq!(got, oracle(&orig, &pred), "{}", policy.label());
                c.column().validate().unwrap();
            }
        }
    }

    #[test]
    fn sequential_workload_ruins_vanilla_but_not_stochastic() {
        let n = 40_000;
        let k = 160;
        let orig = shuffled(n, 9);
        let mut touched = std::collections::BTreeMap::new();
        for policy in [
            StochasticPolicy::Vanilla,
            StochasticPolicy::DD1R,
            StochasticPolicy::DDR { floor: 256 },
        ] {
            let mut c = StochasticCracker::new(orig.clone(), policy, 1);
            for (lo, hi) in sequential_windows(n, k) {
                c.select(RangePred::half_open(lo, hi));
            }
            touched.insert(policy.label(), c.total_touched());
        }
        // Vanilla re-scans the giant tail every query: ~k·N/2 touches.
        // DD1R's random cuts shrink the tail geometrically.
        let vanilla = touched["vanilla"];
        let dd1r = touched["dd1r"];
        let ddr = touched["ddr"];
        assert!(
            vanilla as f64 > 0.25 * (k as f64) * (n as f64) / 2.0,
            "vanilla should degenerate on the sweep (touched {vanilla})"
        );
        // One random cut per query halves-ish the tail: a clear win, but
        // the recursive policy converges much harder.
        assert!(
            (dd1r as f64) < (vanilla as f64) / 2.0,
            "DD1R must beat vanilla ({dd1r} !< {vanilla}/2)"
        );
        assert!(
            (ddr as f64) < (vanilla as f64) / 3.0,
            "DDR must beat vanilla by a wide margin ({ddr} !< {vanilla}/3)"
        );
    }

    #[test]
    fn random_workloads_pay_only_modest_overhead() {
        let n = 20_000;
        let orig = shuffled(n, 13);
        let mut rng = SmallRng::seed_from_u64(77);
        let queries: Vec<(i64, i64)> = (0..60)
            .map(|_| {
                let lo = rng.gen_range(0..n as i64 - 100);
                (lo, lo + rng.gen_range(1..=(n as i64 / 10)))
            })
            .collect();
        let run = |policy| {
            let mut c = StochasticCracker::new(orig.clone(), policy, 3);
            for &(lo, hi) in &queries {
                c.select(RangePred::half_open(lo, hi));
            }
            c.total_touched()
        };
        let vanilla = run(StochasticPolicy::Vanilla);
        let dd1r = run(StochasticPolicy::DD1R);
        // On random workloads the auxiliary cuts must not blow the budget:
        // allow at most 2× the vanilla touches.
        assert!(
            dd1r < vanilla * 2,
            "DD1R overhead on random workloads too high ({dd1r} vs {vanilla})"
        );
    }

    #[test]
    fn auxiliary_cuts_are_counted_and_deterministic() {
        let orig = shuffled(10_000, 21);
        let run = |seed| {
            let mut c = StochasticCracker::new(orig.clone(), StochasticPolicy::DD1R, seed);
            for (lo, hi) in sequential_windows(10_000, 20) {
                c.select(RangePred::half_open(lo, hi));
            }
            (c.stats().auxiliary_cuts, c.column().piece_count())
        };
        let (cuts_a, pieces_a) = run(5);
        let (cuts_b, pieces_b) = run(5);
        assert_eq!(
            (cuts_a, pieces_a),
            (cuts_b, pieces_b),
            "same seed, same run"
        );
        assert!(cuts_a > 0, "the sweep must trigger auxiliary cuts");
        let (cuts_c, _) = run(6);
        // Different seed usually differs; at minimum the run stays valid.
        let _ = cuts_c;
    }

    #[test]
    fn ddc_median_cuts_balance_the_index() {
        let n = 8_192;
        let orig = shuffled(n, 3);
        let mut c = StochasticCracker::new(orig, StochasticPolicy::DDC { floor: 512 }, 0);
        // One query deep in the domain: DDC must have carved the path to
        // it into pieces no larger than ~2× the floor.
        c.select(RangePred::half_open(4_000, 4_100));
        let boundary_piece: Vec<usize> = c
            .column()
            .index()
            .pieces()
            .iter()
            .map(|p| p.len())
            .collect();
        let smallest = boundary_piece.iter().min().copied().unwrap_or(0);
        assert!(
            smallest <= 512,
            "recursive median cuts must reach the floor (smallest {smallest})"
        );
        c.column().validate().unwrap();
    }

    #[test]
    fn constant_columns_are_not_cut_forever() {
        let mut c =
            StochasticCracker::new(vec![7i64; 5_000], StochasticPolicy::DDR { floor: 16 }, 1);
        let sel = c.select(RangePred::between(7, 7));
        assert_eq!(sel.count(), 5_000);
        assert_eq!(
            c.stats().auxiliary_cuts,
            0,
            "a constant piece cannot be split"
        );
        // And the query terminates (this test hanging would be the bug).
    }

    #[test]
    fn empty_ranges_and_empty_columns() {
        let mut c = StochasticCracker::new(Vec::<i64>::new(), StochasticPolicy::DD1R, 1);
        assert_eq!(c.count(RangePred::between(1, 2)), 0);
        let mut c = StochasticCracker::new(shuffled(100, 1), StochasticPolicy::DD1R, 1);
        assert_eq!(c.count(RangePred::between(10, 5)), 0);
        assert_eq!(c.stats().auxiliary_cuts, 0, "empty ranges cut nothing");
    }

    #[test]
    fn one_sided_predicates_trigger_cuts_too() {
        let n = 10_000;
        let mut c = StochasticCracker::new(shuffled(n, 4), StochasticPolicy::DD1R, 2);
        let sel = c.select(RangePred::ge(9_000));
        assert_eq!(sel.count(), 1_000);
        assert!(c.stats().auxiliary_cuts >= 1);
        c.column().validate().unwrap();
    }

    proptest! {
        #[test]
        fn prop_stochastic_answers_agree_with_oracle(
            orig in proptest::collection::vec(-100i64..100, 0..400),
            queries in proptest::collection::vec((-120i64..120, -120i64..120), 1..20),
            policy_idx in 0usize..POLICIES.len(),
            seed in 0u64..1000,
        ) {
            let mut c = StochasticCracker::new(orig.clone(), POLICIES[policy_idx], seed);
            for (a, b) in queries {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let pred = RangePred::between(lo, hi);
                let mut got = c.select_oids(pred);
                got.sort_unstable();
                prop_assert_eq!(got, oracle(&orig, &pred));
                c.column().validate().map_err(TestCaseError::fail)?;
            }
        }

        #[test]
        fn prop_multiset_is_preserved_under_auxiliary_cuts(
            orig in proptest::collection::vec(-50i64..50, 1..300),
            queries in proptest::collection::vec((-60i64..60, -60i64..60), 1..12),
        ) {
            let mut c = StochasticCracker::new(
                orig.clone(), StochasticPolicy::DDR { floor: 8 }, 11);
            for (a, b) in queries {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                c.select(RangePred::between(lo, hi));
            }
            let mut pairs: Vec<(u32, i64)> = c.column().oids().iter().copied()
                .zip(c.column().values().iter().copied()).collect();
            pairs.sort_unstable();
            let expected: Vec<(u32, i64)> =
                (0..orig.len() as u32).map(|i| (i, orig[i as usize])).collect();
            prop_assert_eq!(pairs, expected);
        }
    }
}
