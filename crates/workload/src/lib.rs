#![warn(missing_docs)]
//! # workload — the multi-query benchmark kit of §4
//!
//! "For studying database crackers, we step away from application
//! specifics and use a generic, re-usable framework. The space of
//! multi-query sequences is organized around a few dimensions based on
//! idealistic user behavior."
//!
//! * [`tapestry`] — the **DBtapestry** generator: tables of `N` rows and
//!   `α` columns where every column is a permutation of `1..N`, built by
//!   replicating a small seed permutation and shuffling (§4, *Multi-Query
//!   Sequences*);
//! * [`distribution`] — the selectivity distribution functions
//!   `ρ(i, k, σ)`: linear, exponential and logarithmic contraction
//!   (Figure 8);
//! * [`homerun`] — the zooming user: nested range refinements reaching the
//!   target set in exactly `k` steps;
//! * [`hiking`] — the drifting user: fixed-selectivity windows whose
//!   overlap with the predecessor grows to 100%;
//! * [`strolling`] — the clueless user: random walks whose selectivities
//!   are drawn from (or scheduled by) the distribution function;
//! * [`sequential`] — the adversarial patterns (sequential sweeps, zooms)
//!   that defeat plain cracking, used by the robustness experiments;
//! * [`mqs`] — the sequence-space descriptor
//!   `MQS(α, N, k, σ, ρ, δ)` (Definition, §4) tying it all together;
//! * [`scenario`] — the **scenario engine** for workloads whose structure
//!   *moves*: a [`scenario::Scenario`] is a seeded iterator of
//!   [`scenario::Op`] steps (`Select` / `Insert` / `Delete`) over a base
//!   column it also generates, with concrete implementations for
//!   Zipf-skewed query endpoints ([`scenario::ZipfQueries`]), a relocating
//!   hot set ([`scenario::ShiftingHotSet`]) and update-heavy MQS mixes
//!   ([`scenario::UpdateHeavy`]), plus the sorted-vector differential
//!   oracle ([`scenario::SortedOracle`]) and a runner
//!   ([`scenario::ScenarioRunner`]) that replays any scenario against any
//!   executor — optionally in lock-step with the oracle, comparing full
//!   result sets after every step.
//!
//! Everything is deterministic under an explicit RNG seed, so every figure
//! in EXPERIMENTS.md is exactly reproducible. Scenarios extend that into a
//! **seeding contract**: every stream they consume (base data, endpoints,
//! widths, update values, delete victims) is derived from the constructor
//! seed through fixed salts, so rebuilding a scenario with the same
//! parameters replays a bit-identical base column and op stream — that is
//! how one workload is replayed against many executors (one shard,
//! several shards, engine-level) and the oracle.

pub mod distribution;
pub mod hiking;
pub mod homerun;
pub mod mqs;
pub mod scenario;
pub mod sequential;
pub mod skew;
pub mod strolling;
pub mod tapestry;

pub use distribution::Contraction;
pub use mqs::{Mqs, Profile};
pub use scenario::{
    Op, RunReport, Scenario, ScenarioExecutor, ScenarioRunner, Shift, ShiftingHotSet, SortedOracle,
    UpdateHeavy, ZipfQueries,
};
pub use sequential::{adversarial_sequence, Adversary};
pub use tapestry::Tapestry;

use cracker_core::RangePred;

/// One generated range query: the half-open window `[lo, hi)` over the
/// value domain `1..=N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Exclusive upper bound.
    pub hi: i64,
}

impl Window {
    /// Construct (normalizing an inverted pair).
    pub fn new(lo: i64, hi: i64) -> Self {
        if lo <= hi {
            Window { lo, hi }
        } else {
            Window { lo: hi, hi: lo }
        }
    }

    /// Number of domain values covered.
    pub fn width(&self) -> i64 {
        self.hi - self.lo
    }

    /// The equivalent range predicate.
    pub fn to_pred(self) -> RangePred<i64> {
        RangePred::half_open(self.lo, self.hi)
    }

    /// Does this window fully contain `other`?
    pub fn contains(&self, other: &Window) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Width of the intersection with `other`.
    pub fn overlap(&self, other: &Window) -> i64 {
        (self.hi.min(other.hi) - self.lo.max(other.lo)).max(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_normalizes_and_measures() {
        let w = Window::new(10, 3);
        assert_eq!(w.lo, 3);
        assert_eq!(w.hi, 10);
        assert_eq!(w.width(), 7);
    }

    #[test]
    fn window_containment_and_overlap() {
        let outer = Window::new(0, 100);
        let inner = Window::new(20, 30);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert_eq!(outer.overlap(&inner), 10);
        assert_eq!(Window::new(0, 10).overlap(&Window::new(10, 20)), 0);
        assert_eq!(Window::new(0, 10).overlap(&Window::new(5, 15)), 5);
    }

    #[test]
    fn window_to_pred_is_half_open() {
        let p = Window::new(5, 8).to_pred();
        assert!(p.matches(5));
        assert!(p.matches(7));
        assert!(!p.matches(8));
    }
}
