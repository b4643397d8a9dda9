#![warn(missing_docs)]
//! # dbcracker — *Cracking the Database Store*, in Rust
//!
//! A from-scratch reproduction of Kersten & Manegold's CIDR 2005 paper on
//! **database cracking**: making physical reorganization a byproduct of
//! query processing instead of an update-time obligation. Each query is
//! read both as a request for a subset and as "advice to crack the
//! database store into smaller pieces augmented with an index to access
//! them" — so the store adaptively converges toward an index of exactly
//! the hot set.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`storage`] | MonetDB-like BAT column store: typed tails, string heaps, statistics, checkpoints and a redo log |
//! | [`cracker_core`] | the paper's contribution: crack-in-two/three, the cracker index, Ξ/Ψ/^/Ω operators, lineage, updates |
//! | [`engine`] | relational substrate: tables, Volcano operators, select-push-down planner, scan/sort/crack access engines, cost model |
//! | [`workload`] | DBtapestry generator and the MQS(α,N,k,σ,ρ,δ) multi-query benchmark kit (homerun / hiking / strolling) |
//! | [`sim`] | the §2.2 granule-vector cost simulation behind Figures 2–3 |
//! | [`sql`] | SQL front-end: lexer/parser, DNF normalizer, lowering onto the cracker, and an interactive [`sql::SqlSession`] |
//! | [`p2p`] | self-organizing P2P overlay: cracking as the partitioning engine of a distributed store (paper §7) |
//!
//! ## Quickstart
//!
//! ```
//! use dbcracker::prelude::*;
//!
//! // A tapestry column in random order.
//! let tapestry = Tapestry::generate(10_000, 1, 42);
//! let mut engine = CrackEngine::new(tapestry.column(0).to_vec());
//!
//! // Fire a zooming query sequence; the store reorganizes itself.
//! let windows = homerun_sequence(10_000, 8, 0.02, Contraction::Linear, 7);
//! for window in &windows {
//!     let stats = engine.run(window.to_pred(), OutputMode::Count);
//!     assert!(stats.result_count > 0);
//! }
//! // After a few queries the hot range is fully isolated: repeats are free.
//! let again = engine.run(windows[7].to_pred(), OutputMode::Count);
//! assert_eq!(again.tuples_read, 0);
//! ```

pub use cracker_core;
pub use engine;
pub use p2p;
pub use sim;
pub use sql;
pub use storage;
pub use workload;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use cracker_core::{
        simd_supported, CrackKernel, CrackStats, CrackerColumn, CrackerConfig, KernelPolicy,
        RangePred,
    };
    pub use cracker_core::{ConcurrencyMode, ConcurrentColumn};
    pub use cracker_core::{StochasticCracker, StochasticPolicy};
    pub use engine::{
        ChaosReport, CrackEngine, DbCatalog, DbScenarioRunner, EngineProfile, OutputMode,
        QueryEngine, RangeQuery, RunStats, ScanEngine, SortEngine, StochasticEngine, Table,
    };
    pub use sim::{fig2_series, fig3_series, GranuleSim};
    pub use sql::{QueryOutput, SqlSession};
    pub use storage::{Atom, AtomType, Bat};
    pub use workload::homerun::homerun_sequence;
    pub use workload::scenario::{
        ChaosAction, ChaosSchedule, Op, RunReport, Scenario, ScenarioExecutor, ScenarioRunner,
        Shift, ShiftingHotSet, SortedOracle, UpdateHeavy, ZipfQueries,
    };
    pub use workload::strolling::strolling_sequence;
    pub use workload::{Contraction, Mqs, Profile, Tapestry, Window};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable_end_to_end() {
        let t = Tapestry::generate(100, 2, 1);
        let mut e = CrackEngine::new(t.column(0).to_vec());
        let s = e.run(RangePred::between(10, 20), OutputMode::Count);
        assert_eq!(s.result_count, 11);
    }
}
