#![warn(missing_docs)]
//! # engine — the relational substrate around the cracker
//!
//! The paper positions the cracker "between the semantic analyzer and the
//! query optimizer of a modern DBMS infrastructure" (§3). This crate is
//! that infrastructure, sized for the paper's experiments:
//!
//! * [`schema`] / [`table`] / [`catalog`] — n-ary relational tables mapped
//!   MonetDB-style onto one BAT per attribute over a shared dense OID
//!   space (§3.4.2);
//! * [`query`] — the query family of §3.1: simple range/point predicates
//!   in disjunctive normal form, natural join paths, group-by;
//! * [`plan`] — a logical plan with the select-push-down rewrite the Ξ
//!   cracker "effectively realizes" (§3.3);
//! * [`exec`] — Volcano-style pull operators ("most systems use a
//!   Volcano-like query evaluation scheme", §3.4.1): scan, filter,
//!   project, nested-loop / hash join, group, union, limit — plus
//!   [`exec::batch`], the block-at-a-time layer that feeds OID blocks to
//!   the crack kernels instead of probing per tuple;
//! * [`admission`] — a semaphore-style gate with per-session fairness so
//!   update bursts cannot starve concurrent readers;
//! * [`governor`] — per-query deadlines and cooperative cancellation,
//!   polled at safe crack-step boundaries so an abandoned query never
//!   leaves a column torn (see `ROBUSTNESS.md`);
//! * [`durability`] — checkpoint/redo-log wiring so crack state survives
//!   restarts *warm* (protocol in `PERSISTENCE.md`);
//! * [`engines`] — the three interchangeable access methods the
//!   experiments compare: **ScanEngine** (the `nocrack` lines),
//!   **SortEngine** (sort-upfront + binary search, the `sort` line of
//!   Figure 11), **CrackEngine** (the adaptive `crack` lines);
//! * [`cost`] — read/write counters in the units of §2.2's cost outlook;
//! * [`profile`] — engine cost profiles calibrated to the spread the paper
//!   measured across MySQL, PostgreSQL, SQLite and MonetDB (Figure 1), so
//!   the comparative *shape* of those experiments can be regenerated
//!   without shipping four foreign code bases;
//! * [`chain`] — the k-way linear join experiment of Figure 9;
//! * [`hash`] — the cheap hasher of the maps keyed by catalog names and
//!   statement shapes.

pub mod admission;
pub mod catalog;
pub mod chain;
pub mod cost;
pub mod db;
pub mod durability;
pub mod engines;
pub mod error;
pub mod exec;
pub mod governor;
pub mod hash;
pub mod plan;
pub mod profile;
pub mod query;
pub mod scenario;
pub mod schema;
pub mod sql_crack;
pub mod table;

pub use admission::{AdmissionGate, AdmissionPermit};
pub use catalog::DbCatalog;
pub use cost::RunStats;
pub use cracker_core::{ConcurrencyMode, ConcurrentColumn};
pub use db::AdaptiveDb;
pub use durability::{DbMeta, TableMeta};
pub use engines::{CrackEngine, QueryEngine, ScanEngine, SortEngine, StochasticEngine};
pub use error::{EngineError, EngineResult};
pub use governor::{CancelToken, Governor};
pub use profile::EngineProfile;
pub use query::{OutputMode, RangeQuery};
pub use scenario::{ChaosReport, DbScenarioRunner};
pub use schema::{ColumnDef, Schema};
pub use sql_crack::SqlLevelCracker;
pub use table::Table;
