//! Engine cost profiles — reproducing the *spread between systems*.
//!
//! Figure 1 and §5.1 of the paper measure MySQL, PostgreSQL, SQLite and
//! MonetDB out of the box. We cannot ship four foreign C code bases, so
//! the comparative figures are regenerated by replaying our engine's
//! *counters* through a per-system cost profile (the substitution the
//! `fig1_selectivity` and `fig9_joins` bins cite). The constants are calibrated to the ranges the
//! paper reports: "materialization of a temporary table ... ranges from 40
//! to 1200 ms per table. On top of this, the DBMS needs anywhere between 3
//! to 250 ms/10000 tuples to evaluate the predicate and create the tuple
//! copy" (§5.1).
//!
//! What is preserved: which system is faster, by roughly what factor, and
//! the linear-in-selectivity shape. What is not: absolute seconds on the
//! paper's 2003 dual-Athlon testbed.

use crate::cost::RunStats;
use crate::query::OutputMode;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Per-system cost coefficients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineProfile {
    /// System label.
    pub name: String,
    /// Fixed per-query overhead (parse, plan, round trip), in microseconds.
    pub base_query_us: u64,
    /// Cost to read + predicate-evaluate one tuple, in nanoseconds.
    pub read_ns_per_tuple: u64,
    /// Cost to ship one result tuple to the front-end, in nanoseconds.
    pub ship_ns_per_tuple: u64,
    /// Cost to write one tuple into a stored table (with transaction
    /// bookkeeping), in nanoseconds.
    pub write_ns_per_tuple: u64,
    /// Cost to create a table in the catalog, in microseconds.
    pub table_create_us: u64,
}

impl EngineProfile {
    /// MonetDB: binary-table kernel, memory-mapped storage; cheap scans,
    /// cheap materialization.
    pub fn monetdb() -> Self {
        EngineProfile {
            name: "MonetDB/SQL".into(),
            base_query_us: 5_000,
            read_ns_per_tuple: 25,
            ship_ns_per_tuple: 60,
            write_ns_per_tuple: 80,
            table_create_us: 40_000,
        }
    }

    /// MySQL (ISAM backend): fast scans, expensive temporary tables.
    pub fn mysql() -> Self {
        EngineProfile {
            name: "MySQL".into(),
            base_query_us: 30_000,
            read_ns_per_tuple: 420,
            ship_ns_per_tuple: 170,
            write_ns_per_tuple: 1_500,
            table_create_us: 200_000,
        }
    }

    /// PostgreSQL: heavier per-tuple cost, transactional writes dominate.
    pub fn postgresql() -> Self {
        EngineProfile {
            name: "PostgreSQL".into(),
            base_query_us: 20_000,
            read_ns_per_tuple: 900,
            ship_ns_per_tuple: 350,
            write_ns_per_tuple: 3_200,
            table_create_us: 320_000,
        }
    }

    /// SQLite: light engine, modest shipping cost, costly writes.
    pub fn sqlite() -> Self {
        EngineProfile {
            name: "SQLite".into(),
            base_query_us: 8_000,
            read_ns_per_tuple: 260,
            ship_ns_per_tuple: 120,
            write_ns_per_tuple: 2_100,
            table_create_us: 110_000,
        }
    }

    /// The four profiles of the paper's experiments.
    pub fn all() -> Vec<EngineProfile> {
        vec![
            Self::monetdb(),
            Self::mysql(),
            Self::postgresql(),
            Self::sqlite(),
        ]
    }

    /// Model the response time of a run with the given counters under this
    /// profile and output mode.
    pub fn modeled_time(&self, stats: &RunStats, mode: OutputMode) -> Duration {
        let mut ns = self.base_query_us as u128 * 1_000;
        ns += stats.tuples_read as u128 * self.read_ns_per_tuple as u128;
        match mode {
            OutputMode::Count => {}
            OutputMode::Stream => {
                ns += stats.result_count as u128 * self.ship_ns_per_tuple as u128;
            }
            OutputMode::Materialize => {
                ns += stats.result_count as u128 * self.write_ns_per_tuple as u128;
                ns += stats.tables_created as u128 * self.table_create_us as u128 * 1_000;
            }
        }
        // Reorganization writes beyond the result (cracking moves) are
        // charged at table-write cost in every mode.
        let reorg = stats
            .tuples_written
            .saturating_sub(if mode == OutputMode::Count {
                0
            } else {
                stats.result_count
            });
        ns += reorg as u128 * self.write_ns_per_tuple as u128;
        Duration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_run(n: u64, result: u64, mode: OutputMode) -> RunStats {
        RunStats {
            tuples_read: n,
            tuples_written: if mode == OutputMode::Count { 0 } else { result },
            result_count: result,
            tables_created: u64::from(mode == OutputMode::Materialize),
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn materialize_costs_more_than_print_costs_more_than_count() {
        // The panel ordering of Figure 1, per system.
        for p in EngineProfile::all() {
            let m = p.modeled_time(
                &scan_run(1_000_000, 100_000, OutputMode::Materialize),
                OutputMode::Materialize,
            );
            let s = p.modeled_time(
                &scan_run(1_000_000, 100_000, OutputMode::Stream),
                OutputMode::Stream,
            );
            let c = p.modeled_time(
                &scan_run(1_000_000, 100_000, OutputMode::Count),
                OutputMode::Count,
            );
            assert!(m > s, "{}: materialize > print", p.name);
            assert!(s > c, "{}: print > count", p.name);
        }
    }

    #[test]
    fn monetdb_is_fastest_on_count() {
        // Figure 1(c): MonetDB's count line sits lowest.
        let stats = scan_run(1_000_000, 100_000, OutputMode::Count);
        let monet = EngineProfile::monetdb().modeled_time(&stats, OutputMode::Count);
        for p in [
            EngineProfile::mysql(),
            EngineProfile::postgresql(),
            EngineProfile::sqlite(),
        ] {
            assert!(
                monet < p.modeled_time(&stats, OutputMode::Count),
                "MonetDB < {}",
                p.name
            );
        }
    }

    #[test]
    fn time_is_linear_in_selectivity_for_materialization() {
        // "the performance of materialization is linear in the size of the
        // fragment selected" (§2.1).
        let p = EngineProfile::mysql();
        let t10 = p.modeled_time(
            &scan_run(1_000_000, 100_000, OutputMode::Materialize),
            OutputMode::Materialize,
        );
        let t50 = p.modeled_time(
            &scan_run(1_000_000, 500_000, OutputMode::Materialize),
            OutputMode::Materialize,
        );
        let t90 = p.modeled_time(
            &scan_run(1_000_000, 900_000, OutputMode::Materialize),
            OutputMode::Materialize,
        );
        let d1 = t50 - t10;
        let d2 = t90 - t50;
        let ratio = d1.as_nanos() as f64 / d2.as_nanos() as f64;
        assert!(
            (0.95..1.05).contains(&ratio),
            "linear increments, got {ratio}"
        );
    }

    #[test]
    fn reorg_writes_are_charged_in_count_mode() {
        // A cracking count query moves tuples even though it ships none.
        let p = EngineProfile::monetdb();
        let with_reorg = RunStats {
            tuples_read: 1000,
            tuples_written: 500,
            result_count: 100,
            tables_created: 0,
            elapsed: Duration::ZERO,
        };
        let without = RunStats {
            tuples_written: 0,
            ..with_reorg
        };
        assert!(
            p.modeled_time(&with_reorg, OutputMode::Count)
                > p.modeled_time(&without, OutputMode::Count)
        );
    }

    #[test]
    fn paper_reported_ranges_hold() {
        // "[materialization] ranges from 40 to 1200 ms per table".
        for p in EngineProfile::all() {
            assert!((40_000..=1_200_000).contains(&p.table_create_us));
            // "3 to 250 ms/10000 tuples" to evaluate + copy: read+write per
            // 10k tuples in that window.
            let per_10k_us = (p.read_ns_per_tuple + p.write_ns_per_tuple) * 10_000 / 1_000;
            assert!(
                (300..=250_000).contains(&per_10k_us),
                "{}: {per_10k_us}us / 10k tuples",
                p.name
            );
        }
    }
}
