//! Every call into the program under test, one function per ladder rung.
//!
//! The benchmark drives the stack from outside through public functions
//! only, and all of those calls live here: when the "unify" roadmap item
//! deletes entry points, this is the one file that changes. The rungs,
//! top down:
//!
//! 1. [`execute_text`] — `SqlSession::execute_one(text)`, what a user runs;
//! 2. [`parse`], [`lower`], [`execute_parsed`] — the same statement taken
//!    apart on a twin session;
//! 3. [`db_apply`] / [`db_select`] / [`db_stage_batch`] — the equivalent
//!    `AdaptiveDb` call on a mirror database;
//! 4. [`MirrorColumn`] — the predicate on a mirror `CrackerColumn` and on
//!    a `ConcurrentColumn` from one thread;
//!
//! plus the durability calls `durable_ingest` needs. Errors are flattened
//! to strings: the runner only counts them as failed ops.

use crate::gen::{Op, Shape};
use crate::oracle::Digest;
use cracker_core::{
    ConcurrencyMode, ConcurrentColumn, CrackStats, CrackerColumn, CrackerConfig, RangePred,
};
use engine::{AdaptiveDb, Table};
use sql::ast::Statement;
use sql::{QueryOutput, SqlSession};
use std::path::Path;
use storage::{RedoLog, WalRecord};

/// Table the SQL workloads query: `r(k, a, b)`.
pub const SQL_TABLE: &str = "r";
/// Table `durable_ingest` drives through the API: `t(k, v)`.
pub const API_TABLE: &str = "t";
/// The cracked column of [`API_TABLE`].
pub const API_COLUMN: &str = "v";
/// Every acknowledged batch is fsynced before it applies.
pub const GROUP_COMMIT: usize = 1;

/// Named columns of a table to load.
pub type Columns<'a> = [(&'a str, &'a [i64])];

fn pred((lo, hi): (i64, i64)) -> RangePred<i64> {
    RangePred::half_open(lo, hi)
}

fn flat<T, E: std::fmt::Display>(r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// A fresh session holding `table`.
pub fn session(table: &str, cols: &Columns) -> SqlSession {
    let mut s = SqlSession::new();
    let owned = cols
        .iter()
        .map(|(name, vals)| (name.to_string(), vals.to_vec()))
        .collect();
    s.load_table(table, owned)
        .expect("a fresh session accepts a well-formed table");
    s
}

/// Rung 1: SQL text in, rows out.
pub fn execute_text(s: &mut SqlSession, text: &str) -> Result<QueryOutput, String> {
    flat(s.execute_one(text))
}

/// Rung 2a: parse one statement.
pub fn parse(text: &str) -> Result<Statement, String> {
    flat(sql::parse_one(text))
}

/// Rung 2b: lower a parsed `SELECT` against the session's catalog. The
/// plan is dropped: `execute_parsed` lowers again, as `execute_one` does.
pub fn lower(s: &mut SqlSession, stmt: &Statement) -> Result<(), String> {
    match stmt {
        Statement::Select(select) => {
            flat(sql::lower_select(select, s.adaptive().catalog())).map(drop)
        }
        _ => Ok(()),
    }
}

/// Rung 2c: execute a parsed statement.
pub fn execute_parsed(s: &mut SqlSession, stmt: Statement) -> Result<QueryOutput, String> {
    let mut out = flat(s.execute_batch(&[stmt]))?;
    out.pop().ok_or_else(|| "no output".to_string())
}

/// Reduce a statement's output to a digest.
pub fn digest(op: &Op, out: &QueryOutput) -> Digest {
    match (op.shape, out) {
        (Shape::Count | Shape::Conjunct, QueryOutput::Table { rows, .. }) => Digest::of_count(
            rows.first()
                .and_then(|r| r.first())
                .map_or(0, |&c| c as u64),
        ),
        (_, QueryOutput::Table { rows, .. }) => Digest::of_rows(rows.iter().map(Vec::as_slice)),
        // "inserted 32 rows into r" / "deleted 49 rows from r".
        (_, QueryOutput::Affected { message }) => Digest::of_write(
            message
                .split_whitespace()
                .find_map(|w| w.parse().ok())
                .unwrap_or(u64::MAX),
        ),
    }
}

/// A fresh database holding `table`.
pub fn database(table: &str, cols: &Columns) -> AdaptiveDb {
    let mut db = AdaptiveDb::new();
    let owned = cols.iter().map(|(n, v)| (*n, v.to_vec())).collect();
    db.register(Table::from_int_columns(table, owned).expect("columns align"))
        .expect("fresh catalog");
    db
}

/// Rung 3 for the SQL workloads: the `AdaptiveDb` call `sql::exec` makes
/// for this statement shape; returns the rows matched (or the first new
/// OID of an append). A `DELETE` has no equivalent — SQL rebuilds the
/// database — so the runner rebuilds the mirror instead of calling this.
pub fn db_apply(db: &mut AdaptiveDb, op: &Op) -> Result<u64, String> {
    let mut preds = Vec::new();
    if let Some(a) = op.a {
        preds.push(("a", pred(a)));
    }
    if let Some(b) = op.b {
        preds.push(("b", pred(b)));
    }
    match op.shape {
        Shape::Sideways => {
            flat(db.select_project(SQL_TABLE, "a", "k", preds[0].1)).map(|v| v.len() as u64)
        }
        Shape::Insert => flat(db.append_rows(SQL_TABLE, &op.rows)).map(u64::from),
        Shape::Delete => Err("DELETE has no AdaptiveDb equivalent".to_string()),
        _ => flat(db.select_conjunctive(SQL_TABLE, &preds)).map(|o| o.len() as u64),
    }
}

/// Rung 3 for `durable_ingest`: a range select over [`API_COLUMN`].
pub fn db_select(db: &mut AdaptiveDb, range: (i64, i64)) -> Result<Vec<u32>, String> {
    flat(db.select_conjunctive(API_TABLE, &[(API_COLUMN, pred(range))]))
}

/// Rung 3 for `durable_ingest`: stage one batch of `(oid, value)` rows;
/// redo-logged and fsynced first when durability is attached.
pub fn db_stage_batch(db: &mut AdaptiveDb, rows: &[Vec<i64>]) -> Result<(), String> {
    let batch: Vec<(u32, i64)> = rows.iter().map(|r| (r[0] as u32, r[1])).collect();
    flat(db.stage_insert_batch(API_TABLE, API_COLUMN, &batch))
}

/// Summed crack counters of every cracked column of `db`.
pub fn crack_stats(db: &AdaptiveDb) -> CrackStats {
    db.total_crack_stats()
}

/// Crack counters as seen through a session, which must not be dirty:
/// `adaptive()` would pay the pending rebuild here instead of inside the
/// next statement.
pub fn session_queries(s: &mut SqlSession) -> usize {
    s.adaptive().total_crack_stats().queries
}

/// Rung 4: a mirror of one column, kept in step with the database's own
/// cracked copy of it.
pub trait MirrorColumn {
    /// Span and sample name of the rung.
    const LAYER: &'static str;
    /// Sample name of the first touch (copy + first select).
    const FIRST_TOUCH: &'static str;
    /// First touch: copy the base values.
    fn build(vals: &[i64]) -> Self;
    /// The predicate; returns the rows matched.
    fn matched(&mut self, range: (i64, i64)) -> u64;
    /// Stage one inserted row, as `stage_insert_batch` does.
    fn stage(&mut self, oid: u32, value: i64);
    /// Pieces the column is cracked into.
    fn pieces(&self) -> usize;
}

impl MirrorColumn for CrackerColumn<i64> {
    const LAYER: &'static str = "cracker_core.column";
    const FIRST_TOUCH: &'static str = "column_first_touch";
    fn build(vals: &[i64]) -> Self {
        CrackerColumn::with_config(vals.to_vec(), CrackerConfig::default())
    }
    fn matched(&mut self, range: (i64, i64)) -> u64 {
        self.select(pred(range)).count() as u64
    }
    fn stage(&mut self, oid: u32, value: i64) {
        self.insert(oid, value);
    }
    fn pieces(&self) -> usize {
        self.piece_count()
    }
}

/// The same predicate on a latched column, from one thread: what the
/// uncontended latch costs over the plain column.
impl MirrorColumn for ConcurrentColumn<i64> {
    const LAYER: &'static str = "cracker_core.concurrent";
    const FIRST_TOUCH: &'static str = "concurrent_first_touch";
    fn build(vals: &[i64]) -> Self {
        let (config, mode) = (CrackerConfig::default(), ConcurrencyMode::default());
        ConcurrentColumn::build(vals.to_vec(), config, mode)
    }
    fn matched(&mut self, range: (i64, i64)) -> u64 {
        self.count(pred(range)) as u64
    }
    fn stage(&mut self, oid: u32, value: i64) {
        self.insert(oid, value);
    }
    fn pieces(&self) -> usize {
        self.piece_count()
    }
}

/// Attach durability with the stated flush policy; takes the initial
/// checkpoint.
pub fn attach(db: &mut AdaptiveDb, dir: &Path) -> Result<u64, String> {
    flat(db.attach_durability(dir, GROUP_COMMIT))
}

/// Take a checkpoint.
pub fn checkpoint(db: &mut AdaptiveDb) -> Result<u64, String> {
    flat(db.checkpoint())
}

/// Recover a database from a durability directory.
pub fn recover(dir: &Path) -> Result<AdaptiveDb, String> {
    flat(AdaptiveDb::recover(
        dir,
        CrackerConfig::default(),
        GROUP_COMMIT,
    ))
}

/// Storage rung: a standalone redo log that never syncs on its own, so
/// [`wal_append_sync`] pays exactly one write and one fsync per batch —
/// what the attached log pays under [`GROUP_COMMIT`].
pub fn wal_open(path: &Path) -> Result<RedoLog, String> {
    flat(RedoLog::open_append(path)).map(|log| log.with_group_commit(usize::MAX))
}

/// Storage rung: the group append + fsync one staged batch costs.
pub fn wal_append_sync(log: &mut RedoLog, rows: &[Vec<i64>]) -> Result<(), String> {
    let recs: Vec<WalRecord> = rows
        .iter()
        .map(|r| WalRecord::Insert {
            table: API_TABLE.to_string(),
            column: API_COLUMN.to_string(),
            oid: r[0] as u32,
            value: r[1],
        })
        .collect();
    flat(log.append_batch(&recs))?;
    flat(log.sync())
}
