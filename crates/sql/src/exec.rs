//! Statement execution: a SQL session over an [`AdaptiveDb`].
//!
//! [`SqlSession`] is the "peek into the future" of §5.1 done right: where
//! the paper's SQL-level experiment had to emulate cracking with
//! `SELECT INTO` fragment tables (and found the catalog churn ruinous),
//! the session lowers statements straight onto the in-memory cracker — so
//! every `SELECT` leaves the store a little better partitioned for the
//! next one.
//!
//! **The text path is normalize → cache → bind → run.** A SELECT or an
//! `INSERT ... VALUES` handed to [`SqlSession::execute_one`] (or alone to
//! [`SqlSession::execute`]) is first reduced to its *shape* by
//! [`crate::token`]'s normalizer, one loop over the text's bytes: words
//! case-folded, spacing and comments collapsed, every integer operand of
//! a comparison or `BETWEEN` and every value of a `VALUES` tuple replaced
//! by `?` and its value kept as a bind. The shape keys a small
//! per-session map of plans. A miss prepares the shape once; a hit
//! lexes, parses and lowers nothing. A SELECT binds the values into a
//! scratch of range predicates and runs its [`Prepared`] plan down the
//! evaluator chosen when it was prepared. Literal text, cached text,
//! statements that arrive parsed and user-prepared statements all end in
//! that one body (`Prepared::run`). An INSERT's plan holds its table,
//! resolved and checked for the tuples' width when the shape was first
//! seen; the binds are appended as its rows. What the shape cannot carry
//! *declines* and is parsed from the original text, so its errors read
//! as written: a first keyword other than `SELECT` or `INSERT`, a second
//! statement, a source `?`, a SELECT's integer anywhere but a comparison
//! (`LIMIT n`), an `INSERT ... SELECT`, tuples of unequal width, a
//! literal that overflows `i64`, and a shape whose prepare fails (`1 > 2`
//! becomes `? > ?`; an INSERT into an unknown table or of the wrong
//! width) — remembered, so the failed prepare is paid once. A plan holds
//! resolved names, so only a schema change can stale it: `CREATE`, `DROP`
//! and an `INSERT ... SELECT` that creates its target empty the map;
//! `INSERT ... VALUES` and `DELETE` evict nothing.
//!
//! Beyond those plans the session holds nothing but the database: DDL/DML
//! mutates the [`AdaptiveDb`]'s catalog in place, taking the conservative end of the
//! paper's open update question only where it must. `INSERT` grows the
//! table's base columns in place (an append, no copy, no other table
//! touched) and stages the new rows into the table's cracked copies,
//! which stay warm; `DELETE` leaves the rows in the base as tombstones
//! and stages them as deletes in *that table's* cracked copies, so they
//! stay warm too; once a table's tombstones reach `len / 64` the base is
//! compacted (OIDs dense again) and the copies compacted and renumbered
//! in place, every boundary kept (`AdaptiveDb::delete_rows`);
//! `CREATE`/`DROP` register and remove one table. No statement
//! touches another table's cracked state, and every statement is
//! validated before it changes anything.

use crate::ast::{SelectStmt, Statement};
use crate::error::{Span, SqlError, SqlResult};
use crate::lower::{lower_select, LoweredSelect, OutputCol, Resolved};
use crate::parser::{parse, parse_one};
use crate::token::{normalize, Shape};
use cracker_core::{CrackerConfig, RangePred};
use engine::hash::FastMap;
use engine::query::{AggFunc, QueryTerm};
use engine::{AdaptiveDb, DbCatalog, Table};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// Selector for one side of an OID pair (join-path assembly).
type PairSide = fn(&(u32, u32)) -> u32;

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutput {
    /// A relation: column labels plus rows.
    Table {
        /// Output column labels.
        columns: Vec<String>,
        /// Row values, one `Vec` per row, aligned with `columns`.
        rows: Vec<Vec<i64>>,
    },
    /// A DDL/DML acknowledgement.
    Affected {
        /// Human-readable summary ("created table r", "inserted 2 rows").
        message: String,
    },
}

impl QueryOutput {
    /// Row count for table outputs; 0 for acknowledgements.
    pub fn row_count(&self) -> usize {
        match self {
            QueryOutput::Table { rows, .. } => rows.len(),
            QueryOutput::Affected { .. } => 0,
        }
    }

    /// The rows, if this is a table output.
    pub fn rows(&self) -> Option<&[Vec<i64>]> {
        match self {
            QueryOutput::Table { rows, .. } => Some(rows),
            QueryOutput::Affected { .. } => None,
        }
    }
}

impl fmt::Display for QueryOutput {
    /// Render as an aligned ASCII table (the REPL's output format).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryOutput::Affected { message } => write!(f, "{message}"),
            QueryOutput::Table { columns, rows } => {
                let mut widths: Vec<usize> = columns.iter().map(String::len).collect();
                let rendered: Vec<Vec<String>> = rows
                    .iter()
                    .map(|r| r.iter().map(i64::to_string).collect())
                    .collect();
                for row in &rendered {
                    for (w, cell) in widths.iter_mut().zip(row) {
                        *w = (*w).max(cell.len());
                    }
                }
                let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| {
                    let mut first = true;
                    for (w, c) in widths.iter().zip(cells) {
                        if !first {
                            write!(f, " | ")?;
                        }
                        first = false;
                        write!(f, "{c:>w$}", w = w)?;
                    }
                    writeln!(f)
                };
                line(f, columns)?;
                writeln!(
                    f,
                    "{}",
                    widths
                        .iter()
                        .map(|w| "-".repeat(*w))
                        .collect::<Vec<_>>()
                        .join("-+-")
                )?;
                for row in &rendered {
                    line(f, row)?;
                }
                write!(
                    f,
                    "({} row{})",
                    rows.len(),
                    if rows.len() == 1 { "" } else { "s" }
                )
            }
        }
    }
}

/// A prepared SELECT: parsed, normalized and resolved once, with `?`
/// placeholders left as bind-time slots, and its evaluator chosen once
/// (the private `path` field, an `AccessPath`): literal text, cached text
/// and user-prepared statements all run the plan through the same body.
/// Produced by [`SqlSession::prepare`]; executed (any number of times,
/// with different values) by [`SqlSession::execute_prepared`] and
/// [`SqlSession::execute_prepared_many`].
#[derive(Debug, Clone)]
pub struct Prepared {
    lowered: LoweredSelect,
    limit: Option<usize>,
    path: AccessPath,
}

/// The evaluator a plan takes, resolved when it is prepared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessPath {
    /// `SELECT count(*) FROM t WHERE a <range>` without `LIMIT`: the
    /// cracked column's piece map answers; no OID is materialized.
    CountRange,
    /// Any other single-table rows or aggregates, over the qualifying
    /// OIDs. `SELECT b FROM t WHERE a <range>` is one of them: `a`'s one
    /// cracked copy selects the OIDs and `b` is gathered from the base by
    /// OID, §3.1's reconstruction on the surrogate.
    SingleTable,
    /// `GROUP BY`.
    Grouped,
    /// A join path.
    Join,
}

impl AccessPath {
    fn of(lowered: &LoweredSelect, limit: Option<usize>) -> AccessPath {
        if lowered.group_by.is_some() {
            return AccessPath::Grouped;
        }
        if lowered.terms.iter().any(|t| !t.joins.is_empty()) {
            return AccessPath::Join;
        }
        match (&lowered.terms[..], &lowered.outputs[..]) {
            (
                [term],
                [OutputCol::Aggregate {
                    func: AggFunc::Count,
                    arg: None,
                    ..
                }],
            ) if term.selections.len() == 1 && limit.is_none() => AccessPath::CountRange,
            _ => AccessPath::SingleTable,
        }
    }
}

impl Prepared {
    /// Lower a parsed SELECT against `catalog` and pick its evaluator.
    fn new(select: &SelectStmt, catalog: &DbCatalog) -> SqlResult<Prepared> {
        let lowered = lower_select(select, catalog)?;
        let path = AccessPath::of(&lowered, select.limit);
        Ok(Prepared {
            lowered,
            limit: select.limit,
            path,
        })
    }

    /// [`new`](Self::new) from source text holding one SELECT.
    fn from_text(src: &str, catalog: &DbCatalog) -> SqlResult<Prepared> {
        match parse_one(src)? {
            Statement::Select(select) => Prepared::new(&select, catalog),
            _ => Err(SqlError::unsupported(
                "only SELECT statements can be prepared",
                Span::default(),
            )),
        }
    }

    /// Number of `?` placeholders each execution must bind.
    pub fn param_count(&self) -> usize {
        self.lowered.param_count
    }

    /// The lowered (still unbound) plan.
    pub fn lowered(&self) -> &LoweredSelect {
        &self.lowered
    }

    /// Bind `params` into `preds` (the caller's scratch) and evaluate.
    fn run(
        &self,
        db: &mut AdaptiveDb,
        preds: &mut Vec<RangePred<i64>>,
        params: &[i64],
    ) -> SqlResult<QueryOutput> {
        let l = &self.lowered;
        l.bind_into(params, preds)?;
        let mut out = match self.path {
            // Indexes what `AccessPath::of` matched: one term, one range.
            AccessPath::CountRange => {
                let sel = &l.terms[0].selections[0];
                let count = db
                    .cracker_for(&sel.table, &sel.attr, Some(preds[0]))?
                    .count(preds[0]);
                QueryOutput::Table {
                    columns: vec![l.outputs[0].label().to_owned()],
                    rows: vec![vec![count as i64]],
                }
            }
            AccessPath::SingleTable => {
                let oids = all_term_oids(db, l, preds)?;
                emit_single_table(db, l, &oids)?
            }
            AccessPath::Grouped => run_grouped(db, l, preds)?,
            AccessPath::Join => run_join(db, l, preds)?,
        };
        // LIMIT caps the delivered rows; the cracking already happened
        // (reorganization is a side effect of evaluation, not delivery).
        if let (Some(n), QueryOutput::Table { rows, .. }) = (self.limit, &mut out) {
            rows.truncate(n);
        }
        Ok(out)
    }
}

/// What the plan cache keeps for one statement shape.
enum Plan {
    /// A SELECT, prepared from its shape.
    Select(Prepared),
    /// `INSERT INTO table VALUES` of tuples as wide as the table: the
    /// binds are its rows, back to back.
    Insert {
        /// The table, resolved when the shape was first seen.
        table: String,
        /// Its column count, which is the width of the shape's tuples.
        arity: usize,
    },
}

impl Plan {
    /// The plan of a shape [`normalize`] wrote to `key`; `None` when the
    /// shape does not prepare, and the text has to report why.
    fn prepare(key: &str, shape: Shape, catalog: &DbCatalog) -> Option<Plan> {
        match shape {
            Shape::Select => Prepared::from_text(key, catalog).ok().map(Plan::Select),
            Shape::Insert { table, arity } => {
                let table = &key[table];
                let fits = (catalog.table(table)).is_ok_and(|t| t.schema().arity() == arity);
                fits.then(|| Plan::Insert {
                    table: table.to_owned(),
                    arity,
                })
            }
        }
    }

    /// Run the plan with the shape's binds.
    fn run(
        &self,
        db: &mut AdaptiveDb,
        preds: &mut Vec<RangePred<i64>>,
        binds: &[i64],
    ) -> SqlResult<QueryOutput> {
        match self {
            Plan::Select(plan) => plan.run(db, preds, binds),
            Plan::Insert { table, arity } => {
                let rows: Vec<&[i64]> = binds.chunks_exact(*arity).collect();
                db.append_rows(table, &rows)?;
                Ok(inserted(rows.len(), table))
            }
        }
    }
}

/// The acknowledgement of an `INSERT`.
fn inserted(rows: usize, table: &str) -> QueryOutput {
    QueryOutput::Affected {
        message: format!("inserted {rows} rows into {table}"),
    }
}

/// Statement shapes a session keeps plans for; past this many the cache
/// starts over.
const PLAN_CACHE_CAPACITY: usize = 128;

/// Counters of a session's plan cache, as
/// [`SqlSession::plan_cache_stats`] reports them. Every text handed to
/// [`SqlSession::execute`] / [`SqlSession::execute_one`] counts once, as a
/// hit, a miss or a decline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Statements that ran a cached plan: no lexing, parsing or lowering.
    pub hits: u64,
    /// Statements whose shape was new: prepared once, then run.
    pub misses: u64,
    /// Statements that took the uncached path: not one literal SELECT or
    /// `INSERT ... VALUES` the cache can express, or a shape whose prepare
    /// failed before.
    pub declined: u64,
    /// Entries dropped by a schema change or by the cache filling up.
    pub evictions: u64,
    /// Shapes cached now, unpreparable ones included.
    pub entries: usize,
}

/// The per-session statement cache: normalized text → plan.
#[derive(Default)]
struct PlanCache {
    /// `None` remembers a shape whose prepare failed, so the failure is
    /// paid once and every repeat goes straight to the uncached path.
    plans: FastMap<String, Option<Plan>>,
    /// The shape and literals of the statement being looked up, reused.
    key: String,
    binds: Vec<i64>,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// Forget every plan: resolved names may no longer mean what they did.
    fn clear(&mut self) {
        self.stats.evictions += self.plans.len() as u64;
        self.plans.clear();
    }
}

/// An interactive SQL session over an adaptive (cracking) database.
pub struct SqlSession {
    db: AdaptiveDb,
    cache: PlanCache,
    /// The running statement's bound predicates, reused.
    bound: Vec<RangePred<i64>>,
}

impl SqlSession {
    /// An empty session with default cracker configuration.
    pub fn new() -> Self {
        Self::with_config(CrackerConfig::default())
    }

    /// An empty session with an explicit cracker configuration.
    pub fn with_config(config: CrackerConfig) -> Self {
        Self::with_db(AdaptiveDb::with_config(config))
    }

    /// A session over an existing database: its tables, cracked copies,
    /// configuration and concurrency mode.
    pub fn with_db(db: AdaptiveDb) -> Self {
        SqlSession {
            db,
            cache: PlanCache::default(),
            bound: Vec::new(),
        }
    }

    /// Load a table programmatically (the REPL uses this for demo data;
    /// tests for fixtures). Columns must be equally long and distinctly
    /// named; the vectors move into the database without a copy.
    pub fn load_table(
        &mut self,
        name: impl Into<String>,
        columns: Vec<(String, Vec<i64>)>,
    ) -> SqlResult<()> {
        self.register_table(name.into(), columns, Span::default())
    }

    /// Validate and register a new base table. Everything that could
    /// make the engine refuse (or panic on) the table is rejected here,
    /// at the statement that introduces it.
    fn register_table(
        &mut self,
        name: String,
        columns: Vec<(String, Vec<i64>)>,
        span: Span,
    ) -> SqlResult<()> {
        let duplicate = columns.iter().enumerate().find_map(|(i, (column, _))| {
            let seen = columns[..i].iter().any(|(earlier, _)| earlier == column);
            seen.then_some(column)
        });
        let problem = if self.db.catalog().table(&name).is_ok() {
            Some(format!("table {name:?} already exists"))
        } else if columns.is_empty() {
            Some("a table needs at least one column".to_owned())
        } else {
            duplicate.map(|c| format!("duplicate column name {c:?} in table {name:?}"))
        };
        if let Some(problem) = problem {
            return Err(SqlError::semantic(problem, span));
        }
        let (names, values): (Vec<String>, Vec<Vec<i64>>) = columns.into_iter().unzip();
        let columns = names.iter().map(String::as_str).zip(values).collect();
        self.db.register(Table::from_int_columns(name, columns)?)?;
        self.cache.clear();
        Ok(())
    }

    /// A base table by name; a miss is a semantic error at `span`.
    fn table(&self, name: &str, span: Span) -> SqlResult<&Table> {
        let unknown = |_| SqlError::semantic(format!("unknown table {name:?}"), span);
        self.db.catalog().table(name).map_err(unknown)
    }

    /// The underlying adaptive database: catalog and cracked state as
    /// every executed statement left them.
    pub fn adaptive(&self) -> &AdaptiveDb {
        &self.db
    }

    /// Number of columns cracked so far.
    pub fn cracked_columns(&self) -> usize {
        self.db.cracked_columns()
    }

    /// What the plan cache has done for this session so far.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            entries: self.cache.plans.len(),
            ..self.cache.stats
        }
    }

    /// Execute every statement in `src`, returning one output per
    /// statement. A lone literal SELECT or `INSERT ... VALUES` goes
    /// through the plan cache like [`Self::execute_one`]; otherwise the
    /// whole source is parsed before any statement runs, so a syntax error
    /// anywhere leaves the session untouched.
    pub fn execute(&mut self, src: &str) -> SqlResult<Vec<QueryOutput>> {
        if let Some(out) = self.execute_cached(src) {
            return Ok(vec![out?]);
        }
        let stmts = parse(src)?;
        self.execute_batch(&stmts)
    }

    /// Execute a pre-parsed batch of statements in order, returning one
    /// output per statement. This is the batch entry point of the
    /// block-at-a-time executor: callers that parse (or build) statements
    /// up front skip per-statement parsing entirely, and semantic errors
    /// surface per statement, after the syntactic atomicity [`Self::execute`]
    /// already guarantees.
    pub fn execute_batch(&mut self, stmts: &[Statement]) -> SqlResult<Vec<QueryOutput>> {
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.run_statement(stmt)?);
        }
        Ok(out)
    }

    /// Execute a source text expected to hold exactly one statement. A
    /// literal SELECT or `INSERT ... VALUES` goes through the plan cache —
    /// normalize → cache → bind → run, see the [module docs](self) for
    /// what declines; everything else is parsed and run from the text as
    /// written.
    pub fn execute_one(&mut self, src: &str) -> SqlResult<QueryOutput> {
        if let Some(out) = self.execute_cached(src) {
            return out;
        }
        let stmt = parse_one(src)?;
        self.run_statement(&stmt)
    }

    /// Run `src` from the plan cache; `None` declines.
    fn execute_cached(&mut self, src: &str) -> Option<SqlResult<QueryOutput>> {
        let SqlSession { db, cache, bound } = self;
        let Some(shape) = normalize(src, &mut cache.key, &mut cache.binds) else {
            cache.stats.declined += 1;
            return None;
        };
        let plan = match cache.plans.get(cache.key.as_str()) {
            Some(plan) => {
                match plan {
                    Some(_) => cache.stats.hits += 1,
                    None => cache.stats.declined += 1,
                }
                plan
            }
            None => {
                cache.stats.misses += 1;
                if cache.plans.len() >= PLAN_CACHE_CAPACITY {
                    cache.clear();
                }
                // A shape that does not prepare reports its error from
                // the original text; this one's spans point into the key.
                let plan = Plan::prepare(&cache.key, shape, db.catalog());
                cache.plans.entry(cache.key.clone()).or_insert(plan)
            }
        };
        plan.as_ref().map(|plan| plan.run(db, bound, &cache.binds))
    }

    /// Prepare a SELECT: parse, normalize and resolve once, leaving `?`
    /// placeholders as unbound slots. The returned plan binds integer
    /// values per execution via [`Self::execute_prepared`] /
    /// [`Self::execute_prepared_many`] — the paper's recurring
    /// experiment shape (`A < v1 < v2 < A+w`) without re-lowering per
    /// query.
    pub fn prepare(&self, src: &str) -> SqlResult<Prepared> {
        Prepared::from_text(src, self.db.catalog())
    }

    /// Execute a prepared SELECT with one set of parameter values.
    pub fn execute_prepared(
        &mut self,
        prepared: &Prepared,
        params: &[i64],
    ) -> SqlResult<QueryOutput> {
        prepared.run(&mut self.db, &mut self.bound, params)
    }

    /// Execute a prepared SELECT once per binding, returning one output
    /// per binding. Single-table plans whose bindings all constrain one
    /// column ride the database's batch select — the cracked column
    /// answers the whole batch in one pass, under one latch acquisition
    /// per touched shard; other shapes fall back to one
    /// [`Self::execute_prepared`] per binding. Row order within each
    /// output is unspecified, as everywhere in this engine (cracked
    /// answers come back in physical piece order).
    pub fn execute_prepared_many(
        &mut self,
        prepared: &Prepared,
        bindings: &[Vec<i64>],
    ) -> SqlResult<Vec<QueryOutput>> {
        if let Some(out) = self.try_prepared_batch(prepared, bindings)? {
            return Ok(out);
        }
        bindings
            .iter()
            .map(|b| self.execute_prepared(prepared, b))
            .collect()
    }

    /// The batched leg of [`Self::execute_prepared_many`]: one term, one
    /// table, no joins or grouping, and exactly one selection column —
    /// every binding then lowers to one [`RangePred`] over the same
    /// cracked column, which [`AdaptiveDb::select_batch`] answers in one
    /// pass.
    fn try_prepared_batch(
        &mut self,
        prepared: &Prepared,
        bindings: &[Vec<i64>],
    ) -> SqlResult<Option<Vec<QueryOutput>>> {
        let l = &prepared.lowered;
        let batchable = l.tables.len() == 1
            && l.group_by.is_none()
            && l.terms.len() == 1
            && l.terms[0].joins.is_empty()
            && l.terms[0].selections.len() == 1;
        if !batchable || bindings.is_empty() {
            return Ok(None);
        }
        let mut preds = Vec::with_capacity(bindings.len());
        for b in bindings {
            l.bind_into(b, &mut self.bound)?;
            preds.push(self.bound[0]);
        }
        let sel = &l.terms[0].selections[0];
        let oid_batches = self.db.select_batch(&sel.table, &sel.attr, &preds)?;
        let mut out = Vec::with_capacity(oid_batches.len());
        for mut oids in oid_batches {
            oids.sort_unstable();
            let mut o = emit_single_table(&self.db, l, &oids)?;
            if let (Some(n), QueryOutput::Table { rows, .. }) = (prepared.limit, &mut o) {
                rows.truncate(n);
            }
            out.push(o);
        }
        Ok(Some(out))
    }

    fn run_statement(&mut self, stmt: &Statement) -> SqlResult<QueryOutput> {
        let message = match stmt {
            Statement::Select(select) => return self.run_select(select),
            Statement::CreateTable {
                name,
                columns,
                span,
            } => {
                let columns = columns.iter().map(|c| (c.clone(), Vec::new())).collect();
                self.register_table(name.clone(), columns, *span)?;
                format!("created table {name}")
            }
            Statement::DropTable { name, span } => {
                self.table(name, *span)?;
                self.db.drop_table(name)?;
                self.cache.clear();
                format!("dropped table {name}")
            }
            Statement::InsertValues { table, rows, span } => {
                let arity = self.table(table, *span)?.schema().arity();
                if let Some(row) = rows.iter().find(|row| row.len() != arity) {
                    return Err(SqlError::semantic(
                        format!(
                            "table {table:?} has {arity} columns but the rows have {}",
                            row.len()
                        ),
                        *span,
                    ));
                }
                self.db.append_rows(table, rows)?;
                return Ok(inserted(rows.len(), table));
            }
            Statement::InsertSelect {
                table,
                select,
                span,
            } => {
                let (columns, rows) = match self.run_select(select)? {
                    QueryOutput::Table { columns, rows } => (columns, rows),
                    QueryOutput::Affected { .. } => unreachable!("SELECT yields a table"),
                };
                if columns.iter().any(|c| c.contains('(')) {
                    return Err(SqlError::unsupported(
                        "INSERT INTO ... SELECT with aggregate outputs \
                         (materialize plain columns)",
                        *span,
                    ));
                }
                match self.db.catalog().table(table) {
                    Ok(t) => {
                        let arity = t.schema().arity();
                        if arity != columns.len() {
                            return Err(SqlError::semantic(
                                format!(
                                    "table {table:?} has {arity} columns but the query \
                                     produces {}",
                                    columns.len()
                                ),
                                *span,
                            ));
                        }
                        self.db.append_rows(table, &rows)?;
                    }
                    Err(_) => {
                        // Materialize into a new table, as §2.1's benchmark
                        // query does.
                        let mut cols: Vec<(String, Vec<i64>)> = columns
                            .into_iter()
                            .map(|c| (c, Vec::with_capacity(rows.len())))
                            .collect();
                        for row in &rows {
                            for ((_, col), v) in cols.iter_mut().zip(row) {
                                col.push(*v);
                            }
                        }
                        self.register_table(table.clone(), cols, *span)?;
                    }
                }
                return Ok(inserted(rows.len(), table));
            }
            Statement::Delete {
                table,
                filter,
                span,
            } => {
                // Evaluate the predicate through the (cracking) engine —
                // deletion is itself a query first.
                let probe = SelectStmt {
                    projection: crate::ast::Projection::Star,
                    tables: vec![(table.clone(), *span)],
                    filter: filter.clone(),
                    group_by: Vec::new(),
                    limit: None,
                };
                let lowered = lower_select(&probe, self.db.catalog())?;
                if lowered.param_count > 0 {
                    return Err(SqlError::unsupported(
                        "parameter placeholders in DELETE (only SELECT can be prepared)",
                        *span,
                    ));
                }
                lowered.bind_into(&[], &mut self.bound)?;
                let doomed = all_term_oids(&mut self.db, &lowered, &self.bound)?;
                let deleted = self.db.delete_rows(table, &doomed)?;
                format!("deleted {deleted} rows from {table}")
            }
        };
        Ok(QueryOutput::Affected { message })
    }

    /// A SELECT that arrives parsed: prepare from the AST, then run the
    /// prepared plan.
    fn run_select(&mut self, stmt: &SelectStmt) -> SqlResult<QueryOutput> {
        let plan = Prepared::new(stmt, self.db.catalog())?;
        if plan.param_count() > 0 {
            return Err(SqlError::unsupported(
                format!(
                    "{} unbound parameter placeholder(s) — prepare the \
                     statement and bind values",
                    plan.param_count()
                ),
                Span::default(),
            ));
        }
        plan.run(&mut self.db, &mut self.bound, &[])
    }
}

/// Each term of a plan with its bound predicates: `preds` holds one per
/// selection, counted across the terms in order.
fn bound_terms<'a>(
    lowered: &'a LoweredSelect,
    mut preds: &'a [RangePred<i64>],
) -> impl Iterator<Item = (&'a QueryTerm, &'a [RangePred<i64>])> {
    lowered.terms.iter().map(move |term| {
        let (mine, rest) = preds.split_at(term.selections.len());
        preds = rest;
        (term, mine)
    })
}

/// Qualifying OIDs of one term's selections over `table` (cracks as a
/// side effect).
fn term_oids(
    db: &mut AdaptiveDb,
    table: &str,
    term: &QueryTerm,
    preds: &[RangePred<i64>],
) -> SqlResult<Vec<u32>> {
    let conjuncts = (term.selections.iter().zip(preds))
        .filter(|(s, _)| s.table == table)
        .map(|(s, pred)| (s.attr.as_str(), *pred));
    // One or two conjuncts — every shape but the rare wide conjunction —
    // go down on the stack.
    let n = conjuncts.clone().count();
    let oids = if n <= 2 {
        let mut few = [("", RangePred::with_bounds(None, None)); 2];
        for (slot, conjunct) in few.iter_mut().zip(conjuncts) {
            *slot = conjunct;
        }
        db.select_conjunctive(table, &few[..n])?
    } else {
        db.select_conjunctive(table, &conjuncts.collect::<Vec<_>>())?
    };
    Ok(oids)
}

/// Union of qualifying OIDs over all DNF terms of a single-table plan;
/// empty when the WHERE clause is unsatisfiable (no terms).
fn all_term_oids(
    db: &mut AdaptiveDb,
    lowered: &LoweredSelect,
    preds: &[RangePred<i64>],
) -> SqlResult<Vec<u32>> {
    let table = &lowered.tables[0];
    if let [term] = &lowered.terms[..] {
        return term_oids(db, table, term, preds);
    }
    let mut acc: BTreeSet<u32> = BTreeSet::new();
    for (term, preds) in bound_terms(lowered, preds) {
        acc.extend(term_oids(db, table, term, preds)?);
    }
    Ok(acc.into_iter().collect())
}

/// Materialize a single-table output (star, aggregate or plain-column
/// projection) from its qualifying OIDs. Shared by the
/// statement-at-a-time path and the prepared batch path.
fn emit_single_table(
    db: &AdaptiveDb,
    lowered: &LoweredSelect,
    oids: &[u32],
) -> SqlResult<QueryOutput> {
    let t = db.catalog().table(&lowered.tables[0])?;

    // Header resolution: empty outputs means `SELECT *`.
    if lowered.outputs.is_empty() {
        let columns: Vec<String> = t.schema().names().iter().map(|s| s.to_string()).collect();
        let rows = project_rows(t, oids, &columns)?;
        return Ok(QueryOutput::Table { columns, rows });
    }

    let columns: Vec<String> = lowered
        .outputs
        .iter()
        .map(|o| o.label().to_string())
        .collect();
    let aggregates: Vec<&OutputCol> = lowered
        .outputs
        .iter()
        .filter(|o| matches!(o, OutputCol::Aggregate { .. }))
        .collect();
    if !aggregates.is_empty() {
        if aggregates.len() != lowered.outputs.len() {
            return Err(SqlError::semantic(
                "mixing plain columns with aggregates requires GROUP BY",
                Span::default(),
            ));
        }
        let mut row = Vec::with_capacity(aggregates.len());
        for agg in &aggregates {
            let OutputCol::Aggregate { func, arg, .. } = agg else {
                unreachable!("filtered above")
            };
            row.push(fold_aggregate(t, oids, *func, arg.as_ref())?);
        }
        return Ok(QueryOutput::Table {
            columns,
            rows: vec![row],
        });
    }

    // Plain column projection.
    let sources: Vec<String> = lowered
        .outputs
        .iter()
        .map(|o| match o {
            OutputCol::Column { source, .. } => source.1.clone(),
            OutputCol::Aggregate { .. } => unreachable!("no aggregates here"),
        })
        .collect();
    let rows = project_rows(t, oids, &sources)?;
    Ok(QueryOutput::Table { columns, rows })
}

fn run_grouped(
    db: &mut AdaptiveDb,
    lowered: &LoweredSelect,
    preds: &[RangePred<i64>],
) -> SqlResult<QueryOutput> {
    // lint: allow(unwrap) — `AccessPath::of` routes here only when group_by is set
    let (g_table, g_col) = lowered.group_by.clone().expect("caller checked group_by");
    if lowered.tables.len() > 1 || lowered.terms.iter().any(|t| !t.joins.is_empty()) {
        return Err(SqlError::unsupported(
            "GROUP BY over a join (group the materialized join result instead)",
            Span::default(),
        ));
    }

    let has_filter =
        lowered.terms.iter().any(|t| !t.selections.is_empty()) || lowered.terms.len() != 1;

    // Per-group values for every aggregate output, keyed by group value.
    let mut groups: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    let agg_outputs: Vec<(AggFunc, Option<Resolved>)> = lowered
        .outputs
        .iter()
        .filter_map(|o| match o {
            OutputCol::Aggregate { func, arg, .. } => Some((*func, arg.clone())),
            OutputCol::Column { .. } => None,
        })
        .collect();

    if !has_filter {
        // No WHERE: route through the Ω cracker.
        for (i, (func, arg)) in agg_outputs.iter().enumerate() {
            let pairs = db.group_aggregate(
                &g_table,
                &g_col,
                *func,
                arg.as_ref().map(|(_, c)| c.as_str()),
            )?;
            for (g, v) in pairs {
                groups
                    .entry(g)
                    .or_insert_with(|| vec![0; agg_outputs.len()])[i] = v;
            }
        }
        if agg_outputs.is_empty() {
            // Pure `SELECT k ... GROUP BY k`: distinct groups via Ω.
            let pairs = db.group_aggregate(&g_table, &g_col, AggFunc::Count, None)?;
            for (g, _) in pairs {
                groups.entry(g).or_default();
            }
        }
    } else {
        // WHERE + GROUP BY: crack for the selection, then aggregate the
        // qualifying tuples.
        let oids = all_term_oids(db, lowered, preds)?;
        let t = db.catalog().table(&g_table)?;
        let g_vals = t.ints(&g_col)?;
        let mut member_oids: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for &o in &oids {
            member_oids.entry(g_vals[o as usize]).or_default().push(o);
        }
        for (g, members) in &member_oids {
            let mut row = Vec::with_capacity(agg_outputs.len());
            for (func, arg) in &agg_outputs {
                row.push(fold_aggregate(t, members, *func, arg.as_ref())?);
            }
            groups.insert(*g, row);
        }
    }

    // Assemble rows in output order.
    let columns: Vec<String> = lowered
        .outputs
        .iter()
        .map(|o| o.label().to_string())
        .collect();
    let mut rows = Vec::with_capacity(groups.len());
    for (g, aggs) in &groups {
        let mut row = Vec::with_capacity(lowered.outputs.len());
        let mut agg_i = 0;
        for o in &lowered.outputs {
            match o {
                OutputCol::Column { .. } => row.push(*g),
                OutputCol::Aggregate { .. } => {
                    row.push(aggs[agg_i]);
                    agg_i += 1;
                }
            }
        }
        rows.push(row);
    }
    Ok(QueryOutput::Table { columns, rows })
}

/// Evaluate a join-path term: left-deep over the ^ cracker, one
/// [`AdaptiveDb::join`] per step, attaching one new table at a time
/// (the paper's "join-path through the database schema", §3.1). Each
/// intermediate is a vector of OID tuples aligned with the list of
/// joined tables; cycle-closing steps become semijoin filters.
fn run_join(
    db: &mut AdaptiveDb,
    lowered: &LoweredSelect,
    preds: &[RangePred<i64>],
) -> SqlResult<QueryOutput> {
    if lowered.terms.len() != 1 {
        return Err(SqlError::unsupported(
            "OR across join queries (run the disjuncts separately)",
            Span::default(),
        ));
    }
    let term = &lowered.terms[0];

    // Per-table conjunctive filters (cracking each referenced column).
    let mut side_oids: BTreeMap<String, HashSet<u32>> = BTreeMap::new();
    for table in &lowered.tables {
        let oids = term_oids(db, table, term, preds)?;
        side_oids.insert(table.clone(), oids.into_iter().collect());
    }

    // Order the join steps so each attaches exactly one new table
    // (lowering validated connectivity, so this always terminates).
    let mut joined: Vec<String> = vec![lowered.tables[0].clone()];
    let mut pending: Vec<_> = term.joins.clone();
    let mut attach_steps = Vec::new(); // (step, new-table-is-right)
    let mut cycle_steps = Vec::new();
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|j| {
            let l_in = joined.contains(&j.left);
            let r_in = joined.contains(&j.right);
            match (l_in, r_in) {
                (true, true) => {
                    cycle_steps.push(j.clone());
                    false
                }
                (true, false) => {
                    joined.push(j.right.clone());
                    attach_steps.push((j.clone(), true));
                    false
                }
                (false, true) => {
                    joined.push(j.left.clone());
                    attach_steps.push((j.clone(), false));
                    false
                }
                (false, false) => true, // not reachable yet; retry
            }
        });
        debug_assert!(
            pending.len() < before,
            "lowering guarantees a connected join path"
        );
    }

    // Left-deep evaluation: rows are OID tuples aligned with `joined`.
    let mut rows: Vec<Vec<u32>> = Vec::new();
    let mut first = true;
    for (step, new_is_right) in &attach_steps {
        let pairs = db.join(&step.left, &step.left_attr, &step.right, &step.right_attr)?;
        let keep_l = &side_oids[&step.left];
        let keep_r = &side_oids[&step.right];
        let pairs: Vec<(u32, u32)> = pairs
            .into_iter()
            .filter(|(l, r)| keep_l.contains(l) && keep_r.contains(r))
            .collect();
        let (existing_table, existing_of_pair): (&str, PairSide) = if *new_is_right {
            (&step.left, |p| p.0)
        } else {
            (&step.right, |p| p.1)
        };
        let new_of_pair: PairSide = if *new_is_right { |p| p.1 } else { |p| p.0 };
        if first {
            // Seed with the first step's pairs directly, in `joined`
            // order (existing table first).
            rows = pairs
                .iter()
                .map(|p| vec![existing_of_pair(p), new_of_pair(p)])
                .collect();
            first = false;
            continue;
        }
        // Hash the new side by the existing table's OID and extend.
        let mut matches: HashMap<u32, Vec<u32>> = HashMap::new();
        for p in &pairs {
            matches
                .entry(existing_of_pair(p))
                .or_default()
                .push(new_of_pair(p));
        }
        let idx = joined
            .iter()
            .position(|t| t == existing_table)
            .expect("attach order puts the existing table in `joined`"); // lint: allow(unwrap) — see message
        let mut next = Vec::new();
        for row in &rows {
            if let Some(news) = matches.get(&row[idx]) {
                for &n in news {
                    let mut r = row.clone();
                    r.push(n);
                    next.push(r);
                }
            }
        }
        rows = next;
    }

    // Cycle-closing steps filter the assembled rows.
    for step in &cycle_steps {
        let pairs: HashSet<(u32, u32)> = db
            .join(&step.left, &step.left_attr, &step.right, &step.right_attr)?
            .into_iter()
            .collect();
        // lint: allow(unwrap) — the join planner only emits tables already attached
        let li = joined.iter().position(|t| *t == step.left).expect("joined");
        let ri = joined
            .iter()
            .position(|t| *t == step.right)
            .expect("joined"); // lint: allow(unwrap) — same planner invariant
        rows.retain(|row| pairs.contains(&(row[li], row[ri])));
    }
    rows.sort_unstable();

    // COUNT(*) over the join.
    if lowered.outputs.len() == 1 {
        if let OutputCol::Aggregate {
            func: AggFunc::Count,
            arg: None,
            label,
        } = &lowered.outputs[0]
        {
            return Ok(QueryOutput::Table {
                columns: vec![label.clone()],
                rows: vec![vec![rows.len() as i64]],
            });
        }
    }
    if lowered
        .outputs
        .iter()
        .any(|o| matches!(o, OutputCol::Aggregate { .. }))
    {
        return Err(SqlError::unsupported(
            "aggregates other than COUNT(*) over a join",
            Span::default(),
        ));
    }

    // Column projection over the joined tuples. `SELECT *`
    // concatenates the schemas in join order, qualifying names that
    // appear in more than one table.
    let mut columns = Vec::new();
    let mut getters: Vec<(usize, String)> = Vec::new(); // (table idx, column)
    if lowered.outputs.is_empty() {
        for (ti, tname) in joined.iter().enumerate() {
            let t = db.catalog().table(tname)?;
            for name in t.schema().names() {
                let clash = joined.iter().enumerate().any(|(oi, other)| {
                    oi != ti
                        && db
                            .catalog()
                            .table(other)
                            .is_ok_and(|ot| ot.schema().position(name).is_some())
                });
                columns.push(if clash {
                    format!("{tname}.{name}")
                } else {
                    name.to_string()
                });
                getters.push((ti, name.to_string()));
            }
        }
    } else {
        for o in &lowered.outputs {
            let OutputCol::Column { label, source } = o else {
                unreachable!("aggregates rejected above")
            };
            columns.push(label.clone());
            let ti = joined
                .iter()
                .position(|t| *t == source.0)
                .expect("resolution checked FROM membership"); // lint: allow(unwrap) — see message
            getters.push((ti, source.1.clone()));
        }
    }
    let mut out_rows = Vec::with_capacity(rows.len());
    for row in &rows {
        let mut out = Vec::with_capacity(getters.len());
        for (ti, col) in &getters {
            let t = db.catalog().table(&joined[*ti])?;
            out.push(t.ints(col)?[row[*ti] as usize]);
        }
        out_rows.push(out);
    }
    Ok(QueryOutput::Table {
        columns,
        rows: out_rows,
    })
}

impl Default for SqlSession {
    fn default() -> Self {
        Self::new()
    }
}

/// Project `cols` of `table` at the given OIDs into rows.
fn project_rows(table: &Table, oids: &[u32], cols: &[String]) -> SqlResult<Vec<Vec<i64>>> {
    let col_slices: Vec<&[i64]> = cols
        .iter()
        .map(|c| table.ints(c))
        .collect::<Result<_, _>>()?;
    Ok(oids
        .iter()
        .map(|&o| col_slices.iter().map(|s| s[o as usize]).collect())
        .collect())
}

/// Compute one aggregate over the rows at `oids`.
fn fold_aggregate(
    table: &Table,
    oids: &[u32],
    func: AggFunc,
    arg: Option<&Resolved>,
) -> SqlResult<i64> {
    if func == AggFunc::Count {
        return Ok(oids.len() as i64);
    }
    // lint: allow(unwrap) — the parser rejects argument-less non-COUNT aggregates
    let (_, col) = arg.expect("parser guarantees non-COUNT aggregates have a column");
    let vals = table.ints(col)?;
    let it = oids.iter().map(|&o| vals[o as usize]);
    Ok(match func {
        AggFunc::Sum => it.sum(),
        // SQL would return NULL for empty groups; without NULLs we return 0,
        // which only arises for an empty overall selection.
        AggFunc::Min => it.min().unwrap_or(0),
        AggFunc::Max => it.max().unwrap_or(0),
        AggFunc::Count => unreachable!("handled above"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session preloaded with the paper's two-table playground.
    fn session() -> SqlSession {
        let mut s = SqlSession::new();
        s.load_table(
            "r",
            vec![
                ("k".into(), (0..100).map(|i| i % 10).collect()),
                ("a".into(), (0..100).rev().collect()),
            ],
        )
        .unwrap();
        s.load_table(
            "s",
            vec![
                ("k".into(), (0..20).map(|i| i % 5).collect()),
                ("b".into(), (0..20).map(|i| i * 2).collect()),
            ],
        )
        .unwrap();
        s
    }

    fn rows(out: &QueryOutput) -> &[Vec<i64>] {
        out.rows().expect("expected table output")
    }

    #[test]
    fn the_papers_introduction_query() {
        let mut s = session();
        let out = s.execute_one("select * from r where a < 10").unwrap();
        assert_eq!(out.row_count(), 10);
        for row in rows(&out) {
            assert!(row[1] < 10, "a column filtered");
        }
        // The select cracked column a as a side effect.
        assert_eq!(s.cracked_columns(), 1);
    }

    #[test]
    fn repeat_queries_get_cheaper_not_wronger() {
        let mut s = session();
        let q = "select count(*) from r where a >= 20 and a < 50";
        let first = s.execute_one(q).unwrap();
        let second = s.execute_one(q).unwrap();
        assert_eq!(rows(&first)[0][0], 30);
        assert_eq!(first, second);
    }

    #[test]
    fn projection_and_order_of_columns() {
        let mut s = session();
        let out = s.execute_one("select a, k from r where a = 99").unwrap();
        match &out {
            QueryOutput::Table { columns, rows } => {
                assert_eq!(columns, &["a", "k"]);
                assert_eq!(rows, &[vec![99, 0]]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn disjunction_unions_terms() {
        let mut s = session();
        let out = s
            .execute_one("select count(*) from r where a < 5 or a >= 95")
            .unwrap();
        assert_eq!(rows(&out)[0][0], 10);
        // Both disjuncts cracked the same column; no duplicates.
        let out = s
            .execute_one("select count(*) from r where a < 5 or a < 3")
            .unwrap();
        assert_eq!(rows(&out)[0][0], 5);
    }

    #[test]
    fn aggregates_without_group_by() {
        let mut s = session();
        let out = s
            .execute_one("select count(*), sum(a), min(a), max(a) from r where a < 10")
            .unwrap();
        assert_eq!(rows(&out), &[vec![10, 45, 0, 9]]);
    }

    #[test]
    fn mixing_columns_and_aggregates_needs_group_by() {
        let mut s = session();
        let err = s.execute_one("select k, count(*) from r").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
    }

    #[test]
    fn group_by_without_filter_uses_omega() {
        let mut s = session();
        let out = s
            .execute_one("select k, count(*), max(a) from r group by k")
            .unwrap();
        let r = rows(&out);
        assert_eq!(r.len(), 10);
        // Group 0 holds oids 0,10,..,90; a = 99-oid; max is 99.
        assert_eq!(r[0], vec![0, 10, 99]);
        assert_eq!(r[9], vec![9, 10, 90]);
    }

    #[test]
    fn group_by_with_filter_groups_the_cracked_selection() {
        let mut s = session();
        let out = s
            .execute_one("select k, count(*) from r where a >= 50 group by k")
            .unwrap();
        let r = rows(&out);
        // a >= 50 covers oids 0..=49: five oids per k-group 0..=9.
        assert_eq!(r.len(), 10);
        assert!(r.iter().all(|row| row[1] == 5));
        assert_eq!(s.cracked_columns(), 1, "filter cracked column a");
    }

    #[test]
    fn distinct_groups_without_aggregates() {
        let mut s = session();
        let out = s.execute_one("select k from r group by k").unwrap();
        let ks: Vec<i64> = rows(&out).iter().map(|r| r[0]).collect();
        assert_eq!(ks, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn the_papers_join_query_runs_via_the_wedge() {
        let mut s = session();
        let out = s
            .execute_one("select count(*) from r, s where r.k = s.k and r.a < 5")
            .unwrap();
        // a<5 ⇒ oids 95..=99 ⇒ k values 5..=9; s.k values are 0..=4 (i%5),
        // so only k in {} match... k=5..9 vs s.k ∈ 0..=4: no matches.
        assert_eq!(rows(&out)[0][0], 0);
        let out = s
            .execute_one("select count(*) from r, s where r.k = s.k and r.a >= 95")
            .unwrap();
        // a>=95 ⇒ oids 0..=4 ⇒ k = 0..4; each k matches 4 s-rows (20/5).
        assert_eq!(rows(&out)[0][0], 5 * 4);
    }

    #[test]
    fn join_star_projection_qualifies_clashing_columns() {
        let mut s = session();
        let out = s
            .execute_one("select * from r, s where r.k = s.k and r.a = 99 and s.b = 0")
            .unwrap();
        match &out {
            QueryOutput::Table { columns, rows } => {
                assert_eq!(columns, &["r.k", "a", "s.k", "b"]);
                assert_eq!(rows, &[vec![0, 99, 0, 0]]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_with_explicit_projection() {
        let mut s = session();
        let out = s
            .execute_one("select r.a, s.b from r, s where r.k = s.k and r.a = 99 and s.b <= 10")
            .unwrap();
        let mut got = rows(&out).to_vec();
        got.sort_unstable();
        // r.a=99 ⇒ oid 0, k=0; s rows with k=0: oids 0,5,10,15 → b=0,10,20,30;
        // b<=10 keeps b ∈ {0,10}.
        assert_eq!(got, vec![vec![99, 0], vec![99, 10]]);
    }

    #[test]
    fn three_way_join_path_agrees_with_nested_loops() {
        let mut s = SqlSession::new();
        // r(k,a) ⋈ s(k,m) ⋈ t(m,b): a proper join path through the schema.
        let r_k: Vec<i64> = (0..60).map(|i| i % 6).collect();
        let r_a: Vec<i64> = (0..60).collect();
        let s_k: Vec<i64> = (0..30).map(|i| i % 6).collect();
        let s_m: Vec<i64> = (0..30).map(|i| i % 5).collect();
        let t_m: Vec<i64> = (0..20).map(|i| i % 5).collect();
        let t_b: Vec<i64> = (0..20).map(|i| i * 10).collect();
        s.load_table(
            "r",
            vec![("k".into(), r_k.clone()), ("a".into(), r_a.clone())],
        )
        .unwrap();
        s.load_table(
            "s",
            vec![("k".into(), s_k.clone()), ("m".into(), s_m.clone())],
        )
        .unwrap();
        s.load_table(
            "t",
            vec![("m".into(), t_m.clone()), ("b".into(), t_b.clone())],
        )
        .unwrap();
        let out = s
            .execute_one(
                "select count(*) from r, s, t \
                 where r.k = s.k and s.m = t.m and r.a < 30 and t.b >= 50",
            )
            .unwrap();
        let mut want = 0i64;
        for i in 0..r_k.len() {
            for j in 0..s_k.len() {
                for l in 0..t_m.len() {
                    if r_k[i] == s_k[j] && s_m[j] == t_m[l] && r_a[i] < 30 && t_b[l] >= 50 {
                        want += 1;
                    }
                }
            }
        }
        assert_eq!(rows(&out)[0][0], want);

        // Projection across all three tables.
        let out = s
            .execute_one(
                "select a, b from r, s, t \
                 where r.k = s.k and s.m = t.m and r.a = 0 and s.m = 2",
            )
            .unwrap();
        let mut got = rows(&out).to_vec();
        got.sort_unstable();
        let mut want_rows = Vec::new();
        for j in 0..s_k.len() {
            for l in 0..t_m.len() {
                // r.a = 0 fixes r-row 0 (k = 0).
                if s_k[j] == 0 && s_m[j] == 2 && t_m[l] == 2 {
                    want_rows.push(vec![0, t_b[l]]);
                }
            }
        }
        want_rows.sort_unstable();
        assert_eq!(got, want_rows);
    }

    #[test]
    fn ddl_dml_lifecycle() {
        let mut s = SqlSession::new();
        let outs = s
            .execute(
                "create table t (x integer, y integer);\n\
                 insert into t values (1, 10), (2, 20), (3, 30);\n\
                 select * from t where x >= 2;",
            )
            .unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[2].row_count(), 2);
        s.execute_one("drop table t").unwrap();
        assert!(s.execute_one("select * from t").is_err());
    }

    #[test]
    fn insert_keeps_cracked_state_warm() {
        let mut s = session();
        // Crack `a`, then insert: the staged-batch fast path must keep
        // the cracked copy (no cold rebuild) and still see the new rows.
        s.execute_one("select count(*) from r where a >= 50")
            .unwrap();
        assert_eq!(s.cracked_columns(), 1);
        s.execute_one("insert into r values (3, 500), (7, 501)")
            .unwrap();
        assert_eq!(s.cracked_columns(), 1, "insert must not rebuild cold");
        let out = s
            .execute_one("select count(*) from r where a >= 500")
            .unwrap();
        assert_eq!(rows(&out)[0][0], 2);
        let out = s.execute_one("select count(*) from r where k = 3").unwrap();
        assert_eq!(rows(&out)[0][0], 11, "uncracked column sees grown base");
        // A ragged insert is rejected before touching any state.
        assert!(s.execute_one("insert into r values (1)").is_err());
        let out = s.execute_one("select count(*) from r").unwrap();
        assert_eq!(rows(&out)[0][0], 102);
    }

    #[test]
    fn insert_select_materializes_like_figure_1a() {
        let mut s = session();
        s.execute_one("insert into newr select * from r where a < 10")
            .unwrap();
        let out = s.execute_one("select count(*) from newr").unwrap();
        assert_eq!(rows(&out)[0][0], 10);
        // Appending via a second materialization.
        s.execute_one("insert into newr select * from r where a >= 90")
            .unwrap();
        let out = s.execute_one("select count(*) from newr").unwrap();
        assert_eq!(rows(&out)[0][0], 20);
    }

    #[test]
    fn insert_select_arity_mismatch_and_aggregates_rejected() {
        let mut s = session();
        s.execute_one("insert into one_col select a from r where a < 3")
            .unwrap();
        let err = s
            .execute_one("insert into one_col select a, k from r")
            .unwrap_err();
        assert!(err.to_string().contains("columns"));
        let err = s
            .execute_one("insert into agg select count(*) from r")
            .unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { .. }));
    }

    #[test]
    fn base_updates_invalidate_cracked_state() {
        let mut s = session();
        s.execute_one("select * from r where a < 10").unwrap();
        assert_eq!(s.cracked_columns(), 1);
        s.execute_one("insert into r values (0, 5)").unwrap();
        // The insert is visible through the cracked copy's overlay.
        let out = s
            .execute_one("select count(*) from r where a < 10")
            .unwrap();
        assert_eq!(rows(&out)[0][0], 11);
    }

    #[test]
    fn unsatisfiable_and_empty_range_queries() {
        let mut s = session();
        let out = s
            .execute_one("select count(*) from r where a < 3 and a > 9")
            .unwrap();
        assert_eq!(rows(&out)[0][0], 0);
        let out = s
            .execute_one("select * from r where a < 3 and 1 > 2")
            .unwrap();
        assert_eq!(out.row_count(), 0);
    }

    #[test]
    fn load_table_validation() {
        let mut s = SqlSession::new();
        assert!(s.load_table("t", vec![]).is_err());
        assert!(s
            .load_table("t", vec![("a".into(), vec![1]), ("b".into(), vec![1, 2])])
            .is_err());
        s.load_table("t", vec![("a".into(), vec![1])]).unwrap();
        assert!(s.load_table("t", vec![("a".into(), vec![2])]).is_err());
    }

    #[test]
    fn duplicate_column_names_are_rejected_where_they_are_introduced() {
        let mut s = session();
        let dup = vec![("a".to_string(), vec![1]), ("a".to_string(), vec![2])];
        for err in [
            s.load_table("t", dup).unwrap_err(),
            s.execute_one("insert into d select a, a from r")
                .unwrap_err(),
        ] {
            assert!(matches!(err, SqlError::Semantic { .. }), "{err:?}");
            assert!(err.to_string().contains("duplicate column name"), "{err}");
        }
        // Nothing was registered and the session still answers.
        assert_eq!(s.adaptive().catalog().names(), vec!["r", "s"]);
        let out = s.execute_one("select count(*) from r").unwrap();
        assert_eq!(rows(&out)[0][0], 100);
        // Into an existing table the labels do not matter, only the arity.
        s.execute_one("insert into s select a, a from r where a < 2")
            .unwrap();
        let out = s.execute_one("select count(*) from s").unwrap();
        assert_eq!(rows(&out)[0][0], 22);
    }

    #[test]
    fn output_rendering() {
        let out = QueryOutput::Table {
            columns: vec!["k".into(), "count(*)".into()],
            rows: vec![vec![1, 10], vec![22, 5]],
        };
        let text = out.to_string();
        assert!(text.contains("k | count(*)"));
        assert!(text.contains("(2 rows)"));
        let one = QueryOutput::Table {
            columns: vec!["n".into()],
            rows: vec![vec![7]],
        };
        assert!(one.to_string().contains("(1 row)"));
        let ack = QueryOutput::Affected {
            message: "created table t".into(),
        };
        assert_eq!(ack.to_string(), "created table t");
    }

    #[test]
    fn single_column_projection_cracks_the_selection_column() {
        let mut s = session();
        let out = s.execute_one("select k from r where a >= 95").unwrap();
        // a >= 95 ⇒ oids 0..=4 ⇒ k = oid % 10 ∈ {0..4}.
        let mut got: Vec<i64> = rows(&out).iter().map(|r| r[0]).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        // `a` is cracked; `k` is gathered from the base, never copied.
        assert_eq!(s.cracked_columns(), 1);
        assert!(s.adaptive().cracked_column("r", "k").is_none());
        // A repeat is answered from the piece map alone.
        let before = s.adaptive().total_crack_stats();
        s.execute_one("select k from r where a >= 95").unwrap();
        let delta = s.adaptive().total_crack_stats().delta_since(&before);
        assert_eq!((delta.cracks, delta.tuples_touched), (0, 0));
        // Projecting the selection column itself rides the same copy.
        let out = s.execute_one("select a from r where a >= 95").unwrap();
        assert_eq!(out.row_count(), 5);
        assert_eq!(s.cracked_columns(), 1);
    }

    #[test]
    fn delete_removes_matching_rows() {
        let mut s = session();
        let out = s
            .execute_one("delete from r where a < 10 or a >= 90")
            .unwrap();
        assert_eq!(out.to_string(), "deleted 20 rows from r");
        let out = s.execute_one("select count(*) from r").unwrap();
        assert_eq!(rows(&out)[0][0], 80);
        // Row alignment across columns survives: k still matches oid%10
        // for the surviving a-values.
        let out = s.execute_one("select a, k from r where a = 50").unwrap();
        assert_eq!(rows(&out), &[vec![50, 9]]); // a=50 ⇒ old oid 49 ⇒ k=9
                                                // DELETE without WHERE empties the table.
        s.execute_one("delete from r").unwrap();
        let out = s.execute_one("select count(*) from r").unwrap();
        assert_eq!(rows(&out)[0][0], 0);
        // Unknown table errors.
        assert!(s.execute_one("delete from zzz").is_err());
    }

    #[test]
    fn limit_caps_delivery_but_not_cracking() {
        let mut s = session();
        let out = s
            .execute_one("select * from r where a < 50 limit 5")
            .unwrap();
        assert_eq!(out.row_count(), 5);
        // The store still cracked the full predicate range.
        assert_eq!(s.cracked_columns(), 1);
        let full = s.execute_one("select * from r where a < 50").unwrap();
        assert_eq!(full.row_count(), 50);
        // LIMIT 0 and LIMIT beyond the result size.
        let out = s.execute_one("select * from r limit 0").unwrap();
        assert_eq!(out.row_count(), 0);
        let out = s
            .execute_one("select * from r where a < 3 limit 99")
            .unwrap();
        assert_eq!(out.row_count(), 3);
        // Negative limits are rejected.
        assert!(s.execute_one("select * from r limit -1").is_err());
    }

    #[test]
    fn count_star_on_whole_table() {
        let mut s = session();
        let out = s.execute_one("select count(*) from r").unwrap();
        assert_eq!(rows(&out)[0][0], 100);
    }

    #[test]
    fn comparison_between_columns_of_same_table_is_unsupported() {
        let mut s = session();
        let err = s.execute_one("select * from r where k = a").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { .. }));
    }

    /// Run one statement the way no cache can see it: parsed, then handed
    /// over as an AST.
    fn uncached(s: &mut SqlSession, sql: &str) -> QueryOutput {
        let stmts = crate::parser::parse(sql).unwrap();
        s.execute_batch(&stmts).unwrap().remove(0)
    }

    /// Sort rows so outputs compare as multisets (row order is
    /// unspecified across execution paths).
    fn sorted_rows(out: &QueryOutput) -> Vec<Vec<i64>> {
        let mut r = rows(out).to_vec();
        r.sort_unstable();
        r
    }

    #[test]
    fn prepared_statements_match_literal_execution() {
        let mut s = session();
        let p = s.prepare("select * from r where a >= ? and a < ?").unwrap();
        assert_eq!(p.param_count(), 2);
        for (lo, hi) in [(20, 50), (0, 10), (90, 100), (50, 50)] {
            let got = s.execute_prepared(&p, &[lo, hi]).unwrap();
            let want = s
                .execute_one(&format!("select * from r where a >= {lo} and a < {hi}"))
                .unwrap();
            assert_eq!(sorted_rows(&got), sorted_rows(&want), "[{lo}, {hi})");
        }
        // Wrong arity fails without running anything.
        assert!(s.execute_prepared(&p, &[1]).is_err());

        // BETWEEN bounds bind like the `>=` / `<=` pair they abbreviate:
        // ordinary, inverted (empty), negative and extreme bounds.
        let inside = s
            .prepare("select a from r where a between ? and ?")
            .unwrap();
        let outside = s
            .prepare("select a from r where a not between ? and ?")
            .unwrap();
        assert_eq!((inside.param_count(), outside.param_count()), (2, 2));
        for (lo, hi) in [
            (10, 20),
            (20, 10),
            (-5, 3),
            (95, i64::MAX),
            (i64::MIN + 1, 4),
            (50, 50),
        ] {
            for (plan, negated, not) in [(&inside, false, ""), (&outside, true, "not ")] {
                let got = s.execute_prepared(plan, &[lo, hi]).unwrap();
                let text = format!("select a from r where a {not}between {lo} and {hi}");
                let want = uncached(&mut s, &text);
                assert_eq!(sorted_rows(&got), sorted_rows(&want), "{text}");
                let oracle: Vec<Vec<i64>> = (0..100)
                    .filter(|a| (lo..=hi).contains(a) != negated)
                    .map(|a| vec![a])
                    .collect();
                assert_eq!(sorted_rows(&got), oracle, "{text}");
            }
        }
        // One bound literal, one bound.
        let p = s
            .prepare("select count(*) from r where a between 90 and ?")
            .unwrap();
        assert_eq!(rows(&s.execute_prepared(&p, &[94]).unwrap()), &[vec![5]]);
    }

    #[test]
    fn execute_prepared_many_batches_single_column_plans() {
        let mut s = session();
        let p = s.prepare("select k from r where a >= ? and a < ?").unwrap();
        let bindings: Vec<Vec<i64>> = (0..10).map(|i| vec![i * 10, i * 10 + 7]).collect();
        let batched = s.execute_prepared_many(&p, &bindings).unwrap();
        assert_eq!(batched.len(), bindings.len());
        for (b, got) in bindings.iter().zip(&batched) {
            let want = s
                .execute_one(&format!(
                    "select k from r where a >= {} and a < {}",
                    b[0], b[1]
                ))
                .unwrap();
            assert_eq!(sorted_rows(got), sorted_rows(&want), "binding {b:?}");
        }
    }

    #[test]
    fn execute_prepared_many_falls_back_for_multi_column_plans() {
        let mut s = session();
        // Two selection columns: not batchable, still correct.
        let p = s
            .prepare("select count(*) from r where a < ? and k >= ?")
            .unwrap();
        let outs = s
            .execute_prepared_many(&p, &[vec![50, 5], vec![100, 0], vec![0, 0]])
            .unwrap();
        // a < 50 ⇒ oids 50..=99, k = oid%10 >= 5 ⇒ 5 per decade, 25 total.
        assert_eq!(rows(&outs[0])[0][0], 25);
        assert_eq!(rows(&outs[1])[0][0], 100);
        assert_eq!(rows(&outs[2])[0][0], 0);
    }

    #[test]
    fn prepared_aggregates_and_limit_ride_the_batch_path() {
        let mut s = session();
        let p = s
            .prepare("select count(*), min(a), max(a) from r where a between 0 and 99 and a < ?")
            .unwrap();
        let outs = s
            .execute_prepared_many(&p, &[vec![10], vec![1], vec![0]])
            .unwrap();
        assert_eq!(rows(&outs[0]), &[vec![10, 0, 9]]);
        assert_eq!(rows(&outs[1]), &[vec![1, 0, 0]]);
        assert_eq!(rows(&outs[2]), &[vec![0, 0, 0]]);
        let p = s.prepare("select * from r where a < ? limit 3").unwrap();
        let outs = s.execute_prepared_many(&p, &[vec![50], vec![2]]).unwrap();
        assert_eq!(outs[0].row_count(), 3);
        assert_eq!(outs[1].row_count(), 2);
    }

    #[test]
    fn unbound_parameters_cannot_run_directly() {
        let mut s = session();
        let err = s.execute_one("select * from r where a < ?").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { .. }));
        assert!(err.to_string().contains("unbound"));
        let err = s.execute_one("delete from r where a < ?").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { .. }));
        // Only SELECT prepares.
        assert!(s.prepare("delete from r where a < ?").is_err());
    }

    #[test]
    fn execute_parses_the_whole_source_before_running_any_statement() {
        let mut s = session();
        // The trailing statement is a syntax error: the leading DELETE
        // must not have executed.
        let err = s
            .execute("delete from r where a < 50; select * frm r")
            .unwrap_err();
        assert!(matches!(err, SqlError::Syntax { .. }));
        let out = s.execute_one("select count(*) from r").unwrap();
        assert_eq!(rows(&out)[0][0], 100, "failed batch left the table intact");
    }

    #[test]
    fn execute_batch_runs_pre_parsed_statements() {
        let mut s = session();
        let stmts = crate::parser::parse(
            "insert into r values (5, 1000); select count(*) from r where a >= 1000",
        )
        .unwrap();
        let outs = s.execute_batch(&stmts).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(rows(&outs[1])[0][0], 1);
    }

    const SHAPES: [&str; 4] = [
        "select count(*) from r where a >= {lo} and a < {hi}",
        "select k from r where a >= {lo} and a < {hi}",
        "select * from r where k >= {lo} and k < {hi}",
        "select count(*) from r where a >= {lo} and a < {hi} and k >= 2 and k < 7",
    ];

    fn fill(shape: &str, lo: i64, hi: i64) -> String {
        shape
            .replace("{lo}", &lo.to_string())
            .replace("{hi}", &hi.to_string())
    }

    #[test]
    fn a_repeated_shape_is_prepared_once() {
        let mut s = session();
        let mut twin = session();
        for i in 0..1_000i64 {
            for shape in SHAPES {
                let text = fill(shape, i % 97, i % 97 + i % 13);
                let got = s.execute_one(&text).unwrap();
                assert_eq!(sorted_rows(&got), sorted_rows(&uncached(&mut twin, &text)));
            }
        }
        // The share of the stream that has the property the cache needs —
        // "this text, minus its literals, was seen before" — counted by
        // the program itself: every statement but each shape's first.
        assert_eq!(
            s.plan_cache_stats(),
            PlanCacheStats {
                hits: 3_996,
                misses: 4,
                declined: 0,
                evictions: 0,
                entries: 4,
            }
        );
        assert_eq!(twin.plan_cache_stats(), PlanCacheStats::default());
        assert_eq!(
            s.adaptive().total_crack_stats(),
            twin.adaptive().total_crack_stats()
        );
    }

    #[test]
    fn a_schema_change_evicts_and_a_stale_plan_never_runs() {
        let mut s = SqlSession::new();
        let text = "select b from t where a < 5";
        s.execute("create table t (a integer, b integer); insert into t values (1, 10), (9, 90)")
            .unwrap();
        assert_eq!(rows(&s.execute_one(text).unwrap()), &[vec![10]]);
        assert_eq!(s.plan_cache_stats().entries, 1);
        s.execute_one("drop table t").unwrap();
        // Gone: the error is the uncached path's, span in *this* text.
        let err = s.execute_one(text).unwrap_err();
        assert!(err.to_string().contains("unknown table"), "{err}");
        assert_eq!(err.span().unwrap().fragment(text), "t");
        s.execute("create table t (a integer, c integer); insert into t values (2, 20)")
            .unwrap();
        // Back under another schema: a plan that resolved `b` must not run.
        let spaced = "select   b\nfrom t where a < 5";
        let err = s.execute_one(spaced).unwrap_err();
        assert!(matches!(err, SqlError::Semantic { .. }), "{err:?}");
        assert!(
            err.to_string().contains("no FROM table has a column \"b\""),
            "{err}"
        );
        assert_eq!(err.span().unwrap().fragment(spaced), "b");
        let stats = s.plan_cache_stats();
        assert_eq!((stats.evictions, stats.entries), (2, 1), "{stats:?}");
        assert_eq!(
            rows(&s.execute_one("select c from t where a < 5").unwrap()),
            &[vec![20]]
        );
        // `INSERT ... SELECT` into a table it creates is a schema change too.
        let before = s.plan_cache_stats();
        s.execute_one("insert into u select a, c from t").unwrap();
        let after = s.plan_cache_stats();
        assert_eq!(after.entries, 0);
        assert_eq!(after.evictions, before.evictions + before.entries as u64);
        // ... and into one that exists is not.
        s.execute_one("select c from t where a < 5").unwrap();
        s.execute_one("insert into u select a, c from t").unwrap();
        assert_eq!(s.plan_cache_stats().entries, 1);
    }

    #[test]
    fn inserts_and_deletes_keep_plans_and_plans_see_the_new_rows() {
        let mut s = session();
        let q = |lo: i64| format!("select count(*) from r where a >= {lo}");
        assert_eq!(rows(&s.execute_one(&q(90)).unwrap()), &[vec![10]]);
        s.execute_one("insert into r values (1, 500), (2, 501)")
            .unwrap();
        assert_eq!(rows(&s.execute_one(&q(95)).unwrap()), &[vec![7]]);
        s.execute_one("delete from r where a >= 99").unwrap();
        assert_eq!(rows(&s.execute_one(&q(98)).unwrap()), &[vec![1]]);
        let stats = s.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 2, 0));
        assert_eq!(stats.declined, 1, "the DELETE");
        assert_eq!(stats.entries, 2, "the SELECT's shape and the INSERT's");
    }

    /// Run `sql` on `s` as text and on `twin` parsed: the two results.
    fn both(
        s: &mut SqlSession,
        twin: &mut SqlSession,
        sql: &str,
    ) -> [SqlResult<Vec<QueryOutput>>; 2] {
        let parsed = crate::parser::parse(sql).and_then(|stmts| twin.execute_batch(&stmts));
        [s.execute(sql), parsed]
    }

    #[test]
    fn a_repeated_insert_shape_is_prepared_once_and_appends_the_parsed_rows() {
        let mut s = session();
        let mut twin = session();
        for t in [&mut s, &mut twin] {
            t.execute_one("select count(*) from r where a >= 50")
                .unwrap();
        }
        for i in 0..200i64 {
            let (x, y) = (i * 7 - 700, 1_000 - i);
            let sql = match i % 4 {
                0 => format!("insert into r values ({x}, {y}), (-{i}, - {i})"),
                1 => format!("INSERT INTO R VALUES ({x},{y}),({y},{x}) ;"),
                2 => format!(
                    "insert into r -- rows\n values ({x}, {}), ({}, {y})",
                    i64::MAX,
                    -i64::MAX
                ),
                _ => format!("insert into r values (0, {x}), (1, 2)"),
            };
            let [got, want] = both(&mut s, &mut twin, &sql);
            assert_eq!(got, want, "{sql}");
            assert_eq!(got.unwrap()[0].to_string(), "inserted 2 rows into r");
        }
        let stats = s.plan_cache_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.declined),
            (198 + 1, 2, 0),
            "{stats:?}"
        );
        assert_eq!(stats.entries, 2, "one SELECT shape, one INSERT shape");
        for sql in [
            "select * from r",
            "select count(*) from r where a >= 50",
            "select k from r where a < -100",
            "select count(*) from r where k < 0",
        ] {
            let [got, want] = both(&mut s, &mut twin, sql);
            assert_eq!(
                sorted_rows(&got.unwrap()[0]),
                sorted_rows(&want.unwrap()[0]),
                "{sql}"
            );
        }
        assert_eq!(s.cracked_columns(), twin.cracked_columns());
    }

    #[test]
    fn an_insert_that_fails_fails_as_the_uncached_path_does() {
        let mut s = session();
        let mut twin = session();
        for (sql, fragment) in [
            ("insert into r values (1, 2, 3)", "r"),
            ("insert into r values (1, 2, 3), (4, 5, 6)", "r"),
            ("insert into r values (1)", "r"),
            (
                "insert into r values (1, 99999999999999999999)",
                "99999999999999999999",
            ),
            (
                "insert into r values (1, -9223372036854775808)",
                "9223372036854775808",
            ),
            ("insert into nowhere values (1, 2)", "nowhere"),
            ("insert into r values (1, 2), (3)", ")"),
            ("insert into r values (1, ?)", "?"),
        ] {
            for round in 0..2 {
                let [got, want] = both(&mut s, &mut twin, sql);
                assert_eq!(got, want, "{sql} (round {round})");
                let err = got.unwrap_err();
                assert_eq!(err.span().unwrap().fragment(sql), fragment, "{sql}: {err}");
            }
        }
        // Nothing was appended, and every failure took the uncached path:
        // the four shapes that normalize were prepared once and
        // remembered (4 misses, 4 declines), the other four texts
        // declined twice each.
        assert_eq!(
            rows(&s.execute_one("select count(*) from r").unwrap()),
            &[vec![100]]
        );
        let stats = s.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 4 + 1), "{stats:?}");
        assert_eq!(stats.declined, 4 + 8, "{stats:?}");
    }

    #[test]
    fn create_and_drop_evict_insert_plans() {
        let mut s = SqlSession::new();
        let mut twin = SqlSession::new();
        let insert = "insert into t values (1, 2)";
        for sql in [
            "create table t (a integer, b integer)",
            insert,
            insert,
            "drop table t",
            insert,
            "create table t (a integer, b integer, c integer)",
            insert,
            "insert into t values (1, 2, 3)",
            "drop table t",
            "create table t (a integer, b integer)",
            insert,
            "select * from t",
        ] {
            let [got, want] = both(&mut s, &mut twin, sql);
            assert_eq!(got, want, "{sql}");
        }
        // `insert` ran twice from one plan, then failed twice: no table,
        // then three columns. Each schema change dropped the plans.
        let stats = s.plan_cache_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.declined),
            (1, 6, 5),
            "{stats:?}"
        );
        assert_eq!((stats.evictions, stats.entries), (4, 2), "{stats:?}");
        assert_eq!(
            rows(&s.execute_one("select * from t").unwrap()),
            &[vec![1, 2]]
        );
    }

    #[test]
    fn insert_select_is_not_cached() {
        let mut s = session();
        s.execute_one("insert into u select a, k from r where a < 10")
            .unwrap();
        for _ in 0..3 {
            s.execute_one("insert into u select a, k from r where a < 10")
                .unwrap();
        }
        let stats = s.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.declined), (0, 0, 4));
        assert_eq!(
            rows(&s.execute_one("select count(*) from u").unwrap()),
            &[vec![40]]
        );
    }

    #[test]
    fn a_shape_that_does_not_prepare_is_tried_once() {
        let mut s = session();
        let mut twin = session();
        let texts = [
            "select * from r where a < {n} and 1 > 2",
            "select * from r where zzz < {n}",
            "select k, count(*) from nowhere where a < {n}",
        ];
        for round in 0..5 {
            for text in texts {
                let text = text.replace("{n}", &round.to_string());
                let want = crate::parser::parse(&text).and_then(|stmts| twin.execute_batch(&stmts));
                let got = s.execute(&text);
                assert_eq!(got, want, "{text}");
            }
        }
        let stats = s.plan_cache_stats();
        assert_eq!((stats.misses, stats.hits), (3, 0));
        assert_eq!(stats.declined, 12, "every repeat goes straight to the text");
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn a_full_cache_starts_over_and_keeps_answering() {
        let mut s = session();
        // Distinct shapes: a growing run of conjuncts.
        let shape = |n: usize| {
            let tail = " and a < 1000".repeat(n);
            format!("select count(*) from r where a >= 90{tail}")
        };
        for n in 0..PLAN_CACHE_CAPACITY + 10 {
            assert_eq!(rows(&s.execute_one(&shape(n)).unwrap()), &[vec![10]], "{n}");
        }
        let stats = s.plan_cache_stats();
        assert_eq!(stats.misses as usize, PLAN_CACHE_CAPACITY + 10);
        assert_eq!(stats.evictions as usize, PLAN_CACHE_CAPACITY);
        assert_eq!(stats.entries, 10);
        // The survivors hit, the evicted are prepared again.
        assert_eq!(
            rows(&s.execute_one(&shape(PLAN_CACHE_CAPACITY + 5)).unwrap()),
            &[vec![10]]
        );
        assert_eq!(rows(&s.execute_one(&shape(3)).unwrap()), &[vec![10]]);
        let stats = s.plan_cache_stats();
        assert_eq!((stats.hits, stats.entries), (1, 11));
    }

    #[test]
    fn execute_with_one_statement_takes_the_cache_and_with_several_does_not() {
        let mut s = session();
        let one = "select count(*) from r where a < 10;";
        assert_eq!(s.execute(one).unwrap().len(), 1);
        assert_eq!(s.execute(one).unwrap(), vec![s.execute_one(one).unwrap()]);
        assert_eq!(s.plan_cache_stats().hits, 2);
        let two = "select count(*) from r where a < 10; select count(*) from r where a < 20";
        assert_eq!(s.execute(two).unwrap().len(), 2);
        let stats = s.plan_cache_stats();
        assert_eq!((stats.hits, stats.declined), (2, 1));
        // What declines still reports from its own text.
        let err = s.execute_one("select * from r where a < ?").unwrap_err();
        assert!(err.to_string().contains("unbound"), "{err}");
        let src = "select * from r where a < 5 limit -1";
        let err = s.execute_one(src).unwrap_err();
        assert_eq!(err.span().unwrap().fragment(src), "1");
    }
}
