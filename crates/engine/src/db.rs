//! The adaptive database: cracking wired into a full query surface.
//!
//! §3 positions the cracker "between the semantic analyzer and the query
//! optimizer" so that it "could be integrated easily into existing
//! systems". [`AdaptiveDb`] is that integration for this engine: it owns a
//! [`DbCatalog`] of base tables, lazily creates the cracked copy of each
//! column the first time a predicate touches it (MonetDB's cracker module
//! does the same on first use), routes selections/joins/group-bys through
//! the Ξ/^/Ω operators.
//!
//! A column has exactly **one** cracked copy — the paper's one cracker
//! index per attribute — and it is the latched
//! [`ConcurrentColumn`]: SQL, the `select*` entry points, staged updates,
//! worker threads holding a [`shared_cracker`](AdaptiveDb::shared_cracker)
//! handle, checkpoints and recovery all see the same piece map and the
//! same pending overlay.

use crate::admission::{AdmissionGate, AdmissionPermit};
use crate::catalog::DbCatalog;
use crate::cost::RunStats;
use crate::durability::{
    column_key, delta_key, not_attached, not_replayable, table_key, ColumnId, DbMeta, Durability,
    TableMeta, DB_META_VERSION, META_KEY, ORIGIN_SHARE,
};
use crate::error::{EngineError, EngineResult};
use crate::exec::batch::{refine_conjunct, BlockScratch};
use crate::governor::Governor;
use crate::hash::FastMap;
use crate::query::{AggFunc, OutputMode, RangeQuery};
use crate::table::Table;
use cracker_core::config::STAGE_SHARE;
use cracker_core::group::{aggregate_groups, omega_crack};
use cracker_core::join::{join_matched, wedge_crack, PairColumn};
use cracker_core::{
    ConcurrencyMode, ConcurrentColumn, ConcurrentDelta, ConcurrentSnapshot, CrackerConfig,
    KernelPolicy, OidSet, RangePred, Renumbering,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use storage::codec::{self, Reader};
use storage::fault::{FaultKind, RetryPolicy};
use storage::wal::{RedoLog, WalRecord};
use storage::{CheckpointStore, Manifest, StorageError};

/// A database whose physical organization adapts to the queries it
/// receives.
///
/// Invariant: **one cracked copy per column, latched.** `columns` holds
/// all the cracked state there is; every query path, every staged update
/// and every checkpoint goes through the entry it holds.
pub struct AdaptiveDb {
    catalog: DbCatalog,
    config: CrackerConfig,
    /// How cracked columns are latched.
    concurrency: ConcurrencyMode,
    /// The cracked copy of each column, found by `(table, column)`;
    /// built at first touch under the configured [`ConcurrencyMode`].
    columns: Cracked,
    /// Per table, the rows a [`delete_rows`](Self::delete_rows) removed
    /// that no fold has compacted yet: the base still holds them, and
    /// every cracked copy of the table has them staged as deletes.
    tombstones: HashMap<String, OidSet>,
    /// The key `columns` is probed with: names are copied into its two
    /// buffers, so a probe allocates nothing.
    probe: (String, String),
    /// Reusable block buffers for the vectorized conjunctive path.
    scratch: BlockScratch,
    /// Optional admission gate bounding in-flight operations (shared with
    /// worker threads via [`admission`](Self::admission)).
    admission: Option<Arc<AdmissionGate>>,
    /// Optional durability handle: checkpoint store + current redo log
    /// (see [`crate::durability`] and `PERSISTENCE.md`).
    durability: Option<Durability>,
}

impl AdaptiveDb {
    /// An empty adaptive database with the default cracker configuration.
    pub fn new() -> Self {
        Self::with_config(CrackerConfig::default())
    }

    /// An empty adaptive database with an explicit cracker configuration
    /// (applied to every column cracked from now on).
    pub fn with_config(config: CrackerConfig) -> Self {
        AdaptiveDb {
            catalog: DbCatalog::new(),
            config,
            concurrency: ConcurrencyMode::default(),
            columns: Cracked::default(),
            tombstones: HashMap::new(),
            probe: Default::default(),
            scratch: BlockScratch::new(),
            admission: None,
            durability: None,
        }
    }

    /// Builder: set the latching scheme of every column cracked from now
    /// on; already-cracked columns keep their mode.
    pub fn with_concurrency(mut self, mode: ConcurrencyMode) -> Self {
        self.concurrency = mode;
        self
    }

    /// The concurrency mode in force for newly cracked columns.
    pub fn concurrency(&self) -> ConcurrencyMode {
        self.concurrency
    }

    /// Builder: choose the crack kernel (`Auto`: the AVX2 vector kernels
    /// where the CPU has them, else the scalar loops; `Scalar`: the
    /// scalar loops) for every column cracked from now on — the
    /// engine-level face of [`cracker_core::kernel`]. Combined with
    /// [`with_concurrency`](Self::with_concurrency), this puts the same
    /// kernels under every shard alike.
    pub fn with_kernel(mut self, kernel: KernelPolicy) -> Self {
        self.config.kernel = kernel;
        self
    }

    /// The kernel policy applied to newly cracked columns.
    pub fn kernel_policy(&self) -> KernelPolicy {
        self.config.kernel
    }

    /// Builder: install an [`AdmissionGate`] bounding in-flight operations
    /// with per-session fairness (see [`crate::admission`] for the
    /// policy). Callers take a permit via [`admit`](Self::admit) around
    /// each gated operation.
    pub fn with_admission(mut self, gate: AdmissionGate) -> Self {
        self.set_admission(gate);
        self
    }

    /// Install (or replace) the admission gate on an already-built
    /// database — for harnesses that construct or recover the db first.
    pub fn set_admission(&mut self, gate: AdmissionGate) {
        self.admission = Some(Arc::new(gate));
    }

    /// The installed admission gate, if any. The `Arc` can be cloned into
    /// worker threads alongside a [`shared_cracker`](Self::shared_cracker)
    /// handle.
    pub fn admission(&self) -> Option<&Arc<AdmissionGate>> {
        self.admission.as_ref()
    }

    /// Take an execution permit for `session`, blocking while the gate is
    /// saturated (or while this session is at its fairness cap). Returns
    /// `None` when no gate is installed — callers hold the result for the
    /// duration of one operation either way:
    ///
    /// ```ignore
    /// let _permit = db.admit(session_id);
    /// // ...gated work...
    /// ```
    pub fn admit(&self, session: u64) -> Option<AdmissionPermit<'_>> {
        self.admission.as_deref().map(|g| g.admit(session))
    }

    /// Register a base table.
    pub fn register(&mut self, table: Table) -> EngineResult<()> {
        self.catalog.register(table)
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &DbCatalog {
        &self.catalog
    }

    /// Number of columns that have been cracked so far: every cracked
    /// structure this database holds.
    pub fn cracked_columns(&self) -> usize {
        self.columns.len()
    }

    /// The cracked copy of a column, if a query has built one: a
    /// read-only look at its piece map and counters, never a first touch.
    pub fn cracked_column(&self, table: &str, column: &str) -> Option<&ConcurrentColumn<i64>> {
        self.columns.get(&(table.to_owned(), column.to_owned()))
    }

    /// Fetch (building at first touch, under the configured
    /// [`ConcurrencyMode`]) the cracked copy of a column — the one handle
    /// every path here goes through. It answers queries through `&self`,
    /// so callers can fan it out across threads (e.g.
    /// `std::thread::scope`) and let concurrent queries crack under the
    /// column's latching protocol.
    ///
    /// The copy snapshots the base table's values at first touch, and
    /// stages the table's tombstones as deletes; updates staged through
    /// [`stage_insert`](Self::stage_insert) /
    /// [`stage_delete`](Self::stage_delete) live in its pending overlay.
    pub fn shared_cracker(
        &mut self,
        table: &str,
        column: &str,
    ) -> EngineResult<&ConcurrentColumn<i64>> {
        self.cracker_for(table, column, None)
    }

    /// [`shared_cracker`](Self::shared_cracker) for a caller about to
    /// select `first` on the column: a first touch builds the copy with
    /// [`ConcurrentColumn::from_base`], which cuts the larger outer side
    /// of `first` straight from the base column while it copies, so the
    /// select only cracks the smaller side. On a column already cracked,
    /// `first` is ignored.
    pub fn cracker_for(
        &mut self,
        table: &str,
        column: &str,
        first: Option<RangePred<i64>>,
    ) -> EngineResult<&ConcurrentColumn<i64>> {
        set_key(&mut self.probe, table, column);
        let slot = match self.columns.slots.get(&self.probe) {
            Some(&slot) => slot,
            None => {
                let base = self.catalog.table(table)?.ints(column)?;
                let col = ConcurrentColumn::from_base(base, self.config, self.concurrency, first);
                if let Some(dead) = self.tombstones.get(table) {
                    col.stage_deletes(&sorted(dead), base);
                }
                col.set_journaling(self.durability.is_some());
                self.columns.insert(self.probe.clone(), col)
            }
        };
        Ok(&self.columns.copies[slot])
    }

    /// Rows of `table` a query can see: its length less the rows a
    /// [`delete_rows`](Self::delete_rows) removed that no fold has
    /// compacted yet ([`Table::len`] counts those too).
    pub fn live_rows(&self, table: &str) -> EngineResult<usize> {
        let len = self.catalog.table(table)?.len();
        Ok(len - self.tombstones.get(table).map_or(0, OidSet::len))
    }

    /// Answer a single-attribute range query, cracking as a side effect.
    /// Returns the qualifying OIDs together with run statistics.
    pub fn select(
        &mut self,
        q: &RangeQuery,
        mode: OutputMode,
    ) -> EngineResult<(Vec<u32>, RunStats)> {
        self.run_select(q, mode, None)
    }

    /// The body [`select`](Self::select) and
    /// [`select_governed`](Self::select_governed) share: crack `q`'s
    /// column — polling `governor`, when there is one, at every safe
    /// boundary — and account the run.
    fn run_select(
        &mut self,
        q: &RangeQuery,
        mode: OutputMode,
        governor: Option<&Governor>,
    ) -> EngineResult<(Vec<u32>, RunStats)> {
        let start = Instant::now();
        let col = self.cracker_for(&q.table, &q.attr, Some(q.pred))?;
        let mut before = col.stats();
        if before.queries == 0 {
            // No select has run on this copy: the crack its first touch
            // made from the base is this query's work.
            before = Default::default();
        }
        // An ungoverned count reads the piece map alone; every other
        // shape materializes the OIDs and counts them.
        let oids = match governor {
            None if mode == OutputMode::Count => None,
            None => Some(col.select_oids(q.pred)),
            Some(g) => Self::select_guarded(col, &[q.pred], g, &g.as_guard())?.pop(),
        };
        let count = match &oids {
            Some(oids) => oids.len(),
            None => col.count(q.pred),
        };
        let oids = match mode {
            OutputMode::Count => Vec::new(),
            _ => oids.unwrap_or_default(),
        };
        let delta = col.stats().delta_since(&before);
        let mut stats = RunStats {
            tuples_read: delta.tuples_touched + delta.edge_scanned,
            tuples_written: delta.tuples_moved,
            result_count: count as u64,
            ..Default::default()
        };
        if mode == OutputMode::Materialize {
            stats.tables_created = 1;
            stats.tuples_written += stats.result_count;
        }
        stats.elapsed = start.elapsed();
        Ok((oids, stats))
    }

    /// The one governed select body — [`select_governed`](Self::select_governed)
    /// and [`select_batch_governed`](Self::select_batch_governed) both end
    /// here: answer `preds` on `col`, polling the governor between
    /// predicates and between crack steps. A batch stopped mid-flight
    /// surfaces the governor's typed error; completed cracks are kept but
    /// nothing partial is returned. `keep_going` is the governor's own
    /// guard in every caller; one that stops while the governor reports
    /// no violation has broken that, which is reported as
    /// [`EngineError::Invariant`], not a panic.
    fn select_guarded(
        col: &ConcurrentColumn<i64>,
        preds: &[RangePred<i64>],
        governor: &Governor,
        keep_going: &dyn Fn() -> bool,
    ) -> EngineResult<Vec<Vec<u32>>> {
        let mut outs = vec![Vec::new(); preds.len()];
        let done = col.select_oids_batch_guarded(preds, &mut outs, keep_going);
        if done < preds.len() {
            governor.check()?;
            return Err(EngineError::Invariant(format!(
                "the guard stopped the batch after {done} of {} selects \
                 but the governor reports no violation",
                preds.len()
            )));
        }
        Ok(outs)
    }

    /// Answer a conjunction of range predicates over one table — the
    /// multi-attribute case the paper's strolling profile explores ("a
    /// user will ... try out different attributes").
    ///
    /// Every referenced column is still cracked (each query remains an
    /// index builder), but the intersection is block-at-a-time instead of
    /// per-tuple hash probes: the most selective predicate's OIDs are
    /// materialized once, then each residual predicate is evaluated over
    /// [`BLOCK_OIDS`]-sized gathers of its base column through the
    /// configured [`cracker_core::kernel`], so SIMD sees full blocks
    /// ([`refine_conjunct`]). A residual column with staged updates falls
    /// back to intersecting its overlay-aware materialized answer.
    ///
    /// [`BLOCK_OIDS`]: crate::exec::batch::BLOCK_OIDS
    pub fn select_conjunctive(
        &mut self,
        table: &str,
        preds: &[(&str, RangePred<i64>)],
    ) -> EngineResult<Vec<u32>> {
        if preds.is_empty() {
            let all = 0..self.catalog.table(table)?.len() as u32;
            return Ok(match self.tombstones.get(table) {
                Some(dead) => all.filter(|&oid| !dead.contains(oid)).collect(),
                None => all.collect(),
            });
        }
        // Crack every column and size its answer (counts come free from
        // the piece map — no materialization yet); the smallest drives.
        // A lone predicate is its own driver and cracks while selecting.
        let mut driver = 0;
        if preds.len() > 1 {
            let mut fewest = usize::MAX;
            for (i, (attr, pred)) in preds.iter().enumerate() {
                let count = self.cracker_for(table, attr, Some(*pred))?.count(*pred);
                if count < fewest {
                    (driver, fewest) = (i, count);
                }
            }
        }
        let mut out = Vec::new();
        let (attr, pred) = preds[driver];
        self.cracker_for(table, attr, Some(pred))?
            .select_oids_into(pred, &mut out);
        let kernel = self.config.kernel.resolve();
        for (i, (attr, pred)) in preds.iter().enumerate() {
            if i == driver {
                continue;
            }
            set_key(&mut self.probe, table, attr);
            let col = &self.columns[&self.probe];
            if col.has_pending_updates() {
                // Overlay-aware fallback: this column's answer can differ
                // from its base values, so intersect the materialized
                // (pending-corrected) OID set instead.
                let mut other = col.select_oids(*pred);
                other.sort_unstable();
                out.retain(|o| other.binary_search(o).is_ok());
            } else {
                let base = self.catalog.table(table)?.ints(attr)?;
                refine_conjunct(kernel, base, pred, &mut out, &mut self.scratch);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Answer a batch of range predicates over one column under amortized
    /// locking: one latch acquisition per touched shard per batch — see
    /// [`ConcurrentColumn::select_oids_batch`].
    pub fn select_batch(
        &mut self,
        table: &str,
        attr: &str,
        preds: &[RangePred<i64>],
    ) -> EngineResult<Vec<Vec<u32>>> {
        Ok(self.shared_cracker(table, attr)?.select_oids_batch(preds))
    }

    /// Take an admission permit for a *governed* operation: the wait is
    /// bounded by the governor's remaining deadline budget (queue time is
    /// query time), surfacing [`EngineError::Overloaded`] instead of
    /// blocking past it. An unbounded governor waits like
    /// [`admit`](Self::admit). Returns `None` when no gate is installed.
    fn admit_governed<'g>(
        gate: Option<&'g AdmissionGate>,
        governor: &Governor,
        session: u64,
    ) -> EngineResult<Option<AdmissionPermit<'g>>> {
        match gate {
            Some(g) => Ok(Some(match governor.remaining() {
                Some(rem) => g.try_acquire_for(session, rem)?,
                None => g.admit(session),
            })),
            None => Ok(None),
        }
    }

    /// [`select`](Self::select) under a [`Governor`]: the query first
    /// passes the admission gate (waiting at most its remaining deadline
    /// budget), then polls the governor at every safe crack-step boundary.
    /// A query stopped mid-flight surfaces the governor's typed error
    /// ([`EngineError::Cancelled`] / [`EngineError::DeadlineExceeded`] /
    /// [`EngineError::Overloaded`]) and leaves every piece either
    /// untouched or fully cracked — later queries answer exactly as if the
    /// stopped one had never run. See `ROBUSTNESS.md`.
    pub fn select_governed(
        &mut self,
        q: &RangeQuery,
        mode: OutputMode,
        governor: &Governor,
        session: u64,
    ) -> EngineResult<(Vec<u32>, RunStats)> {
        governor.check()?;
        let gate = self.admission.clone();
        let _permit = Self::admit_governed(gate.as_deref(), governor, session)?;
        // The wait may have consumed the rest of the budget: re-check
        // before paying for any cracking.
        governor.check()?;
        self.run_select(q, mode, Some(governor))
    }

    /// [`select_batch`](Self::select_batch) under a [`Governor`]:
    /// admission is bounded by the remaining deadline budget and the
    /// governor is polled between predicates and between crack steps. A
    /// batch stopped mid-flight surfaces the
    /// governor's typed error; completed work is kept but nothing partial
    /// is returned.
    pub fn select_batch_governed(
        &mut self,
        table: &str,
        attr: &str,
        preds: &[RangePred<i64>],
        governor: &Governor,
        session: u64,
    ) -> EngineResult<Vec<Vec<u32>>> {
        governor.check()?;
        let gate = self.admission.clone();
        let _permit = Self::admit_governed(gate.as_deref(), governor, session)?;
        governor.check()?;
        let col = self.shared_cracker(table, attr)?;
        Self::select_guarded(col, preds, governor, &governor.as_guard())
    }

    /// Equi-join two tables on integer attributes via the ^ cracker:
    /// both join columns are wedge-cracked (the non-matching tuples are
    /// clustered away) and only the matching areas are joined. Pairs with
    /// a tombstoned side are dropped rather than folded away first: a
    /// caller may hold OIDs of either table selected before the join,
    /// which a fold would renumber under it.
    pub fn join(
        &mut self,
        left: &str,
        left_attr: &str,
        right: &str,
        right_attr: &str,
    ) -> EngineResult<Vec<(u32, u32)>> {
        let l_vals = self.catalog.table(left)?.ints(left_attr)?.to_vec();
        let r_vals = self.catalog.table(right)?.ints(right_attr)?.to_vec();
        let mut l = PairColumn::new(l_vals);
        let mut r = PairColumn::new(r_vals);
        let (ln, rn) = (l.len(), r.len());
        let res = wedge_crack(&mut l, &mut r, 0..ln, 0..rn);
        let mut pairs = join_matched(&l, &r, &res);
        let (l_dead, r_dead) = (self.tombstones.get(left), self.tombstones.get(right));
        if l_dead.is_some() || r_dead.is_some() {
            let live = |dead: Option<&OidSet>, oid| !dead.is_some_and(|d| d.contains(oid));
            pairs.retain(|&(l, r)| live(l_dead, l) && live(r_dead, r));
        }
        Ok(pairs)
    }

    /// Group one integer column and aggregate another via the Ω cracker.
    /// Returns `(group value, aggregate)` pairs in ascending group order.
    /// It copies whole base columns, so it folds the table's tombstones
    /// first.
    pub fn group_aggregate(
        &mut self,
        table: &str,
        group_attr: &str,
        agg: AggFunc,
        agg_attr: Option<&str>,
    ) -> EngineResult<Vec<(i64, i64)>> {
        self.fold(table)?;
        let t = self.catalog.table(table)?;
        let groups = t.ints(group_attr)?.to_vec();
        let agg_vals: Option<Vec<i64>> = match agg_attr {
            Some(a) => Some(t.ints(a)?.to_vec()),
            None => None,
        };
        let mut col = PairColumn::new(groups);
        let len = col.len();
        let res = omega_crack(&mut col, 0..len);
        let out = aggregate_groups(&col, &res, |_, vals, oids| match (&agg, &agg_vals) {
            (AggFunc::Count, _) => vals.len() as i64,
            (AggFunc::Sum, Some(av)) => oids.iter().map(|&o| av[o as usize]).sum(),
            (AggFunc::Min, Some(av)) => oids.iter().map(|&o| av[o as usize]).min().unwrap_or(0),
            (AggFunc::Max, Some(av)) => oids.iter().map(|&o| av[o as usize]).max().unwrap_or(0),
            // Sum/min/max without a target column degrade to count.
            _ => vals.len() as i64,
        });
        Ok(out)
    }

    /// `SELECT tail FROM table WHERE head IN pred`: `head`'s one cracked
    /// copy selects the OIDs (cracking as a side effect, honouring its
    /// staged updates) and `tail` is gathered from the base by OID —
    /// §3.1's reconstruction "by means of a natural 1:1-join" on the
    /// surrogate. Values come in the order the cracked copy yields the
    /// OIDs. OIDs with no base row (staged inserts beyond the table) are
    /// dropped, as in [`refine_conjunct`].
    pub fn select_project(
        &mut self,
        table: &str,
        head: &str,
        tail: &str,
        pred: RangePred<i64>,
    ) -> EngineResult<Vec<i64>> {
        // Resolve `tail` first: an unknown tail must not first-touch `head`.
        self.catalog.table(table)?.ints(tail)?;
        let oids = self.shared_cracker(table, head)?.select_oids(pred);
        let tail = self.catalog.table(table)?.ints(tail)?;
        Ok(oids
            .iter()
            .filter_map(|&o| tail.get(o as usize).copied())
            .collect())
    }

    /// Stage a row insertion: the new value joins the pending overlay of
    /// the column's cracked copy (built now if this is its first touch)
    /// and the base table is left untouched (append-only experiment
    /// surface).
    /// With durability attached, the update is appended to the redo log
    /// *before* it is applied (write-ahead): a failed append stages
    /// nothing, so the in-memory state never runs ahead of what recovery
    /// can reproduce. The target is resolved *before* the append: a
    /// rejected update (unknown table or column) must error
    /// without logging, or the poison record would make every future
    /// replay of the log fail at recovery time.
    pub fn stage_insert(
        &mut self,
        table: &str,
        column: &str,
        oid: u32,
        value: i64,
    ) -> EngineResult<()> {
        self.shared_cracker(table, column)?;
        if let Some(dur) = self.durability.as_mut() {
            dur.log.append(&WalRecord::Insert {
                table: table.to_owned(),
                column: column.to_owned(),
                oid,
                value,
            })?;
        }
        self.shared_cracker(table, column)?.insert(oid, value);
        Ok(())
    }

    /// Stage a row deletion in the column's cracked copy. Returns
    /// whether the copy knew the OID. Logged write-ahead
    /// like [`stage_insert`](Self::stage_insert) — and, like it, only
    /// after the target column resolves; deletes of unknown OIDs in a
    /// *valid* column are logged too — replaying one is a harmless no-op.
    pub fn stage_delete(&mut self, table: &str, column: &str, oid: u32) -> EngineResult<bool> {
        self.shared_cracker(table, column)?;
        if let Some(dur) = self.durability.as_mut() {
            dur.log.append(&WalRecord::Delete {
                table: table.to_owned(),
                column: column.to_owned(),
                oid,
            })?;
        }
        Ok(self.shared_cracker(table, column)?.delete(oid))
    }

    /// Stage a batch of row insertions into one column, amortizing the
    /// per-update overheads of [`stage_insert`](Self::stage_insert):
    /// with durability attached the whole batch becomes **one** redo-log
    /// group append (one buffered write, one group-commit decision), and
    /// the cracked copy absorbs it through
    /// `ConcurrentColumn::insert_batch` — one write latch per touched
    /// shard instead of one per row.
    ///
    /// The write-ahead contract is preserved batch-wide: the target
    /// column is resolved *before* anything is logged (a rejected batch
    /// must error without poisoning the log), and the group append is
    /// all-or-nothing — a failed append stages **nothing**, so the
    /// in-memory state never runs ahead of what recovery can reproduce.
    pub fn stage_insert_batch(
        &mut self,
        table: &str,
        column: &str,
        rows: &[(u32, i64)],
    ) -> EngineResult<()> {
        if rows.is_empty() {
            return Ok(());
        }
        self.shared_cracker(table, column)?;
        self.log_inserts(table, [(column, rows)])?;
        self.shared_cracker(table, column)?.insert_batch(rows);
        Ok(())
    }

    /// Append every `(column, rows)` slice of `table` to the redo log as
    /// **one** group append — a no-op without durability. The frame
    /// carries one run per column, and it lands whole or not at all.
    fn log_inserts<'a>(
        &mut self,
        table: &str,
        slices: impl IntoIterator<Item = (&'a str, &'a [(u32, i64)])>,
    ) -> EngineResult<()> {
        if let Some(dur) = self.durability.as_mut() {
            let recs: Vec<WalRecord> = slices
                .into_iter()
                .flat_map(|(column, rows)| {
                    rows.iter().map(move |&(oid, value)| WalRecord::Insert {
                        table: table.to_owned(),
                        column: column.to_owned(),
                        oid,
                        value,
                    })
                })
                .collect();
            dur.log.append_batch(&recs)?;
        }
        Ok(())
    }

    /// Append whole rows to a base table, growing its columns in place
    /// (new rows take the next dense OIDs); each *already-cracked* column
    /// absorbs its slice of the new rows through the staged overlay, so
    /// cracked state survives the append instead of being rebuilt.
    /// Returns the OID of the first appended row.
    ///
    /// A row is any slice of values: a `Vec<i64>` per row, or row-major
    /// chunks of one buffer. Rows are validated against the schema's
    /// arity before anything is staged or logged. With durability
    /// attached, every column's slice goes to the redo log in **one**
    /// group append before any cracked copy or the base changes: a
    /// refused append leaves the base, the cracked copies and the log as
    /// they were. A base column shared with another `Arc` holder (a table scan) is
    /// copied once (the holder keeps the old rows); an unshared one grows
    /// by the rows appended.
    pub fn append_rows<R: AsRef<[i64]>>(&mut self, table: &str, rows: &[R]) -> EngineResult<u32> {
        let t = self.catalog.table(table)?;
        let names: Vec<String> = t.schema().names().iter().map(|s| s.to_string()).collect();
        let start = t.len() as u32;
        if rows.iter().any(|r| r.as_ref().len() != names.len()) {
            return Err(EngineError::RaggedColumns(table.to_owned()));
        }
        if rows.is_empty() {
            return Ok(start);
        }
        // Cracked copies snapshot the base at first touch, so they absorb
        // the new rows as overlay entries (the grown base is what *future*
        // first touches see). Only columns with live cracked state (or a
        // log to feed, which replays into cracked copies) get a slice;
        // each is resolved before anything is logged.
        let mut slices: Vec<(&str, Vec<(u32, i64)>)> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            set_key(&mut self.probe, table, name);
            if self.columns.get(&self.probe).is_some() || self.durability.is_some() {
                self.shared_cracker(table, name)?;
                let batch = rows
                    .iter()
                    .zip(start..)
                    .map(|(r, oid)| (oid, r.as_ref()[i]));
                slices.push((name, batch.collect()));
            }
        }
        self.log_inserts(table, slices.iter().map(|(name, b)| (*name, &b[..])))?;
        for (name, batch) in &slices {
            self.shared_cracker(table, name)?.append_batch(batch);
        }
        self.catalog.table_mut(table)?.append_int_rows(rows)?;
        Ok(start)
    }

    /// Delete the rows at `oids` from a base table. No OID moves: the
    /// rows become tombstones of the table, which the base keeps, and each
    /// of the table's cracked copies stages them as deletes in one batch
    /// ([`ConcurrentColumn::stage_deletes`]), which its selects and merges
    /// honour. A row [`append_rows`](Self::append_rows) staged into a copy
    /// is cancelled there by its value in the base, one probe of the
    /// staged inserts per doomed row. Other tables are not touched. OIDs beyond the table, rows
    /// already deleted and repeats are ignored; returns the number of rows
    /// removed, and a call that removes none changes nothing.
    ///
    /// Once the table's tombstones reach `max(1, len / STAGE_SHARE)`
    /// ([`STAGE_SHARE`]) they are *folded*: every base column is compacted
    /// in one pass and the survivors are renumbered densely, and each
    /// cracked copy follows in place ([`ConcurrentColumn::compact_renumber`]):
    /// the doomed tuples leave their pieces, the survivors and the pending
    /// overlay take the new OIDs, and every boundary stays, so the next
    /// select is warm. The `O(n)` pass thus runs once per `len / 64`
    /// deleted rows; on a table under 128 rows every call folds.
    ///
    /// Between folds, every reader of the whole table honours the
    /// tombstones:
    /// - [`select_conjunctive`](Self::select_conjunctive) with no
    ///   predicates filters them out, without folding;
    /// - [`join`](Self::join) drops the pairs they take part in, without
    ///   folding;
    /// - [`group_aggregate`](Self::group_aggregate) copies whole base
    ///   columns, so it folds first;
    /// - a first touch ([`shared_cracker`](Self::shared_cracker)) stages
    ///   them into the new copy;
    /// - [`attach_durability`](Self::attach_durability) folds every table
    ///   first;
    /// - [`live_rows`](Self::live_rows) discounts them, where
    ///   [`Table::len`] counts them.
    ///
    /// Refused while durability is attached: recovery replays only the
    /// update overlay, and a checkpoint fingerprints a base column by its
    /// cardinality — it could not tell a compacted column from the one it
    /// already holds (see `PERSISTENCE.md`, "SQL DML coverage").
    pub fn delete_rows(&mut self, table: &str, oids: &[u32]) -> EngineResult<usize> {
        if self.durability.is_some() {
            return Err(not_replayable("delete_rows"));
        }
        let len = self.catalog.table(table)?.len();
        let dead = self.tombstones.get(table);
        let mut doomed = oids.to_vec();
        doomed.retain(|&oid| (oid as usize) < len && !dead.is_some_and(|d| d.contains(oid)));
        doomed.sort_unstable();
        doomed.dedup();
        if doomed.is_empty() {
            return Ok(0);
        }
        let dead = self.tombstones.entry(table.to_owned()).or_default();
        for &oid in &doomed {
            dead.insert(oid);
        }
        if dead.len() >= (len / STAGE_SHARE).max(1) {
            self.fold(table)?;
        } else {
            let t = self.catalog.table(table)?;
            for (column, col) in self.columns.of_table(table) {
                col.stage_deletes(&doomed, t.ints(column)?);
            }
        }
        Ok(doomed.len())
    }

    /// Compact `table`'s tombstones away: the base table removes the rows
    /// and renumbers the survivors densely, and every cracked copy of it
    /// follows in place under one [`Renumbering`]. A no-op when it has
    /// none.
    fn fold(&mut self, table: &str) -> EngineResult<()> {
        let Some(dead) = self.tombstones.remove(table) else {
            return Ok(());
        };
        let doomed = sorted(&dead);
        self.catalog.table_mut(table)?.remove_rows(&doomed);
        let renumbering = Renumbering::new(&doomed);
        (self.columns.of_table(table)).for_each(|(_, col)| col.compact_renumber(&renumbering));
        Ok(())
    }

    /// Drop a base table together with its cracked copies and
    /// tombstones. Refused while durability is attached: a redo record
    /// naming the dropped table would make [`recover`](Self::recover)
    /// fail with `UnknownTable`.
    pub fn drop_table(&mut self, table: &str) -> EngineResult<()> {
        if self.durability.is_some() {
            return Err(not_replayable("drop_table"));
        }
        self.catalog.drop_table(table)?;
        self.tombstones.remove(table);
        self.columns.remove_table(table);
        Ok(())
    }

    /// Morsel-parallel OID selection over the cracked copy of a
    /// column — the engine face of [`crate::exec::morsel`]. The
    /// predicate's touched shards are claimed by up to `workers` threads
    /// (extra workers ride non-blocking admission permits when a gate is
    /// installed); a one-shard column has one morsel, answered on the
    /// caller's thread. The governor is polled at safe boundaries and a
    /// tripped guard surfaces its typed error with no partial answer.
    pub fn select_morsel(
        &mut self,
        table: &str,
        attr: &str,
        pred: RangePred<i64>,
        workers: usize,
        governor: &Governor,
        session: u64,
    ) -> EngineResult<Vec<u32>> {
        governor.check()?;
        let gate = self.admission.clone();
        let col = self.shared_cracker(table, attr)?;
        let gate = gate.as_deref().map(|g| (g, session));
        crate::exec::morsel::morsel_select_oids(col, pred, workers, gate, governor)
    }

    /// Attach a durability directory: fold every table's tombstones (see
    /// [`delete_rows`](Self::delete_rows)), take an initial checkpoint of
    /// the current state into `dir` and start redo-logging staged updates
    /// with the given group-commit interval (`1` = every update fsync'd
    /// before it applies). Returns the committed epoch. See
    /// `PERSISTENCE.md`.
    pub fn attach_durability(
        &mut self,
        dir: impl AsRef<Path>,
        group_commit: usize,
    ) -> EngineResult<u64> {
        let tables: Vec<String> = self.tombstones.keys().cloned().collect();
        for table in tables {
            self.fold(&table)?;
        }
        let mut store = CheckpointStore::open(dir.as_ref())?;
        let (manifest, origins) = self.write_checkpoint(&mut store, &HashMap::new())?;
        let epoch = manifest.epoch;
        let mut dur =
            Durability::from_manifest(store, &manifest, group_commit, RetryPolicy::default())?;
        self.columns.values().for_each(|c| c.set_journaling(true));
        self.adopt_origins(&mut dur, origins);
        self.durability = Some(dur);
        Ok(epoch)
    }

    /// Epoch of the last committed checkpoint, if durability is attached.
    pub fn checkpoint_epoch(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.epoch)
    }

    /// Take an incremental checkpoint: base tables, every cracked column's
    /// piece map, and the pending overlay become durable atomically, and
    /// the redo log rotates to the new epoch. Payloads whose content
    /// fingerprint is unchanged since the previous epoch are carried
    /// forward without rewriting, and a cracked column whose origin still
    /// holds writes only its delta (see [`ORIGIN_SHARE`]). Returns the
    /// committed epoch.
    ///
    /// On error the previous epoch (and its log) normally stays
    /// authoritative — updates keep appending to the old log, so nothing
    /// is lost. One error is *ambiguous*: a failure after the manifest
    /// rename (the directory fsync) may leave the new manifest already
    /// committed on disk. The manifest is therefore re-read on every
    /// failure; if a newer epoch landed, the handle adopts it — logging
    /// must follow the manifest recovery would load, or post-checkpoint
    /// updates would replay against the wrong epoch. The error is still
    /// surfaced (it is the commit's *durability* that is in doubt);
    /// retrying `checkpoint()` produces an unambiguous epoch.
    pub fn checkpoint(&mut self) -> EngineResult<u64> {
        let mut dur = self.durability.take().ok_or_else(not_attached)?;
        match self.write_checkpoint(&mut dur.store, &dur.origins) {
            Ok((manifest, origins)) => {
                let epoch = manifest.epoch;
                self.adopt_origins(&mut dur, origins);
                // Rotate the live log handle in place: its injector,
                // retry policy, and group-commit carry over. On rotation
                // failure the handle is poisoned (see
                // `Durability::rotate_to`) — surfaced, not swallowed.
                let rotated = dur.rotate_to(&manifest);
                self.durability = Some(dur);
                rotated?;
                Ok(epoch)
            }
            Err(e) => {
                if let Ok(Some(m)) = dur.store.manifest() {
                    if m.epoch > dur.epoch {
                        // Ambiguous commit that actually landed: adopt it.
                        // A rotation failure here poisons the log; the
                        // original error below is the one surfaced.
                        let _ = dur.rotate_to(&m);
                    }
                }
                self.durability = Some(dur);
                Err(e)
            }
        }
    }

    /// Write the whole database into one checkpoint epoch. Each payload
    /// is encoded straight from the live arrays — base columns as the
    /// catalog holds them, cracked columns under their read latches —
    /// and only when its fingerprint changed.
    ///
    /// A cracked column's origin is carried forward when `origins` names
    /// the one the previous epoch holds and the column's journal is intact
    /// and at most `1 / ORIGIN_SHARE` of its length; otherwise the origin
    /// is rewritten whole, and its delta holds no journal. Returns the
    /// manifest and the origins written, to adopt once it committed.
    fn write_checkpoint(
        &self,
        store: &mut CheckpointStore,
        origins: &HashMap<ColumnId, String>,
    ) -> EngineResult<(Manifest, Vec<(ColumnId, String)>)> {
        // One shard is written as 0, as the format has always written it.
        let shards = match self.concurrency.shards {
            0 | 1 => 0,
            n => n as u64,
        };
        let mut tables = Vec::new();
        for name in self.catalog.names() {
            let t = self.catalog.table(name)?;
            tables.push(TableMeta {
                name: name.to_string(),
                columns: t.schema().names().iter().map(|s| s.to_string()).collect(),
            });
        }
        let mut columns: Vec<ColumnId> = self.columns.keys().cloned().collect();
        columns.sort();
        let meta = DbMeta {
            version: DB_META_VERSION,
            concurrency_shards: shards,
            tables,
            columns,
        };
        let mut w = store.begin()?;
        w.put(META_KEY, &format!("{meta:?}"), |buf| meta.encode(buf))?;
        // While durability is attached a base table only ever grows at
        // its end (`delete_rows` / `drop_table` refuse), so cardinality is
        // a sufficient fingerprint: an unchanged count means unchanged
        // values, carried forward without rewriting.
        for tm in &meta.tables {
            let t = self.catalog.table(&tm.name)?;
            for c in &tm.columns {
                let vals = t.ints(c)?;
                w.put(
                    &table_key(&tm.name, c),
                    &format!("n{}", vals.len()),
                    |buf| codec::put_ints(buf, vals),
                )?;
            }
        }
        let mut written = Vec::new();
        for key in &meta.columns {
            let col = &self.columns[key];
            let origin_key = column_key(&key.0, &key.1);
            let fingerprint = ConcurrentSnapshot::fingerprint(col);
            let small = col
                .journal_len()
                .is_some_and(|j| j * ORIGIN_SHARE <= col.len());
            let kept = origins
                .get(key)
                .filter(|origin| small && w.carry(&origin_key, origin));
            let origin = match kept {
                Some(origin) => origin.clone(),
                None => {
                    w.put(&origin_key, &fingerprint, |buf| {
                        ConcurrentSnapshot::encode(col, buf)
                    })?;
                    written.push((key.clone(), fingerprint.clone()));
                    fingerprint.clone()
                }
            };
            w.put(
                &delta_key(&key.0, &key.1),
                &format!("{fingerprint}@{origin}"),
                |buf| ConcurrentDelta::encode(col, kept.is_some(), buf),
            )?;
        }
        Ok((w.commit()?, written))
    }

    /// After a commit: the columns whose origin it wrote start an empty
    /// journal from it.
    fn adopt_origins(&self, dur: &mut Durability, written: Vec<(ColumnId, String)>) {
        for (key, fingerprint) in written {
            self.columns[&key].clear_journal();
            dur.origins.insert(key, fingerprint);
        }
    }

    /// Rebuild a database from the durability directory at `dir`: load the
    /// last committed checkpoint, restore every piece map with full
    /// validation, replay the redo log on top, and resume logging (with
    /// `group_commit`) where the crash left off.
    ///
    /// The recovered database answers **warm**: every crack boundary the
    /// pre-crash workload paid for is back in place (the crash-recovery
    /// suite pins this via touched-tuple counts). Anything that fails
    /// validation is a loud [`StorageError::PersistFormat`] — recovery
    /// never silently degrades to a cold or wrong state.
    pub fn recover(
        dir: impl AsRef<Path>,
        config: CrackerConfig,
        group_commit: usize,
    ) -> EngineResult<AdaptiveDb> {
        let store = CheckpointStore::open(dir.as_ref())?;
        let manifest = store.manifest()?.ok_or_else(|| {
            EngineError::Storage(StorageError::PersistIo(format!(
                "no checkpoint manifest in {:?} — nothing to recover",
                dir.as_ref()
            )))
        })?;
        let format_err = |msg: String| EngineError::Storage(StorageError::PersistFormat(msg));
        let entry = |key: &str| {
            manifest
                .entry(key)
                .ok_or_else(|| format_err(format!("manifest lacks payload {key:?}")))
        };
        let meta = DbMeta::decode(store.read_payload(entry(META_KEY)?)?.body())?;
        let mode = ConcurrencyMode {
            shards: meta.concurrency_shards.max(1) as usize,
        };
        let mut db = AdaptiveDb::with_config(config).with_concurrency(mode);
        for tm in &meta.tables {
            let mut cols = Vec::with_capacity(tm.columns.len());
            for c in &tm.columns {
                let payload = store.read_payload(entry(&table_key(&tm.name, c))?)?;
                let mut r = Reader::new(payload.body());
                let vals: Vec<i64> = r.ints()?;
                r.finish()?;
                cols.push((c.as_str(), vals));
            }
            db.register(Table::from_int_columns(&tm.name, cols)?)?;
        }
        for (t, c) in &meta.columns {
            let in_column = |e: String| format_err(format!("column {t}.{c}: {e}"));
            // Each frame is a temporary, dropped once decoded: the origin's
            // bytes are gone before the replay runs.
            let origin =
                ConcurrentSnapshot::decode(store.read_payload(entry(&column_key(t, c))?)?.body());
            let delta =
                ConcurrentDelta::decode(store.read_payload(entry(&delta_key(t, c))?)?.body());
            let origin = origin.map_err(|e| in_column(e.to_string()))?;
            let delta = delta.map_err(|e| in_column(e.to_string()))?;
            let col = origin.restore_with(delta, config).map_err(in_column)?;
            db.columns.insert((t.clone(), c.clone()), col);
        }
        // Replay the overlay log on top of the checkpoint, truncating any
        // torn tail so the reopened log can keep appending safely.
        // Durability is not attached yet, so replay does not re-log.
        for rec in RedoLog::replay_and_repair(store.log_path(&manifest))? {
            match rec {
                WalRecord::Insert {
                    table,
                    column,
                    oid,
                    value,
                } => db.stage_insert(&table, &column, oid, value)?,
                WalRecord::Delete { table, column, oid } => {
                    db.stage_delete(&table, &column, oid)?;
                }
            }
        }
        db.durability = Some(Durability::from_manifest(
            store,
            &manifest,
            group_commit,
            RetryPolicy::default(),
        )?);
        db.columns.values().for_each(|c| c.set_journaling(true));
        Ok(db)
    }

    /// Arm crash injection on the checkpoint store: the `n`-th next
    /// durable checkpoint operation dies mid-write. Returns `false` when
    /// no durability is attached. Test hook for the crash-recovery suite.
    pub fn arm_checkpoint_crash(&mut self, n: u32) -> bool {
        match self.durability.as_mut() {
            Some(d) => {
                d.store.set_crash_after(n);
                true
            }
            None => false,
        }
    }

    /// Arm crash injection on the redo log: the `n`-th next append dies
    /// mid-write, leaving a torn final record. Returns `false` when no
    /// durability is attached. Test hook for the crash-recovery suite.
    pub fn arm_log_crash(&mut self, n: u32) -> bool {
        match self.durability.as_mut() {
            Some(d) => {
                d.log.set_crash_after(n);
                true
            }
            None => false,
        }
    }

    /// Arm a deterministic I/O fault at one of the named injection points
    /// of [`storage::fault`] (see `ALL_POINTS` there): `"wal."`-prefixed
    /// points are armed on the current redo log's injector, checkpoint
    /// points on the store's. After `after` clean passes the point fails
    /// `fires` times with `kind`, then heals. Returns `false` when no
    /// durability is attached. Chaos-suite hook — see `ROBUSTNESS.md`.
    ///
    /// The redo-log handle is rotated *in place* by checkpoints, so armed
    /// WAL faults survive rotation — `"wal.open"` in particular fires at
    /// the next rotation itself.
    pub fn arm_io_fault(&mut self, point: &str, after: u32, kind: FaultKind, fires: u32) -> bool {
        match self.durability.as_mut() {
            Some(d) => {
                if point.starts_with("wal.") {
                    d.log.injector_mut().arm(point, after, kind, fires);
                } else {
                    d.store.injector_mut().arm(point, after, kind, fires);
                }
                true
            }
            None => false,
        }
    }

    /// Total I/O faults the durability layer has injected so far
    /// (checkpoint store + current redo log).
    pub fn io_faults_injected(&self) -> u64 {
        self.durability
            .as_ref()
            .map(|d| d.store.faults_injected() + d.log.faults_injected())
            .unwrap_or(0)
    }

    /// Install the retry policy the durability layer applies to transient
    /// I/O faults — on the checkpoint store, the current redo log, and
    /// (via the durability handle) every log the next rotations open.
    /// Returns `false` when no durability is attached.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) -> bool {
        match self.durability.as_mut() {
            Some(d) => {
                d.store.set_retry_policy(retry);
                d.log.set_retry_policy(retry);
                d.retry = retry;
                true
            }
            None => false,
        }
    }

    /// The redo log's poison reason, if a failed group-commit fsync has
    /// poisoned it (updates fail typed until a checkpoint rotates the
    /// log). `None` when healthy or when no durability is attached.
    pub fn wal_poisoned(&self) -> Option<&str> {
        self.durability.as_ref().and_then(|d| d.log.poisoned())
    }

    /// Aggregate crack statistics across all cracked columns.
    pub fn total_crack_stats(&self) -> cracker_core::CrackStats {
        let mut acc = cracker_core::CrackStats::default();
        for c in self.columns.values() {
            acc.absorb(&c.stats());
        }
        acc
    }
}

/// Every cracked copy, found by its `(table, column)` in one hash probe:
/// `slots` holds each copy's place in `copies`.
#[derive(Default)]
struct Cracked {
    slots: FastMap<ColumnId, usize>,
    copies: Vec<ConcurrentColumn<i64>>,
}

impl Cracked {
    fn len(&self) -> usize {
        self.copies.len()
    }

    fn get(&self, key: &ColumnId) -> Option<&ConcurrentColumn<i64>> {
        self.slots.get(key).map(|&slot| &self.copies[slot])
    }

    /// Add the copy of a column that has none; returns its slot.
    fn insert(&mut self, key: ColumnId, col: ConcurrentColumn<i64>) -> usize {
        debug_assert!(!self.slots.contains_key(&key), "one copy per column");
        self.copies.push(col);
        self.slots.insert(key, self.copies.len() - 1);
        self.copies.len() - 1
    }

    fn keys(&self) -> impl Iterator<Item = &ColumnId> {
        self.slots.keys()
    }

    fn values(&self) -> impl Iterator<Item = &ConcurrentColumn<i64>> {
        self.copies.iter()
    }

    /// The copies of `table`'s columns, with the columns' names.
    fn of_table<'a>(
        &'a self,
        table: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a ConcurrentColumn<i64>)> {
        (self.slots.iter())
            .filter(move |((t, _), _)| t == table)
            .map(|((_, column), &slot)| (column.as_str(), &self.copies[slot]))
    }

    /// Drop the copies of `table`'s columns, packing the rest.
    fn remove_table(&mut self, table: &str) {
        self.slots.retain(|(t, _), _| t != table);
        let mut old: Vec<Option<_>> = std::mem::take(&mut self.copies)
            .into_iter()
            .map(Some)
            .collect();
        for slot in self.slots.values_mut() {
            if let Some(col) = old[*slot].take() {
                *slot = self.copies.len();
                self.copies.push(col);
            }
        }
    }
}

impl std::ops::Index<&ColumnId> for Cracked {
    type Output = ConcurrentColumn<i64>;

    fn index(&self, key: &ColumnId) -> &ConcurrentColumn<i64> {
        &self.copies[self.slots[key]]
    }
}

/// The members of `set`, ascending.
fn sorted(set: &OidSet) -> Vec<u32> {
    let mut oids: Vec<u32> = set.iter().collect();
    oids.sort_unstable();
    oids
}

/// Overwrite a `(table, column)` key in place, keeping its buffers.
fn set_key(key: &mut (String, String), table: &str, column: &str) {
    key.0.clear();
    key.0.push_str(table);
    key.1.clear();
    key.1.push_str(column);
}

impl Default for AdaptiveDb {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use std::collections::BTreeMap;

    const MODES: [ConcurrencyMode; 2] =
        [ConcurrencyMode { shards: 1 }, ConcurrencyMode { shards: 4 }];

    fn db() -> AdaptiveDb {
        db_in(ConcurrencyMode::default())
    }

    fn db_in(mode: ConcurrencyMode) -> AdaptiveDb {
        let mut db = AdaptiveDb::new().with_concurrency(mode);
        db.register(
            Table::from_int_columns(
                "r",
                vec![
                    ("k", (0..100).map(|i| i % 10).collect()),
                    ("a", (0..100).rev().collect()),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.register(
            Table::from_int_columns("s", vec![("k", (0..20).map(|i| i % 5).collect())]).unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn select_cracks_lazily_and_answers() {
        let mut db = db();
        assert_eq!(db.cracked_columns(), 0);
        let q = RangeQuery::new("r", "a", RangePred::between(10, 19));
        let (oids, stats) = db.select(&q, OutputMode::Stream).unwrap();
        assert_eq!(stats.result_count, 10);
        assert_eq!(oids.len(), 10);
        assert_eq!(db.cracked_columns(), 1);
        // Values a are reversed positions: a = 99 - oid.
        for o in oids {
            let a = 99 - o as i64;
            assert!((10..=19).contains(&a));
        }
        // Repeat is index-only.
        let (_, stats) = db.select(&q, OutputMode::Count).unwrap();
        assert_eq!(stats.tuples_read, 0);
    }

    #[test]
    fn unknown_table_or_column_errors() {
        let mut db = db();
        let q = RangeQuery::new("zzz", "a", RangePred::lt(5));
        assert!(matches!(
            db.select(&q, OutputMode::Count),
            Err(EngineError::UnknownTable(_))
        ));
        let q = RangeQuery::new("r", "zzz", RangePred::lt(5));
        assert!(matches!(
            db.select(&q, OutputMode::Count),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn conjunctive_selection_intersects_columns() {
        for mode in MODES {
            let mut db = db_in(mode);
            // a >= 50 (oids 0..=49) AND k < 3 (oids where oid%10 < 3).
            let got = db
                .select_conjunctive("r", &[("a", RangePred::ge(50)), ("k", RangePred::lt(3))])
                .unwrap();
            let want: Vec<u32> = (0..100u32)
                .filter(|&o| (99 - o as i64) >= 50 && (o as i64 % 10) < 3)
                .collect();
            assert_eq!(got, want, "{mode:?}");
            assert_eq!(db.cracked_columns(), 2, "both columns cracked");
            // A lone conjunct drives itself, cracking as it selects.
            let got = db
                .select_conjunctive("r", &[("a", RangePred::between(10, 19))])
                .unwrap();
            assert_eq!(got, (80..90).collect::<Vec<u32>>(), "{mode:?}");
        }
    }

    #[test]
    fn conjunctive_selection_survives_staged_updates() {
        for mode in MODES {
            let mut db = db_in(mode);
            // Driver column `a` gains a staged insert; residual column `k`
            // gains a staged delete — the refine path must drop the unknown
            // OID and the fallback path must honor the overlay.
            db.stage_insert("r", "a", 500, 75).unwrap();
            let preds = [("a", RangePred::between(70, 80)), ("k", RangePred::lt(5))];
            let got = db.select_conjunctive("r", &preds).unwrap();
            let want: Vec<u32> = (0..100u32)
                .filter(|&o| (70..=80).contains(&(99 - o as i64)) && (o as i64 % 10) < 5)
                .collect();
            assert_eq!(got, want, "{mode:?}: insert unknown to k must not qualify");
            assert!(db.stage_delete("r", "k", *want.first().unwrap()).unwrap());
            let got = db.select_conjunctive("r", &preds).unwrap();
            assert_eq!(got, want[1..], "{mode:?}: k's staged delete is honored");
        }
    }

    #[test]
    fn batch_selects_match_statement_at_a_time_in_every_mode() {
        let vals: Vec<i64> = (0..8_000).map(|i| (i * 23) % 8_000).collect();
        let preds: Vec<RangePred<i64>> = (0..16)
            .map(|i| RangePred::between(i * 450, i * 450 + 900))
            .collect();
        for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 8 }] {
            let mut db = AdaptiveDb::new().with_concurrency(mode);
            db.register(Table::from_int_columns("t", vec![("v", vals.clone())]).unwrap())
                .unwrap();
            let batch = db.select_batch("t", "v", &preds).unwrap();
            for (pred, mut batched) in preds.iter().zip(batch) {
                batched.sort_unstable();
                let mut stmt = db.shared_cracker("t", "v").unwrap().select_oids(*pred);
                stmt.sort_unstable();
                assert_eq!(batched, stmt, "{mode:?} pred {pred:?}");
            }
        }
    }

    #[test]
    fn admission_gate_is_optional_and_shareable() {
        let db = db();
        assert!(db.admission().is_none());
        assert!(db.admit(1).is_none());
        let db = db.with_admission(AdmissionGate::new(2, 1));
        let gate = Arc::clone(db.admission().unwrap());
        let permit = db.admit(1).expect("gate installed");
        assert_eq!(gate.in_flight(), 1);
        assert!(gate.try_admit(1).is_none(), "session cap is 1");
        let _other = gate.try_admit(2).expect("second session admitted");
        drop(permit);
        assert_eq!(gate.in_flight(), 1);
    }

    #[test]
    fn empty_conjunction_returns_all() {
        let mut db = db();
        assert_eq!(db.select_conjunctive("r", &[]).unwrap().len(), 100);
    }

    #[test]
    fn join_via_wedge_agrees_with_nested_loop() {
        let mut db = db();
        let mut got = db.join("r", "k", "s", "k").unwrap();
        got.sort_unstable();
        let r_k: Vec<i64> = (0..100).map(|i| i % 10).collect();
        let s_k: Vec<i64> = (0..20).map(|i| i % 5).collect();
        let mut want = Vec::new();
        for (i, &rv) in r_k.iter().enumerate() {
            for (j, &sv) in s_k.iter().enumerate() {
                if rv == sv {
                    want.push((i as u32, j as u32));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
        // The wedge cracks copies, never the base: a repeat answers alike.
        let mut again = db.join("r", "k", "s", "k").unwrap();
        again.sort_unstable();
        assert_eq!(again, want);
    }

    #[test]
    fn group_aggregate_via_omega() {
        let mut db = db();
        let counts = db.group_aggregate("r", "k", AggFunc::Count, None).unwrap();
        assert_eq!(counts.len(), 10);
        assert!(counts.iter().all(|&(_, c)| c == 10));
        let sums = db
            .group_aggregate("r", "k", AggFunc::Sum, Some("a"))
            .unwrap();
        // Group g holds oids g, g+10, ..., g+90 with a = 99-oid.
        let expect: i64 = (0..10).map(|j| 99 - (10 * j)).sum();
        assert_eq!(sums[0], (0, expect));
        let maxs = db
            .group_aggregate("r", "k", AggFunc::Max, Some("a"))
            .unwrap();
        assert_eq!(maxs[0], (0, 99));
        let mins = db
            .group_aggregate("r", "k", AggFunc::Min, Some("a"))
            .unwrap();
        assert_eq!(mins[9], (9, 0));
    }

    #[test]
    fn staged_updates_flow_through_selects() {
        for mode in MODES {
            let mut db = db_in(mode);
            let q = RangeQuery::new("r", "a", RangePred::ge(1000));
            let (oids, _) = db.select(&q, OutputMode::Stream).unwrap();
            assert!(oids.is_empty());
            db.stage_insert("r", "a", 500, 2000).unwrap();
            let (oids, stats) = db.select(&q, OutputMode::Stream).unwrap();
            assert_eq!(oids, vec![500], "{mode:?}");
            assert_eq!(stats.result_count, 1);
            // Deletes reach a staged row and a base row (oid 15 is a = 84).
            assert!(db.stage_delete("r", "a", 500).unwrap());
            assert!(db.stage_delete("r", "a", 15).unwrap());
            let q = RangeQuery::new("r", "a", RangePred::ge(84));
            let (_, stats) = db.select(&q, OutputMode::Count).unwrap();
            assert_eq!(stats.result_count, 15, "{mode:?}");
            // An update staged before a column's first touch is in the
            // handle that first touch hands out.
            db.stage_insert("r", "k", 500, 2000).unwrap();
            let col = db.shared_cracker("r", "k").unwrap();
            assert_eq!(col.count(RangePred::ge(1000)), 1, "{mode:?}");
        }
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut db = db();
        let err = db
            .register(Table::from_int_columns("r", vec![("x", vec![])]).unwrap())
            .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateTable(_)));
    }

    #[test]
    fn sideways_select_project_agrees_with_oid_path() {
        for mode in MODES {
            let mut db = db_in(mode);
            // k-values of the tuples with a in [10, 19].
            let pred = RangePred::between(10, 19);
            let got = sideways(&mut db, pred);
            // OID path through the same cracked column.
            let k = base_model(&db, "r", "k");
            let oids = cracked_oids(&mut db, "r", "a", pred);
            let mut via_oids: Vec<i64> = oids.iter().map(|o| k[o]).collect();
            via_oids.sort_unstable();
            assert_eq!(got, via_oids, "{mode:?}");
            assert_eq!(got, model_tails(&db, pred), "{mode:?}");
            // One cracked structure: `a`'s copy. `k` is only gathered.
            assert_eq!(db.cracked_columns(), 1, "{mode:?}");
            assert!(db.cracked_column("r", "k").is_none());
            // A repeat is index-only.
            let before = db.total_crack_stats();
            assert_eq!(sideways(&mut db, pred), got);
            let delta = db.total_crack_stats().delta_since(&before);
            assert_eq!((delta.cracks, delta.tuples_touched), (0, 0), "{mode:?}");
            // Unknown names error; an unknown tail touches nothing.
            assert!(db.select_project("zzz", "a", "k", pred).is_err());
            assert!(db.select_project("r", "zzz", "k", pred).is_err());
            assert!(db.select_project("r", "k", "zzz", pred).is_err());
            assert!(db.cracked_column("r", "k").is_none(), "{mode:?}");
        }
    }

    #[test]
    fn select_project_excludes_a_staged_delete() {
        for mode in MODES {
            let mut db = db_in(mode);
            // Row `i` has `a = 99 - i` and `k = i % 10`: a >= 90 is rows 0..=9.
            let pred = RangePred::ge(90);
            assert_eq!(sideways(&mut db, pred), (0..10).collect::<Vec<_>>());
            assert!(db.stage_delete("r", "a", 3).unwrap());
            let want: Vec<i64> = (0..10).filter(|&k| k != 3).collect();
            assert_eq!(sideways(&mut db, pred), want, "{mode:?}");
            // `select` on the same range agrees.
            let oids = cracked_oids(&mut db, "r", "a", pred);
            assert_eq!(oids.len(), want.len(), "{mode:?}");
        }
    }

    #[test]
    fn select_project_skips_staged_inserts_beyond_the_table() {
        for mode in MODES {
            let mut db = db_in(mode);
            // OID 200 has an `a` value but no base row, so no `k` value.
            db.stage_insert("r", "a", 200, 95).unwrap();
            let pred = RangePred::ge(90);
            assert_eq!(cracked_oids(&mut db, "r", "a", pred).len(), 11);
            assert_eq!(sideways(&mut db, pred), model_tails(&db, pred), "{mode:?}");
        }
    }

    #[test]
    fn shared_cracker_modes_agree_and_fan_out_across_threads() {
        let vals: Vec<i64> = (0..10_000).map(|i| (i * 17) % 10_000).collect();
        for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 8 }] {
            let mut db = AdaptiveDb::new().with_concurrency(mode);
            assert_eq!(db.concurrency(), mode);
            db.register(Table::from_int_columns("t", vec![("v", vals.clone())]).unwrap())
                .unwrap();
            assert_eq!(db.cracked_columns(), 0);
            {
                let col = db.shared_cracker("t", "v").unwrap();
                let vals = &vals;
                std::thread::scope(|s| {
                    for t in 0..4i64 {
                        let col = &*col;
                        s.spawn(move || {
                            for q in 0..25i64 {
                                let lo = (t * 2_311 + q * 97) % 9_000;
                                let pred = RangePred::between(lo, lo + 500);
                                let want = vals.iter().filter(|&&v| pred.matches(v)).count();
                                assert_eq!(col.count(pred), want);
                            }
                        });
                    }
                });
                col.validate().unwrap();
            }
            assert_eq!(db.cracked_columns(), 1);
            assert!(
                db.total_crack_stats().queries > 0,
                "the handle's stats flow in"
            );
            assert!(db.shared_cracker("t", "zzz").is_err());
            assert!(db.shared_cracker("zzz", "v").is_err());
        }
    }

    #[test]
    fn kernel_choice_reaches_every_concurrency_mode() {
        // The same query through one-shard and sharded columns with
        // either kernel policy: both agree with the oracle (`Auto` is the
        // scalar loops where the CPU lacks AVX2 — still the same answers).
        let vals: Vec<i64> = (0..5_000).map(|i| (i * 131) % 5_000).collect();
        let pred = RangePred::between(1_000, 2_000);
        let mut want: Vec<u32> = (0..5_000u32)
            .filter(|&o| pred.matches(vals[o as usize]))
            .collect();
        want.sort_unstable();
        for kernel in [KernelPolicy::Scalar, KernelPolicy::Auto] {
            for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 4 }] {
                let mut db = AdaptiveDb::new().with_kernel(kernel).with_concurrency(mode);
                assert_eq!(db.kernel_policy(), kernel);
                db.register(Table::from_int_columns("t", vec![("v", vals.clone())]).unwrap())
                    .unwrap();
                let q = RangeQuery::new("t", "v", pred);
                let (mut got, _) = db.select(&q, OutputMode::Stream).unwrap();
                got.sort_unstable();
                assert_eq!(got, want, "{kernel:?}/{mode:?}");
            }
        }
    }

    #[test]
    fn governed_select_surfaces_typed_errors_and_changes_no_answers() {
        let mut db = db();
        let q = RangeQuery::new("r", "a", RangePred::between(10, 40));
        let (want, _) = db.select(&q, OutputMode::Stream).unwrap();

        // Pre-cancelled: typed, and nothing observable moved.
        let g = crate::governor::Governor::unbounded();
        g.token().cancel();
        let q2 = RangeQuery::new("r", "a", RangePred::between(50, 80));
        assert!(matches!(
            db.select_governed(&q2, OutputMode::Stream, &g, 1),
            Err(EngineError::Cancelled)
        ));

        // Expired deadline: typed with the original budget.
        let g = crate::governor::Governor::with_deadline(std::time::Duration::ZERO);
        match db.select_governed(&q2, OutputMode::Stream, &g, 1) {
            Err(EngineError::DeadlineExceeded { budget }) => {
                assert_eq!(budget, std::time::Duration::ZERO)
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }

        // A healthy governor answers exactly like the ungoverned path.
        let g = crate::governor::Governor::unbounded();
        let (got, _) = db.select_governed(&q, OutputMode::Stream, &g, 1).unwrap();
        assert_eq!(got, want);

        // The governed batch path agrees with the ungoverned batch.
        let preds = vec![RangePred::between(10, 40), RangePred::between(50, 80)];
        let governed = db.select_batch_governed("r", "a", &preds, &g, 1).unwrap();
        let plain = db.select_batch("r", "a", &preds).unwrap();
        assert_eq!(governed, plain);
    }

    #[test]
    fn a_guard_that_stops_under_a_clean_governor_is_a_typed_error() {
        for mode in MODES {
            let mut db = db_in(mode);
            let col = db.shared_cracker("r", "a").unwrap();
            let preds = [RangePred::lt(10), RangePred::ge(90)];
            let clean = Governor::unbounded();
            let err = AdaptiveDb::select_guarded(col, &preds, &clean, &|| false).unwrap_err();
            assert!(
                matches!(err, EngineError::Invariant(_)),
                "{mode:?}: {err:?}"
            );
            assert!(err.to_string().contains("after 0 of 2 selects"), "{err}");
            assert!(!err.is_transient() && !err.is_overload() && !err.is_corruption());
            // The governor's own verdict still wins when it has one.
            clean.token().cancel();
            let err = AdaptiveDb::select_guarded(col, &preds, &clean, &|| false).unwrap_err();
            assert_eq!(err, EngineError::Cancelled);
            // Nothing was cracked, and the column still answers.
            assert_eq!(col.stats().cracks, 0);
            assert_eq!(col.count(preds[0]), 10);
        }
    }

    #[test]
    fn governed_select_sheds_on_a_saturated_gate_within_its_budget() {
        let mut db = db().with_admission(AdmissionGate::new(1, 1));
        let gate = Arc::clone(db.admission().unwrap());
        let _held = gate.try_admit(99).expect("slot free");
        let g = crate::governor::Governor::with_deadline(std::time::Duration::from_millis(20));
        let q = RangeQuery::new("r", "a", RangePred::between(10, 40));
        match db.select_governed(&q, OutputMode::Stream, &g, 1) {
            Err(EngineError::Overloaded { capacity, .. }) => assert_eq!(capacity, 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // The shed query cracked nothing.
        assert_eq!(db.cracked_columns(), 0);
    }

    #[test]
    fn batch_staging_matches_per_row_staging() {
        let mut db = AdaptiveDb::new().with_concurrency(ConcurrencyMode { shards: 4 });
        db.register(Table::from_int_columns("t", vec![("v", (0..1000).collect())]).unwrap())
            .unwrap();
        db.select(
            &RangeQuery::new("t", "v", RangePred::lt(100)),
            OutputMode::Count,
        )
        .unwrap();
        let rows: Vec<(u32, i64)> = (0..50).map(|i| (2000 + i as u32, i * 13 % 997)).collect();
        db.stage_insert_batch("t", "v", &rows).unwrap();
        db.stage_insert_batch("t", "v", &[]).unwrap();
        let band = RangePred::between(0, 996);
        let want = 1000 - 3 + rows.len(); // base 997..=999 excluded
        let (_, stats) = db
            .select(&RangeQuery::new("t", "v", band), OutputMode::Count)
            .unwrap();
        assert_eq!(stats.result_count as usize, want);
        // Unknown targets error without staging anything.
        assert!(db.stage_insert_batch("t", "zzz", &[(1, 1)]).is_err());
        assert!(db.stage_insert_batch("zzz", "v", &[(1, 1)]).is_err());
    }

    #[test]
    fn append_rows_grows_base_and_cracked_copies() {
        for mode in MODES {
            let mut db = db_in(mode);
            // Crack `a` through a count and a sideways select, then append
            // whole rows.
            db.select(
                &RangeQuery::new("r", "a", RangePred::ge(50)),
                OutputMode::Count,
            )
            .unwrap();
            let narrow = RangePred::lt(10);
            sideways(&mut db, narrow);
            assert_eq!(db.cracked_columns(), 1);
            let start = db.append_rows("r", &[vec![3, 200], vec![7, 5]]).unwrap();
            assert_eq!(start, 100);
            assert_eq!(db.catalog().table("r").unwrap().len(), 102);
            assert_eq!(
                db.catalog().table("r").unwrap().ints("a").unwrap()[100],
                200
            );
            // The sideways repeat rides `a`'s overlay: it sees the new row
            // and cracks nothing.
            let before = db.total_crack_stats();
            assert_eq!(sideways(&mut db, narrow), model_tails(&db, narrow));
            assert!(sideways(&mut db, narrow).contains(&7), "{mode:?}");
            let delta = db.total_crack_stats().delta_since(&before);
            assert_eq!((delta.cracks, delta.tuples_touched), (0, 0), "{mode:?}");
            // The cracked copy of `a` saw the new rows via the overlay.
            assert_eq!(cracked_oids(&mut db, "r", "a", RangePred::ge(200)), [100]);
            // `k` was never cracked: its first touch snapshots the grown base.
            let oids = cracked_oids(&mut db, "r", "k", RangePred::eq(7));
            assert!(oids.contains(&101), "appended k=7 row visible: {oids:?}");
            // Ragged rows are rejected before anything is staged.
            assert!(db.append_rows("r", &[vec![1]]).is_err());
            assert_eq!(db.append_rows("r", &[] as &[Vec<i64>]).unwrap(), 102);
            // An empty table (what `CREATE TABLE` registers) grows from OID
            // 0, cracked or not.
            db.register(Table::from_int_columns("e", vec![("x", vec![]), ("y", vec![])]).unwrap())
                .unwrap();
            let count = |db: &mut AdaptiveDb, pred| {
                let q = RangeQuery::new("e", "x", pred);
                db.select(&q, OutputMode::Count).unwrap().1.result_count
            };
            assert_eq!(db.append_rows("e", &[vec![1, 10]]).unwrap(), 0);
            assert_eq!(count(&mut db, RangePred::ge(0)), 1);
            assert_eq!(db.append_rows("e", &[vec![2, 20], vec![3, 30]]).unwrap(), 1);
            assert_eq!(count(&mut db, RangePred::ge(2)), 2);
            assert_eq!(
                db.catalog().table("e").unwrap().ints("y").unwrap(),
                &[10, 20, 30]
            );
        }
    }

    #[test]
    fn a_refused_durable_append_stages_nothing() {
        // Every column's slice rides one group append: a crash on it
        // leaves the base, each cracked copy and the log as they were, and
        // an append that lands reaches every column.
        for crash_after in 0..3 {
            let dir = std::env::temp_dir().join(format!(
                "dbcracker-db-refused-append-{crash_after}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = db();
            db.select(
                &RangeQuery::new("r", "a", RangePred::ge(50)),
                OutputMode::Count,
            )
            .unwrap();
            db.attach_durability(&dir, 1).unwrap();
            let logged = |db: &AdaptiveDb| {
                let log = &db.durability.as_ref().unwrap().log;
                (log.appended(), RedoLog::replay(log.path()).unwrap().len())
            };
            assert_eq!(logged(&db), (0, 0));
            assert!(db.arm_log_crash(crash_after));
            let got = db.append_rows("r", &[vec![3, 200], vec![7, 5]]);
            assert_eq!(got.is_err(), crash_after == 0, "{got:?}");
            let (rows, records) = if got.is_ok() { (102, 4) } else { (100, 0) };
            assert_eq!(db.catalog().table("r").unwrap().len(), rows);
            for column in ["k", "a"] {
                let col = db.shared_cracker("r", column).unwrap();
                assert_eq!(col.count(RangePred::ge(i64::MIN)), rows, "{column}");
            }
            assert_eq!(logged(&db), (records, records as usize));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn base_columns_grow_and_shrink_in_place() {
        // An append or a delete on a column nobody else holds must not
        // copy it: the `Arc` allocation stays the same.
        let mut db = db();
        let ptrs = |db: &AdaptiveDb| -> Vec<*const Vec<i64>> {
            let t = db.catalog().table("r").unwrap();
            ["k", "a"]
                .map(|c| Arc::as_ptr(t.column(c).unwrap()))
                .to_vec()
        };
        let before = ptrs(&db);
        db.append_rows("r", &[vec![3, 200], vec![7, 5]]).unwrap();
        assert_eq!(ptrs(&db), before, "append_rows copied a base column");
        db.delete_rows("r", &[0, 101]).unwrap();
        assert_eq!(ptrs(&db), before, "delete_rows copied a base column");
        // A column shared with another holder (as a table scan holds it)
        // is copied once and never mutated: the holder still sees the
        // rows it took.
        let shared = Arc::clone(db.catalog().table("r").unwrap().column("a").unwrap());
        db.append_rows("r", &[vec![1, 1]]).unwrap();
        assert_eq!(shared.len(), 100);
        assert_eq!(db.catalog().table("r").unwrap().len(), 101);
        assert_eq!(Arc::as_ptr(&shared), before[1]);
        assert_eq!(ptrs(&db)[0], before[0]);
        assert_ne!(ptrs(&db)[1], before[1]);
        // Copied once: the copy is unshared, so the next append grows it.
        let copy = ptrs(&db)[1];
        db.append_rows("r", &[vec![2, 2]]).unwrap();
        assert_eq!(ptrs(&db)[1], copy);
        assert_eq!(shared.len(), 100);
    }

    /// The cracked answer to `pred` over `table.attr`, sorted.
    fn cracked_oids(
        db: &mut AdaptiveDb,
        table: &str,
        attr: &str,
        pred: RangePred<i64>,
    ) -> Vec<u32> {
        let q = RangeQuery::new(table, attr, pred);
        let mut oids = db.select(&q, OutputMode::Stream).unwrap().0;
        oids.sort_unstable();
        oids
    }

    /// What `pred` selects from the `oid → value` model, sorted.
    fn model_oids(model: &BTreeMap<u32, i64>, pred: RangePred<i64>) -> Vec<u32> {
        let hits = model.iter().filter(|(_, &v)| pred.matches(v));
        hits.map(|(&oid, _)| oid).collect()
    }

    /// `table.attr` as an `oid → value` model.
    fn base_model(db: &AdaptiveDb, table: &str, attr: &str) -> BTreeMap<u32, i64> {
        let vals = db.catalog().table(table).unwrap().ints(attr).unwrap();
        (0..).zip(vals.iter().copied()).collect()
    }

    /// `select_project("r", "a", "k", pred)`, sorted.
    fn sideways(db: &mut AdaptiveDb, pred: RangePred<i64>) -> Vec<i64> {
        let mut tails = db.select_project("r", "a", "k", pred).unwrap();
        tails.sort_unstable();
        tails
    }

    /// `k` of the base rows of `r` whose `a` matches `pred`, sorted.
    fn model_tails(db: &AdaptiveDb, pred: RangePred<i64>) -> Vec<i64> {
        let k = base_model(db, "r", "k");
        let oids = model_oids(&base_model(db, "r", "a"), pred);
        let mut tails: Vec<i64> = oids.iter().map(|o| k[o]).collect();
        tails.sort_unstable();
        tails
    }

    #[test]
    fn delete_rows_compacts_one_table_and_keeps_its_cracked_state() {
        let preds = [
            RangePred::lt(3),
            RangePred::between(20, 60),
            RangePred::ge(90),
        ];
        for mode in MODES {
            let mut db = db_in(mode);
            for pred in preds {
                cracked_oids(&mut db, "r", "a", pred);
            }
            cracked_oids(&mut db, "s", "k", RangePred::lt(3));
            db.shared_cracker("r", "k").unwrap();
            let narrow = RangePred::lt(10);
            sideways(&mut db, narrow);
            assert!(matches!(
                db.delete_rows("zzz", &[0]),
                Err(EngineError::UnknownTable(_))
            ));
            // Nothing to remove: nothing changes.
            assert_eq!(db.delete_rows("r", &[]).unwrap(), 0);
            assert_eq!(db.delete_rows("r", &[100, 7_000]).unwrap(), 0);
            assert_eq!(db.cracked_columns(), 3);
            let pieces = |db: &AdaptiveDb| db.cracked_column("r", "a").unwrap().piece_count();
            let s_stats = |db: &AdaptiveDb| db.cracked_column("s", "k").unwrap().stats();
            let (pieces_before, s_before) = (pieces(&db), s_stats(&db));
            // Repeats and out-of-range OIDs count once or not at all.
            assert_eq!(db.delete_rows("r", &[99, 0, 40, 0, 100]).unwrap(), 3);
            let r = db.catalog().table("r").unwrap();
            assert_eq!(r.len(), 97);
            assert_eq!(r.ints("a").unwrap()[0], 98, "old OID 1 is the new OID 0");
            assert_eq!(r.ints("k").unwrap()[96], 8, "columns stay aligned");
            // The copies stay with every boundary.
            assert_eq!(db.cracked_columns(), 3, "{mode:?}");
            assert_eq!(pieces(&db), pieces_before, "{mode:?}");
            assert_eq!(s_stats(&db), s_before, "s is not touched");
            // Repeat ranges, the sideways one too, are index-only and see
            // the renumbered base.
            let before = db.total_crack_stats();
            for pred in preds {
                let want = model_oids(&base_model(&db, "r", "a"), pred);
                assert_eq!(cracked_oids(&mut db, "r", "a", pred), want, "{mode:?}");
            }
            let want = model_tails(&db, narrow);
            assert_eq!(sideways(&mut db, narrow), want, "{mode:?}");
            let delta = db.total_crack_stats().delta_since(&before);
            assert_eq!(
                (delta.queries, delta.cracks, delta.tuples_touched),
                (0, 0, 0)
            );
            // `k` was copied but never cracked: it follows too.
            let want = model_oids(&base_model(&db, "r", "k"), RangePred::eq(8));
            assert_eq!(cracked_oids(&mut db, "r", "k", RangePred::eq(8)), want);
            // All rows.
            let all: Vec<u32> = (0..97).collect();
            assert_eq!(db.delete_rows("r", &all).unwrap(), 97);
            assert!(db.catalog().table("r").unwrap().is_empty());
            assert_eq!(pieces(&db), pieces_before);
            assert_eq!(
                db.select_conjunctive("r", &[("a", RangePred::ge(0))])
                    .unwrap(),
                vec![]
            );
        }
    }

    #[test]
    fn delete_rows_renumbers_the_staged_api_updates_it_meets() {
        let preds = [RangePred::between(20, 60), RangePred::ge(0)];
        for mode in MODES {
            let mut db = db_in(mode);
            cracked_oids(&mut db, "r", "a", preds[0]);
            // Row `i` has `a = 99 - i`. Stage a delete the `DELETE` keeps
            // (50), one it removes as well (10), and inserts beyond the
            // table, which shift by the whole count.
            let mut model = base_model(&db, "r", "a");
            for oid in [50, 10] {
                assert!(db.stage_delete("r", "a", oid).unwrap());
                model.remove(&oid);
            }
            for (oid, v) in [(200, 45), (300, -5)] {
                db.stage_insert("r", "a", oid, v).unwrap();
                model.insert(oid, v);
            }
            let doomed = [10, 30, 70];
            assert_eq!(db.delete_rows("r", &doomed).unwrap(), 3);
            let rank = |oid: u32| doomed.iter().filter(|&&d| d < oid).count() as u32;
            let model: BTreeMap<u32, i64> = (model.into_iter())
                .filter(|(oid, _)| !doomed.contains(oid))
                .map(|(oid, v)| (oid - rank(oid), v))
                .collect();
            for pred in preds {
                assert_eq!(
                    cracked_oids(&mut db, "r", "a", pred),
                    model_oids(&model, pred)
                );
            }
            let col = db.shared_cracker("r", "a").unwrap();
            assert!(
                col.has_pending_updates(),
                "{mode:?}: the overlay stays staged"
            );
            let pieces = col.piece_count();
            col.merge_pending();
            col.validate().unwrap();
            assert_eq!(col.piece_count(), pieces, "{mode:?}");
            for pred in preds {
                assert_eq!(
                    cracked_oids(&mut db, "r", "a", pred),
                    model_oids(&model, pred)
                );
            }
        }
    }

    #[test]
    fn drop_table_purges_the_table_and_everything_cracked_over_it() {
        let mut db = db();
        db.select_project("r", "a", "k", RangePred::lt(10)).unwrap();
        db.select_conjunctive("r", &[("a", RangePred::lt(5))])
            .unwrap();
        db.select_conjunctive("s", &[("k", RangePred::lt(2))])
            .unwrap();
        assert!(matches!(
            db.drop_table("zzz"),
            Err(EngineError::UnknownTable(_))
        ));
        db.drop_table("r").unwrap();
        assert_eq!(db.catalog().names(), vec!["s"]);
        assert_eq!(db.cracked_columns(), 1);
        assert!(db.select_conjunctive("r", &[]).is_err());
        // The name is free again, and a join over it sees the new rows.
        db.register(Table::from_int_columns("r", vec![("k", vec![1, 2])]).unwrap())
            .unwrap();
        assert_eq!(db.join("r", "k", "s", "k").unwrap().len(), 8);
    }

    #[test]
    fn durability_refuses_base_mutations_it_cannot_replay() {
        let dir = std::env::temp_dir().join(format!("dbcracker-db-refuse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = db();
        db.attach_durability(&dir, 1).unwrap();
        for err in [
            db.delete_rows("r", &[1]).unwrap_err(),
            db.drop_table("s").unwrap_err(),
        ] {
            assert!(
                matches!(&err, EngineError::Storage(StorageError::Persist(m)) if m.contains("refused")),
                "{err}"
            );
        }
        assert_eq!(db.catalog().table("r").unwrap().len(), 100);
        assert_eq!(db.catalog().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn superseded_meta_formats_are_refused_typed() {
        // A directory this build does not write must be refused as
        // `PersistFormat` — never a panic, never a silently cold database.
        // Meta versions 1 (two cracked copies per column) and 2 wrote JSON
        // payloads, which are not frames; a frame of the current shape
        // under another version number — version 3, whose cracked columns
        // have no delta — is refused by that number.
        fn refused(tag: &str, write: impl FnOnce(&Path)) -> String {
            let dir = std::env::temp_dir()
                .join(format!("dbcracker-db-meta-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            write(&dir);
            let got = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1);
            let _ = std::fs::remove_dir_all(&dir);
            match got {
                Err(EngineError::Storage(StorageError::PersistFormat(msg))) => msg,
                Err(other) => panic!("{tag}: expected PersistFormat, got {other}"),
                Ok(_) => panic!("{tag}: a superseded directory must not recover"),
            }
        }
        // A JSON-era directory, as those versions laid it out.
        let json_era = |meta: &'static str| {
            move |dir: &Path| {
                let file = "__meta__-d8b0aa4b4a07b9e7.1.json";
                std::fs::write(dir.join(file), meta).unwrap();
                let manifest = format!(
                    r#"{{"version":1,"epoch":1,"entries":[{{"key":"__meta__","file":"{file}","fingerprint":"f"}}],"log":"wal.1.log"}}"#
                );
                std::fs::write(dir.join("MANIFEST.json"), manifest).unwrap();
                std::fs::write(dir.join("wal.1.log"), b"").unwrap();
            }
        };
        let v1 = r#"{"version":1,"concurrency_shards":0,"tables":[],"crackers":[["t","v"]],"shared":[]}"#;
        let msg = refused("v1", json_era(v1));
        assert!(msg.contains("__meta__") && msg.contains("magic"), "{msg}");
        let v2 = r#"{"version":2,"concurrency_shards":0,"tables":[],"columns":[]}"#;
        let msg = refused("v2", json_era(v2));
        assert!(msg.contains("__meta__") && msg.contains("magic"), "{msg}");
        let msg = refused("version", |dir| {
            let stale = DbMeta {
                version: DB_META_VERSION - 1,
                concurrency_shards: 0,
                tables: Vec::new(),
                columns: Vec::new(),
            };
            let mut store = CheckpointStore::open(dir).unwrap();
            let mut w = store.begin().unwrap();
            w.put(META_KEY, "f", |buf| stale.encode(buf)).unwrap();
            w.commit().unwrap();
        });
        assert!(msg.contains("version 3"), "{msg}");
    }

    #[test]
    fn meta_decode_is_total() {
        // Every truncation and single-bit flip of a real meta body, and
        // arbitrary bytes: a typed error or a meta, never a panic.
        let mut body = Vec::new();
        DbMeta {
            version: DB_META_VERSION,
            concurrency_shards: 4,
            tables: vec![TableMeta {
                name: "r".into(),
                columns: vec!["k".into(), "a".into()],
            }],
            columns: vec![("r".into(), "a".into())],
        }
        .encode(&mut body);
        let mut inputs: Vec<Vec<u8>> = (0..body.len()).map(|cut| body[..cut].to_vec()).collect();
        for bit in 0..body.len() * 8 {
            let mut flipped = body.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            inputs.push(flipped);
        }
        inputs.extend((0..64u8).map(|n| (0..n).map(|i| i.wrapping_mul(n) ^ 0x5a).collect()));
        for bytes in &inputs {
            if let Err(e) = DbMeta::decode(bytes) {
                assert!(matches!(e, StorageError::PersistFormat(_)), "{e}");
            }
        }
        assert!(DbMeta::decode(&body).is_ok());
    }

    #[test]
    fn a_clean_checkpoint_rewrites_no_payload() {
        let dir = std::env::temp_dir().join(format!("dbcracker-db-clean-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = db();
        db.select(
            &RangeQuery::new("r", "a", RangePred::lt(50)),
            OutputMode::Count,
        )
        .unwrap();
        db.attach_durability(&dir, 1).unwrap();
        let files = |dir: &Path| {
            let m = CheckpointStore::open(dir)
                .unwrap()
                .manifest()
                .unwrap()
                .unwrap();
            m.entries.into_iter().map(|e| e.file).collect::<Vec<_>>()
        };
        let before = files(&dir);
        assert_eq!(db.checkpoint().unwrap(), 2);
        assert_eq!(files(&dir), before, "every payload carried forward");
        db.stage_insert("r", "a", 100, 7).unwrap();
        db.checkpoint().unwrap();
        let after = files(&dir);
        let changed: Vec<_> = after.iter().filter(|f| !before.contains(f)).collect();
        assert_eq!(
            changed.len(),
            1,
            "only the cracked column's delta is rewritten"
        );
        assert!(changed[0].starts_with("delta_r_a-"), "{changed:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sideways_range_answers_warm_after_recovery() {
        for (i, mode) in MODES.into_iter().enumerate() {
            let dir = std::env::temp_dir()
                .join(format!("dbcracker-db-sideways-{i}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = db_in(mode);
            db.attach_durability(&dir, 1).unwrap();
            let pred = RangePred::between(20, 60);
            let want = model_tails(&db, pred);
            assert_eq!(sideways(&mut db, pred), want);
            db.checkpoint().unwrap();
            drop(db);
            // One shard writes the bytes the format always had for it:
            // shard count 0 in the meta, tag 0 on each column's origin.
            let store = CheckpointStore::open(&dir).unwrap();
            let manifest = store.manifest().unwrap().unwrap();
            let body = |key: &str| store.read_payload(manifest.entry(key).unwrap()).unwrap();
            let meta = DbMeta::decode(body(META_KEY).body()).unwrap();
            let (shards, tag) = if mode.shards == 1 { (0, 0) } else { (4, 1) };
            assert_eq!(meta.concurrency_shards, shards, "{mode:?}");
            for (t, c) in &meta.columns {
                assert_eq!(body(&column_key(t, c)).body()[0], tag, "{mode:?}");
            }
            let mut rec = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
            let before = rec.total_crack_stats();
            assert_eq!(sideways(&mut rec, pred), want, "{mode:?}");
            let delta = rec.total_crack_stats().delta_since(&before);
            assert_eq!((delta.cracks, delta.tuples_touched), (0, 0), "{mode:?}");
            assert_eq!(rec.cracked_columns(), 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn select_morsel_agrees_with_sequential_in_both_modes() {
        let vals: Vec<i64> = (0..20_000).map(|i| (i * 7919) % 20_000).collect();
        for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 8 }] {
            let mut db = AdaptiveDb::new()
                .with_concurrency(mode)
                .with_admission(AdmissionGate::new(8, 8));
            db.register(Table::from_int_columns("t", vec![("v", vals.clone())]).unwrap())
                .unwrap();
            let pred = RangePred::between(500, 15_000);
            let g = Governor::unbounded();
            let mut par = db.select_morsel("t", "v", pred, 8, &g, 1).unwrap();
            par.sort_unstable();
            let mut seq = db.shared_cracker("t", "v").unwrap().select_oids(pred);
            seq.sort_unstable();
            assert_eq!(par, seq, "{mode:?}");
            // A cancelled governor surfaces typed, with no partial answer.
            let g = Governor::unbounded();
            g.token().cancel();
            assert!(matches!(
                db.select_morsel("t", "v", pred, 8, &g, 1),
                Err(EngineError::Cancelled)
            ));
        }
    }

    #[test]
    fn total_stats_accumulate_across_columns() {
        let mut db = db();
        db.select(
            &RangeQuery::new("r", "a", RangePred::lt(50)),
            OutputMode::Count,
        )
        .unwrap();
        db.select(
            &RangeQuery::new("r", "k", RangePred::lt(5)),
            OutputMode::Count,
        )
        .unwrap();
        let s = db.total_crack_stats();
        assert_eq!(s.queries, 2);
        assert!(s.cracks >= 2);
        assert!(s.tuples_touched >= 200);
    }

    /// Rows of the `w(k, a)` table [`wide`] registers: row `i` holds
    /// `k = i % 7` and `a = (i * 7919) % n`, so `a` is a permutation.
    fn wide_row(i: u32, n: u32) -> (i64, i64) {
        (
            i64::from(i % 7),
            (u64::from(i) * 7_919 % u64::from(n)) as i64,
        )
    }

    /// [`db_in`] plus a table `w` of `n` rows (see [`wide_row`]), whose
    /// `a` is cracked by a few ranges.
    fn wide(mode: ConcurrencyMode, n: u32) -> AdaptiveDb {
        let mut db = db_in(mode);
        let (k, a) = (0..n).map(|i| wide_row(i, n)).unzip();
        db.register(Table::from_int_columns("w", vec![("k", k), ("a", a)]).unwrap())
            .unwrap();
        for lo in [100, 2_000, 4_000] {
            cracked_oids(&mut db, "w", "a", RangePred::between(lo, lo + 500));
        }
        db
    }

    /// The live rows of `w` as `oid → (k, a)`.
    type WideModel = BTreeMap<u32, (i64, i64)>;

    /// Every answer over `w` the database gives agrees with `model`: the
    /// cracked copies of `a` and `k` (the first call touches `k` first), a
    /// conjunction, the whole-table select, the live-row count and a join
    /// with `s`.
    fn check_wide(db: &mut AdaptiveDb, model: &WideModel, what: &str) {
        let a: BTreeMap<u32, i64> = model.iter().map(|(&o, &(_, a))| (o, a)).collect();
        for pred in [RangePred::between(150, 420), RangePred::ge(0)] {
            assert_eq!(
                cracked_oids(db, "w", "a", pred),
                model_oids(&a, pred),
                "{what}"
            );
        }
        let k: BTreeMap<u32, i64> = model.iter().map(|(&o, &(k, _))| (o, k)).collect();
        let low = RangePred::lt(5);
        assert_eq!(
            cracked_oids(db, "w", "k", low),
            model_oids(&k, low),
            "{what}"
        );
        let both = [("a", RangePred::lt(3_000)), ("k", RangePred::eq(3))];
        let want: Vec<u32> = (model.iter())
            .filter(|(_, &(k, a))| k == 3 && a < 3_000)
            .map(|(&oid, _)| oid)
            .collect();
        assert_eq!(db.select_conjunctive("w", &both).unwrap(), want, "{what}");
        let all: Vec<u32> = model.keys().copied().collect();
        assert_eq!(db.select_conjunctive("w", &[]).unwrap(), all, "{what}");
        assert_eq!(db.live_rows("w").unwrap(), model.len(), "{what}");
        // `s.k` holds 0..5, each four times.
        let pairs = model.values().filter(|&&(k, _)| k < 5).count() * 4;
        assert_eq!(db.join("w", "k", "s", "k").unwrap().len(), pairs, "{what}");
    }

    /// `model` after a fold removed `doomed`: survivors renumbered densely.
    fn folded(model: &WideModel, doomed: &[u32]) -> WideModel {
        let renumbering = Renumbering::new(doomed);
        (model.iter())
            .filter_map(|(&oid, &row)| Some((renumbering.map(oid)?, row)))
            .collect()
    }

    #[test]
    fn deferred_delete_folds_at_a_sixty_fourth_of_the_table() {
        let n = 6_400u32;
        let trigger = n as usize / STAGE_SHARE;
        for mode in MODES {
            let mut db = wide(mode, n);
            let mut model: WideModel = (0..n).map(|i| (i, wide_row(i, n))).collect();
            let pieces = |db: &AdaptiveDb| db.cracked_column("w", "a").unwrap().piece_count();
            check_wide(&mut db, &model, "fresh");
            let before = pieces(&db);
            // One short of len / 64: the rows stay in the base as
            // tombstones, and nothing is renumbered.
            let doomed: Vec<u32> = (0..trigger as u32 - 1).map(|i| i * 61).collect();
            assert_eq!(db.delete_rows("w", &doomed).unwrap(), trigger - 1);
            assert_eq!(
                db.delete_rows("w", &doomed[..3]).unwrap(),
                0,
                "already gone"
            );
            for oid in &doomed {
                model.remove(oid);
            }
            assert_eq!(db.catalog().table("w").unwrap().len(), n as usize);
            check_wide(&mut db, &model, "deferred");
            assert_eq!(pieces(&db), before, "{mode:?}");
            // The len / 64-th tombstone folds all of them.
            assert_eq!(db.delete_rows("w", &[n - 1]).unwrap(), 1);
            model.remove(&(n - 1));
            let mut all = doomed;
            all.push(n - 1);
            let mut model = folded(&model, &all);
            assert_eq!(db.catalog().table("w").unwrap().len(), n as usize - trigger);
            check_wide(&mut db, &model, "folded");
            assert_eq!(pieces(&db), before, "{mode:?}: every boundary stays");
            // A GROUP BY copies the base columns whole: it folds first.
            let doomed: Vec<u32> = (0..10).map(|i| i * 3).collect();
            db.delete_rows("w", &doomed).unwrap();
            for oid in &doomed {
                model.remove(oid);
            }
            let counts = db.group_aggregate("w", "k", AggFunc::Count, None).unwrap();
            let model = folded(&model, &doomed);
            let mut want: BTreeMap<i64, i64> = BTreeMap::new();
            model
                .values()
                .for_each(|&(k, _)| *want.entry(k).or_default() += 1);
            assert_eq!(counts, want.into_iter().collect::<Vec<_>>(), "{mode:?}");
            assert_eq!(db.catalog().table("w").unwrap().len(), model.len());
            check_wide(&mut db, &model, "grouped");
        }
    }

    #[test]
    fn deferred_delete_folds_before_attaching_durability() {
        let dir = std::env::temp_dir().join(format!("dbcracker-db-fold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let n = 6_400u32;
        let mut db = wide(ConcurrencyMode::default(), n);
        let doomed: Vec<u32> = (0..10).map(|i| i * 500).collect();
        db.delete_rows("w", &doomed).unwrap();
        assert_eq!(db.catalog().table("w").unwrap().len(), n as usize);
        db.attach_durability(&dir, 1).unwrap();
        assert_eq!(db.catalog().table("w").unwrap().len(), n as usize - 10);
        let model: WideModel = (0..n).map(|i| (i, wide_row(i, n))).collect();
        let mut model = folded(&model, &doomed);
        check_wide(&mut db, &model, "attached");
        db.stage_insert("w", "a", n - 10, -1).unwrap();
        drop(db);
        let mut db = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
        assert_eq!(db.catalog().table("w").unwrap().len(), n as usize - 10);
        model.insert(n - 10, (0, -1));
        let a: BTreeMap<u32, i64> = model.iter().map(|(&o, &(_, a))| (o, a)).collect();
        let want = model_oids(&a, RangePred::ge(-1));
        assert_eq!(cracked_oids(&mut db, "w", "a", RangePred::ge(-1)), want);
        // The staged row is the cracked copy's alone: the base has n - 10.
        assert_eq!(
            db.select_conjunctive("w", &[]).unwrap().len(),
            model.len() - 1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deferred_delete_forgets_a_dropped_table() {
        let n = 6_400u32;
        let mut db = wide(ConcurrencyMode::default(), n);
        db.delete_rows("w", &[1, 2, 3]).unwrap();
        assert_eq!(db.live_rows("w").unwrap(), n as usize - 3);
        db.drop_table("w").unwrap();
        assert!(db.live_rows("w").is_err());
        let (k, a) = (0..n).map(|i| wide_row(i, n)).unzip();
        db.register(Table::from_int_columns("w", vec![("k", k), ("a", a)]).unwrap())
            .unwrap();
        let model: WideModel = (0..n).map(|i| (i, wide_row(i, n))).collect();
        check_wide(&mut db, &model, "re-registered");
    }

    #[test]
    fn deferred_delete_reaches_an_insert_restaged_under_a_new_value() {
        let n = 6_400u32;
        for mode in MODES {
            let mut db = wide(mode, n);
            let mut model: WideModel = (0..n).map(|i| (i, wide_row(i, n))).collect();
            // OID 5 is staged again under a value far from its own, with
            // no delete; OID 7 is updated (a delete, then an insert).
            db.stage_insert("w", "a", 5, 9_000).unwrap();
            assert!(db.stage_delete("w", "a", 7).unwrap());
            db.stage_insert("w", "a", 7, 9_001).unwrap();
            assert_eq!(
                cracked_oids(&mut db, "w", "a", RangePred::ge(9_000)),
                [5, 7]
            );
            assert_eq!(db.delete_rows("w", &[5, 7]).unwrap(), 2);
            model.remove(&5);
            model.remove(&7);
            assert_eq!(db.catalog().table("w").unwrap().len(), n as usize);
            assert!(cracked_oids(&mut db, "w", "a", RangePred::ge(9_000)).is_empty());
            check_wide(&mut db, &model, "staged");
            db.cracked_column("w", "a").unwrap().merge_pending();
            assert!(cracked_oids(&mut db, "w", "a", RangePred::ge(9_000)).is_empty());
            check_wide(&mut db, &model, "merged");
            let rest: Vec<u32> = (100..200).collect();
            db.delete_rows("w", &rest).unwrap();
            for oid in &rest {
                model.remove(oid);
            }
            let mut all = rest;
            all.extend([5, 7]);
            all.sort_unstable();
            check_wide(&mut db, &folded(&model, &all), "folded");
        }
    }

    /// [`db_in`] plus `w` of `n` rows (see [`wide_row`]) with no cracked
    /// copy yet, and its model.
    fn untouched_wide(mode: ConcurrencyMode, n: u32) -> (AdaptiveDb, WideModel) {
        let mut db = db_in(mode);
        let (k, a) = (0..n).map(|i| wide_row(i, n)).unzip();
        db.register(Table::from_int_columns("w", vec![("k", k), ("a", a)]).unwrap())
            .unwrap();
        (db, (0..n).map(|i| (i, wide_row(i, n))).collect())
    }

    /// Every select path that builds a copy from the base with its own
    /// predicate — `select` counting and streaming, `select_governed`,
    /// and `select_conjunctive`'s count loop and driver — answers its
    /// first touch like the oracle while tombstones are pending, and so
    /// does every later answer of the copy it built.
    #[test]
    fn first_touch_through_every_select_path_answers_like_the_oracle() {
        let n = 6_400u32;
        // The window is below the middle of `a`, so the from-base pass
        // cuts at its upper bound; `k`'s one-sided window is a plain copy.
        let (lo, hi) = (1_000, 1_700);
        let a_pred = RangePred::between(lo, hi);
        let k_pred = RangePred::ge(5);
        type Path = fn(&mut AdaptiveDb, RangePred<i64>) -> Vec<u32>;
        let paths: [(&str, Path); 5] = [
            ("count", |db, pred| {
                let q = RangeQuery::new("w", "a", pred);
                let (_, stats) = db.select(&q, OutputMode::Count).unwrap();
                vec![stats.result_count as u32]
            }),
            ("stream", |db, pred| cracked_oids(db, "w", "a", pred)),
            ("governed", |db, pred| {
                let q = RangeQuery::new("w", "a", pred);
                let g = Governor::unbounded();
                let mut oids = db.select_governed(&q, OutputMode::Stream, &g, 1).unwrap().0;
                oids.sort_unstable();
                oids
            }),
            ("conjunct", |db, pred| {
                let both = [("a", pred), ("k", RangePred::ge(5))];
                db.select_conjunctive("w", &both).unwrap()
            }),
            ("driver", |db, pred| {
                db.select_conjunctive("w", &[("a", pred)]).unwrap()
            }),
        ];
        for mode in MODES {
            for (name, path) in paths {
                let (mut db, mut model) = untouched_wide(mode, n);
                let doomed: Vec<u32> = (0..40).map(|i| i * 37).collect();
                db.delete_rows("w", &doomed).unwrap();
                for oid in &doomed {
                    model.remove(oid);
                }
                let a: BTreeMap<u32, i64> = model.iter().map(|(&o, &(_, a))| (o, a)).collect();
                let k: BTreeMap<u32, i64> = model.iter().map(|(&o, &(k, _))| (o, k)).collect();
                let mut want = model_oids(&a, a_pred);
                match name {
                    "count" => want = vec![want.len() as u32],
                    "conjunct" => want.retain(|o| model_oids(&k, k_pred).contains(o)),
                    _ => {}
                }
                assert_eq!(path(&mut db, a_pred), want, "{mode:?} {name}: first touch");
                let col = db.cracked_column("w", "a").unwrap();
                col.validate().unwrap();
                assert!(
                    col.piece_count() >= 3,
                    "{mode:?} {name}: the window is cracked"
                );
                for pred in [a_pred, RangePred::lt(lo), RangePred::between(hi, 5_000)] {
                    let got = cracked_oids(&mut db, "w", "a", pred);
                    assert_eq!(got, model_oids(&a, pred), "{mode:?} {name}: {pred:?}");
                }
                check_wide(&mut db, &model, name);
            }
        }
    }

    /// A checkpoint taken right after a first touch built the copy from
    /// the base recovers a database that answers like the oracle, with
    /// the boundaries of that touch in place.
    #[test]
    fn first_touch_then_checkpoint_recovers_to_the_oracle() {
        let n = 6_400u32;
        for mode in MODES {
            let dir = std::env::temp_dir().join(format!(
                "dbcracker-db-first-touch-{}-{}",
                std::process::id(),
                mode.shards
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let (mut db, model) = untouched_wide(mode, n);
            db.attach_durability(&dir, 1).unwrap();
            let a: BTreeMap<u32, i64> = model.iter().map(|(&o, &(_, a))| (o, a)).collect();
            let first = RangePred::between(4_000, 4_300);
            assert_eq!(
                cracked_oids(&mut db, "w", "a", first),
                model_oids(&a, first)
            );
            let pieces = db.cracked_column("w", "a").unwrap().piece_count();
            db.checkpoint().unwrap();
            drop(db);
            let mut db = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
            let col = db.cracked_column("w", "a").unwrap();
            col.validate().unwrap();
            assert_eq!(col.piece_count(), pieces, "{mode:?}");
            assert_eq!(col.shard_count(), mode.shards, "{mode:?}");
            let touched = col.stats().tuples_touched;
            assert_eq!(
                cracked_oids(&mut db, "w", "a", first),
                model_oids(&a, first)
            );
            let col = db.cracked_column("w", "a").unwrap();
            assert_eq!(col.stats().tuples_touched, touched, "{mode:?}: warm");
            check_wide(&mut db, &model, "recovered");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
