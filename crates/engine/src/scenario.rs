//! Engine-level scenario replay.
//!
//! `workload::scenario` defines the op streams and the differential
//! oracle; this module plugs the engine's access paths into that harness
//! so unlatched, one-shard and several-shard executions all replay the
//! same seeded scenario:
//!
//! * [`CrackEngine`] implements `ScenarioExecutor` directly — the default
//!   (unlatched) column path;
//! * [`DbScenarioRunner`] replays a scenario through a registered
//!   [`AdaptiveDb`] table: selects and updates
//!   ([`AdaptiveDb::stage_insert`] / [`AdaptiveDb::stage_delete`]) meet
//!   in the column's one cracked copy, the latched
//!   [`cracker_core::ConcurrentColumn`] built under the db's
//!   [`ConcurrencyMode`] (its shard count) — exactly the
//!   bookkeeping a production path would exercise.

use cracker_core::ConcurrencyMode;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use storage::fault::{self, FaultKind};
use workload::scenario::{
    ChaosAction, ChaosSchedule, Op, Scenario, ScenarioExecutor, SortedOracle,
};
use workload::Window;

use crate::admission::AdmissionGate;
use crate::db::AdaptiveDb;
use crate::engines::{CrackEngine, QueryEngine};
use crate::error::{EngineError, EngineResult};
use crate::governor::Governor;
use crate::table::Table;

impl ScenarioExecutor for CrackEngine {
    fn label(&self) -> String {
        "engine-crack".to_string()
    }

    fn run_select(&mut self, w: Window) -> Vec<u32> {
        self.result_oids(w.to_pred())
    }

    fn run_insert(&mut self, oid: u32, value: i64) {
        self.column_mut().insert(oid, value);
    }

    fn run_delete(&mut self, oid: u32) -> bool {
        self.column_mut().delete(oid)
    }
}

/// Name of the table a [`DbScenarioRunner`] registers.
pub const SCENARIO_TABLE: &str = "scenario";
/// Name of the replayed column within [`SCENARIO_TABLE`].
pub const SCENARIO_COLUMN: &str = "v";

/// Session id chaos-mode queries run under.
const CHAOS_SESSION: u64 = 1;
/// Session id of the permit-holding blocker a `ShedNext` action installs.
const BLOCKER_SESSION: u64 = 0xB10C;

/// What a chaos replay observed, step by step. Every counter is an
/// *observation*, not a failure: [`DbScenarioRunner::run_chaos`] returns
/// `Err` only when the replay diverges from the oracle or leaves the
/// column in an invalid state — the whole point being that it never does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Selects answered normally and checked against the oracle.
    pub selects: usize,
    /// Inserts/deletes applied (and mirrored into the oracle).
    pub updates: usize,
    /// Inserts/deletes that failed typed (injected I/O fault or poisoned
    /// log) and were therefore *not* mirrored into the oracle.
    pub failed_updates: usize,
    /// Selects stopped by a pre-cancelled token.
    pub cancelled: usize,
    /// Selects stopped by an already-expired deadline.
    pub deadline_exceeded: usize,
    /// Selects shed at a saturated admission gate.
    pub shed: usize,
    /// Selects that panicked mid-crack (armed tear) and were contained.
    pub panics: usize,
    /// Checkpoints that committed.
    pub checkpoints: usize,
    /// Checkpoints that failed typed under an injected fault.
    pub failed_checkpoints: usize,
    /// Process restarts (crash + warm recovery).
    pub restarts: usize,
    /// I/O fault arms that actually landed on an attached injector.
    pub faults_armed: usize,
}

/// Replays a scenario through a full [`AdaptiveDb`]: catalog-registered
/// table, latched concurrent column per the db's [`ConcurrencyMode`], and
/// staged updates in that column's overlay.
pub struct DbScenarioRunner {
    db: AdaptiveDb,
    mode: ConcurrencyMode,
    /// Durability directory + group-commit interval, when attached via
    /// [`with_durability`](Self::with_durability).
    durable: Option<(PathBuf, usize)>,
}

impl DbScenarioRunner {
    /// Register the scenario's base column as table
    /// [`SCENARIO_TABLE`]`.`[`SCENARIO_COLUMN`] in a fresh db running
    /// under `mode`, and eagerly build its cracked copy so the replay
    /// measures steady-state bookkeeping, not first-touch setup.
    pub fn new<S: Scenario + ?Sized>(scenario: &S, mode: ConcurrencyMode) -> EngineResult<Self> {
        let mut db = AdaptiveDb::new().with_concurrency(mode);
        db.register(Table::from_int_columns(
            SCENARIO_TABLE,
            vec![(SCENARIO_COLUMN, scenario.base().to_vec())],
        )?)?;
        db.shared_cracker(SCENARIO_TABLE, SCENARIO_COLUMN)?;
        Ok(DbScenarioRunner {
            db,
            mode,
            durable: None,
        })
    }

    /// Like [`new`](Self::new), but durable: the db checkpoints into `dir`
    /// at construction and redo-logs every staged update with the given
    /// group-commit interval, so the replay can be interrupted by
    /// [`restart`](Self::restart) (or a real crash) at any point.
    pub fn with_durability<S: Scenario + ?Sized>(
        scenario: &S,
        mode: ConcurrencyMode,
        dir: impl Into<PathBuf>,
        group_commit: usize,
    ) -> EngineResult<Self> {
        let dir = dir.into();
        let mut runner = Self::new(scenario, mode)?;
        runner.db.attach_durability(&dir, group_commit)?;
        runner.durable = Some((dir, group_commit));
        Ok(runner)
    }

    /// Checkpoint the replayed state (no-op error when the runner was not
    /// built [`with_durability`](Self::with_durability)). Returns the
    /// committed epoch.
    pub fn checkpoint(&mut self) -> EngineResult<u64> {
        self.db.checkpoint()
    }

    /// Simulate a process restart: drop the in-memory database on the
    /// floor and recover a fresh one from the durability directory — last
    /// checkpoint plus redo-log replay, piece maps validated, crack state
    /// warm. Replay then continues through the recovered db.
    pub fn restart(&mut self) -> EngineResult<()> {
        let (dir, group_commit) = self
            .durable
            .clone()
            .ok_or_else(crate::durability::not_attached)?;
        self.db = AdaptiveDb::recover(&dir, cracker_core::CrackerConfig::default(), group_commit)?;
        Ok(())
    }

    /// The concurrency mode the replay runs under.
    pub fn mode(&self) -> ConcurrencyMode {
        self.mode
    }

    /// The underlying database (stats, catalog inspection).
    pub fn db(&self) -> &AdaptiveDb {
        &self.db
    }

    /// Consume the runner, keeping the database it drove.
    pub fn into_db(self) -> AdaptiveDb {
        self.db
    }

    /// Answer a buffered batch of select windows in one call through the
    /// latched column's amortized batch path
    /// ([`cracker_core::ConcurrentColumn::select_oids_batch`]): one latch
    /// acquisition per touched shard per batch. `results[i]` answers
    /// `windows[i]`.
    pub fn run_select_batch(&mut self, windows: &[Window]) -> Vec<Vec<u32>> {
        let preds: Vec<_> = windows.iter().map(|w| w.to_pred()).collect();
        self.db
            .select_batch(SCENARIO_TABLE, SCENARIO_COLUMN, &preds)
            // lint: allow(unwrap) — the constructor registers this column
            .expect("scenario column registered at construction")
    }

    /// Install the chaos admission gate if none is present: one slot, no
    /// wait queue — so a `ShedNext` blocker saturates it instantly and an
    /// ordinary query (arriving at a free gate) sails through.
    fn ensure_chaos_gate(&mut self) {
        if self.db.admission().is_none() {
            self.db
                .set_admission(AdmissionGate::with_wait_bound(1, 1, 0));
        }
    }

    /// Replay `scenario` under a seeded [`ChaosSchedule`], pinning every
    /// step to the sorted differential oracle.
    ///
    /// Each step first applies the schedule's actions for that step —
    /// arming I/O faults (modulo-mapped onto [`fault::ALL_POINTS`] and the
    /// four [`FaultKind`]s), flagging the next select for cancellation /
    /// an expired deadline / load-shedding / an armed mid-crack panic, or
    /// checkpointing / restarting the database — then runs the scenario
    /// op:
    ///
    /// * a **disturbed select** must surface exactly its typed error
    ///   ([`EngineError::Cancelled`], [`EngineError::DeadlineExceeded`],
    ///   [`EngineError::Overloaded`]) or panic inside the containment
    ///   wrapper; either way the column must still validate, and — the
    ///   core guarantee — every *later* answer must match the oracle as
    ///   if the disturbed query had never run;
    /// * an **undisturbed select** must match `oracle.select_oids`;
    /// * an **update** that fails typed (injected fault, poisoned log) is
    ///   *skipped in the oracle too* — write-ahead logging rolls the
    ///   record back before poisoning, so a failed update is atomic;
    /// * a **restart** recovers warm from the durability directory; the
    ///   oracle carries over untouched.
    ///
    /// Fault-arming, checkpoint, and restart actions are skipped when the
    /// runner was not built [`with_durability`](Self::with_durability).
    /// Returns `Err` on any divergence; `Ok` carries the observation
    /// counts.
    pub fn run_chaos<S: Scenario + ?Sized>(
        &mut self,
        scenario: &mut S,
        schedule: &ChaosSchedule,
    ) -> Result<ChaosReport, String> {
        const KINDS: [FaultKind; 4] = [
            FaultKind::Eio,
            FaultKind::ShortWrite,
            FaultKind::FsyncFail,
            FaultKind::Enospc,
        ];
        let durable = self.durable.is_some();
        let mut oracle = SortedOracle::new(scenario.base());
        let mut report = ChaosReport::default();
        self.ensure_chaos_gate();
        let (mut cancel_next, mut deadline_next) = (false, false);
        let (mut shed_next, mut panic_next) = (false, false);
        for (step, op) in (&mut *scenario).enumerate() {
            for action in schedule.at(step) {
                match action {
                    ChaosAction::ArmFault { point, kind, fires } if durable => {
                        let p = fault::ALL_POINTS[point as usize % fault::ALL_POINTS.len()];
                        let k = KINDS[kind as usize % KINDS.len()];
                        if self.db.arm_io_fault(p, 0, k, fires) {
                            report.faults_armed += 1;
                        }
                    }
                    ChaosAction::ArmFault { .. } => {}
                    ChaosAction::CancelNext => cancel_next = true,
                    ChaosAction::DeadlineNext => deadline_next = true,
                    ChaosAction::ShedNext => shed_next = true,
                    ChaosAction::PanicNext => panic_next = true,
                    ChaosAction::Checkpoint if durable => match self.checkpoint() {
                        Ok(_) => report.checkpoints += 1,
                        Err(_) => report.failed_checkpoints += 1,
                    },
                    ChaosAction::Checkpoint => {}
                    ChaosAction::Restart if durable => {
                        self.restart()
                            .map_err(|e| format!("step {step}: restart failed: {e}"))?;
                        self.ensure_chaos_gate();
                        report.restarts += 1;
                    }
                    ChaosAction::Restart => {}
                }
            }
            match op {
                Op::Select(w) => {
                    self.chaos_select(
                        w,
                        &oracle,
                        &mut report,
                        step,
                        (cancel_next, deadline_next, shed_next, panic_next),
                    )?;
                    (cancel_next, deadline_next) = (false, false);
                    (shed_next, panic_next) = (false, false);
                }
                Op::Insert { oid, value } => {
                    match self
                        .db
                        .stage_insert(SCENARIO_TABLE, SCENARIO_COLUMN, oid, value)
                    {
                        Ok(()) => {
                            oracle.insert(oid, value);
                            report.updates += 1;
                        }
                        Err(_) => report.failed_updates += 1,
                    }
                }
                Op::Delete { oid } => {
                    match self.db.stage_delete(SCENARIO_TABLE, SCENARIO_COLUMN, oid) {
                        Ok(found) => {
                            let want = oracle.delete(oid);
                            if found != want {
                                return Err(format!(
                                    "step {step}: delete({oid}) found={found}, oracle={want}"
                                ));
                            }
                            report.updates += 1;
                        }
                        Err(_) => report.failed_updates += 1,
                    }
                }
            }
        }
        self.db
            .shared_cracker(SCENARIO_TABLE, SCENARIO_COLUMN)
            .map_err(|e| format!("final: cracked column lost: {e}"))?
            .validate()
            .map_err(|e| format!("final: column invalid after chaos replay: {e}"))?;
        Ok(report)
    }

    /// One select step of [`run_chaos`](Self::run_chaos): disturbed per
    /// the pending flags, otherwise answered and pinned to the oracle.
    fn chaos_select(
        &mut self,
        w: Window,
        oracle: &SortedOracle,
        report: &mut ChaosReport,
        step: usize,
        (cancel, deadline, shed, panic): (bool, bool, bool, bool),
    ) -> Result<(), String> {
        let preds = [w.to_pred()];
        if cancel {
            let governor = Governor::unbounded();
            governor.token().cancel();
            return match self.db.select_batch_governed(
                SCENARIO_TABLE,
                SCENARIO_COLUMN,
                &preds,
                &governor,
                CHAOS_SESSION,
            ) {
                Err(EngineError::Cancelled) => {
                    report.cancelled += 1;
                    Ok(())
                }
                other => Err(format!(
                    "step {step}: pre-cancelled select returned {other:?}"
                )),
            };
        }
        if deadline {
            let governor = Governor::with_deadline(Duration::ZERO);
            return match self.db.select_batch_governed(
                SCENARIO_TABLE,
                SCENARIO_COLUMN,
                &preds,
                &governor,
                CHAOS_SESSION,
            ) {
                Err(EngineError::DeadlineExceeded { .. }) => {
                    report.deadline_exceeded += 1;
                    Ok(())
                }
                other => Err(format!(
                    "step {step}: zero-deadline select returned {other:?}"
                )),
            };
        }
        if shed {
            let gate = Arc::clone(
                self.db
                    .admission()
                    // lint: allow(unwrap) — run_chaos installs a gate before replaying
                    .expect("run_chaos installs a gate before replaying"),
            );
            let blocker = gate.try_admit(BLOCKER_SESSION);
            let governor = Governor::with_deadline(Duration::from_millis(20));
            let res = self.db.select_batch_governed(
                SCENARIO_TABLE,
                SCENARIO_COLUMN,
                &preds,
                &governor,
                CHAOS_SESSION,
            );
            drop(blocker);
            return match res {
                Err(EngineError::Overloaded { .. }) => {
                    report.shed += 1;
                    Ok(())
                }
                other => Err(format!(
                    "step {step}: select at a saturated gate returned {other:?}"
                )),
            };
        }
        if panic {
            self.db
                .shared_cracker(SCENARIO_TABLE, SCENARIO_COLUMN)
                .map_err(|e| format!("step {step}: cracked column lost: {e}"))?
                .arm_panic_on_crack(0);
        }
        // An armed panic may only fire on a *later* select (this one may
        // not crack), so every normal select runs inside the containment
        // wrapper and validates on the way out.
        let governor = Governor::unbounded();
        let db = &mut self.db;
        let res = catch_unwind(AssertUnwindSafe(|| {
            db.select_batch_governed(
                SCENARIO_TABLE,
                SCENARIO_COLUMN,
                &preds,
                &governor,
                CHAOS_SESSION,
            )
        }));
        match res {
            Err(_) => {
                report.panics += 1;
                self.db
                    .shared_cracker(SCENARIO_TABLE, SCENARIO_COLUMN)
                    .map_err(|e| format!("step {step}: cracked column lost: {e}"))?
                    .validate()
                    .map_err(|e| format!("step {step}: column invalid after panic: {e}"))?;
                Ok(())
            }
            Ok(Ok(outs)) => {
                report.selects += 1;
                let mut got = outs.into_iter().next().unwrap_or_default();
                got.sort_unstable();
                let want = oracle.select_oids(w);
                if got != want {
                    return Err(format!(
                        "step {step}: select [{}, {}) diverged: got {} oids, oracle {}",
                        w.lo,
                        w.hi,
                        got.len(),
                        want.len()
                    ));
                }
                Ok(())
            }
            Ok(Err(e)) => Err(format!("step {step}: undisturbed select failed: {e}")),
        }
    }
}

impl ScenarioExecutor for DbScenarioRunner {
    fn label(&self) -> String {
        format!("adaptive-db({:?})", self.mode)
    }

    fn run_select(&mut self, w: Window) -> Vec<u32> {
        self.db
            .shared_cracker(SCENARIO_TABLE, SCENARIO_COLUMN)
            // lint: allow(unwrap) — the constructor registers this column
            .expect("scenario column registered at construction")
            .select_oids(w.to_pred())
    }

    fn run_insert(&mut self, oid: u32, value: i64) {
        self.db
            .stage_insert(SCENARIO_TABLE, SCENARIO_COLUMN, oid, value)
            // lint: allow(unwrap) — the constructor registers this column
            .expect("scenario column registered at construction");
    }

    fn run_delete(&mut self, oid: u32) -> bool {
        self.db
            .stage_delete(SCENARIO_TABLE, SCENARIO_COLUMN, oid)
            // lint: allow(unwrap) — the constructor registers this column
            .expect("scenario column registered at construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::scenario::{ScenarioRunner, Shift, ShiftingHotSet, UpdateHeavy, ZipfQueries};
    use workload::Mqs;

    #[test]
    fn crack_engine_replays_differentially() {
        let mut scenario = ZipfQueries::new(5_000, 1_000, 1.1, 48, 3);
        let mut engine = CrackEngine::new(scenario.base().to_vec());
        let report = ScenarioRunner::run_differential(&mut scenario, &mut engine)
            .expect("engine path agrees with the oracle");
        assert_eq!(report.selects, 48);
        engine.column().validate().expect("invariants hold");
    }

    #[test]
    fn db_runner_replays_in_both_lock_modes() {
        for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 8 }] {
            let mut scenario = UpdateHeavy::new(Mqs::paper_default(4_000, 32, 0.05), 3.0, 4, 17);
            let mut runner = DbScenarioRunner::new(&scenario, mode).expect("register");
            assert_eq!(runner.mode(), mode);
            let report = ScenarioRunner::run_differential(&mut scenario, &mut runner)
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert_eq!(report.selects, 32);
            assert!(report.inserts + report.deletes > 0, "mix really updated");
            let db = runner.into_db();
            assert_eq!(db.cracked_columns(), 1);
            assert!(db.total_crack_stats().queries > 0);
        }
    }

    #[test]
    fn chaos_replay_without_durability_stays_pinned_to_the_oracle() {
        // No durability: fault/checkpoint/restart actions are skipped but
        // cancellations, deadlines, shedding, and armed panics all fire.
        for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 4 }] {
            let mut scenario = UpdateHeavy::new(Mqs::paper_default(3_000, 48, 0.05), 2.0, 3, 11);
            let mut runner = DbScenarioRunner::new(&scenario, mode).expect("register");
            let schedule = workload::scenario::ChaosSchedule::seeded(200, 42, 0.6);
            let report = runner
                .run_chaos(&mut scenario, &schedule)
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert!(report.selects > 0, "{mode:?}: some selects ran clean");
            assert!(
                report.cancelled + report.deadline_exceeded + report.shed > 0,
                "{mode:?}: intensity 0.6 over 200 steps disturbed something"
            );
            assert_eq!(report.restarts, 0, "{mode:?}: non-durable skips restarts");
            assert_eq!(report.faults_armed, 0, "{mode:?}: no injector to arm");
        }
    }

    #[test]
    fn disturbed_selects_leave_no_trace_in_later_answers() {
        // Interleave every disturbance kind with clean selects by hand
        // and pin each clean answer to an undisturbed twin runner.
        let make = || ZipfQueries::new(2_000, 800, 1.1, 40, 7);
        let mut chaotic = DbScenarioRunner::new(&make(), ConcurrencyMode::default()).unwrap();
        let mut calm = DbScenarioRunner::new(&make(), ConcurrencyMode::default()).unwrap();
        let mut scenario = make();
        // Disturb a different way on each step mod 5; step mod 5 == 4 and
        // updates replay identically in both runners.
        let schedule = ChaosSchedule::from_actions(
            (0..40)
                .filter_map(|s| match s % 5 {
                    0 => Some((s, ChaosAction::CancelNext)),
                    1 => Some((s, ChaosAction::DeadlineNext)),
                    2 => Some((s, ChaosAction::ShedNext)),
                    3 => Some((s, ChaosAction::PanicNext)),
                    _ => None,
                })
                .collect(),
        );
        let report = chaotic.run_chaos(&mut scenario, &schedule).expect("pinned");
        assert!(report.cancelled > 0 && report.deadline_exceeded > 0);
        assert!(report.shed > 0);
        // The calm twin replays the same ops untouched; afterwards both
        // runners must answer identical windows identically.
        let mut scenario = make();
        ScenarioRunner::run_differential(&mut scenario, &mut calm).expect("calm replay");
        for w in [
            Window::new(0, 100),
            Window::new(100, 400),
            Window::new(350, 800),
        ] {
            let mut a = chaotic.run_select(w);
            let mut b = calm.run_select(w);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "disturbed history changed [{}, {})", w.lo, w.hi);
        }
    }

    #[test]
    fn both_modes_see_identical_result_streams() {
        // The same seeded scenario replayed under each mode: per-select
        // result sets must match each other, not just the oracle.
        let make = || ShiftingHotSet::new(4_000, 64, 8, Shift::Drift { step: 1_000 }, 9);
        let mut single = DbScenarioRunner::new(&make(), ConcurrencyMode::default()).unwrap();
        let mut sharded = DbScenarioRunner::new(&make(), ConcurrencyMode { shards: 4 }).unwrap();
        let mut scenario = make();
        for op in &mut scenario {
            if let workload::scenario::Op::Select(w) = op {
                let mut a = single.run_select(w);
                let mut b = sharded.run_select(w);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "modes disagree on [{}, {})", w.lo, w.hi);
            }
        }
    }
}
