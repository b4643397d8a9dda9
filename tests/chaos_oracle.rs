//! Chaos suite: deterministic I/O fault injection at every named fault
//! point, governor disturbances (cancel / deadline / shed / panic), and
//! seeded whole-schedule chaos replays — all pinned to the sorted
//! differential oracle. The contract under test (see `ROBUSTNESS.md`):
//! every armed fault either retries to success or surfaces a *typed*
//! error, the column always validates afterwards, and no disturbed or
//! failed operation ever changes a later observable answer.

use dbcracker::engine::scenario::{SCENARIO_COLUMN, SCENARIO_TABLE};
use dbcracker::engine::{AdaptiveDb, EngineError, OutputMode, RangeQuery, Table};
use dbcracker::prelude::*;
use dbcracker::storage::fault::{self, FaultKind};
use std::path::PathBuf;

const TABLE: &str = "t";
const COLUMN: &str = "v";

/// Fresh scratch directory for one test case (removed up front so reruns
/// of a dirty tree start clean).
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dbcracker-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A deterministic pseudo-random stream (splitmix64) for window
/// placement — no RNG crate needed.
struct Mix(u64);
impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn window(&mut self, domain: i64, width: i64) -> Window {
        let lo = (self.next() % (domain - width).max(1) as u64) as i64;
        Window::new(lo, lo + width)
    }
}

fn base_column(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| (i * 37) % n as i64).collect()
}

fn db_with_table(base: &[i64], mode: ConcurrencyMode) -> AdaptiveDb {
    let mut db = AdaptiveDb::new().with_concurrency(mode);
    db.register(Table::from_int_columns(TABLE, vec![(COLUMN, base.to_vec())]).unwrap())
        .unwrap();
    db
}

/// The db must be oracle-identical on every probe window and its piece
/// map must pass full validation.
fn assert_matches_oracle(db: &mut AdaptiveDb, oracle: &SortedOracle, windows: &[Window]) {
    for &w in windows {
        let (mut got, _) = db
            .select(
                &RangeQuery::new(TABLE, COLUMN, w.to_pred()),
                OutputMode::Stream,
            )
            .unwrap();
        got.sort_unstable();
        assert_eq!(
            got,
            oracle.select_oids(w),
            "db diverged on [{}, {})",
            w.lo,
            w.hi
        );
    }
    db.shared_cracker(TABLE, COLUMN)
        .unwrap()
        .validate()
        .expect("piece map must validate");
}

/// A failed operation must surface through the error taxonomy: transient,
/// corruption, overload, or (for hard faults like a full disk and for a
/// poisoned log) a typed storage error — never a panic, never a stringly
/// untyped escape.
fn assert_typed(context: &str, e: &EngineError) {
    assert!(
        e.is_transient()
            || e.is_corruption()
            || e.is_overload()
            || matches!(e, EngineError::Storage(_)),
        "{context}: untyped error {e:?}"
    );
}

/// Arm every named fault point with every fault kind in turn, drive
/// updates and a checkpoint through the armed injector, and require:
/// the operation either retried to success or failed typed; afterwards
/// the database (and a recovery of it) answers oracle-identically.
#[test]
fn every_fault_point_retries_to_success_or_surfaces_typed_errors() {
    let n = 1_500;
    let base = base_column(n);
    let kinds = [
        FaultKind::Eio,
        FaultKind::ShortWrite,
        FaultKind::FsyncFail,
        FaultKind::Enospc,
    ];
    let mut fault_failures = 0usize;
    let mut fault_retried_away = 0usize;
    for (mi, mode) in [
        ConcurrencyMode::SingleLock,
        ConcurrencyMode::Sharded { shards: 4 },
    ]
    .into_iter()
    .enumerate()
    {
        for (pi, &point) in fault::ALL_POINTS.iter().enumerate() {
            for (ki, &kind) in kinds.iter().enumerate() {
                let tag = format!("point{pi}-kind{ki}-mode{mi}");
                let dir = scratch(&tag);
                let mut oracle = SortedOracle::new(&base);
                let mut db = db_with_table(&base, mode);
                let mut mix = Mix(100 + (pi * 7 + ki) as u64);
                // Crack first so checkpoints carry a real piece map.
                for _ in 0..4 {
                    let w = mix.window(n as i64, 200);
                    db.select(
                        &RangeQuery::new(TABLE, COLUMN, w.to_pred()),
                        OutputMode::Count,
                    )
                    .unwrap();
                }
                db.attach_durability(&dir, 1).unwrap();
                assert!(
                    db.arm_io_fault(point, 0, kind, 1),
                    "{tag}: {point} must be armable once durability is attached"
                );
                let mut hit_error = false;
                // Updates exercise the wal.* points; the checkpoint exercises
                // the ckpt.* points (and wal.open at log rotation).
                for i in 0..6u32 {
                    let oid = n as u32 + i;
                    match db.stage_insert(TABLE, COLUMN, oid, i as i64) {
                        Ok(()) => oracle.insert(oid, i as i64),
                        Err(e) => {
                            assert_typed(&format!("{tag}: insert under {point}"), &e);
                            hit_error = true;
                        }
                    }
                }
                if let Err(e) = db.checkpoint() {
                    assert_typed(&format!("{tag}: checkpoint under {point}"), &e);
                    hit_error = true;
                }
                // The fault has fired (fires = 1) by now if its point was on
                // the path. A poisoned log heals at the next successful
                // rotation; give it two chances before requiring clean flow.
                let mut rounds = 0;
                while db.wal_poisoned().is_some() && rounds < 2 {
                    let _ = db.checkpoint();
                    rounds += 1;
                }
                assert!(
                    db.wal_poisoned().is_none(),
                    "{tag}: log stayed poisoned after two rotations"
                );
                match db.stage_insert(TABLE, COLUMN, n as u32 + 50, 7) {
                    Ok(()) => oracle.insert(n as u32 + 50, 7),
                    Err(e) => panic!("{tag}: update after degradation window: {e}"),
                }
                assert!(
                    db.io_faults_injected() >= 1,
                    "{tag}: the armed fault never fired — {point} is not on the durable path"
                );
                if hit_error {
                    fault_failures += 1;
                } else {
                    fault_retried_away += 1;
                }
                // The survived database answers right...
                let probes: Vec<Window> = (0..6).map(|_| mix.window(n as i64, 350)).collect();
                assert_matches_oracle(&mut db, &oracle, &probes);
                drop(db);
                // ...and so does a recovery from whatever it left on disk.
                let mut rec = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1)
                    .unwrap_or_else(|e| panic!("{tag}: recovery after {kind:?} at {point}: {e}"));
                assert_matches_oracle(&mut rec, &oracle, &probes);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
    // Transient kinds (EIO, short write) retry away under the default
    // policy; hard kinds (ENOSPC) and fsync failures must surface. Both
    // classes must appear across the sweep or the matrix is not really
    // exercising the taxonomy.
    assert!(
        fault_retried_away > 0,
        "no armed fault was absorbed by retry — the retry policy is dead"
    );
    assert!(
        fault_failures > 0,
        "no armed fault surfaced an error — the injector is not wired in"
    );
}

/// Seeded whole-schedule chaos replays through the durable runner in both
/// concurrency modes: `run_chaos` pins every clean select to the oracle
/// and errors on any divergence, so `Ok` here *is* the oracle check.
#[test]
fn seeded_chaos_replay_stays_pinned_in_both_modes() {
    for (mode, tag) in [
        (ConcurrencyMode::SingleLock, "single"),
        (ConcurrencyMode::Sharded { shards: 4 }, "sharded"),
    ] {
        let mut total = ChaosReport::default();
        for seed in [3u64, 17, 4242] {
            let dir = scratch(&format!("seeded-{tag}-{seed}"));
            let mut scenario = UpdateHeavy::new(Mqs::paper_default(4_000, 60, 0.05), 2.0, 3, seed);
            let mut runner =
                DbScenarioRunner::with_durability(&scenario, mode, &dir, 1).expect("attach");
            let schedule = ChaosSchedule::seeded(260, seed.wrapping_mul(31), 0.5);
            let report = runner
                .run_chaos(&mut scenario, &schedule)
                .unwrap_or_else(|e| panic!("{tag} seed {seed}: {e}"));
            total.selects += report.selects;
            total.faults_armed += report.faults_armed;
            total.checkpoints += report.checkpoints;
            total.restarts += report.restarts;
            total.cancelled += report.cancelled + report.deadline_exceeded + report.shed;
            total.failed_updates += report.failed_updates;
            total.updates += report.updates;
            std::fs::remove_dir_all(&dir).ok();
        }
        assert!(
            total.selects > 50,
            "{tag}: clean selects were oracle-checked"
        );
        assert!(total.updates > 50, "{tag}: updates flowed");
        assert!(total.faults_armed > 0, "{tag}: faults were armed");
        assert!(total.checkpoints > 0, "{tag}: checkpoints committed");
        assert!(total.restarts > 0, "{tag}: crash/recovery cycles ran");
        assert!(total.cancelled > 0, "{tag}: governor disturbances fired");
    }
}

/// A cancelled, deadline-expired, shed, or panicked query must leave no
/// trace: a chaos replay whose only actions are governor disturbances
/// plus checkpoint/restart cycles must end in exactly the state of a calm
/// replay of the same scenario.
#[test]
fn disturbed_queries_never_alter_later_observable_results() {
    for (mode, tag) in [
        (ConcurrencyMode::SingleLock, "single"),
        (ConcurrencyMode::Sharded { shards: 4 }, "sharded"),
    ] {
        let dir = scratch(&format!("no-trace-{tag}"));
        let make = || UpdateHeavy::new(Mqs::paper_default(3_000, 50, 0.05), 2.0, 3, 29);
        // Disturbances only — no I/O faults, so every update succeeds in
        // both runners and the end states are comparable.
        let schedule = ChaosSchedule::from_actions(
            (0..160usize)
                .filter_map(|s| match s % 8 {
                    0 => Some((s, ChaosAction::CancelNext)),
                    2 => Some((s, ChaosAction::DeadlineNext)),
                    4 => Some((s, ChaosAction::ShedNext)),
                    5 => Some((s, ChaosAction::PanicNext)),
                    6 => Some((s, ChaosAction::Checkpoint)),
                    7 if s % 16 == 7 => Some((s, ChaosAction::Restart)),
                    _ => None,
                })
                .collect(),
        );
        let mut scenario = make();
        let mut chaotic =
            DbScenarioRunner::with_durability(&scenario, mode, &dir, 1).expect("attach");
        let report = chaotic
            .run_chaos(&mut scenario, &schedule)
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(report.failed_updates, 0, "{tag}: no faults, no failures");
        assert!(
            report.cancelled > 0 && report.deadline_exceeded > 0 && report.shed > 0,
            "{tag}: every disturbance kind must fire: {report:?}"
        );
        assert!(report.restarts > 0, "{tag}: restarts interleaved");

        let mut calm_scenario = make();
        let mut calm = DbScenarioRunner::new(&calm_scenario, mode).expect("calm twin");
        ScenarioRunner::run_differential(&mut calm_scenario, &mut calm).expect("calm replay");

        let mut mix = Mix(77);
        let mut chaotic_db = chaotic.into_db();
        let mut calm_db = calm.into_db();
        for _ in 0..12 {
            let w = mix.window(3_000, 400);
            let want = {
                let mut v = calm_db
                    .shared_cracker(SCENARIO_TABLE, SCENARIO_COLUMN)
                    .unwrap()
                    .select_oids(w.to_pred());
                v.sort_unstable();
                v
            };
            let mut got = chaotic_db
                .shared_cracker(SCENARIO_TABLE, SCENARIO_COLUMN)
                .unwrap()
                .select_oids(w.to_pred());
            got.sort_unstable();
            assert_eq!(
                got, want,
                "{tag}: disturbed history changed [{}, {})",
                w.lo, w.hi
            );
        }
        chaotic_db
            .shared_cracker(SCENARIO_TABLE, SCENARIO_COLUMN)
            .unwrap()
            .validate()
            .expect("chaotic column validates");
        std::fs::remove_dir_all(&dir).ok();
    }
}
