//! Oracle checks for the batched execution paths: a batch of predicates
//! answered through the latch-amortized batch entry points must be
//! indistinguishable from the same predicates answered one statement at
//! a time — identical (sorted) OID sets *and* an identical final cracked
//! layout — across the single-lock and sharded flavours. The
//! scenario roster is also replayed through the batch path against the
//! sorted-vector oracle, and the prepared-statement pipeline is pinned
//! to literal SQL execution.

use dbcracker::cracker_core::{ConcurrencyMode, ConcurrentColumn, CrackerConfig, RangePred};
use dbcracker::engine::scenario::{SCENARIO_COLUMN, SCENARIO_TABLE};
use dbcracker::engine::{AdaptiveDb, Table};
use dbcracker::prelude::*;
use dbcracker::sql::SqlSession;
use proptest::prelude::*;

/// The scenario roster, rebuilt fresh per executor (the seeding contract
/// makes a rebuild replay the identical op stream).
fn roster(seed: u64) -> Vec<Box<dyn Scenario<Item = Op>>> {
    vec![
        Box::new(ZipfQueries::new(20_000, 5_000, 1.1, 64, seed)),
        Box::new(ShiftingHotSet::new(
            20_000,
            96,
            16,
            Shift::Drift { step: 5_000 },
            seed,
        )),
        Box::new(ShiftingHotSet::new(20_000, 96, 16, Shift::Jump, seed)),
        Box::new(UpdateHeavy::new(
            Mqs::paper_default(20_000, 64, 0.05),
            4.0,
            8,
            seed,
        )),
    ]
}

/// Replay one scenario through [`DbScenarioRunner::run_select_batch`]:
/// consecutive selects are buffered and flushed as one batch (before any
/// update, so the oracle's state matches every buffered window), each
/// answer compared in full against the sorted-vector oracle.
fn replay_batched(mode: ConcurrencyMode, mut scenario: Box<dyn Scenario<Item = Op>>) {
    /// Flush cap: below the scenario query counts, so replays exercise
    /// both full and partial batches.
    const BATCH_CAP: usize = 32;

    fn flush(
        runner: &mut DbScenarioRunner,
        wins: &mut Vec<Window>,
        oracle: &SortedOracle,
        name: &str,
    ) {
        if wins.is_empty() {
            return;
        }
        let got = runner.run_select_batch(wins);
        for (w, mut g) in wins.iter().zip(got) {
            g.sort_unstable();
            assert_eq!(
                g,
                oracle.select_oids(*w),
                "{name}: batched select [{}, {})",
                w.lo,
                w.hi
            );
        }
        wins.clear();
    }

    let name = scenario.name();
    let mut runner = DbScenarioRunner::new(scenario.as_ref(), mode).expect("register scenario");
    let mut oracle = SortedOracle::new(scenario.base());
    let mut wins: Vec<Window> = Vec::new();
    let mut selects = 0usize;
    for op in &mut scenario {
        match op {
            Op::Select(w) => {
                wins.push(w);
                selects += 1;
                if wins.len() == BATCH_CAP {
                    flush(&mut runner, &mut wins, &oracle, &name);
                }
            }
            Op::Insert { oid, value } => {
                flush(&mut runner, &mut wins, &oracle, &name);
                runner.run_insert(oid, value);
                oracle.insert(oid, value);
            }
            Op::Delete { oid } => {
                flush(&mut runner, &mut wins, &oracle, &name);
                assert_eq!(runner.run_delete(oid), oracle.delete(oid), "{name}: delete");
            }
        }
    }
    flush(&mut runner, &mut wins, &oracle, &name);
    assert!(selects > 0, "{name}: scenario ran no selects");
    let mut db = runner.into_db();
    db.shared_cracker(SCENARIO_TABLE, SCENARIO_COLUMN)
        .expect("scenario column registered")
        .validate()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
}

#[test]
fn scenario_roster_replayed_through_the_batch_path_matches_the_oracle() {
    for mode in [
        ConcurrencyMode::SingleLock,
        ConcurrencyMode::Sharded { shards: 8 },
    ] {
        for scenario in roster(0x6A) {
            replay_batched(mode, scenario);
        }
    }
}

/// The batch path must leave the *same cracked layout* as
/// statement-at-a-time execution, not just return the same answers: the
/// boundaries a batch installs are exactly the union of its predicates'
/// bounds, independent of per-shard reordering.
#[test]
fn batch_and_statement_replays_converge_to_the_same_piece_count() {
    for mode in [
        ConcurrencyMode::SingleLock,
        ConcurrencyMode::Sharded { shards: 8 },
    ] {
        for (batched, mut one_at_a_time) in roster(0x6B).into_iter().zip(roster(0x6B)) {
            let name = batched.name();
            let mut stmt_runner =
                DbScenarioRunner::new(one_at_a_time.as_ref(), mode).expect("register scenario");
            ScenarioRunner::run_differential(one_at_a_time.as_mut(), &mut stmt_runner)
                .unwrap_or_else(|e| panic!("{name} {mode:?}: {e}"));
            let stmt_pieces = stmt_runner
                .into_db()
                .shared_cracker(SCENARIO_TABLE, SCENARIO_COLUMN)
                .expect("scenario column registered")
                .piece_count();

            // `replay_batched` re-runs the identical op stream (the
            // seeding contract) through the batch entry point…
            let mut runner = DbScenarioRunner::new(batched.as_ref(), mode).expect("register");
            let mut scenario = batched;
            let mut wins: Vec<Window> = Vec::new();
            for op in &mut scenario {
                match op {
                    Op::Select(w) => wins.push(w),
                    Op::Insert { oid, value } => {
                        runner.run_select_batch(&wins);
                        wins.clear();
                        runner.run_insert(oid, value);
                    }
                    Op::Delete { oid } => {
                        runner.run_select_batch(&wins);
                        wins.clear();
                        runner.run_delete(oid);
                    }
                }
            }
            runner.run_select_batch(&wins);
            let batch_pieces = runner
                .into_db()
                .shared_cracker(SCENARIO_TABLE, SCENARIO_COLUMN)
                .expect("scenario column registered")
                .piece_count();

            // …and must arrive at the identical boundary set.
            assert_eq!(
                stmt_pieces, batch_pieces,
                "{name} {mode:?}: batch and statement replays cracked differently"
            );
        }
    }
}

/// Prepared execution (parse/lower once, bind many) must be
/// indistinguishable from re-parsing the literal SQL per query — both in
/// the rows returned and in reaching the same session state.
#[test]
fn prepared_execution_matches_literal_sql() {
    let vals: Vec<i64> = (0..4_000)
        .map(|i| (i * 2_654_435_761u64 as i64) % 4_000)
        .collect();
    let mut prepared_sess = SqlSession::new();
    let mut literal_sess = SqlSession::new();
    for sess in [&mut prepared_sess, &mut literal_sess] {
        sess.load_table("t", vec![("v".to_owned(), vals.clone())])
            .expect("fresh table");
    }
    let prepared = prepared_sess
        .prepare("select v from t where v >= ? and v < ?")
        .expect("prepare");
    let bindings: Vec<Vec<i64>> = (0..48)
        .map(|i| {
            let lo = (i * 167) % 3_900;
            vec![lo, lo + 40]
        })
        .collect();
    let batch = prepared_sess
        .execute_prepared_many(&prepared, &bindings)
        .expect("prepared batch");
    assert_eq!(batch.len(), bindings.len());
    for (b, got) in bindings.iter().zip(batch) {
        let want = literal_sess
            .execute_one(&format!(
                "select v from t where v >= {} and v < {}",
                b[0], b[1]
            ))
            .expect("literal select");
        let (QueryOutput::Table { rows: mut r1, .. }, QueryOutput::Table { rows: mut r2, .. }) =
            (got, want)
        else {
            panic!("selects must produce tables");
        };
        r1.sort_unstable();
        r2.sort_unstable();
        assert_eq!(r1, r2, "binding {b:?}");
    }
}

/// `execute` parses the whole source before running any of it: a syntax
/// error in the last statement must leave the session untouched, even
/// when earlier statements are valid DDL.
#[test]
fn execute_is_syntactically_atomic_across_the_statement_list() {
    let mut sess = SqlSession::new();
    sess.execute("create table early (v integer)")
        .expect("valid statement list");
    sess.execute("create table late (v integer); selec nonsense from nowhere")
        .expect_err("trailing syntax error must fail the whole list");
    // The valid leading CREATE must not have run.
    sess.execute("create table late (v integer)")
        .expect("`late` must not exist — the failed list may not partially apply");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch ≡ statement-at-a-time on the concurrent column: same sorted
    /// OID set per predicate, same final piece count, invariants intact —
    /// under both lock modes.
    #[test]
    fn prop_concurrent_batch_equals_statement_at_a_time(
        vals in proptest::collection::vec(-120i64..120, 16..200),
        preds in proptest::collection::vec((-130i64..130, 1i64..60), 1..40),
        shards in 1usize..6,
    ) {
        let preds: Vec<RangePred<i64>> = preds
            .iter()
            .map(|&(lo, w)| RangePred::half_open(lo, lo + w))
            .collect();
        for mode in [ConcurrencyMode::SingleLock, ConcurrencyMode::Sharded { shards }] {
            let stmt = ConcurrentColumn::build(vals.clone(), CrackerConfig::default(), mode);
            let batch = ConcurrentColumn::build(vals.clone(), CrackerConfig::default(), mode);
            let batched = batch.select_oids_batch(&preds);
            for (p, mut b) in preds.iter().zip(batched) {
                let mut s = stmt.select_oids(*p);
                s.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(s, b, "{:?} pred {:?}", mode, p);
            }
            stmt.validate().map_err(TestCaseError::fail)?;
            batch.validate().map_err(TestCaseError::fail)?;
            prop_assert_eq!(
                stmt.piece_count(),
                batch.piece_count(),
                "{:?}: final layouts diverged",
                mode
            );
        }
    }

    /// The engine's batch entry point agrees with per-statement
    /// conjunctive selection (the single-predicate degenerate case) under
    /// both lock modes.
    #[test]
    fn prop_adaptive_db_batch_matches_statement_selects(
        vals in proptest::collection::vec(-120i64..120, 16..160),
        preds in proptest::collection::vec((-130i64..130, 1i64..60), 1..24),
        shards in 1usize..6,
    ) {
        let preds: Vec<RangePred<i64>> = preds
            .iter()
            .map(|&(lo, w)| RangePred::half_open(lo, lo + w))
            .collect();
        let table = || Table::from_int_columns("t", vec![("v", vals.clone())]).expect("aligned");
        for mode in [ConcurrencyMode::SingleLock, ConcurrencyMode::Sharded { shards }] {
            let mut stmt_db = AdaptiveDb::new().with_concurrency(mode);
            let mut batch_db = AdaptiveDb::new().with_concurrency(mode);
            stmt_db.register(table()).expect("fresh catalog");
            batch_db.register(table()).expect("fresh catalog");
            let batched = batch_db.select_batch("t", "v", &preds).expect("batch select");
            for (p, mut b) in preds.iter().zip(batched) {
                let s = stmt_db.select_conjunctive("t", &[("v", *p)]).expect("select");
                b.sort_unstable();
                prop_assert_eq!(s, b, "{:?} pred {:?}", mode, p);
            }
        }
    }
}
