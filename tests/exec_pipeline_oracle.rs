//! Differential oracle for the block-at-a-time operator pipeline: every
//! plan shape answered by the vectorized tree must be indistinguishable
//! from the tuple-at-a-time reference — identical rows for selections,
//! projections, group-bys, and join chains up to 128 joins; identical
//! Ξ-tap byproduct (kept *and* reject pieces); identical crack state
//! left behind across the single-lock and sharded column
//! flavours; and a cancelled morsel pool must surface no partial
//! answer. Random operator trees are fuzzed through both pipelines.

use dbcracker::cracker_core::{ConcurrencyMode, RangePred};
use dbcracker::engine::chain::{permutation_chain, run_chain_with, ChainStrategy};
use dbcracker::engine::exec::join::HashJoinOp;
use dbcracker::engine::exec::morsel::morsel_select_oids_guarded;
use dbcracker::engine::exec::ops::{FilterOp, ProjectOp, RowsOp, XiTapOp};
use dbcracker::engine::exec::planner::{execute_plan_count_with, execute_plan_with};
use dbcracker::engine::exec::vector::{
    run_vector_to_vec, VecFilter, VecHashJoin, VecProject, VecRowsOp, VecXiTap, VectorOperator,
};
use dbcracker::engine::exec::{run_to_vec, ExecMode, Operator, Row};
use dbcracker::engine::plan::Plan;
use dbcracker::engine::query::{AggFunc, JoinStep, QueryTerm};
use dbcracker::engine::{
    AdaptiveDb, DbCatalog, EngineError, Governor, OutputMode, RangeQuery, Table,
};
use dbcracker::storage::Atom;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

const MODES: [ExecMode; 2] = [ExecMode::Vector, ExecMode::Tuple];

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
    rows
}

fn catalog() -> DbCatalog {
    let mut c = DbCatalog::new();
    c.register(
        Table::from_int_columns(
            "r",
            vec![
                ("k", (0..200).map(|i| i % 10).collect()),
                ("a", (0..200).rev().collect()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(
        Table::from_int_columns(
            "s",
            vec![
                ("k", (0..40).map(|i| i % 5).collect()),
                ("b", (0..40).map(|i| i * 3).collect()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c
}

/// Execute `plan` under both pipelines and assert sorted-row equality
/// (and count equality through the non-materializing entry point).
fn assert_modes_agree(plan: &Plan, cat: &DbCatalog) -> Vec<Row> {
    let v = sorted(execute_plan_with(plan, cat, ExecMode::Vector).unwrap());
    let t = sorted(execute_plan_with(plan, cat, ExecMode::Tuple).unwrap());
    assert_eq!(v, t, "vector and tuple pipelines must agree on {plan:?}");
    for mode in MODES {
        assert_eq!(
            execute_plan_count_with(plan, cat, mode).unwrap(),
            v.len(),
            "{mode:?} count"
        );
    }
    v
}

#[test]
fn selections_projections_and_groups_agree() {
    let cat = catalog();
    let scan = || Box::new(Plan::Scan { table: "r".into() });
    // Bare scan.
    assert_eq!(assert_modes_agree(&scan(), &cat).len(), 200);
    // Selection bands, including empty and full.
    for pred in [
        RangePred::between(50, 120),
        RangePred::lt(0),
        RangePred::ge(0),
        RangePred::eq(7),
    ] {
        let plan = Plan::Select {
            query: RangeQuery::new("r", "a", pred),
            input: scan(),
        };
        assert_modes_agree(&plan, &cat);
    }
    // Projection (reorder + duplicate-free narrow).
    let plan = Plan::Project {
        attrs: vec!["a".into(), "k".into()],
        input: Box::new(Plan::Select {
            query: RangeQuery::new("r", "a", RangePred::between(10, 60)),
            input: scan(),
        }),
    };
    assert_modes_agree(&plan, &cat);
    // Group-bys over every aggregate, keyed on an Oid lane too.
    for (agg, agg_attr) in [
        (AggFunc::Count, None),
        (AggFunc::Sum, Some("a".to_string())),
        (AggFunc::Min, Some("a".to_string())),
        (AggFunc::Max, Some("a".to_string())),
    ] {
        let plan = Plan::GroupBy {
            attr: "k".into(),
            agg,
            agg_attr: agg_attr.clone(),
            input: scan(),
        };
        let rows = assert_modes_agree(&plan, &cat);
        assert_eq!(rows.len(), 10, "{agg:?} groups");
    }
    // Group keyed on the surrogate `_oid` column (Oid lane path).
    let plan = Plan::GroupBy {
        attr: "_oid".into(),
        agg: AggFunc::Count,
        agg_attr: None,
        input: Box::new(Plan::Select {
            query: RangeQuery::new("r", "a", RangePred::lt(5)),
            input: scan(),
        }),
    };
    assert_eq!(assert_modes_agree(&plan, &cat).len(), 5);
}

#[test]
fn planner_join_terms_agree() {
    let cat = catalog();
    let term = QueryTerm {
        projection: vec![],
        group_by: None,
        selections: vec![RangeQuery::new("r", "a", RangePred::lt(120))],
        joins: vec![JoinStep {
            left: "r".into(),
            left_attr: "k".into(),
            right: "s".into(),
            right_attr: "k".into(),
        }],
        tables: vec!["r".into(), "s".into()],
    };
    let plan = Plan::from_term(&term).push_down_selections();
    let rows = assert_modes_agree(&plan, &cat);
    assert!(!rows.is_empty());
}

/// Build a `k`-relation join chain (each relation `(a, b)` with `a` the
/// identity and `b` a permutation) as a left-deep operator tree in both
/// pipelines and compare. Exercises chain depths the paper's Figure 9
/// drives: 2, 16, and 128 joins.
#[test]
fn join_chains_of_2_16_and_128_agree() {
    let n = 64i64;
    let perm: Vec<i64> = (0..n).map(|i| (i * 11 + 5) % n).collect();
    let rel_rows: Vec<Row> = (0..n)
        .map(|i| vec![Atom::Int(i), Atom::Int(perm[i as usize])])
        .collect();
    for k in [2usize, 16, 128] {
        let mut t: Box<dyn Operator> = Box::new(RowsOp::new(rel_rows.clone(), 2));
        let mut v: Box<dyn VectorOperator> = Box::new(VecRowsOp::new(rel_rows.clone(), 2));
        let mut arity = 2;
        for _ in 1..k {
            // Join the running tree's trailing `b` column to the next
            // copy's leading `a` column.
            t = Box::new(HashJoinOp::new(
                t,
                arity - 1,
                Box::new(RowsOp::new(rel_rows.clone(), 2)),
                0,
            ));
            v = Box::new(VecHashJoin::new(
                v,
                arity - 1,
                Box::new(VecRowsOp::new(rel_rows.clone(), 2)),
                0,
            ));
            arity += 2;
        }
        let tuple = sorted(run_to_vec(t));
        let vector = sorted(run_vector_to_vec(v));
        assert_eq!(tuple.len(), n as usize, "permutation joins are 1:1");
        assert_eq!(vector, tuple, "chain of {k} joins");
        // The chain evaluator agrees on cardinality in both modes too.
        let rels = permutation_chain(&perm, k);
        for mode in MODES {
            let report = run_chain_with(&rels, ChainStrategy::HashChain, mode).unwrap();
            assert_eq!(report.rows, n as usize, "{mode:?} chain of {k}");
        }
    }
}

#[test]
fn xi_tap_byproduct_is_identical_in_both_pipelines() {
    let rows: Vec<Row> = (0..2_500i64)
        .map(|i| vec![Atom::Int((i * 37) % 1_000), Atom::Int(i)])
        .collect();
    let pred = RangePred::between(200, 599);
    let mut tuple_tap = XiTapOp::new(Box::new(RowsOp::new(rows.clone(), 2)), move |row: &Row| {
        row[0].as_int().is_some_and(|v| pred.matches(v))
    });
    let mut tuple_kept = Vec::new();
    while let Some(row) = tuple_tap.next() {
        tuple_kept.push(row);
    }
    let tuple_rejects = tuple_tap.take_rejects();

    let mut vec_tap = VecXiTap::new(Box::new(VecRowsOp::new(rows.clone(), 2)), 0, pred);
    let mut vec_kept = Vec::new();
    let mut block = dbcracker::engine::exec::vector::RowBlock::new();
    while vec_tap.next_block(&mut block) > 0 {
        block.append_rows_to(&mut vec_kept);
    }
    let vec_rejects = vec_tap.take_rejects();

    // Both pipelines preserve input order, so equality is exact — no
    // sorting. Kept + rejects re-assemble the input ("taken together,
    // the pieces can be used to replace the original tables", §3.4.1).
    assert_eq!(vec_kept, tuple_kept);
    assert_eq!(vec_rejects, tuple_rejects);
    assert_eq!(vec_kept.len() + vec_rejects.len(), rows.len());
}

/// The pipeline choice must not perturb crack state: the same query
/// stream through the single-lock and sharded flavours leaves
/// identical piece counts and crack tallies whichever pipeline consumed
/// the answers.
#[test]
fn pipeline_choice_leaves_identical_crack_state_across_flavours() {
    fn run(exec: ExecMode, mode: ConcurrencyMode) -> (Vec<Vec<Row>>, usize, usize) {
        let vals: Vec<i64> = (0..30_000).map(|i| (i * 7919) % 30_000).collect();
        let mut db = AdaptiveDb::new().with_concurrency(mode);
        db.register(Table::from_int_columns("t", vec![("v", vals)]).unwrap())
            .unwrap();
        let mut outs = Vec::new();
        for i in 0..24i64 {
            let lo = (i * 997) % 25_000;
            let pred = RangePred::between(lo, lo + 1_500);
            // Crack the column.
            db.select(&RangeQuery::new("t", "v", pred), OutputMode::Count)
                .unwrap();
            // Answer rows through the pipeline under test.
            let plan = Plan::Select {
                query: RangeQuery::new("t", "v", pred),
                input: Box::new(Plan::Scan { table: "t".into() }),
            };
            outs.push(sorted(
                execute_plan_with(&plan, db.catalog(), exec).unwrap(),
            ));
        }
        let pieces = db.shared_cracker("t", "v").unwrap().piece_count();
        (outs, pieces, db.total_crack_stats().cracks)
    }
    for mode in [
        ConcurrencyMode::SingleLock,
        ConcurrencyMode::Sharded { shards: 8 },
    ] {
        let (rows_v, pieces_v, cracks_v) = run(ExecMode::Vector, mode);
        let (rows_t, pieces_t, cracks_t) = run(ExecMode::Tuple, mode);
        assert_eq!(rows_v, rows_t, "{mode:?} answers");
        assert_eq!(pieces_v, pieces_t, "{mode:?} piece counts");
        assert_eq!(cracks_v, cracks_t, "{mode:?} crack tallies");
    }
}

/// Morsel-pool extension of the cancellation oracle: a guard tripping at
/// any poll leaves no partial answer (the run reports `None`), the
/// column stays structurally valid, and a full re-run still answers
/// exactly like the sequential walk. The governed engine surface turns
/// the trip into its typed error.
#[test]
fn morsel_cancellation_yields_no_partial_answers() {
    let vals: Vec<i64> = (0..40_000).map(|i| (i * 131) % 40_000).collect();
    let mut db = AdaptiveDb::new().with_concurrency(ConcurrencyMode::Sharded { shards: 8 });
    db.register(Table::from_int_columns("t", vec![("v", vals)]).unwrap())
        .unwrap();
    let pred = RangePred::between(100, 35_000);
    {
        let col = db.shared_cracker("t", "v").unwrap();
        let sharded = col.as_sharded().expect("built sharded");
        for cancel_at in 0..14u64 {
            let polls = AtomicU64::new(0);
            let res = morsel_select_oids_guarded(sharded, pred, 8, None, &|| {
                polls.fetch_add(1, Ordering::Relaxed) < cancel_at
            });
            if let Some(oids) = res {
                assert_eq!(oids, sharded.select_oids(pred), "complete or nothing");
            }
            col.validate()
                .expect("piece maps intact after cancellation");
        }
        let full = morsel_select_oids_guarded(sharded, pred, 8, None, &|| true)
            .expect("untripped guard answers");
        assert_eq!(full, sharded.select_oids(pred));
    }
    // The governed engine surface: typed error, no partial answer.
    let g = Governor::unbounded();
    g.token().cancel();
    assert!(matches!(
        db.select_morsel("t", "v", pred, 8, &g, 1),
        Err(EngineError::Cancelled)
    ));
    // And a healthy governor answers like the sequential walk.
    let seq = db.shared_cracker("t", "v").unwrap().select_oids(pred);
    let par = db
        .select_morsel("t", "v", pred, 8, &Governor::unbounded(), 1)
        .unwrap();
    assert_eq!(par, seq);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random filter/project stacks over random rows: both pipelines
    /// must produce byte-identical output (order included — every
    /// operator is order-preserving).
    #[test]
    fn random_operator_trees_agree(
        rows in proptest::collection::vec(proptest::collection::vec(-50i64..50, 3..4), 0..120),
        stages in proptest::collection::vec(
            (0u8..2, 0usize..3, -60i64..60, 0i64..40, 1usize..3),
            0..5,
        ),
    ) {
        let arity = 3usize;
        let base: Vec<Row> = rows
            .iter()
            .map(|r| r.iter().map(|&v| Atom::Int(v)).collect())
            .collect();
        let mut t: Box<dyn Operator> = Box::new(RowsOp::new(base.clone(), arity));
        let mut v: Box<dyn VectorOperator> = Box::new(VecRowsOp::new(base, arity));
        for &(kind, col, lo, width, rot) in &stages {
            if kind == 0 {
                let pred = RangePred::between(lo, lo + width);
                t = Box::new(FilterOp::new(t, move |row: &Row| {
                    row[col].as_int().is_some_and(|x| pred.matches(x))
                }));
                v = Box::new(VecFilter::new(v, col, pred));
            } else {
                // A rotation keeps the arity at 3 so later stage columns
                // stay valid whatever order the stages drew.
                let indices: Vec<usize> = (0..arity).map(|i| (i + rot) % arity).collect();
                t = Box::new(ProjectOp::new(t, indices.clone()));
                v = Box::new(VecProject::new(v, indices));
            }
        }
        let tuple = run_to_vec(t);
        let vector = run_vector_to_vec(v);
        prop_assert_eq!(tuple, vector);
    }
}
