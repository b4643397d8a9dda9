//! Workspace smoke test: pins the facade crate's `prelude` re-export
//! surface by driving the full paper pipeline through it — tapestry
//! generation, a cracking engine fed a homerun sequence, the granule
//! simulation, and the SQL front-end — using only `dbcracker::prelude`
//! names. If a re-export is dropped or renamed, this test (not just the
//! crate-level doctest) fails.

use dbcracker::prelude::*;

#[test]
fn prelude_drives_the_full_pipeline() {
    // Workload layer: a shuffled tapestry column plus a zooming sequence.
    let n = 10_000;
    let tapestry = Tapestry::generate(n, 2, 42);
    let windows = homerun_sequence(n, 8, 0.02, Contraction::Linear, 7);
    assert_eq!(windows.len(), 8);

    // Engine layer: cracking converges; repeats become index-only.
    let mut engine = CrackEngine::new(tapestry.column(0).to_vec());
    for window in &windows {
        let stats = engine.run(window.to_pred(), OutputMode::Count);
        assert!(stats.result_count > 0, "windows always select something");
    }
    let again = engine.run(windows[7].to_pred(), OutputMode::Count);
    assert_eq!(again.tuples_read, 0, "hot range fully isolated");

    // The competing access engines answer identically.
    let pred = RangePred::between(100, 900);
    let mut scan = ScanEngine::new(tapestry.column(0).to_vec());
    let mut sort = SortEngine::new(tapestry.column(0).to_vec());
    assert_eq!(
        scan.run(pred, OutputMode::Count).result_count,
        sort.run(pred, OutputMode::Count).result_count,
    );
    assert_eq!(
        scan.run(pred, OutputMode::Count).result_count,
        engine.run(pred, OutputMode::Count).result_count,
    );

    // Concurrency layer: the latched column answers like the
    // single-threaded engines with one shard and with several.
    let shared = ConcurrentColumn::new(tapestry.column(0).to_vec(), 1);
    let sharded = ConcurrentColumn::new(tapestry.column(0).to_vec(), 8);
    assert_eq!(shared.count(pred), sharded.count(pred));
    let concurrent = ConcurrentColumn::build(
        tapestry.column(0).to_vec(),
        CrackerConfig::default(),
        ConcurrencyMode { shards: 4 },
    );
    assert_eq!(concurrent.count(pred), shared.count(pred));
    concurrent.validate().expect("sharded invariants hold");

    // Simulation layer: the §2.2 granule model runs and reports costs.
    let costs = GranuleSim::new(1_000, 0.1, 3).run(5);
    assert_eq!(costs.len(), 5);
    assert!(costs[0].io() > 0);

    // SQL layer: load a table and run a one-liner through the front-end.
    let mut session = SqlSession::new();
    session
        .load_table(
            "r",
            vec![
                ("k".into(), tapestry.column(0).to_vec()),
                ("a".into(), tapestry.column(1).to_vec()),
            ],
        )
        .expect("fresh session accepts table r");
    let out: QueryOutput = session
        .execute_one("select count(*) from r where a >= 10 and a < 20")
        .expect("well-formed query executes");
    let rows = out.rows().expect("count(*) yields a table");
    let oracle = tapestry
        .column(1)
        .iter()
        .filter(|&&v| (10..20).contains(&v))
        .count() as i64;
    assert_eq!(rows[0][0], oracle, "SQL answer matches the oracle");
}

#[test]
fn prelude_exposes_config_and_policy_types() {
    // Construction through re-exported names only; pins the type surface.
    let config = CrackerConfig::default();
    let column = CrackerColumn::with_config((0..100).rev().collect::<Vec<i64>>(), config);
    assert_eq!(column.len(), 100);
    let _ = (
        KernelPolicy::Scalar,
        OutputMode::Materialize,
        StochasticPolicy::DD1R,
    );
    let window = Window::new(1, 10);
    assert_eq!(window.width(), 9);
}
