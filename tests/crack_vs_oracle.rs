//! Integration: full multi-query benchmark sequences (workload crate)
//! answered by the cracking engine (engine + cracker-core) must agree
//! with a naive oracle over the tapestry data (storage-independent).

use dbcracker::cracker_core::CrackerColumn;
use dbcracker::prelude::*;
use workload::strolling::StrollMode;

fn oracle_count(column: &[i64], w: &Window) -> u64 {
    column.iter().filter(|&&v| v >= w.lo && v < w.hi).count() as u64
}

fn oracle_oids(column: &[i64], w: &Window) -> Vec<u32> {
    column
        .iter()
        .enumerate()
        .filter(|(_, &v)| v >= w.lo && v < w.hi)
        .map(|(i, _)| i as u32)
        .collect()
}

/// All MQS profiles, including the three strolling modes.
fn all_profiles() -> Vec<Profile> {
    vec![
        Profile::Homerun,
        Profile::Hiking,
        Profile::Strolling(StrollMode::Converge),
        Profile::Strolling(StrollMode::RandomWithReplacement),
        Profile::Strolling(StrollMode::RandomWithoutReplacement),
    ]
}

/// The three concurrency flavours of the cracked column, behind one
/// scenario-executor surface: plain (unlatched), one shard, sharded.
fn executors(column: &[i64]) -> Vec<(String, Box<dyn ScenarioExecutor>)> {
    let modes = [ConcurrencyMode::default(), ConcurrencyMode { shards: 8 }];
    let mut execs: Vec<(String, Box<dyn ScenarioExecutor>)> = vec![(
        "plain".to_string(),
        Box::new(CrackerColumn::new(column.to_vec())),
    )];
    for mode in modes {
        execs.push((
            format!("{mode:?}"),
            Box::new(ConcurrentColumn::build(
                column.to_vec(),
                CrackerConfig::default(),
                mode,
            )),
        ));
    }
    execs
}

fn check_profile(profile: Profile, seed: u64) {
    let mqs = Mqs {
        alpha: 2,
        n: 20_000,
        k: 40,
        sigma: 0.05,
        rho: Contraction::Exponential,
        delta: Contraction::Linear,
        profile,
    };
    let table = mqs.table(seed);
    let column = table.column(0);
    let mut crack = CrackEngine::new(column.to_vec());
    for (i, w) in mqs.sequence(seed).iter().enumerate() {
        let got = crack.run(w.to_pred(), OutputMode::Count).result_count;
        assert_eq!(
            got,
            oracle_count(column, w),
            "{} step {i}: {w:?}",
            mqs.describe()
        );
    }
    crack.column().validate().expect("invariants hold");
}

#[test]
fn homerun_sequences_agree_with_oracle() {
    for seed in 0..3 {
        check_profile(Profile::Homerun, seed);
    }
}

#[test]
fn hiking_sequences_agree_with_oracle() {
    for seed in 0..3 {
        check_profile(Profile::Hiking, seed);
    }
}

#[test]
fn strolling_sequences_agree_with_oracle() {
    for mode in [
        StrollMode::Converge,
        StrollMode::RandomWithReplacement,
        StrollMode::RandomWithoutReplacement,
    ] {
        check_profile(Profile::Strolling(mode), 7);
    }
}

#[test]
fn all_profiles_agree_with_oracle_in_all_concurrency_modes() {
    // Not just the default column path: every MQS profile replayed
    // against the plain, one-shard and sharded crackers, with full
    // OID-set comparison per query.
    for profile in all_profiles() {
        let mqs = Mqs {
            alpha: 2,
            n: 10_000,
            k: 24,
            sigma: 0.05,
            rho: Contraction::Exponential,
            delta: Contraction::Linear,
            profile,
        };
        let table = mqs.table(11);
        let column = table.column(0);
        let seq = mqs.sequence(11);
        for (mode, mut exec) in executors(column) {
            for (i, w) in seq.iter().enumerate() {
                let mut got = exec.run_select(*w);
                got.sort_unstable();
                assert_eq!(
                    got,
                    oracle_oids(column, w),
                    "{} step {i} under {mode}: {w:?}",
                    mqs.describe()
                );
            }
        }
    }
}

#[test]
fn scenario_workloads_agree_with_oracle_in_all_concurrency_modes() {
    // The three scenario-engine workloads join the MQS profiles in the
    // same sweep: replay differentially (updates included) under every
    // concurrency flavour.
    type Factory = fn(u64) -> Box<dyn Scenario<Item = Op>>;
    let make: Vec<Factory> = vec![
        |seed| Box::new(ZipfQueries::new(10_000, 2_500, 1.1, 48, seed)),
        |seed| Box::new(ShiftingHotSet::new(10_000, 64, 16, Shift::Jump, seed)),
        |seed| {
            Box::new(UpdateHeavy::new(
                Mqs::paper_default(10_000, 48, 0.05),
                3.0,
                6,
                seed,
            ))
        },
    ];
    for factory in make {
        let probe = factory(21);
        for (mode, mut exec) in executors(probe.base()) {
            let mut scenario = factory(21);
            ScenarioRunner::run_differential(scenario.as_mut(), exec.as_mut())
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
        }
    }
}

#[test]
fn all_three_engines_agree_on_a_long_mixed_sequence() {
    let mqs = Mqs::paper_default(10_000, 64, 0.05);
    let table = mqs.table(3);
    let column = table.column(0);
    let mut scan = ScanEngine::new(column.to_vec());
    let mut sort = SortEngine::new(column.to_vec());
    let mut crack = CrackEngine::new(column.to_vec());
    for w in mqs.sequence(3) {
        let a = scan.run(w.to_pred(), OutputMode::Count).result_count;
        let b = sort.run(w.to_pred(), OutputMode::Count).result_count;
        let c = crack.run(w.to_pred(), OutputMode::Count).result_count;
        assert_eq!(a, b);
        assert_eq!(a, c);
    }
}

#[test]
fn cracking_reads_decay_while_scans_stay_flat() {
    // The Figure 10 mechanism, asserted in counters rather than seconds.
    let n = 50_000;
    let t = Tapestry::generate(n, 1, 99);
    let seq = homerun_sequence(n, 32, 0.05, Contraction::Linear, 5);
    let mut crack = CrackEngine::new(t.column(0).to_vec());
    let mut scan = ScanEngine::new(t.column(0).to_vec());
    let mut crack_first = 0;
    let mut crack_last = 0;
    for (i, w) in seq.iter().enumerate() {
        let c = crack.run(w.to_pred(), OutputMode::Count).tuples_read;
        let s = scan.run(w.to_pred(), OutputMode::Count).tuples_read;
        assert_eq!(s, n as u64, "scans never improve");
        if i == 0 {
            crack_first = c;
        }
        if i == seq.len() - 1 {
            crack_last = c;
        }
    }
    assert_eq!(crack_first, n as u64, "first query pays the full touch");
    // The last crack partitions only the piece left by the previous
    // (slightly wider) window — a small fraction of the table.
    assert!(
        crack_last < n as u64 / 10,
        "late homerun queries touch a small fraction: {crack_last}"
    );
}
