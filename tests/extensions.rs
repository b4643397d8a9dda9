//! Integration across the extension subsystems: stochastic cracking,
//! sideways maps, the paged store, the policy optimizer, the SQL
//! surface and the P2P overlay all answering the *same* workload over
//! the *same* data, agreeing with each other and with a naive oracle.

use dbcracker::cracker_core::sideways::CrackerMap;
use dbcracker::cracker_core::stochastic::{StochasticCracker, StochasticPolicy};
use dbcracker::cracker_core::{CrackPolicy, PagedCracker, PolicyCracker};
use dbcracker::p2p::{Network, NodeId, P2pConfig};
use dbcracker::prelude::*;
use dbcracker::sql::SqlSession;
use dbcracker::storage::{BufferPool, MemDisk};
use workload::sequential::{adversarial_sequence, Adversary};

const N: usize = 20_000;

fn data() -> Vec<i64> {
    Tapestry::generate(N, 1, 0xE57).column(0).to_vec()
}

fn oracle(vals: &[i64], lo: i64, hi: i64) -> usize {
    vals.iter().filter(|&&v| (lo..hi).contains(&v)).count()
}

#[test]
fn every_engine_agrees_on_an_adversarial_sweep() {
    let vals = data();
    let windows = adversarial_sequence(N, 25, Adversary::SequentialAsc);

    // The five single-node answer paths.
    let mut plain = CrackerColumn::new(vals.clone());
    let mut stochastic = StochasticCracker::new(vals.clone(), StochasticPolicy::DD1R, 3);
    let mut policy = PolicyCracker::new(
        vals.clone(),
        CrackPolicy::ManyThenChunks {
            switch_at_pieces: 16,
            late_granule: 4_096,
        },
    );
    let mut map = CrackerMap::new(vals.clone(), vals.clone());
    let mut pool = BufferPool::new(MemDisk::new(), 8);
    let mut paged = PagedCracker::create(&mut pool, &vals).unwrap();

    // The SQL surface over the same column.
    let mut session = SqlSession::new();
    session
        .load_table("t", vec![("a".into(), vals.clone())])
        .unwrap();

    // The distributed overlay (tapestry values are the permutation
    // 1..=N).
    let mut net = Network::new(4, &vals, 1, N as i64 + 1, P2pConfig::default());

    for w in &windows {
        let want = oracle(&vals, w.lo, w.hi);
        assert_eq!(plain.count(w.to_pred()), want, "plain [{},{})", w.lo, w.hi);
        assert_eq!(stochastic.count(w.to_pred()), want, "stochastic");
        assert_eq!(policy.count(w.to_pred()), want, "policy");
        assert_eq!(map.select(w.to_pred()).len(), want, "sideways");
        assert_eq!(paged.count(&mut pool, w.to_pred()).unwrap(), want, "paged");
        let out = session
            .execute_one(&format!(
                "select count(*) from t where a >= {} and a < {}",
                w.lo, w.hi
            ))
            .unwrap();
        assert_eq!(out.rows().unwrap()[0][0] as usize, want, "sql");
        let trace = net.query(NodeId(0), w.lo, w.hi);
        assert_eq!(trace.result as usize, want, "p2p");
    }

    // Structural invariants across the board.
    plain.validate().unwrap();
    stochastic.column().validate().unwrap();
    policy.column().validate().unwrap();
    map.validate().unwrap();
    assert_eq!(paged.validate(&mut pool).unwrap(), Ok(()));
    net.validate().unwrap();
}

#[test]
fn stochastic_beats_plain_on_the_sweep_but_not_on_strolling() {
    let vals = data();
    let sweep = adversarial_sequence(N, 64, Adversary::SequentialAsc);
    let stroll = workload::strolling::strolling_sequence(
        N,
        64,
        0.01,
        Contraction::Linear,
        workload::strolling::StrollMode::RandomWithReplacement,
        9,
    );
    let run = |windows: &[Window], policy: StochasticPolicy| {
        let mut c = StochasticCracker::new(vals.clone(), policy, 5);
        for w in windows {
            c.select(w.to_pred());
        }
        c.total_touched()
    };
    let sweep_vanilla = run(&sweep, StochasticPolicy::Vanilla);
    let sweep_ddr = run(&sweep, StochasticPolicy::DDR { floor: 512 });
    assert!(
        sweep_ddr * 3 < sweep_vanilla,
        "DDR must dominate on the sweep ({sweep_ddr} !< {sweep_vanilla}/3)"
    );
    let stroll_vanilla = run(&stroll, StochasticPolicy::Vanilla);
    let stroll_ddr = run(&stroll, StochasticPolicy::DDR { floor: 512 });
    assert!(
        stroll_ddr < stroll_vanilla * 2,
        "the stochastic insurance premium stays small on random workloads"
    );
}

#[test]
fn sideways_map_and_sql_projection_return_the_same_tuples() {
    let vals = data();
    let payload: Vec<i64> = vals.iter().map(|v| v * 7).collect();
    let mut map = CrackerMap::new(vals.clone(), payload.clone());
    let mut session = SqlSession::new();
    session
        .load_table("t", vec![("a".into(), vals.clone()), ("b".into(), payload)])
        .unwrap();
    for (lo, hi) in [(100, 900), (5_000, 5_100), (1, 20_001)] {
        let r = map.select(RangePred::half_open(lo, hi));
        let mut from_map: Vec<i64> = map.project(r).to_vec();
        from_map.sort_unstable();
        let out = session
            .execute_one(&format!("select b from t where a >= {lo} and a < {hi}"))
            .unwrap();
        let mut from_sql: Vec<i64> = out.rows().unwrap().iter().map(|r| r[0]).collect();
        from_sql.sort_unstable();
        assert_eq!(from_map, from_sql, "[{lo},{hi})");
    }
}

#[test]
fn paged_cracker_and_granule_sim_tell_the_same_story() {
    // The §2.2 simulation predicts the write overhead fades within a few
    // steps; the physical paged cracker must show the same decay in
    // actual page writes.
    let vals = data();
    let mut pool = BufferPool::new(MemDisk::new(), 64);
    let mut cracker = PagedCracker::create(&mut pool, &vals).unwrap();
    pool.flush().unwrap();
    let seq = workload::homerun::homerun_sequence(N, 10, 0.05, Contraction::Linear, 4);
    let mut per_step_writes = Vec::new();
    for w in &seq {
        let before = pool.io_stats().writes;
        cracker.count(&mut pool, w.to_pred()).unwrap();
        pool.flush().unwrap();
        per_step_writes.push(pool.io_stats().writes - before);
    }
    let first = per_step_writes[0];
    let last = per_step_writes[per_step_writes.len() - 1];
    assert!(
        last * 4 <= first.max(4),
        "write overhead must collapse across the homerun \
         (first {first}, last {last}, all {per_step_writes:?})"
    );
}

#[test]
fn policy_budget_composes_with_sql_volume() {
    // A piece-budget cracker behind heavy SQL traffic keeps its index
    // bounded while staying correct — the end-to-end version of the
    // §3.2 resource-management story.
    let vals = data();
    let mut col = PolicyCracker::new(vals.clone(), CrackPolicy::PieceBudget { limit: 32 });
    for w in adversarial_sequence(N, 200, Adversary::ZoomOutAlt) {
        assert_eq!(col.count(w.to_pred()), oracle(&vals, w.lo, w.hi));
    }
    assert!(col.column().piece_count() <= 34);
    col.column().validate().unwrap();
}
