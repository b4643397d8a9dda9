//! Integration across the extension subsystems: stochastic cracking,
//! the SQL surface and the P2P overlay all answering the *same* workload
//! over the *same* data, agreeing with each other and with a naive
//! oracle.

use dbcracker::cracker_core::stochastic::{StochasticCracker, StochasticPolicy};
use dbcracker::p2p::{Network, NodeId, P2pConfig};
use dbcracker::prelude::*;
use dbcracker::sql::SqlSession;
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

    // The two single-node answer paths.
    let mut plain = CrackerColumn::new(vals.clone());
    let mut stochastic = StochasticCracker::new(vals.clone(), StochasticPolicy::DD1R, 3);

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
fn float_columns_crack_stochastically() {
    // The stochastic cracker is generic over CrackValue; exercise it with
    // the float wrapper the sensor workloads use.
    use dbcracker::cracker_core::value_trait::OrdF64;

    let readings: Vec<OrdF64> = (0..2_000)
        .map(|i| OrdF64::new(((i * 7919) % 2_000) as f64 / 10.0))
        .collect();
    let mut st = StochasticCracker::new(readings.clone(), StochasticPolicy::DD1R, 4);
    let pred = RangePred::between(OrdF64::new(25.0), OrdF64::new(75.0));
    let want = readings.iter().filter(|&&v| pred.matches(v)).count();
    assert_eq!(st.count(pred), want);
    st.column().validate().unwrap();
}
