//! Property-based cross-engine fuzzing: five independent implementations
//! of range selection — full scan, sorted binary search, kernel cracking,
//! SQL-level fragment cracking, and the latched one-shard cracker —
//! must agree on every answer for arbitrary data and query sequences,
//! under arbitrary cracker configurations.

use cracker_core::{
    ConcurrencyMode, ConcurrentColumn, CrackMode, CrackerConfig, FusionPolicy, RangePred,
};
use engine::{CrackEngine, OutputMode, QueryEngine, ScanEngine, SortEngine, SqlLevelCracker};
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = CrackerConfig> {
    (
        proptest::bool::ANY,
        1usize..128,
        prop_oneof![Just(usize::MAX), (2usize..12).boxed().prop_map(|v| v)],
        0u8..3,
        prop_oneof![Just(0usize), 1usize..256],
    )
        .prop_map(|(three_way, cutoff, max_pieces, fusion, sort_below)| {
            CrackerConfig::new()
                .with_mode(if three_way {
                    CrackMode::ThreeWay
                } else {
                    CrackMode::TwoWay
                })
                .with_min_piece_size(cutoff)
                .with_max_pieces(max_pieces)
                .with_fusion(match fusion {
                    0 => FusionPolicy::SmallestPair,
                    1 => FusionPolicy::LeastRecentlyUsed,
                    _ => FusionPolicy::MostBalanced,
                })
                .with_sort_below(sort_below)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn five_engines_agree_on_arbitrary_sequences(
        vals in proptest::collection::vec(-200i64..200, 1..300),
        queries in proptest::collection::vec(
            (-220i64..220, -220i64..220, proptest::bool::ANY, proptest::bool::ANY),
            1..20
        ),
        cfg in config_strategy(),
    ) {
        let mut scan = ScanEngine::new(vals.clone());
        let mut sort = SortEngine::new(vals.clone());
        let mut crack = CrackEngine::with_config(vals.clone(), cfg);
        let mut sql = SqlLevelCracker::new(vals.clone());
        let shared = ConcurrentColumn::build(vals.clone(), cfg, ConcurrencyMode::default());
        for (a, b, inc_lo, inc_hi) in queries {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let pred = RangePred::with_bounds(Some((lo, inc_lo)), Some((hi, inc_hi)));
            let mut want = scan.result_oids(pred);
            want.sort_unstable();
            for (name, got) in [
                ("sort", sort.result_oids(pred)),
                ("crack", crack.result_oids(pred)),
                ("sql", sql.result_oids(pred)),
                ("shared", shared.select_oids(pred)),
            ] {
                let mut got = got;
                got.sort_unstable();
                prop_assert_eq!(&got, &want, "{} disagrees on [{:?}]", name, pred);
            }
            // run() counts agree with oracle too.
            let count = scan.run(pred, OutputMode::Count).result_count;
            prop_assert_eq!(count as usize, want.len());
            let count = crack.run(pred, OutputMode::Count).result_count;
            prop_assert_eq!(count as usize, want.len());
            let count = sql.run(pred, OutputMode::Count).result_count;
            prop_assert_eq!(count as usize, want.len());
        }
        crack.column().validate().map_err(TestCaseError::fail)?;
        shared.validate().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn one_sided_and_unbounded_predicates_agree(
        vals in proptest::collection::vec(-100i64..100, 1..200),
        probes in proptest::collection::vec((-120i64..120, 0u8..5), 1..15),
        cfg in config_strategy(),
    ) {
        let mut scan = ScanEngine::new(vals.clone());
        let mut crack = CrackEngine::with_config(vals, cfg);
        for (v, op) in probes {
            let pred = match op {
                0 => RangePred::lt(v),
                1 => RangePred::le(v),
                2 => RangePred::gt(v),
                3 => RangePred::ge(v),
                _ => RangePred::with_bounds(None, None),
            };
            let mut want = scan.result_oids(pred);
            want.sort_unstable();
            let mut got = crack.result_oids(pred);
            got.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn loss_lessness_survives_any_workload(
        vals in proptest::collection::vec(-50i64..50, 1..200),
        queries in proptest::collection::vec((-60i64..60, -60i64..60), 1..25),
        cfg in config_strategy(),
    ) {
        let mut crack = CrackEngine::with_config(vals.clone(), cfg);
        let mut sql = SqlLevelCracker::new(vals.clone());
        for (a, b) in queries {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            crack.run(RangePred::between(lo, hi), OutputMode::Count);
            sql.run(RangePred::between(lo, hi), OutputMode::Count);
        }
        // Every tuple is still present exactly once in both stores.
        prop_assert_eq!(crack.len(), vals.len());
        prop_assert_eq!(sql.len(), vals.len());
        let mut crack_vals: Vec<i64> = crack.column().values().to_vec();
        crack_vals.sort_unstable();
        let mut orig = vals;
        orig.sort_unstable();
        prop_assert_eq!(crack_vals, orig);
    }
}
