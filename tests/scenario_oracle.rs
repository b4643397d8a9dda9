//! The differential oracle harness: every scenario (skewed, shifting,
//! update-heavy) replayed in lock-step against the sorted-vector oracle,
//! across every concurrency flavour of the cracker — the plain
//! (unlatched) column, and the latched column with one shard and with
//! several — plus the engine-level runners. Result sets
//! are compared in full (sorted OID vectors, not counts) after every
//! step; the first divergence fails with the scenario, step, and mode.

use dbcracker::cracker_core::{ConcurrencyMode, ConcurrentColumn, CrackerColumn, CrackerConfig};
use dbcracker::prelude::*;
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

/// Number of scenarios in [`roster`] — pinned so a roster edit that drops
/// coverage fails loudly.
const ROSTER_LEN: usize = 4;

/// The three concurrency flavours every scenario must survive: the plain
/// column, and the latched column with one shard and with eight.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Plain,
    Sharded(usize),
}

const MODES: [Mode; 3] = [Mode::Plain, Mode::Sharded(1), Mode::Sharded(8)];

fn replay(scenario: &mut dyn Scenario<Item = Op>, mode: Mode) {
    let name = scenario.name();
    let base = scenario.base().to_vec();
    let report = match mode {
        Mode::Plain => {
            let mut col = CrackerColumn::new(base);
            let r = ScenarioRunner::run_differential(scenario, &mut col);
            col.validate().expect("plain column invariants");
            r
        }
        Mode::Sharded(shards) => {
            let mut col =
                ConcurrentColumn::build(base, CrackerConfig::default(), ConcurrencyMode { shards });
            let r = ScenarioRunner::run_differential(scenario, &mut col);
            col.validate().expect("sharded invariants");
            r
        }
    };
    let report = report.unwrap_or_else(|e| panic!("{mode:?}: {e}"));
    assert!(report.selects > 0, "{name} under {mode:?} ran no selects");
}

#[test]
fn every_scenario_matches_the_oracle_in_every_mode() {
    for mode in MODES {
        let scenarios = roster(0x0A);
        assert_eq!(scenarios.len(), ROSTER_LEN);
        for mut scenario in scenarios {
            replay(scenario.as_mut(), mode);
        }
    }
}

#[test]
fn engine_level_runners_match_the_oracle_in_both_lock_modes() {
    for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 8 }] {
        for mut scenario in roster(0x0C) {
            let mut runner =
                DbScenarioRunner::new(scenario.as_ref(), mode).expect("register scenario table");
            ScenarioRunner::run_differential(scenario.as_mut(), &mut runner)
                .unwrap_or_else(|e| panic!("adaptive-db {mode:?}: {e}"));
        }
    }
}

#[test]
fn engine_crack_engine_matches_the_oracle() {
    for mut scenario in roster(0x0D) {
        let mut engine = CrackEngine::new(scenario.base().to_vec());
        ScenarioRunner::run_differential(scenario.as_mut(), &mut engine)
            .unwrap_or_else(|e| panic!("crack-engine: {e}"));
        engine.column().validate().expect("invariants hold");
    }
}

#[test]
fn granule_sim_replays_every_scenario_deterministically() {
    for mut scenario in roster(0x0E) {
        let name = scenario.name();
        let mut sim = GranuleSim::from_scenario(scenario.as_ref(), 0);
        let costs = sim.run_scenario(scenario.as_mut());
        assert!(!costs.is_empty(), "{name}: no ops replayed");
        // Replaying the rebuilt scenario yields the identical series.
        let mut again = roster(0x0E)
            .into_iter()
            .find(|s| s.name() == name)
            .expect("scenario found by name");
        let mut sim2 = GranuleSim::from_scenario(again.as_ref(), 0);
        assert_eq!(costs, sim2.run_scenario(again.as_mut()), "{name}");
        assert!(sim.piece_count() > 1, "{name}: the sim column was cracked");
    }
}

#[test]
fn sharded_merge_preserves_scenario_answers() {
    // After an update-heavy replay, folding the staged updates into the
    // cracked shards must not change any answer.
    let mut scenario = UpdateHeavy::new(Mqs::paper_default(10_000, 48, 0.05), 6.0, 8, 0x0F);
    let col = ConcurrentColumn::new(scenario.base().to_vec(), 8);
    let mut oracle = SortedOracle::new(scenario.base());
    let mut probes: Vec<Window> = Vec::new();
    for op in &mut scenario {
        match op {
            Op::Select(w) => {
                probes.push(w);
                let mut got = col.select_oids(w.to_pred());
                got.sort_unstable();
                assert_eq!(got, oracle.select_oids(w));
            }
            Op::Insert { oid, value } => {
                col.insert(oid, value);
                oracle.insert(oid, value);
            }
            Op::Delete { oid } => {
                assert_eq!(col.delete(oid), oracle.delete(oid));
            }
        }
    }
    col.merge_pending();
    col.validate().expect("invariants hold after the merge");
    for w in probes {
        let mut got = col.select_oids(w.to_pred());
        got.sort_unstable();
        assert_eq!(
            got,
            oracle.select_oids(w),
            "post-merge [{}, {})",
            w.lo,
            w.hi
        );
    }
}

proptest! {
    /// Satellite of the PR-2 `Selection::count` invariant work: arbitrary
    /// interleaved insert/delete/select sequences over the sharded column,
    /// checked step-by-step against the sorted oracle.
    #[test]
    fn prop_sharded_interleaving_matches_oracle(
        vals in proptest::collection::vec(-60i64..60, 8..120),
        ops in proptest::collection::vec((0i64..6, -70i64..70, 1i64..40), 1..50),
        shards in 1i64..6,
    ) {
        let col = ConcurrentColumn::new(vals.clone(), shards as usize);
        let mut oracle = SortedOracle::new(&vals);
        let mut live: Vec<u32> = (0..vals.len() as u32).collect();
        let mut next_oid = vals.len() as u32;
        for (kind, a, b) in ops {
            match kind {
                // Selects dominate the mix, as in any real sequence.
                0..=2 => {
                    let w = Window::new(a, a + b);
                    let mut got = col.select_oids(w.to_pred());
                    got.sort_unstable();
                    prop_assert_eq!(got, oracle.select_oids(w), "select [{}, {})", w.lo, w.hi);
                }
                3 | 4 => {
                    let oid = next_oid;
                    next_oid += 1;
                    col.insert(oid, a);
                    oracle.insert(oid, a);
                    live.push(oid);
                }
                _ => {
                    if !live.is_empty() {
                        let victim = live.swap_remove(b as usize % live.len());
                        prop_assert_eq!(col.delete(victim), oracle.delete(victim));
                    }
                }
            }
        }
        col.validate().map_err(TestCaseError::fail)?;
        col.merge_pending();
        col.validate().map_err(TestCaseError::fail)?;
        // Final full-domain audit.
        let w = Window::new(-100, 100);
        let mut got = col.select_oids(w.to_pred());
        got.sort_unstable();
        prop_assert_eq!(got, oracle.select_oids(w));
    }
}
