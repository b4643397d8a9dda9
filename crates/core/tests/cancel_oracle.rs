//! Cancellation never tears state and never changes later answers — on
//! one shard and on several.
//!
//! The cooperative guard may fail at any poll: between predicates of a
//! batch and, inside each shard's cold select, between the two crack
//! steps of one two-sided predicate. Wherever it fires, the contract of
//! `ROBUSTNESS.md` must hold:
//!
//! 1. the piece map still validates (every recorded boundary is true of
//!    the value array — `CrackerIndex::validate` subsumes
//!    `check_pieces`),
//! 2. every *completed* predicate's answer matches the naive oracle,
//! 3. abandoned predicates left their output buffers untouched, and
//! 4. re-running the whole batch afterwards, unguarded, returns exactly
//!    the oracle answers — the cancelled query cost itself its answer,
//!    never anybody else's.
//!
//! The proptest drives the poll-failure point through the whole range of
//! interesting positions, so the guard dies at the batch boundary, at the
//! crack-step boundary, and nowhere at all, across both shard counts.

use cracker_core::{ConcurrencyMode, ConcurrentColumn, CrackerConfig, RangePred};
use proptest::collection::vec;
use proptest::prelude::*;

fn oracle(orig: &[i64], pred: &RangePred<i64>) -> Vec<u32> {
    let mut v: Vec<u32> = orig
        .iter()
        .enumerate()
        .filter(|(_, &x)| pred.matches(x))
        .map(|(i, _)| i as u32)
        .collect();
    v.sort_unstable();
    v
}

fn modes() -> [ConcurrencyMode; 2] {
    [ConcurrencyMode::default(), ConcurrencyMode { shards: 4 }]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_cancel_anywhere_is_tear_free_in_both_modes(
        orig in vec(-400i64..400, 8..300),
        queries in vec((-420i64..420, 1i64..90), 2..10),
        cancel_at in 0usize..48,
    ) {
        let preds: Vec<RangePred<i64>> = queries
            .iter()
            .map(|&(lo, w)| RangePred::between(lo, lo + w))
            .collect();
        for mode in modes() {
            let col = ConcurrentColumn::build(orig.clone(), CrackerConfig::default(), mode);
            // Warm the column a little so guarded queries hit real piece
            // maps, not only virgin three-way cracks.
            col.count(preds[0]);

            let polls = std::cell::Cell::new(0usize);
            let guard = || {
                polls.set(polls.get() + 1);
                polls.get() <= cancel_at
            };
            let mut outs: Vec<Vec<u32>> = preds.iter().map(|_| Vec::new()).collect();
            let done = col.select_oids_batch_guarded(&preds, &mut outs, &guard);

            prop_assert!(done <= preds.len());
            col.validate().map_err(TestCaseError::fail)?;
            for (i, out) in outs.iter().enumerate() {
                if i < done {
                    let mut got = out.clone();
                    got.sort_unstable();
                    prop_assert_eq!(
                        got,
                        oracle(&orig, &preds[i]),
                        "completed pred {} under {:?}",
                        i,
                        mode
                    );
                } else {
                    prop_assert!(
                        out.is_empty(),
                        "abandoned pred {} wrote output under {:?}",
                        i,
                        mode
                    );
                }
            }

            // Whatever partial cracking the cancelled run left behind,
            // later unguarded queries see exactly the oracle answers.
            for pred in &preds {
                let mut got = col.select_oids(*pred);
                got.sort_unstable();
                prop_assert_eq!(got, oracle(&orig, pred), "post-cancel {:?}", mode);
            }
            col.validate().map_err(TestCaseError::fail)?;
        }
    }
}
