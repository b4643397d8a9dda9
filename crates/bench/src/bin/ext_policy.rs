//! **Extension ablation** — the §3.3 cracking optimizer.
//!
//! "It is as yet unclear, if this optimizer should work towards the
//! smallest pieces or try to retain large chunks" — so we measure. A
//! long strolling sequence runs under every [`CrackPolicy`]; the output
//! reports the two costs the policy trades against each other:
//!
//! * **work** — tuples touched by cracking plus tuples scanned inside
//!   retained chunks (the per-query evaluation cost);
//! * **index** — the number of pieces administered (the §3.2 resource
//!   management burden the optimizer exists to control).
//!
//! Shape: `always` minimizes work and maximizes pieces; `never` is the
//! flat scan baseline; the paper's `many-then-chunks` strategy lands in
//! between, capping the index while staying near `always`' work — the
//! quantified answer to the paper's open question.

use bench::secs;
use cracker_core::{CrackPolicy, PolicyCracker, RangePred};
use std::time::Instant;
use workload::strolling::{strolling_sequence, StrollMode};
use workload::{Contraction, Tapestry};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let k = 1024;
    let tapestry = Tapestry::generate(n, 1, 0xAB1A);
    let seq = strolling_sequence(
        n,
        k,
        0.005,
        Contraction::Linear,
        StrollMode::RandomWithReplacement,
        0x11,
    );

    let policies = [
        CrackPolicy::Always,
        CrackPolicy::Never,
        CrackPolicy::FixedGranule { granule: 1_024 },
        CrackPolicy::ManyThenChunks {
            switch_at_pieces: 128,
            late_granule: n / 256,
        },
        CrackPolicy::PieceBudget { limit: 128 },
    ];

    println!("# Cracking-optimizer ablation (N={n}, k={k} strolling queries @0.5%)");
    println!("# policy\ttouched\tedge_scanned\tmoved\tpieces\ttotal(s)\tlast_quarter(s)");
    for policy in policies {
        let mut col = PolicyCracker::new(tapestry.column(0).to_vec(), policy);
        let start = Instant::now();
        let mut last_quarter = 0.0;
        for (i, w) in seq.iter().enumerate() {
            let q0 = Instant::now();
            col.select(RangePred::half_open(w.lo, w.hi));
            if i >= k * 3 / 4 {
                last_quarter += secs(q0.elapsed());
            }
        }
        let total = secs(start.elapsed());
        let s = col.column().stats();
        println!(
            "{}\t{}\t{}\t{}\t{}\t{total:.4}\t{last_quarter:.4}",
            policy.label(),
            s.tuples_touched,
            s.edge_scanned,
            s.tuples_moved,
            col.column().piece_count()
        );
        col.column().validate().expect("invariants hold");
    }
    println!("# Shape checks: `always` = least work / most pieces; `never` = k full scans;");
    println!("# `many-then-chunks` and `piece-budget` cap the index near their thresholds");
    println!("# while the steady-state (last-quarter) cost stays close to `always`.");
}
