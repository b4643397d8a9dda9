//! **Figure 9** — "Linear join experiment": response time of k-way linear
//! join chains, k up to 128, over a table of random integer pairs.
//!
//! The paper observed three regimes: MonetDB handles long chains
//! efficiently (linear, binary-table engine); traditional engines' join
//! optimizers "quickly reach their limitations and fall back to a default
//! solution — an expensive nested-loop join"; or they break outright,
//! "running out of optimizer resource space".
//!
//! Substitution note (as in `engine::profile`, no foreign engines are
//! shipped): all three regimes run on this library's
//! own executor — a hash-join chain (the MonetDB-like line), a budgeted
//! optimizer that degrades to nested loops beyond 12 joins (the
//! traditional line) and errors out beyond 96 (the breaking line). N is
//! reduced from the paper's 1M so the quadratic nested-loop regime
//! finishes; the *shape* (linear vs. explosive growth, the breaking
//! point) is the reproduced result.

use bench::secs;
use engine::chain::{permutation_chain, run_chain, ChainStrategy};
use workload::Tapestry;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let tapestry = Tapestry::generate(n, 1, 0xF169);
    // Map values 1..=N to 0..N so the permutation composes with identity
    // sources.
    let perm: Vec<i64> = tapestry.column(0).iter().map(|v| v - 1).collect();
    let ks = [2usize, 4, 8, 16, 32, 64, 96, 128];

    println!("# Figure 9 — k-way linear join, N={n} random integer pairs");
    println!("# k\thash-chain(s)\toptimizer(s)\toptimizer regime");
    for &k in &ks {
        let rels = permutation_chain(&perm, k);
        let hash = run_chain(&rels, ChainStrategy::HashChain).expect("hash chain never breaks");
        let opt = run_chain(
            &rels,
            ChainStrategy::Optimizer {
                plan_budget: 12,
                fail_cap: 96,
            },
        );
        match opt {
            Ok(r) => {
                let regime = if r.comparisons > 0 {
                    "nested-loop fallback"
                } else {
                    "hash plan"
                };
                println!(
                    "{k}\t{:.4}\t{:.4}\t{regime} (plan states {})",
                    secs(hash.elapsed),
                    secs(r.elapsed),
                    r.plan_states
                );
            }
            Err(e) => {
                println!("{k}\t{:.4}\t-\tBROKEN: {e}", secs(hash.elapsed));
            }
        }
    }
    println!("# Shape checks: hash chain grows linearly in k; the traditional profile");
    println!("# explodes once it falls back to nested loops and breaks past the cap —");
    println!("# the paper's three observed regimes.");
}
