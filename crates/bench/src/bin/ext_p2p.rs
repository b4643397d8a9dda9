//! **Extension experiment** — self-organization in a P2P overlay (§7).
//!
//! A tapestry table is range-striped over `M` peers. Each peer's clients
//! have an affinity region *owned by somebody else* at the start (the
//! worst static placement). Queries crack the border pieces of their
//! owners; hot pieces migrate to their dominant consumer.
//!
//! Output: per-round remote hops, transferred tuples, migrations, and
//! the locality ratio (fraction of answers served locally), with
//! migration on vs off. Shape: with migration the overlay converges to
//! locality ≈ 1.0 within a few rounds and remote traffic collapses;
//! without it, every round pays the same remote cost forever.

use p2p::{Network, NodeId, P2pConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workload::Tapestry;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let nodes = 8;
    let rounds = 32;
    let queries_per_round = 16;
    let tapestry = Tapestry::generate(n, 1, 0x9EE9);
    // Tapestry values are a permutation of 1..=N.
    let values = tapestry.column(0).to_vec();

    println!(
        "# P2P self-organization: {nodes} nodes, N={n}, {rounds} rounds x {queries_per_round} queries, \
         affinity = next node's stripe"
    );
    println!("# migration\tround\thops\ttransferred\tmigrations\tlocality");

    for (label, migrate_after) in [("off", 0u32), ("on", 3)] {
        let mut net = Network::new(
            nodes,
            &values,
            1,
            n as i64 + 1,
            P2pConfig {
                migrate_after,
                piece_budget_per_node: 512,
            },
        );
        let stripe = (n as i64 + nodes as i64 - 1) / nodes as i64;
        let mut rng = SmallRng::seed_from_u64(0x0DD);
        for round in 1..=rounds {
            let (mut hops, mut transferred, mut migrations) = (0u64, 0u64, 0u64);
            let (mut local, mut result) = (0u64, 0u64);
            for _ in 0..queries_per_round {
                let node = rng.gen_range(0..nodes);
                // This node's clients care about the NEXT node's stripe.
                let target = (node + 1) % nodes;
                let base = 1 + target as i64 * stripe;
                // Clients revisit a small set of hot windows (quantized
                // offsets), as real drill-down sessions do.
                let width = (stripe / 8).max(1);
                let slot = rng.gen_range(0..8i64);
                let lo = base + slot * width;
                let t = net.query(NodeId(node), lo, lo + width);
                hops += t.hops;
                transferred += t.transferred;
                migrations += t.migrations;
                local += t.local;
                result += t.result;
            }
            let locality = if result == 0 {
                1.0
            } else {
                local as f64 / result as f64
            };
            println!("{label}\t{round}\t{hops}\t{transferred}\t{migrations}\t{locality:.3}");
        }
        net.validate().expect("overlay invariants hold");
        let s = net.stats();
        println!(
            "# migration={label}: totals — hops {} transferred {} migrations {} \
             (moved {} tuples) cracks {} fusions {}",
            s.hops, s.transferred, s.migrations, s.migrated_tuples, s.cracks, s.fusions
        );
    }
    println!("# Shape checks: with migration on, locality climbs toward 1.0 and");
    println!("# per-round transfers collapse after the first few rounds; with it");
    println!("# off, remote traffic stays flat forever.");
}
