//! A self-organizing P2P database, watched live.
//!
//! ```sh
//! cargo run --release --example p2p_selforg
//! ```
//!
//! The paper's closing conjecture (§7): "database cracking may proof a
//! sound basis to realize self-organizing databases in a P2P
//! environment." This demo stripes a table over four peers, then lets
//! each peer's clients hammer a range that starts out on the *wrong*
//! machine. Queries crack the owners' pieces; hot pieces migrate to
//! their consumers; within a few rounds every query is answered locally.

use dbcracker::p2p::{Network, NodeId, P2pConfig};
use dbcracker::prelude::*;

fn main() {
    let n = 200_000;
    let nodes = 4;
    println!("striping a {n}-row tapestry table over {nodes} peers ...");
    let tapestry = Tapestry::generate(n, 1, 7);
    let values = tapestry.column(0).to_vec();
    let mut net = Network::new(
        nodes,
        &values,
        1,
        n as i64 + 1,
        P2pConfig {
            migrate_after: 2,
            piece_budget_per_node: 256,
        },
    );

    // Peer i's clients zoom into three hot windows inside peer
    // ((i+1) % nodes)'s stripe — the worst static placement.
    let stripe = (n as i64 + nodes as i64 - 1) / nodes as i64;
    println!(
        "{:>5}  {:>6} {:>12} {:>11} {:>9}   distribution (tuples per peer)",
        "round", "hops", "transferred", "migrations", "locality"
    );
    for round in 1..=12 {
        let (mut hops, mut transferred, mut migrations) = (0, 0, 0);
        let (mut local, mut result) = (0, 0);
        for node in 0..nodes {
            let target_base = 1 + ((node + 1) % nodes) as i64 * stripe;
            for hot in 0..3i64 {
                let lo = target_base + hot * (stripe / 4);
                let t = net.query(NodeId(node), lo, lo + stripe / 8);
                hops += t.hops;
                transferred += t.transferred;
                migrations += t.migrations;
                local += t.local;
                result += t.result;
            }
        }
        let locality = if result == 0 {
            1.0
        } else {
            local as f64 / result as f64
        };
        println!(
            "{round:>5}  {hops:>6} {transferred:>12} {migrations:>11} {locality:>9.3}   {:?}",
            net.tuple_counts()
        );
    }
    net.validate().expect("overlay invariants hold");
    let s = net.stats();
    println!(
        "\ntotals: {} queries, {} cracks, {} migrations ({} tuples moved), {} fusions",
        s.queries, s.cracks, s.migrations, s.migrated_tuples, s.fusions
    );
    println!("the overlay re-partitioned itself query-by-query: no DBA, no resharding job.");
}
