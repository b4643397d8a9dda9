//! The full adaptive database surface: multi-table, multi-column,
//! joins and group-bys, all cracking as a byproduct.
//!
//! ```sh
//! cargo run --release --example adaptive_database
//! ```
//!
//! Models the paper's architecture sketch (§3): the cracker sits between
//! the semantic analyzer and the optimizer, so *every* query shape —
//! range selection (Ξ), conjunction over several attributes, equi-join
//! (^), grouped aggregation (Ω) — contributes pieces. The lineage graph
//! of Figs. 5–6 is walked through in `examples/lineage_walkthrough.rs`.

use dbcracker::engine::db::AdaptiveDb;
use dbcracker::engine::query::AggFunc;
use dbcracker::prelude::*;

fn main() {
    let n = 200_000;
    let mut db = AdaptiveDb::new();

    // orders(id, customer, amount): the fact table.
    let t = Tapestry::generate(n, 2, 77);
    db.register(
        Table::from_int_columns(
            "orders",
            vec![
                ("customer", (0..n as i64).map(|i| i % 1000).collect()),
                ("amount", t.column(0).to_vec()),
                ("region", (0..n as i64).map(|i| i % 8).collect()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    // customers(id): a small dimension (ids 0..1000, permuted).
    db.register(
        Table::from_int_columns("customers", vec![("id", (0..1000).rev().collect())]).unwrap(),
    )
    .unwrap();

    // 1. Range selections crack `amount` lazily.
    let q = RangeQuery::new("orders", "amount", RangePred::between(150_000, 160_000));
    let (oids, stats) = db.select(&q, OutputMode::Stream).unwrap();
    println!(
        "Q1 range on amount: {} rows, read {} tuples (first touch cracks)",
        oids.len(),
        stats.tuples_read
    );
    let (_, stats) = db.select(&q, OutputMode::Count).unwrap();
    println!(
        "Q1 again:            read {} tuples (index-only)",
        stats.tuples_read
    );

    // 2. A conjunction cracks a second column and intersects.
    let hits = db
        .select_conjunctive(
            "orders",
            &[
                ("amount", RangePred::ge(150_000)),
                ("customer", RangePred::lt(10)),
            ],
        )
        .unwrap();
    println!(
        "Q2 conjunction amount>=150000 AND customer<10: {} rows, {} columns cracked",
        hits.len(),
        db.cracked_columns()
    );

    // 3. An equi-join runs through the ^ cracker (semijoin split).
    let pairs = db.join("orders", "customer", "customers", "id").unwrap();
    println!(
        "Q3 join orders.customer = customers.id: {} pairs",
        pairs.len()
    );

    // 4. Grouped aggregation via the Ω cracker.
    let sums = db
        .group_aggregate("orders", "region", AggFunc::Sum, Some("amount"))
        .unwrap();
    println!("Q4 sum(amount) per region:");
    for (region, total) in &sums {
        println!("    region {region}: {total}");
    }

    let s = db.total_crack_stats();
    println!(
        "\ncracker totals: {} queries, {} cracks, {} tuples touched, {} moved",
        s.queries, s.cracks, s.tuples_touched, s.tuples_moved
    );
}
