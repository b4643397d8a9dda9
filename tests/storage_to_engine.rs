//! Integration: storage → engine → cracker. Tables built on BATs, queried
//! through the Volcano pipeline and the cracking engine, with Ψ
//! fragmentation in the loop.

use dbcracker::cracker_core::project::{psi_crack, psi_reconstruct, VerticalFragment};
use dbcracker::engine::exec::ops::{FilterOp, TableScanOp, XiTapOp};
use dbcracker::engine::exec::{run_count, run_to_vec, Operator};
use dbcracker::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn tapestry_table(n: usize) -> Table {
    let t = Tapestry::generate(n, 2, 0x7E57);
    Table::from_int_columns(
        "r",
        vec![("k", t.column(0).to_vec()), ("a", t.column(1).to_vec())],
    )
    .unwrap()
}

#[test]
fn volcano_filter_agrees_with_crack_engine() {
    let table = tapestry_table(5_000);
    let lo = 100i64;
    let hi = 600i64;
    // Volcano path: scan + filter (row 0 is the oid, column "a" is row 2).
    let scan = Box::new(TableScanOp::new(&table));
    let filter = FilterOp::new(scan, move |row| {
        let a = row[2].as_int().unwrap();
        a >= lo && a < hi
    });
    let volcano_count = run_count(Box::new(filter));
    // Cracking path.
    let mut crack = CrackEngine::new(table.ints("a").unwrap().to_vec());
    let crack_count = crack
        .run(RangePred::half_open(lo, hi), OutputMode::Count)
        .result_count;
    assert_eq!(volcano_count as u64, crack_count);
}

#[test]
fn xi_tap_pieces_replace_the_original_table() {
    // §3.4.1: the Ξ-tap's kept + rejected pieces together replace R.
    let table = tapestry_table(2_000);
    let scan = Box::new(TableScanOp::new(&table));
    let mut tap = XiTapOp::new(scan, |row| row[2].as_int().unwrap() < 500);
    let mut kept = 0usize;
    while tap.next().is_some() {
        kept += 1;
    }
    let rejects = tap.take_rejects();
    assert_eq!(kept + rejects.len(), table.len());
    assert!(rejects.iter().all(|r| r[2].as_int().unwrap() >= 500));
}

#[test]
fn psi_fragments_round_trip_through_engine_tables() {
    let table = tapestry_table(500);
    let mut cols = BTreeMap::new();
    for name in ["k", "a"] {
        cols.insert(name.to_string(), Arc::clone(table.column(name).unwrap()));
    }
    let relation = VerticalFragment::new(cols).unwrap();
    let split = psi_crack(&relation, &["a"]).unwrap();
    assert_eq!(split.projected.attrs(), vec!["a"]);
    assert_eq!(split.rest.attrs(), vec!["k"]);
    let back = psi_reconstruct(&split).unwrap();
    let tuple = back.tuple_by_oid(7).unwrap();
    assert_eq!(tuple["k"], table.row(7).unwrap()[0]);
    assert_eq!(tuple["a"], table.row(7).unwrap()[1]);
}

#[test]
fn stream_and_materialize_modes_return_the_same_rows() {
    let table = tapestry_table(1_000);
    let mut crack = CrackEngine::new(table.ints("a").unwrap().to_vec());
    let pred = RangePred::between(250, 500);
    let m = crack.run(pred, OutputMode::Materialize);
    let s = crack.run(pred, OutputMode::Stream);
    let c = crack.run(pred, OutputMode::Count);
    assert_eq!(m.result_count, s.result_count);
    assert_eq!(s.result_count, c.result_count);
    assert_eq!(m.tables_created, 1);
    assert_eq!(s.tables_created, 0);
    // Cross-check the rows via the Volcano pipeline.
    let scan = Box::new(TableScanOp::new(&table));
    let rows = run_to_vec(Box::new(FilterOp::new(scan, |row| {
        let a = row[2].as_int().unwrap();
        (250..=500).contains(&a)
    })));
    assert_eq!(rows.len() as u64, m.result_count);
}
