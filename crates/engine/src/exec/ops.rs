//! Leaf and unary operators: scan, filter, project, limit, union — plus
//! the Ξ-tap that piggybacks cracking onto a filter.

use super::{Operator, Row};
use crate::table::Table;
use std::sync::Arc;
use storage::Atom;

/// Full-table scan over an n-ary table, emitting rows in OID order with
/// the surrogate prepended as column 0 (MonetDB-style: every derived
/// result can trace lineage to base tuples).
pub struct TableScanOp {
    columns: Vec<Arc<Vec<i64>>>,
    len: usize,
    cursor: usize,
    with_oid: bool,
}

impl TableScanOp {
    /// Scan emitting `[oid, col0, col1, ...]` rows.
    pub fn new(table: &Table) -> Self {
        TableScanOp {
            len: table.len(),
            columns: table.columns().to_vec(),
            cursor: 0,
            with_oid: true,
        }
    }

    /// Scan emitting only the attribute columns (no OID column).
    pub fn without_oid(table: &Table) -> Self {
        let mut s = Self::new(table);
        s.with_oid = false;
        s
    }
}

impl Operator for TableScanOp {
    fn next(&mut self) -> Option<Row> {
        if self.cursor >= self.len {
            return None;
        }
        let pos = self.cursor;
        self.cursor += 1;
        let mut row = Vec::with_capacity(self.columns.len() + 1);
        if self.with_oid {
            row.push(Atom::Oid(pos as u64));
        }
        for col in &self.columns {
            row.push(Atom::Int(col[pos]));
        }
        Some(row)
    }

    fn arity(&self) -> usize {
        self.columns.len() + usize::from(self.with_oid)
    }
}

/// Filter: forwards rows satisfying a predicate.
pub struct FilterOp {
    input: Box<dyn Operator>,
    pred: Box<dyn FnMut(&Row) -> bool>,
}

impl FilterOp {
    /// Wrap `input` with a row predicate.
    pub fn new(input: Box<dyn Operator>, pred: impl FnMut(&Row) -> bool + 'static) -> Self {
        FilterOp {
            input,
            pred: Box::new(pred),
        }
    }
}

impl Operator for FilterOp {
    fn next(&mut self) -> Option<Row> {
        loop {
            let row = self.input.next()?;
            if (self.pred)(&row) {
                return Some(row);
            }
        }
    }

    fn arity(&self) -> usize {
        self.input.arity()
    }
}

/// The Ξ-tap: a filter that *keeps* its rejects.
///
/// §3.4.1: "The Ξ-cracker can be put in front of a filter node to write
/// unwanted tuples into a separated piece. The tuples reaching the top of
/// the operator tree are stored in their own piece. Taken together, the
/// pieces can be used to replace the original tables." The tap forwards
/// qualifying rows unchanged and appends the non-qualifying ones to a
/// reject buffer the caller can drain into a piece afterwards.
pub struct XiTapOp {
    input: Box<dyn Operator>,
    pred: Box<dyn FnMut(&Row) -> bool>,
    rejects: Vec<Row>,
}

impl XiTapOp {
    /// Wrap `input`, splitting rows by `pred`.
    pub fn new(input: Box<dyn Operator>, pred: impl FnMut(&Row) -> bool + 'static) -> Self {
        XiTapOp {
            input,
            pred: Box::new(pred),
            rejects: Vec::new(),
        }
    }

    /// The non-qualifying piece gathered so far (complete once the
    /// operator is exhausted).
    pub fn rejects(&self) -> &[Row] {
        &self.rejects
    }

    /// Take ownership of the reject piece.
    pub fn take_rejects(&mut self) -> Vec<Row> {
        std::mem::take(&mut self.rejects)
    }
}

impl Operator for XiTapOp {
    fn next(&mut self) -> Option<Row> {
        loop {
            let row = self.input.next()?;
            if (self.pred)(&row) {
                return Some(row);
            }
            self.rejects.push(row);
        }
    }

    fn arity(&self) -> usize {
        self.input.arity()
    }
}

/// Projection by column positions.
pub struct ProjectOp {
    input: Box<dyn Operator>,
    indices: Vec<usize>,
}

impl ProjectOp {
    /// Keep only the given input columns, in the given order.
    pub fn new(input: Box<dyn Operator>, indices: Vec<usize>) -> Self {
        ProjectOp { input, indices }
    }
}

impl Operator for ProjectOp {
    fn next(&mut self) -> Option<Row> {
        let row = self.input.next()?;
        Some(self.indices.iter().map(|&i| row[i].clone()).collect())
    }

    fn arity(&self) -> usize {
        self.indices.len()
    }
}

/// Limit: forwards at most `n` rows.
pub struct LimitOp {
    input: Box<dyn Operator>,
    remaining: usize,
}

impl LimitOp {
    /// Forward at most `n` rows from `input`.
    pub fn new(input: Box<dyn Operator>, n: usize) -> Self {
        LimitOp {
            input,
            remaining: n,
        }
    }
}

impl Operator for LimitOp {
    fn next(&mut self) -> Option<Row> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.input.next()
    }

    fn arity(&self) -> usize {
        self.input.arity()
    }
}

/// Union-all of same-arity inputs, drained in order. This is the operator
/// that re-assembles cracked pieces into result tables ("we have to rely
/// on the DBMS capabilities to handle large union expressions", §5.1).
pub struct UnionOp {
    inputs: Vec<Box<dyn Operator>>,
    current: usize,
    arity: usize,
}

impl UnionOp {
    /// Union-all the inputs.
    ///
    /// # Panics
    /// Panics if the inputs disagree on arity or the list is empty.
    pub fn new(inputs: Vec<Box<dyn Operator>>) -> Self {
        assert!(!inputs.is_empty(), "union of nothing");
        let arity = inputs[0].arity();
        assert!(
            inputs.iter().all(|i| i.arity() == arity),
            "union inputs must share arity"
        );
        UnionOp {
            inputs,
            current: 0,
            arity,
        }
    }
}

impl Operator for UnionOp {
    fn next(&mut self) -> Option<Row> {
        while self.current < self.inputs.len() {
            if let Some(row) = self.inputs[self.current].next() {
                return Some(row);
            }
            self.current += 1;
        }
        None
    }

    fn arity(&self) -> usize {
        self.arity
    }
}

/// A leaf operator over pre-materialized rows (piece replay, tests).
pub struct RowsOp {
    rows: std::vec::IntoIter<Row>,
    arity: usize,
}

impl RowsOp {
    /// Emit the given rows.
    pub fn new(rows: Vec<Row>, arity: usize) -> Self {
        RowsOp {
            rows: rows.into_iter(),
            arity,
        }
    }
}

impl Operator for RowsOp {
    fn next(&mut self) -> Option<Row> {
        self.rows.next()
    }

    fn arity(&self) -> usize {
        self.arity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_count, run_to_vec};

    fn table() -> Table {
        Table::from_int_columns(
            "r",
            vec![("k", vec![1, 2, 3, 4]), ("a", vec![10, 20, 30, 40])],
        )
        .unwrap()
    }

    fn int_at(row: &Row, i: usize) -> i64 {
        row[i].as_int().unwrap()
    }

    #[test]
    fn scan_emits_all_rows_with_oids() {
        let rows = run_to_vec(Box::new(TableScanOp::new(&table())));
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], vec![Atom::Oid(0), Atom::Int(1), Atom::Int(10)]);
        assert_eq!(rows[3][0], Atom::Oid(3));
    }

    #[test]
    fn scan_without_oid() {
        let rows = run_to_vec(Box::new(TableScanOp::without_oid(&table())));
        assert_eq!(rows[0], vec![Atom::Int(1), Atom::Int(10)]);
    }

    #[test]
    fn filter_keeps_matching_rows_only() {
        let scan = Box::new(TableScanOp::new(&table()));
        let filter = FilterOp::new(scan, |r| int_at(r, 2) >= 30);
        let rows = run_to_vec(Box::new(filter));
        assert_eq!(rows.len(), 2);
        assert_eq!(int_at(&rows[0], 2), 30);
    }

    #[test]
    fn xi_tap_splits_into_two_pieces() {
        let scan = Box::new(TableScanOp::new(&table()));
        let mut tap = XiTapOp::new(scan, |r| int_at(r, 2) < 25);
        let mut kept = Vec::new();
        while let Some(r) = tap.next() {
            kept.push(r);
        }
        assert_eq!(kept.len(), 2);
        assert_eq!(tap.rejects().len(), 2);
        // Together the two pieces reconstruct the input (loss-less).
        let rejects = tap.take_rejects();
        assert_eq!(kept.len() + rejects.len(), 4);
        assert!(tap.rejects().is_empty());
    }

    #[test]
    fn project_reorders_columns() {
        let scan = Box::new(TableScanOp::new(&table()));
        let proj = ProjectOp::new(scan, vec![2, 1]);
        let rows = run_to_vec(Box::new(proj));
        assert_eq!(rows[0], vec![Atom::Int(10), Atom::Int(1)]);
        assert_eq!(rows[0].len(), 2);
    }

    #[test]
    fn limit_truncates() {
        let scan = Box::new(TableScanOp::new(&table()));
        assert_eq!(run_count(Box::new(LimitOp::new(scan, 3))), 3);
        let scan = Box::new(TableScanOp::new(&table()));
        assert_eq!(run_count(Box::new(LimitOp::new(scan, 0))), 0);
        let scan = Box::new(TableScanOp::new(&table()));
        assert_eq!(run_count(Box::new(LimitOp::new(scan, 99))), 4);
    }

    #[test]
    fn union_concatenates_pieces() {
        let a = Box::new(TableScanOp::new(&table()));
        let b = Box::new(TableScanOp::new(&table()));
        let u = UnionOp::new(vec![a, b]);
        assert_eq!(run_count(Box::new(u)), 8);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn union_rejects_mismatched_arity() {
        let a = Box::new(TableScanOp::new(&table()));
        let b = Box::new(TableScanOp::without_oid(&table()));
        UnionOp::new(vec![a, b]);
    }

    #[test]
    fn rows_op_replays_pieces() {
        let rows = vec![vec![Atom::Int(1)], vec![Atom::Int(2)]];
        let op = RowsOp::new(rows, 1);
        assert_eq!(run_count(Box::new(op)), 2);
    }

    #[test]
    fn composed_pipeline() {
        // σ(a >= 20) then π(k) then limit 2 — a small but real tree.
        let scan = Box::new(TableScanOp::new(&table()));
        let filtered = Box::new(FilterOp::new(scan, |r| int_at(r, 2) >= 20));
        let projected = Box::new(ProjectOp::new(filtered, vec![1]));
        let limited = Box::new(LimitOp::new(projected, 2));
        let rows = run_to_vec(limited);
        assert_eq!(rows, vec![vec![Atom::Int(2)], vec![Atom::Int(3)]]);
    }
}
