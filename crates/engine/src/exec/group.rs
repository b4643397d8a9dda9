//! Group-by / aggregation operator.

use super::{Operator, Row};
use crate::query::AggFunc;
use std::collections::BTreeMap;
use storage::Atom;

/// Hash (here: ordered-map) aggregation: groups on one key column and
/// applies one aggregate, emitting `(key, aggregate)` rows in key order.
pub struct GroupByOp {
    results: std::vec::IntoIter<Row>,
}

impl GroupByOp {
    /// Group `input` on column `key`, aggregating column `agg_col` with
    /// `func` (ignored for [`AggFunc::Count`]).
    pub fn new(
        mut input: Box<dyn Operator>,
        key: usize,
        func: AggFunc,
        agg_col: Option<usize>,
    ) -> Self {
        // (count, sum, min, max) running state per group.
        let mut groups: BTreeMap<Atom, (i64, i64, i64, i64)> = BTreeMap::new();
        while let Some(row) = input.next() {
            let v = agg_col.and_then(|c| row[c].as_int()).unwrap_or(0);
            let entry = groups
                // lint: allow(per-tuple-alloc) — tuple reference path; VecGroup is the block twin
                .entry(row[key].clone())
                .or_insert((0, 0, i64::MAX, i64::MIN));
            entry.0 += 1;
            entry.1 += v;
            entry.2 = entry.2.min(v);
            entry.3 = entry.3.max(v);
        }
        let results: Vec<Row> = groups
            .into_iter()
            .map(|(k, (count, sum, min, max))| {
                let agg = match func {
                    AggFunc::Count => count,
                    AggFunc::Sum => sum,
                    AggFunc::Min => min,
                    AggFunc::Max => max,
                };
                vec![k, Atom::Int(agg)]
            })
            .collect();
        GroupByOp {
            results: results.into_iter(),
        }
    }
}

impl Operator for GroupByOp {
    fn next(&mut self) -> Option<Row> {
        self.results.next()
    }

    fn arity(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ops::RowsOp;
    use crate::exec::run_to_vec;

    fn input() -> Box<dyn Operator> {
        let rows = vec![
            vec![Atom::Int(1), Atom::Int(10)],
            vec![Atom::Int(2), Atom::Int(5)],
            vec![Atom::Int(1), Atom::Int(30)],
            vec![Atom::Int(2), Atom::Int(7)],
            vec![Atom::Int(1), Atom::Int(20)],
        ];
        Box::new(RowsOp::new(rows, 2))
    }

    #[test]
    fn count_per_group() {
        let g = GroupByOp::new(input(), 0, AggFunc::Count, None);
        let rows = run_to_vec(Box::new(g));
        assert_eq!(
            rows,
            vec![
                vec![Atom::Int(1), Atom::Int(3)],
                vec![Atom::Int(2), Atom::Int(2)],
            ]
        );
    }

    #[test]
    fn sum_min_max_per_group() {
        let g = GroupByOp::new(input(), 0, AggFunc::Sum, Some(1));
        let rows = run_to_vec(Box::new(g));
        assert_eq!(rows[0], vec![Atom::Int(1), Atom::Int(60)]);
        assert_eq!(rows[1], vec![Atom::Int(2), Atom::Int(12)]);

        let g = GroupByOp::new(input(), 0, AggFunc::Min, Some(1));
        let rows = run_to_vec(Box::new(g));
        assert_eq!(rows[0], vec![Atom::Int(1), Atom::Int(10)]);

        let g = GroupByOp::new(input(), 0, AggFunc::Max, Some(1));
        let rows = run_to_vec(Box::new(g));
        assert_eq!(rows[1], vec![Atom::Int(2), Atom::Int(7)]);
    }

    #[test]
    fn empty_input_produces_no_groups() {
        let g = GroupByOp::new(Box::new(RowsOp::new(vec![], 2)), 0, AggFunc::Count, None);
        assert!(run_to_vec(Box::new(g)).is_empty());
    }

    #[test]
    fn oid_group_keys() {
        let rows = vec![
            vec![Atom::Oid(8), Atom::Int(1)],
            vec![Atom::Oid(7), Atom::Int(2)],
            vec![Atom::Oid(8), Atom::Int(3)],
        ];
        let g = GroupByOp::new(Box::new(RowsOp::new(rows, 2)), 0, AggFunc::Count, None);
        let out = run_to_vec(Box::new(g));
        assert_eq!(out[0], vec![Atom::Oid(7), Atom::Int(1)]);
        assert_eq!(out[1], vec![Atom::Oid(8), Atom::Int(2)]);
    }
}
