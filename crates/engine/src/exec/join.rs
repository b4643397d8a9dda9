//! Join operators: hash join and nested-loop join.
//!
//! Figure 9's lesson is that the *choice* between these matters enormously
//! on long join chains: "the join-optimizer currently deployed (too)
//! quickly reaches its limitations and falls back to a default solution.
//! The effect is an expensive nested-loop join" (§5.1). Both physical
//! operators are provided; [`crate::chain`] drives them through chains of
//! up to 128 joins.

use super::{Operator, Row};
use std::collections::HashMap;
use storage::Atom;

/// Equality hash join: builds on the left input, probes with the right.
/// Output rows are `left ++ right`.
///
/// Build rows are **moved once** into an arena and indexed by row
/// number; the key `Atom` is cloned once per *distinct* key (not per
/// build row), and the pending-match buffer holds arena indices and is
/// reused across probe rows. Output rows are materialized only when
/// actually emitted.
pub struct HashJoinOp {
    /// Build-side rows, owned exactly once.
    arena: Vec<Row>,
    /// Key → arena row numbers.
    index: HashMap<Atom, Vec<u32>>,
    right: Box<dyn Operator>,
    right_key: usize,
    /// Arena indices still to emit for the current probe row; capacity
    /// persists across probes.
    pending: Vec<u32>,
    /// The probe row the pending indices join against.
    probe: Row,
    arity: usize,
}

impl HashJoinOp {
    /// Join `left.left_key == right.right_key`, materializing the left
    /// side into a hash table.
    pub fn new(
        mut left: Box<dyn Operator>,
        left_key: usize,
        right: Box<dyn Operator>,
        right_key: usize,
    ) -> Self {
        let arity = left.arity() + right.arity();
        let mut arena: Vec<Row> = Vec::new();
        let mut index: HashMap<Atom, Vec<u32>> = HashMap::new();
        while let Some(row) = left.next() {
            let i = arena.len() as u32;
            match index.get_mut(&row[left_key]) {
                Some(list) => list.push(i),
                None => {
                    // lint: allow(per-tuple-alloc) — one key clone + one Vec per distinct key, not per row
                    index.insert(row[left_key].clone(), vec![i]);
                }
            }
            arena.push(row);
        }
        HashJoinOp {
            arena,
            index,
            right,
            right_key,
            pending: Vec::new(),
            probe: Row::new(),
            arity,
        }
    }
}

impl Operator for HashJoinOp {
    fn next(&mut self) -> Option<Row> {
        loop {
            if let Some(i) = self.pending.pop() {
                // lint: allow(per-tuple-alloc) — materializing the emitted output row (owned by contract)
                let mut row = self.arena[i as usize].clone();
                // lint: allow(per-tuple-alloc) — same emitted row's right half
                row.extend(self.probe.iter().cloned());
                return Some(row);
            }
            self.probe = self.right.next()?;
            if let Some(matches) = self.index.get(&self.probe[self.right_key]) {
                self.pending.extend_from_slice(matches);
            }
        }
    }

    fn arity(&self) -> usize {
        self.arity
    }
}

/// Nested-loop equality join: the "default solution" a resource-exhausted
/// optimizer degrades to. Materializes the left side and re-scans it for
/// every right row — `O(|L| · |R|)`.
pub struct NestedLoopJoinOp {
    left_rows: Vec<Row>,
    left_key: usize,
    right: Box<dyn Operator>,
    right_key: usize,
    current_right: Option<Row>,
    left_cursor: usize,
    arity: usize,
    /// Tuple comparisons performed (exposed so experiments can report the
    /// quadratic blow-up).
    pub comparisons: u64,
}

impl NestedLoopJoinOp {
    /// Join `left.left_key == right.right_key` by exhaustive comparison.
    pub fn new(
        mut left: Box<dyn Operator>,
        left_key: usize,
        right: Box<dyn Operator>,
        right_key: usize,
    ) -> Self {
        let arity = left.arity() + right.arity();
        let mut left_rows = Vec::new();
        while let Some(row) = left.next() {
            left_rows.push(row);
        }
        NestedLoopJoinOp {
            left_rows,
            left_key,
            right,
            right_key,
            current_right: None,
            left_cursor: 0,
            arity,
            comparisons: 0,
        }
    }
}

impl Operator for NestedLoopJoinOp {
    fn next(&mut self) -> Option<Row> {
        loop {
            if self.current_right.is_none() {
                self.current_right = Some(self.right.next()?);
                self.left_cursor = 0;
            }
            // lint: allow(unwrap) — assigned Some() two lines up when None
            let probe = self.current_right.as_ref().expect("just set");
            while self.left_cursor < self.left_rows.len() {
                let l = &self.left_rows[self.left_cursor];
                self.left_cursor += 1;
                self.comparisons += 1;
                if l[self.left_key] == probe[self.right_key] {
                    // lint: allow(per-tuple-alloc) — tuple reference path; emitted rows are owned by contract
                    let mut row = l.clone();
                    // lint: allow(per-tuple-alloc) — same emitted row's right half
                    row.extend(probe.iter().cloned());
                    return Some(row);
                }
            }
            self.current_right = None;
        }
    }

    fn arity(&self) -> usize {
        self.arity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ops::RowsOp;
    use crate::exec::run_to_vec;

    fn rows(vals: &[i64]) -> Box<dyn Operator> {
        Box::new(RowsOp::new(
            vals.iter().map(|&v| vec![Atom::Int(v)]).collect(),
            1,
        ))
    }

    fn sorted_pairs(rows: Vec<Row>) -> Vec<(i64, i64)> {
        let mut out: Vec<(i64, i64)> = rows
            .into_iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn hash_join_finds_all_matches() {
        let j = HashJoinOp::new(rows(&[1, 2, 2, 3]), 0, rows(&[2, 3, 4]), 0);
        let got = sorted_pairs(run_to_vec(Box::new(j)));
        assert_eq!(got, vec![(2, 2), (2, 2), (3, 3)]);
    }

    #[test]
    fn nested_loop_join_agrees_with_hash_join() {
        let l = [5i64, 1, 2, 2, 9];
        let r = [2i64, 9, 9, 7];
        let h = HashJoinOp::new(rows(&l), 0, rows(&r), 0);
        let n = NestedLoopJoinOp::new(rows(&l), 0, rows(&r), 0);
        assert_eq!(
            sorted_pairs(run_to_vec(Box::new(h))),
            sorted_pairs(run_to_vec(Box::new(n)))
        );
    }

    #[test]
    fn nested_loop_comparison_count_is_quadratic() {
        let mut j = NestedLoopJoinOp::new(rows(&[1, 2, 3, 4]), 0, rows(&[5, 6, 7]), 0);
        while j.next().is_some() {}
        assert_eq!(j.comparisons, 12, "4 x 3 exhaustive comparisons");
    }

    #[test]
    fn joins_on_empty_inputs() {
        let h = HashJoinOp::new(rows(&[]), 0, rows(&[1]), 0);
        assert!(run_to_vec(Box::new(h)).is_empty());
        let h = HashJoinOp::new(rows(&[1]), 0, rows(&[]), 0);
        assert!(run_to_vec(Box::new(h)).is_empty());
    }

    #[test]
    fn join_output_concatenates_columns() {
        let left = Box::new(RowsOp::new(vec![vec![Atom::Int(1), Atom::Oid(10)]], 2));
        let right = Box::new(RowsOp::new(vec![vec![Atom::Int(1), Atom::Oid(20)]], 2));
        let mut j = HashJoinOp::new(left, 0, right, 0);
        assert_eq!(j.arity(), 4);
        let row = j.next().unwrap();
        assert_eq!(
            row,
            vec![Atom::Int(1), Atom::Oid(10), Atom::Int(1), Atom::Oid(20)]
        );
    }
}
