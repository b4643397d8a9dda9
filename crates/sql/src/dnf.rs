//! Normalization of WHERE clauses to disjunctive normal form.
//!
//! §3.1: "Without loss of generality, we assume that a query is in
//! disjunctive normal form" — this module makes that assumption true.
//! The boolean expression tree is rewritten in three steps:
//!
//! 1. **atomization** — every comparison becomes a [`NormLit`]: a range
//!    predicate over one column, an equi-join literal between two columns,
//!    or a constant;
//! 2. **negation pushdown** — `NOT` is eliminated by negating comparison
//!    operators (`≠` splits into a two-range disjunction, and so does
//!    `NOT BETWEEN`, which the parser hands over as `NOT (≥ AND ≤)`);
//! 3. **distribution** — `AND` is distributed over `OR`, with a term cap
//!    guarding against the exponential blowup the paper's introduction
//!    warns would hit "the catalog of pieces and their role in query plan
//!    generation".

use crate::ast::{CmpOp, ColumnRef, Expr, Operand};
use crate::error::{SqlError, SqlResult};
use cracker_core::RangePred;

/// Upper bound on the number of DNF terms one WHERE clause may expand to.
pub const MAX_DNF_TERMS: usize = 64;

/// A normalized literal: the atoms DNF terms are conjunctions of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NormLit {
    /// A range predicate over one column — a Ξ-cracking handle.
    Range {
        /// The filtered column.
        col: ColumnRef,
        /// The (possibly one-sided) range.
        pred: RangePred<i64>,
    },
    /// An equality between two columns — a ^-cracking handle.
    Join {
        /// Left column.
        left: ColumnRef,
        /// Right column.
        right: ColumnRef,
    },
    /// A range comparison against a positional parameter (`?`). The
    /// concrete [`RangePred`] is produced at bind time by a prepared
    /// statement; until then the literal carries the comparison shape.
    /// `op` is never [`CmpOp::Ne`] — like [`cmp_lit`], `≠` splits into a
    /// two-range disjunction during normalization.
    ParamRange {
        /// The filtered column.
        col: ColumnRef,
        /// Comparison operator (column on the left).
        op: CmpOp,
        /// Zero-based parameter index.
        param: usize,
    },
    /// A constant truth value (from literal-literal comparisons).
    Const(bool),
}

/// Internal NNF tree: negation already eliminated.
enum Nnf {
    And(Vec<Nnf>),
    Or(Vec<Nnf>),
    Lit(NormLit),
}

/// Normalize a WHERE expression to DNF: a disjunction of conjunctions of
/// [`NormLit`]s. Constant-`true` literals are dropped; terms containing a
/// constant `false` are dropped entirely; an empty outer vector therefore
/// means *unsatisfiable*, and a term with an empty literal vector means
/// *always true*.
pub fn to_dnf(expr: &Expr) -> SqlResult<Vec<Vec<NormLit>>> {
    let nnf = normalize(expr, false)?;
    let mut terms = distribute(&nnf)?;
    // Constant folding per term.
    let mut out = Vec::new();
    'terms: for term in terms.drain(..) {
        let mut lits = Vec::new();
        for lit in term {
            match lit {
                NormLit::Const(false) => continue 'terms,
                NormLit::Const(true) => {}
                other => lits.push(other),
            }
        }
        out.push(lits);
    }
    Ok(out)
}

/// Rewrite into NNF, resolving `negate` (the parity of enclosing NOTs).
fn normalize(expr: &Expr, negate: bool) -> SqlResult<Nnf> {
    match expr {
        Expr::Not(inner) => normalize(inner, !negate),
        Expr::And(l, r) => {
            let l = normalize(l, negate)?;
            let r = normalize(r, negate)?;
            // De Morgan: NOT(a AND b) = NOT a OR NOT b.
            Ok(if negate {
                Nnf::Or(vec![l, r])
            } else {
                Nnf::And(vec![l, r])
            })
        }
        Expr::Or(l, r) => {
            let l = normalize(l, negate)?;
            let r = normalize(r, negate)?;
            Ok(if negate {
                Nnf::And(vec![l, r])
            } else {
                Nnf::Or(vec![l, r])
            })
        }
        Expr::Cmp {
            left,
            op,
            right,
            span,
        } => {
            let op = if negate { op.negated() } else { *op };
            match (left, right) {
                // Constant comparison: fold.
                (Operand::Literal(l), Operand::Literal(r)) => {
                    Ok(Nnf::Lit(NormLit::Const(op.eval(*l, *r))))
                }
                // column op literal.
                (Operand::Column(c), Operand::Literal(v)) => cmp_lit(c, op, *v),
                // literal op column: mirror.
                (Operand::Literal(v), Operand::Column(c)) => cmp_lit(c, op.mirrored(), *v),
                // column op column: only equality (a join handle).
                (Operand::Column(a), Operand::Column(b)) => {
                    if op == CmpOp::Eq {
                        Ok(Nnf::Lit(NormLit::Join {
                            left: a.clone(),
                            right: b.clone(),
                        }))
                    } else {
                        Err(SqlError::unsupported(
                            format!(
                                "column-to-column comparison {} — only equi-joins \
                                 follow the paper's join paths",
                                cmp_text(op)
                            ),
                            *span,
                        ))
                    }
                }
                // column op parameter: a bind-time range handle.
                (Operand::Column(c), Operand::Param { idx }) => cmp_param(c, op, *idx),
                // parameter op column: mirror.
                (Operand::Param { idx }, Operand::Column(c)) => cmp_param(c, op.mirrored(), *idx),
                // Parameters only compare against columns: a literal or
                // parameter on the other side has no cracking handle.
                (Operand::Param { .. }, _) | (_, Operand::Param { .. }) => {
                    Err(SqlError::unsupported(
                        "a parameter placeholder must be compared against a column",
                        *span,
                    ))
                }
            }
        }
    }
}

fn cmp_text(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Ge => ">=",
        CmpOp::Gt => ">",
    }
}

/// A `column op literal` atom. `≠` splits into a two-range disjunction so
/// everything downstream is a pure range.
fn cmp_lit(col: &ColumnRef, op: CmpOp, v: i64) -> SqlResult<Nnf> {
    let pred = match op {
        CmpOp::Lt => RangePred::lt(v),
        CmpOp::Le => RangePred::le(v),
        CmpOp::Eq => RangePred::eq(v),
        CmpOp::Ge => RangePred::ge(v),
        CmpOp::Gt => RangePred::gt(v),
        CmpOp::Ne => {
            return Ok(Nnf::Or(vec![
                Nnf::Lit(NormLit::Range {
                    col: col.clone(),
                    pred: RangePred::lt(v),
                }),
                Nnf::Lit(NormLit::Range {
                    col: col.clone(),
                    pred: RangePred::gt(v),
                }),
            ]))
        }
    };
    Ok(Nnf::Lit(NormLit::Range {
        col: col.clone(),
        pred,
    }))
}

/// A `column op ?` atom. Like [`cmp_lit`], `≠` splits into a two-range
/// disjunction so bound terms stay pure ranges.
fn cmp_param(col: &ColumnRef, op: CmpOp, param: usize) -> SqlResult<Nnf> {
    if op == CmpOp::Ne {
        return Ok(Nnf::Or(vec![
            Nnf::Lit(NormLit::ParamRange {
                col: col.clone(),
                op: CmpOp::Lt,
                param,
            }),
            Nnf::Lit(NormLit::ParamRange {
                col: col.clone(),
                op: CmpOp::Gt,
                param,
            }),
        ]));
    }
    Ok(Nnf::Lit(NormLit::ParamRange {
        col: col.clone(),
        op,
        param,
    }))
}

/// Distribute AND over OR, producing the DNF term list.
fn distribute(nnf: &Nnf) -> SqlResult<Vec<Vec<NormLit>>> {
    match nnf {
        Nnf::Lit(l) => Ok(vec![vec![l.clone()]]),
        Nnf::Or(children) => {
            let mut out = Vec::new();
            for c in children {
                out.extend(distribute(c)?);
                if out.len() > MAX_DNF_TERMS {
                    return Err(SqlError::DnfExplosion {
                        terms: out.len(),
                        cap: MAX_DNF_TERMS,
                    });
                }
            }
            Ok(out)
        }
        Nnf::And(children) => {
            let mut acc: Vec<Vec<NormLit>> = vec![Vec::new()];
            for c in children {
                let terms = distribute(c)?;
                let mut next = Vec::with_capacity(acc.len() * terms.len());
                for a in &acc {
                    for t in &terms {
                        let mut merged = a.clone();
                        merged.extend(t.iter().cloned());
                        next.push(merged);
                        if next.len() > MAX_DNF_TERMS {
                            return Err(SqlError::DnfExplosion {
                                terms: next.len(),
                                cap: MAX_DNF_TERMS,
                            });
                        }
                    }
                }
                acc = next;
            }
            Ok(acc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse_one;

    /// Parse a WHERE clause and normalize it.
    fn dnf(where_clause: &str) -> SqlResult<Vec<Vec<NormLit>>> {
        let sql = format!("select * from r, s where {where_clause}");
        match parse_one(&sql).unwrap() {
            Statement::Select(s) => to_dnf(&s.filter.unwrap()),
            other => panic!("{other:?}"),
        }
    }

    /// Evaluate a DNF against a single-column binding (tests use column
    /// `a` only).
    fn eval_a(terms: &[Vec<NormLit>], v: i64) -> bool {
        terms.iter().any(|t| {
            t.iter().all(|l| match l {
                NormLit::Range { pred, .. } => pred.matches(v),
                NormLit::Const(b) => *b,
                NormLit::Join { .. } => panic!("no joins in this test"),
                NormLit::ParamRange { .. } => panic!("no parameters in this test"),
            })
        })
    }

    #[test]
    fn a_plain_conjunction_is_one_term() {
        let terms = dnf("a >= 3 and a < 9").unwrap();
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].len(), 2);
    }

    #[test]
    fn or_produces_two_terms() {
        let terms = dnf("a < 3 or a > 9").unwrap();
        assert_eq!(terms.len(), 2);
    }

    #[test]
    fn and_distributes_over_or() {
        // (a<1 OR a>9) AND (a<2 OR a>8) → 4 terms.
        let terms = dnf("(a < 1 or a > 9) and (a < 2 or a > 8)").unwrap();
        assert_eq!(terms.len(), 4);
    }

    #[test]
    fn not_pushes_into_comparisons() {
        let terms = dnf("not a < 5").unwrap();
        assert_eq!(terms.len(), 1);
        match &terms[0][0] {
            NormLit::Range { col, pred } => {
                assert_eq!(col.column, "a");
                assert_eq!(*pred, RangePred::ge(5));
            }
            other => panic!("{other:?}"),
        }
    }

    /// Strip spans so structurally equal DNFs from different source texts
    /// compare equal.
    fn shape(terms: &[Vec<NormLit>]) -> Vec<Vec<(String, RangePred<i64>)>> {
        terms
            .iter()
            .map(|t| {
                t.iter()
                    .map(|l| match l {
                        NormLit::Range { col, pred } => (col.column.clone(), *pred),
                        other => panic!("range literals only, got {other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn double_negation_cancels() {
        let a = dnf("not not a < 5").unwrap();
        let b = dnf("a < 5").unwrap();
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn de_morgan_on_conjunctions() {
        // NOT(a<3 AND a>1) = a>=3 OR a<=1.
        let terms = dnf("not (a < 3 and a > 1)").unwrap();
        assert_eq!(terms.len(), 2);
        for v in -5..10 {
            assert_eq!(eval_a(&terms, v), !(v < 3 && v > 1), "v={v}");
        }
    }

    #[test]
    fn ne_splits_into_two_ranges() {
        let terms = dnf("a <> 5").unwrap();
        assert_eq!(terms.len(), 2);
        for v in 0..10 {
            assert_eq!(eval_a(&terms, v), v != 5);
        }
    }

    #[test]
    fn not_ne_is_eq() {
        let terms = dnf("not a <> 5").unwrap();
        assert_eq!(terms.len(), 1);
        for v in 0..10 {
            assert_eq!(eval_a(&terms, v), v == 5);
        }
    }

    #[test]
    fn between_and_its_negation() {
        let terms = dnf("a between 3 and 7").unwrap();
        assert_eq!(terms.len(), 1);
        let neg = dnf("a not between 3 and 7").unwrap();
        assert_eq!(neg.len(), 2);
        let notnot = dnf("not (a not between 3 and 7)").unwrap();
        for v in 0..10 {
            assert_eq!(eval_a(&terms, v), (3..=7).contains(&v));
            assert_eq!(eval_a(&neg, v), !(3..=7).contains(&v));
            assert_eq!(eval_a(&notnot, v), (3..=7).contains(&v));
        }
    }

    #[test]
    fn constant_comparisons_fold() {
        // Always-true conjunct disappears.
        let terms = dnf("a < 5 and 1 < 2").unwrap();
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].len(), 1);
        // Always-false conjunct kills its term.
        let terms = dnf("a < 5 and 2 < 1").unwrap();
        assert!(terms.is_empty(), "unsatisfiable clause has no terms");
        // A lone tautology yields one empty (always-true) term.
        let terms = dnf("1 < 2").unwrap();
        assert_eq!(terms, vec![vec![]]);
    }

    #[test]
    fn literal_on_left_mirrors() {
        let a = dnf("5 < a").unwrap();
        let b = dnf("a > 5").unwrap();
        // Same predicate, possibly different spans; compare the preds.
        match (&a[0][0], &b[0][0]) {
            (NormLit::Range { pred: pa, .. }, NormLit::Range { pred: pb, .. }) => {
                assert_eq!(pa, pb)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equi_join_becomes_a_join_literal() {
        let terms = dnf("r.k = s.k and r.a < 5").unwrap();
        assert_eq!(terms.len(), 1);
        assert!(terms[0].iter().any(|l| matches!(l, NormLit::Join { .. })));
    }

    #[test]
    fn non_equi_column_comparison_is_unsupported() {
        let err = dnf("r.k < s.k").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { .. }));
        // ... and so is a negated equi-join (it normalizes to ≠).
        let err = dnf("not r.k = s.k").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { .. }));
    }

    #[test]
    fn parameters_normalize_like_literals() {
        // `? <= a` mirrors to `a >= ?`; NOT flips the operator.
        let terms = dnf("not ? <= a").unwrap();
        assert_eq!(terms.len(), 1);
        match &terms[0][0] {
            NormLit::ParamRange { col, op, param } => {
                assert_eq!(col.column, "a");
                assert_eq!(*op, CmpOp::Lt);
                assert_eq!(*param, 0);
            }
            other => panic!("{other:?}"),
        }
        // `a <> ?` splits into two parameter ranges, like `a <> 5` does.
        let terms = dnf("a <> ?").unwrap();
        assert_eq!(terms.len(), 2);
        assert!(terms.iter().flatten().all(|l| matches!(
            l,
            NormLit::ParamRange {
                op: CmpOp::Lt | CmpOp::Gt,
                ..
            }
        )));
        // `NOT a <> ?` folds back to equality.
        let terms = dnf("not a <> ?").unwrap();
        assert_eq!(terms.len(), 1);
        assert!(matches!(
            &terms[0][0],
            NormLit::ParamRange { op: CmpOp::Eq, .. }
        ));
    }

    #[test]
    fn parameters_against_non_columns_are_unsupported() {
        for clause in ["? < 5", "5 < ?", "? = ?"] {
            let err = dnf(clause).unwrap_err();
            assert!(matches!(err, SqlError::Unsupported { .. }), "{clause}");
        }
    }

    #[test]
    fn term_explosion_is_capped() {
        // Each conjunct doubles the term count: 2^7 = 128 > 64.
        let clause = (0..7)
            .map(|i| format!("(a < {i} or a > {})", 100 - i))
            .collect::<Vec<_>>()
            .join(" and ");
        let err = dnf(&clause).unwrap_err();
        assert!(matches!(err, SqlError::DnfExplosion { .. }));
    }

    proptest::proptest! {
        /// DNF must preserve the truth table of the original expression.
        #[test]
        fn prop_dnf_is_equivalence_preserving(
            ops in proptest::collection::vec((0u8..6, -10i64..10), 1..5),
            connectives in proptest::collection::vec(0u8..3, 0..4),
            probe in -12i64..12,
        ) {
            // Build a random clause over column `a`.
            let mut clause = String::new();
            for (i, (op, v)) in ops.iter().enumerate() {
                if i > 0 {
                    let c = connectives.get(i - 1).copied().unwrap_or(0);
                    clause.push_str(match c { 0 => " and ", 1 => " or ", _ => " and not " });
                }
                let sym = match op { 0 => "<", 1 => "<=", 2 => "=", 3 => "<>", 4 => ">=", _ => ">" };
                clause.push_str(&format!("a {sym} {v}"));
            }
            let sql = format!("select * from r where {clause}");
            let stmt = parse_one(&sql).unwrap();
            let expr = match stmt {
                Statement::Select(s) => s.filter.unwrap(),
                _ => unreachable!(),
            };
            let terms = to_dnf(&expr).unwrap();
            proptest::prop_assert_eq!(eval_a(&terms, probe), eval_expr(&expr, probe));
        }
    }

    /// Reference evaluator over the raw AST.
    fn eval_expr(e: &Expr, v: i64) -> bool {
        match e {
            Expr::And(l, r) => eval_expr(l, v) && eval_expr(r, v),
            Expr::Or(l, r) => eval_expr(l, v) || eval_expr(r, v),
            Expr::Not(i) => !eval_expr(i, v),
            Expr::Cmp {
                left, op, right, ..
            } => {
                let l = match left {
                    Operand::Literal(x) => *x,
                    Operand::Column(_) => v,
                    Operand::Param { .. } => unreachable!("no parameters generated"),
                };
                let r = match right {
                    Operand::Literal(x) => *x,
                    Operand::Column(_) => v,
                    Operand::Param { .. } => unreachable!("no parameters generated"),
                };
                op.eval(l, r)
            }
        }
    }
}
