//! Abstract syntax for the supported SQL fragment.
//!
//! The shapes mirror §3.1's normal form: a query is a projection and an
//! optional grouping over a selection of a join path. The WHERE clause is
//! an arbitrary boolean combination at this level; [`crate::dnf`] flattens
//! it into the disjunctive normal form the cracker extraction works on.

use crate::error::Span;
use engine::query::AggFunc;

/// A (possibly qualified) column reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Qualifying table, when written `table.column`.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
    /// Source location.
    pub span: Span,
}

impl ColumnRef {
    /// An unqualified reference (used by tests and builders).
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
            span: Span::default(),
        }
    }

    /// A qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
            span: Span::default(),
        }
    }

    /// Render as `table.column` or bare `column`.
    pub fn display(&self) -> String {
        match &self.table {
            Some(t) => format!("{t}.{}", self.column),
            None => self.column.clone(),
        }
    }
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    /// The operator with its operands swapped (`5 < a` ⇔ `a > 5`).
    pub fn mirrored(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    /// The logical negation (`NOT (a < 5)` ⇔ `a >= 5`).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }

    /// Evaluate against two integers (for constant folding).
    pub fn eval(self, l: i64, r: i64) -> bool {
        match self {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Ge => l >= r,
            CmpOp::Gt => l > r,
        }
    }
}

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// A column reference.
    Column(ColumnRef),
    /// An integer literal.
    Literal(i64),
    /// A positional parameter (`?`), numbered left to right from 0 within
    /// its statement. Bound to an integer by a prepared statement.
    Param {
        /// Zero-based position among the statement's `?` placeholders.
        idx: usize,
    },
}

impl Operand {
    /// The source span (literals and parameters get the enclosing
    /// comparison's span from the parser; column refs carry their own).
    pub fn span_or(&self, fallback: Span) -> Span {
        match self {
            Operand::Column(c) => c.span,
            Operand::Literal(_) | Operand::Param { .. } => fallback,
        }
    }
}

/// A boolean expression in a WHERE clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// A binary comparison. `col [NOT] BETWEEN low AND high` parses to the
    /// two comparisons it abbreviates (`col >= low AND col <= high`, under
    /// a [`Expr::Not`] when negated), each spanning the whole BETWEEN.
    Cmp {
        /// Left operand.
        left: Operand,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: Operand,
        /// Source location of the whole comparison.
        span: Span,
    },
}

impl Expr {
    /// The source span covered by this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::And(l, r) | Expr::Or(l, r) => l.span().merge(r.span()),
            Expr::Not(e) => e.span(),
            Expr::Cmp { span, .. } => *span,
        }
    }
}

/// One item of a SELECT projection list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProjItem {
    /// A plain column.
    Column(ColumnRef),
    /// An aggregate call: `COUNT(*)`, `COUNT(col)`, `SUM(col)`, `MIN(col)`,
    /// `MAX(col)`.
    Aggregate {
        /// Aggregate function.
        func: AggFunc,
        /// Argument column; `None` for `COUNT(*)`.
        arg: Option<ColumnRef>,
        /// Source location.
        span: Span,
    },
}

impl ProjItem {
    /// The output column label for this item.
    pub fn label(&self) -> String {
        match self {
            ProjItem::Column(c) => c.column.clone(),
            ProjItem::Aggregate { func, arg, .. } => {
                let f = match func {
                    AggFunc::Count => "count",
                    AggFunc::Sum => "sum",
                    AggFunc::Min => "min",
                    AggFunc::Max => "max",
                };
                match arg {
                    Some(c) => format!("{f}({})", c.column),
                    None => format!("{f}(*)"),
                }
            }
        }
    }
}

/// A SELECT projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// `SELECT *`
    Star,
    /// An explicit item list.
    Items(Vec<ProjItem>),
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectStmt {
    /// What to return.
    pub projection: Projection,
    /// FROM list (join paths are expressed as equality predicates in
    /// WHERE, as the paper's example queries do).
    pub tables: Vec<(String, Span)>,
    /// Optional WHERE clause.
    pub filter: Option<Expr>,
    /// GROUP BY columns (the engine's Ω cracker supports one).
    pub group_by: Vec<ColumnRef>,
    /// Optional row cap (`LIMIT n`) — the "top-n queries" the hiking
    /// profile is driven by (§4).
    pub limit: Option<usize>,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// `CREATE TABLE name (col INTEGER, ...)` — all columns integer, the
    /// tapestry playground's shape.
    CreateTable {
        /// Table name.
        name: String,
        /// Column names in declaration order.
        columns: Vec<String>,
        /// Source location of the name.
        span: Span,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
        /// Source location of the name.
        span: Span,
    },
    /// `INSERT INTO name VALUES (..), (..)`.
    InsertValues {
        /// Target table.
        table: String,
        /// Row literals.
        rows: Vec<Vec<i64>>,
        /// Source location of the table name.
        span: Span,
    },
    /// `INSERT INTO name SELECT ...` — Figure 1(a)'s materialization.
    InsertSelect {
        /// Target table.
        table: String,
        /// Source query.
        select: SelectStmt,
        /// Source location of the table name.
        span: Span,
    },
    /// `DELETE FROM name [WHERE expr]`.
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate; `None` deletes every row.
        filter: Option<Expr>,
        /// Source location of the table name.
        span: Span,
    },
    /// A plain SELECT.
    Select(SelectStmt),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_mirror_and_negate() {
        assert_eq!(CmpOp::Lt.mirrored(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.mirrored(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.mirrored(), CmpOp::Eq);
        assert_eq!(CmpOp::Lt.negated(), CmpOp::Ge);
        assert_eq!(CmpOp::Ne.negated(), CmpOp::Eq);
        // Negation is an involution; mirroring is too.
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ge,
            CmpOp::Gt,
        ] {
            assert_eq!(op.negated().negated(), op);
            assert_eq!(op.mirrored().mirrored(), op);
        }
    }

    #[test]
    fn cmp_op_eval_matches_rust_semantics() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(!CmpOp::Lt.eval(2, 2));
        assert!(CmpOp::Le.eval(2, 2));
        assert!(CmpOp::Ne.eval(1, 2));
        assert!(CmpOp::Ge.eval(2, 2));
    }

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::bare("a").display(), "a");
        assert_eq!(ColumnRef::qualified("r", "a").display(), "r.a");
    }

    #[test]
    fn proj_item_labels() {
        assert_eq!(ProjItem::Column(ColumnRef::bare("a")).label(), "a");
        assert_eq!(
            ProjItem::Aggregate {
                func: AggFunc::Count,
                arg: None,
                span: Span::default()
            }
            .label(),
            "count(*)"
        );
        assert_eq!(
            ProjItem::Aggregate {
                func: AggFunc::Sum,
                arg: Some(ColumnRef::bare("a")),
                span: Span::default()
            }
            .label(),
            "sum(a)"
        );
    }

    #[test]
    fn expr_span_merges_children() {
        let c1 = Expr::Cmp {
            left: Operand::Column(ColumnRef::bare("a")),
            op: CmpOp::Lt,
            right: Operand::Literal(5),
            span: Span::new(0, 5),
        };
        let c2 = Expr::Cmp {
            left: Operand::Column(ColumnRef::bare("b")),
            op: CmpOp::Gt,
            right: Operand::Literal(9),
            span: Span::new(10, 15),
        };
        let e = Expr::And(Box::new(c1), Box::new(c2));
        assert_eq!(e.span(), Span::new(0, 15));
    }
}
