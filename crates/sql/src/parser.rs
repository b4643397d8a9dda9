//! Recursive-descent parser for the supported SQL fragment.
//!
//! Grammar (keywords case-insensitive, `;` separates statements):
//!
//! ```text
//! statement   := select | insert | delete | create | drop
//! delete      := DELETE FROM ident [WHERE expr]
//! create      := CREATE TABLE ident '(' ident INTEGER (',' ident INTEGER)* ')'
//! drop        := DROP TABLE ident
//! insert      := INSERT INTO ident ( VALUES row (',' row)* | select )
//! row         := '(' int (',' int)* ')'
//! select      := SELECT proj FROM ident (',' ident)* [WHERE expr]
//!                [GROUP BY colref (',' colref)*] [LIMIT int]
//! proj        := '*' | item (',' item)*
//! item        := agg | colref [AS ident]
//! agg         := COUNT '(' ('*'|colref) ')' | (SUM|MIN|MAX) '(' colref ')'
//! expr        := and_expr (OR and_expr)*
//! and_expr    := not_expr (AND not_expr)*
//! not_expr    := NOT not_expr | primary
//! primary     := '(' expr ')' | colref [NOT] BETWEEN bound AND bound
//!              | operand cmp operand
//! operand     := colref | bound
//! bound       := int | '?'
//! colref      := ident ['.' ident]
//! int         := ['-'] INT
//! ```
//!
//! `?` is a positional parameter placeholder, numbered left to right from
//! 0 within each statement; it binds through a prepared statement
//! ([`crate::exec::SqlSession::prepare`]).

use crate::ast::{CmpOp, ColumnRef, Expr, Operand, ProjItem, Projection, SelectStmt, Statement};
use crate::error::{Span, SqlError, SqlResult};
use crate::token::{lex, Tok, Token};
use engine::query::AggFunc;

/// Parse a source text into its statements.
pub fn parse(src: &str) -> SqlResult<Vec<Statement>> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        src_len: src.len(),
        params: 0,
    };
    let mut out = Vec::new();
    loop {
        // Skip statement separators.
        while p.eat(&Tok::Semi) {}
        if p.at_end() {
            break;
        }
        out.push(p.statement()?);
        if !p.at_end() && !p.check(&Tok::Semi) {
            return Err(SqlError::syntax(
                format!("expected ';' between statements, found {}", p.peek_desc()),
                p.peek_span(),
            ));
        }
    }
    Ok(out)
}

/// Parse a source text expected to hold exactly one statement.
pub fn parse_one(src: &str) -> SqlResult<Statement> {
    let mut stmts = parse(src)?;
    match stmts.len() {
        // lint: allow(unwrap) — guarded by the len() == 1 match arm
        1 => Ok(stmts.pop().expect("len checked")),
        0 => Err(SqlError::syntax("empty input", Span::default())),
        n => Err(SqlError::syntax(
            format!("expected one statement, found {n}"),
            Span::default(),
        )),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    src_len: usize,
    /// `?` placeholders seen so far in the current statement; the next
    /// placeholder takes this value as its zero-based index.
    params: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn peek_span(&self) -> Span {
        self.tokens
            .get(self.pos)
            .map_or(Span::new(self.src_len, self.src_len), |t| t.span)
    }

    fn peek_desc(&self) -> String {
        self.peek()
            .map_or_else(|| "end of input".to_owned(), |t| t.to_string())
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn check(&self, tok: &Tok) -> bool {
        self.peek() == Some(tok)
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.check(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> SqlResult<Span> {
        if self.check(&tok) {
            let span = self.peek_span();
            self.pos += 1;
            Ok(span)
        } else {
            Err(SqlError::syntax(
                format!("expected {tok}, found {}", self.peek_desc()),
                self.peek_span(),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> SqlResult<(String, Span)> {
        match self.advance() {
            Some(Token {
                tok: Tok::Ident(name),
                span,
            }) => Ok((name, span)),
            Some(t) => Err(SqlError::syntax(
                format!("expected {what}, found {}", t.tok),
                t.span,
            )),
            None => Err(SqlError::syntax(
                format!("expected {what}, found end of input"),
                self.peek_span(),
            )),
        }
    }

    fn int_literal(&mut self) -> SqlResult<(i64, Span)> {
        let neg = self.eat(&Tok::Minus);
        match self.advance() {
            Some(Token {
                tok: Tok::Int(v),
                span,
            }) => Ok((if neg { -v } else { v }, span)),
            Some(t) => Err(SqlError::syntax(
                format!("expected integer, found {}", t.tok),
                t.span,
            )),
            None => Err(SqlError::syntax(
                "expected integer, found end of input",
                self.peek_span(),
            )),
        }
    }

    fn statement(&mut self) -> SqlResult<Statement> {
        self.params = 0; // parameters number from 0 within each statement
        match self.peek() {
            Some(Tok::Select) => Ok(Statement::Select(self.select()?)),
            Some(Tok::Create) => self.create(),
            Some(Tok::Drop) => self.drop(),
            Some(Tok::Insert) => self.insert(),
            Some(Tok::Delete) => self.delete(),
            _ => Err(SqlError::syntax(
                format!(
                    "expected SELECT, INSERT, DELETE, CREATE or DROP, found {}",
                    self.peek_desc()
                ),
                self.peek_span(),
            )),
        }
    }

    fn create(&mut self) -> SqlResult<Statement> {
        self.expect(Tok::Create)?;
        self.expect(Tok::Table)?;
        let (name, span) = self.ident("table name")?;
        self.expect(Tok::LParen)?;
        let mut columns = Vec::new();
        loop {
            let (col, col_span) = self.ident("column name")?;
            self.expect(Tok::Integer)?;
            if columns.contains(&col) {
                return Err(SqlError::semantic(
                    format!("duplicate column {col:?}"),
                    col_span,
                ));
            }
            columns.push(col);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        Ok(Statement::CreateTable {
            name,
            columns,
            span,
        })
    }

    fn drop(&mut self) -> SqlResult<Statement> {
        self.expect(Tok::Drop)?;
        self.expect(Tok::Table)?;
        let (name, span) = self.ident("table name")?;
        Ok(Statement::DropTable { name, span })
    }

    fn delete(&mut self) -> SqlResult<Statement> {
        self.expect(Tok::Delete)?;
        self.expect(Tok::From)?;
        let (table, span) = self.ident("table name")?;
        let filter = if self.eat(&Tok::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            filter,
            span,
        })
    }

    fn insert(&mut self) -> SqlResult<Statement> {
        self.expect(Tok::Insert)?;
        self.expect(Tok::Into)?;
        let (table, span) = self.ident("table name")?;
        if self.check(&Tok::Select) {
            let select = self.select()?;
            return Ok(Statement::InsertSelect {
                table,
                select,
                span,
            });
        }
        self.expect(Tok::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect(Tok::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.int_literal()?.0);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            let close = self.expect(Tok::RParen)?;
            if let Some(first) = rows.first() {
                let first: &Vec<i64> = first;
                if first.len() != row.len() {
                    return Err(SqlError::semantic(
                        format!(
                            "row has {} values but the first row has {}",
                            row.len(),
                            first.len()
                        ),
                        close,
                    ));
                }
            }
            rows.push(row);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(Statement::InsertValues { table, rows, span })
    }

    fn select(&mut self) -> SqlResult<SelectStmt> {
        self.expect(Tok::Select)?;
        let projection = self.projection()?;
        self.expect(Tok::From)?;
        let mut tables = Vec::new();
        loop {
            let (name, span) = self.ident("table name")?;
            if tables.iter().any(|(n, _)| *n == name) {
                return Err(SqlError::unsupported(
                    format!("self-join of {name:?} (table aliases are not supported)"),
                    span,
                ));
            }
            tables.push((name, span));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        let filter = if self.eat(&Tok::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat(&Tok::Group) {
            self.expect(Tok::By)?;
            loop {
                group_by.push(self.column_ref()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        if self.check(&Tok::Order) {
            return Err(SqlError::unsupported(
                "ORDER BY (cracked answers come back in physical piece order)",
                self.peek_span(),
            ));
        }
        let limit = if self.eat(&Tok::Limit) {
            let (v, span) = self.int_literal()?;
            if v < 0 {
                return Err(SqlError::semantic("LIMIT must be non-negative", span));
            }
            Some(v as usize)
        } else {
            None
        };
        Ok(SelectStmt {
            projection,
            tables,
            filter,
            group_by,
            limit,
        })
    }

    fn projection(&mut self) -> SqlResult<Projection> {
        if self.eat(&Tok::Star) {
            return Ok(Projection::Star);
        }
        let mut items = Vec::new();
        loop {
            items.push(self.proj_item()?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(Projection::Items(items))
    }

    fn proj_item(&mut self) -> SqlResult<ProjItem> {
        let agg = match self.peek() {
            Some(Tok::Count) => Some(AggFunc::Count),
            Some(Tok::Sum) => Some(AggFunc::Sum),
            Some(Tok::Min) => Some(AggFunc::Min),
            Some(Tok::Max) => Some(AggFunc::Max),
            _ => None,
        };
        if let Some(func) = agg {
            let start = self.peek_span();
            self.advance();
            self.expect(Tok::LParen)?;
            let arg = if func == AggFunc::Count && self.eat(&Tok::Star) {
                None
            } else {
                Some(self.column_ref()?)
            };
            let end = self.expect(Tok::RParen)?;
            self.maybe_alias()?;
            return Ok(ProjItem::Aggregate {
                func,
                arg,
                span: start.merge(end),
            });
        }
        let col = self.column_ref()?;
        self.maybe_alias()?;
        Ok(ProjItem::Column(col))
    }

    /// Parse (and discard) an optional `AS alias`; output columns keep
    /// their source labels.
    fn maybe_alias(&mut self) -> SqlResult<()> {
        if self.eat(&Tok::As) {
            self.ident("alias")?;
        }
        Ok(())
    }

    fn column_ref(&mut self) -> SqlResult<ColumnRef> {
        let (first, span) = self.ident("column name")?;
        if self.eat(&Tok::Dot) {
            let (column, col_span) = self.ident("column name")?;
            Ok(ColumnRef {
                table: Some(first),
                column,
                span: span.merge(col_span),
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
                span,
            })
        }
    }

    // --- WHERE expression grammar -------------------------------------

    fn expr(&mut self) -> SqlResult<Expr> {
        let mut left = self.and_expr()?;
        while self.eat(&Tok::Or) {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> SqlResult<Expr> {
        let mut left = self.not_expr()?;
        while self.eat(&Tok::And) {
            let right = self.not_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> SqlResult<Expr> {
        if self.eat(&Tok::Not) {
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.primary()
    }

    fn primary(&mut self) -> SqlResult<Expr> {
        if self.eat(&Tok::LParen) {
            let inner = self.expr()?;
            self.expect(Tok::RParen)?;
            return Ok(inner);
        }
        let start = self.peek_span();
        let left = self.operand()?;
        // `col [NOT] BETWEEN low AND high`.
        let negated = matches!(
            (self.peek(), self.tokens.get(self.pos + 1).map(|t| &t.tok)),
            (Some(Tok::Not), Some(Tok::Between))
        );
        if negated {
            self.advance();
        }
        if self.eat(&Tok::Between) {
            let col = match left {
                Operand::Column(c) => c,
                Operand::Literal(_) | Operand::Param { .. } => {
                    return Err(SqlError::syntax(
                        "BETWEEN requires a column on the left",
                        start,
                    ))
                }
            };
            // Desugared where it is parsed: `c BETWEEN lo AND hi` is
            // `c >= lo AND c <= hi`, and `NOT BETWEEN` its negation, so a
            // bound may be anything a comparison operand may — a `?` too.
            let low = self.between_bound()?;
            self.expect(Tok::And)?;
            let high = self.between_bound()?;
            let span = start.merge(self.prev_span());
            let side = |op, right| Expr::Cmp {
                left: Operand::Column(col.clone()),
                op,
                right,
                span,
            };
            let inside = Expr::And(
                Box::new(side(CmpOp::Ge, low)),
                Box::new(side(CmpOp::Le, high)),
            );
            return Ok(if negated {
                Expr::Not(Box::new(inside))
            } else {
                inside
            });
        }
        let op = match self.advance() {
            Some(Token { tok: Tok::Eq, .. }) => CmpOp::Eq,
            Some(Token { tok: Tok::Ne, .. }) => CmpOp::Ne,
            Some(Token { tok: Tok::Lt, .. }) => CmpOp::Lt,
            Some(Token { tok: Tok::Le, .. }) => CmpOp::Le,
            Some(Token { tok: Tok::Gt, .. }) => CmpOp::Gt,
            Some(Token { tok: Tok::Ge, .. }) => CmpOp::Ge,
            Some(t) => {
                return Err(SqlError::syntax(
                    format!("expected a comparison operator, found {}", t.tok),
                    t.span,
                ))
            }
            None => {
                return Err(SqlError::syntax(
                    "expected a comparison operator, found end of input",
                    self.peek_span(),
                ))
            }
        };
        let right = self.operand()?;
        let end = right.span_or(self.prev_span());
        Ok(Expr::Cmp {
            left,
            op,
            right,
            span: start.merge(end),
        })
    }

    fn prev_span(&self) -> Span {
        self.tokens
            .get(self.pos.saturating_sub(1))
            .map_or(Span::default(), |t| t.span)
    }

    /// One bound of a BETWEEN: an integer literal or a `?`.
    fn between_bound(&mut self) -> SqlResult<Operand> {
        if self.check(&Tok::Param) {
            return self.operand();
        }
        Ok(Operand::Literal(self.int_literal()?.0))
    }

    fn operand(&mut self) -> SqlResult<Operand> {
        match self.peek() {
            Some(Tok::Ident(_)) => Ok(Operand::Column(self.column_ref()?)),
            Some(Tok::Int(_)) | Some(Tok::Minus) => Ok(Operand::Literal(self.int_literal()?.0)),
            Some(Tok::Param) => {
                self.advance();
                let idx = self.params;
                self.params += 1;
                Ok(Operand::Param { idx })
            }
            _ => Err(SqlError::syntax(
                format!(
                    "expected a column, integer or parameter, found {}",
                    self.peek_desc()
                ),
                self.peek_span(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(src: &str) -> SelectStmt {
        match parse_one(src).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn the_papers_first_example() {
        // §1: "select * from R where R.a <10".
        let s = sel("select * from R where R.a < 10");
        assert_eq!(s.projection, Projection::Star);
        assert_eq!(s.tables[0].0, "r");
        match s.filter.unwrap() {
            Expr::Cmp {
                left, op, right, ..
            } => {
                match left {
                    Operand::Column(c) => {
                        assert_eq!(c.table.as_deref(), Some("r"));
                        assert_eq!(c.column, "a");
                    }
                    other => panic!("expected column operand, got {other:?}"),
                }
                assert_eq!(op, CmpOp::Lt);
                assert_eq!(right, Operand::Literal(10));
            }
            other => panic!("expected comparison, got {other:?}"),
        }
    }

    #[test]
    fn the_papers_join_query() {
        // §3.2: "select * from R,S where R.k=S.k and R.a<5".
        let s = sel("select * from R, S where R.k = S.k and R.a < 5");
        assert_eq!(s.tables.len(), 2);
        assert!(matches!(s.filter, Some(Expr::And(_, _))));
    }

    #[test]
    fn insert_select_materialization() {
        // §2.1's benchmark query shape.
        let stmt =
            parse_one("INSERT INTO newR SELECT * FROM R WHERE R.A >= 3 AND R.A <= 9").unwrap();
        match stmt {
            Statement::InsertSelect { table, select, .. } => {
                assert_eq!(table, "newr");
                assert_eq!(select.tables[0].0, "r");
            }
            other => panic!("expected INSERT..SELECT, got {other:?}"),
        }
    }

    #[test]
    fn create_insert_drop() {
        let stmts = parse(
            "create table r (k integer, a integer);\n\
             insert into r values (1, 10), (2, 20);\n\
             drop table r;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(matches!(
            &stmts[0],
            Statement::CreateTable { name, columns, .. }
                if name == "r" && columns == &["k", "a"]
        ));
        assert!(matches!(
            &stmts[1],
            Statement::InsertValues { rows, .. } if rows.len() == 2
        ));
        assert!(matches!(&stmts[2], Statement::DropTable { name, .. } if name == "r"));
    }

    /// The `(op, right operand)` pairs of a desugared BETWEEN's two sides.
    fn between_sides(e: &Expr) -> Vec<(CmpOp, Operand)> {
        let Expr::And(low, high) = e else {
            panic!("expected the two sides of a BETWEEN, got {e:?}")
        };
        [low, high]
            .map(|side| match &**side {
                Expr::Cmp {
                    left: Operand::Column(c),
                    op,
                    right,
                    ..
                } if c.column == "a" => (*op, right.clone()),
                other => panic!("{other:?}"),
            })
            .to_vec()
    }

    #[test]
    fn between_and_not_between() {
        let s = sel("select * from r where a between 3 and 9");
        assert_eq!(
            between_sides(&s.filter.unwrap()),
            vec![
                (CmpOp::Ge, Operand::Literal(3)),
                (CmpOp::Le, Operand::Literal(9))
            ]
        );
        let s = sel("select * from r where a not between -5 and 9");
        let Some(Expr::Not(inside)) = s.filter else {
            panic!("NOT BETWEEN negates the range")
        };
        assert_eq!(
            between_sides(&inside),
            vec![
                (CmpOp::Ge, Operand::Literal(-5)),
                (CmpOp::Le, Operand::Literal(9))
            ]
        );
        // Both sides span the whole BETWEEN.
        let src = "select * from r where a between 3 and 9";
        let Some(Expr::And(low, _)) = sel(src).filter else {
            panic!()
        };
        assert_eq!(low.span().fragment(src), "a between 3 and 9");
    }

    #[test]
    fn between_bounds_take_parameters() {
        let s = sel("select * from r where a between ? and 9 and a not between -1 and ?");
        let Some(Expr::And(first, second)) = s.filter else {
            panic!("two BETWEENs under one AND")
        };
        assert_eq!(
            between_sides(&first),
            vec![
                (CmpOp::Ge, Operand::Param { idx: 0 }),
                (CmpOp::Le, Operand::Literal(9))
            ]
        );
        let Expr::Not(inside) = *second else {
            panic!("NOT BETWEEN negates the range")
        };
        assert_eq!(
            between_sides(&inside),
            vec![
                (CmpOp::Ge, Operand::Literal(-1)),
                (CmpOp::Le, Operand::Param { idx: 1 })
            ]
        );
        // A column is not a bound.
        assert!(parse("select * from r where a between k and 9").is_err());
    }

    #[test]
    fn negative_literals_and_literal_on_left() {
        let s = sel("select * from r where -5 <= a");
        match s.filter.unwrap() {
            Expr::Cmp { left, op, .. } => {
                assert_eq!(left, Operand::Literal(-5));
                assert_eq!(op, CmpOp::Le);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_or_binds_weaker_than_and() {
        let s = sel("select * from r where a < 1 or b < 2 and c < 3");
        // Must parse as a<1 OR (b<2 AND c<3).
        match s.filter.unwrap() {
            Expr::Or(l, r) => {
                assert!(matches!(*l, Expr::Cmp { .. }));
                assert!(matches!(*r, Expr::And(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parentheses_override_precedence() {
        let s = sel("select * from r where (a < 1 or b < 2) and c < 3");
        assert!(matches!(s.filter.unwrap(), Expr::And(_, _)));
    }

    #[test]
    fn not_parses_tightly() {
        let s = sel("select * from r where not a < 1 and b < 2");
        // NOT binds to the comparison, not the conjunction.
        match s.filter.unwrap() {
            Expr::And(l, _) => assert!(matches!(*l, Expr::Not(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates_and_aliases() {
        let s = sel("select k, count(*) as n, sum(a) from r group by k");
        match &s.projection {
            Projection::Items(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0].label(), "k");
                assert_eq!(items[1].label(), "count(*)");
                assert_eq!(items[2].label(), "sum(a)");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.group_by[0].column, "k");
    }

    #[test]
    fn error_messages_carry_spans() {
        let src = "select * form r";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("expected FROM"));
        assert_eq!(err.span().unwrap().fragment(src), "form");
    }

    #[test]
    fn missing_semicolon_between_statements() {
        let err = parse("select * from r select * from s").unwrap_err();
        assert!(err.to_string().contains("';'"));
    }

    #[test]
    fn self_join_is_rejected() {
        let err = parse("select * from r, r").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { .. }));
    }

    #[test]
    fn order_by_is_rejected_with_guidance() {
        let err = parse("select * from r order by a").unwrap_err();
        assert!(err.to_string().contains("ORDER BY"));
    }

    #[test]
    fn ragged_insert_rows_rejected() {
        let err = parse("insert into r values (1,2), (3)").unwrap_err();
        assert!(err.to_string().contains("values"));
    }

    #[test]
    fn duplicate_create_columns_rejected() {
        let err = parse("create table r (a integer, a integer)").unwrap_err();
        assert!(matches!(err, SqlError::Semantic { .. }));
    }

    #[test]
    fn empty_input_yields_no_statements() {
        assert!(parse("").unwrap().is_empty());
        assert!(parse(" ; ; ").unwrap().is_empty());
    }

    #[test]
    fn parse_one_rejects_multiples_and_empties() {
        assert!(parse_one("").is_err());
        assert!(parse_one("select * from r; select * from r").is_err());
    }

    #[test]
    fn parameters_number_left_to_right_per_statement() {
        let s = sel("select * from r where a >= ? and a < ?");
        let mut idxs = Vec::new();
        fn collect(e: &Expr, idxs: &mut Vec<usize>) {
            match e {
                Expr::And(l, r) | Expr::Or(l, r) => {
                    collect(l, idxs);
                    collect(r, idxs);
                }
                Expr::Not(i) => collect(i, idxs),
                Expr::Cmp { left, right, .. } => {
                    for o in [left, right] {
                        if let Operand::Param { idx } = o {
                            idxs.push(*idx);
                        }
                    }
                }
            }
        }
        collect(&s.filter.unwrap(), &mut idxs);
        assert_eq!(idxs, vec![0, 1]);

        // Numbering restarts at each statement.
        let stmts = parse("select * from r where a < ?; select * from r where a > ?").unwrap();
        for stmt in &stmts {
            let Statement::Select(s) = stmt else {
                panic!("expected SELECT")
            };
            let mut idxs = Vec::new();
            collect(s.filter.as_ref().unwrap(), &mut idxs);
            assert_eq!(idxs, vec![0]);
        }
    }

    #[test]
    fn count_of_a_column() {
        let s = sel("select count(a) from r");
        match &s.projection {
            Projection::Items(items) => assert_eq!(items[0].label(), "count(a)"),
            other => panic!("{other:?}"),
        }
    }
}
