//! Tokenizer for the SQL fragment of §3.1.
//!
//! The fragment is deliberately small — the paper normalizes every query to
//! `π γ σ (R1 ⋈ ... ⋈ Rm)` with simple range predicates — so the lexer
//! covers the statements the benchmark kit and the experiments issue:
//! `SELECT`, `INSERT INTO ... SELECT` (the materialization of Figure 1a),
//! `INSERT ... VALUES`, `CREATE TABLE`, and `DROP TABLE`.
//!
//! Unquoted identifiers fold to lowercase, as in the SQL standard; keywords
//! are case-insensitive. `--` starts a comment running to end of line.

use crate::error::{Span, SqlError, SqlResult};
use std::fmt;

/// A lexical token kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    // Keywords.
    /// `SELECT`
    Select,
    /// `FROM`
    From,
    /// `WHERE`
    Where,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `NOT`
    Not,
    /// `BETWEEN`
    Between,
    /// `GROUP`
    Group,
    /// `BY`
    By,
    /// `ORDER`
    Order,
    /// `LIMIT`
    Limit,
    /// `INSERT`
    Insert,
    /// `INTO`
    Into,
    /// `VALUES`
    Values,
    /// `CREATE`
    Create,
    /// `TABLE`
    Table,
    /// `DROP`
    Drop,
    /// `DELETE`
    Delete,
    /// `INTEGER` / `INT`
    Integer,
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `AS`
    As,
    // Values.
    /// An identifier, folded to lowercase.
    Ident(String),
    /// An integer literal (unsigned here; the parser applies unary minus).
    Int(i64),
    // Punctuation and operators.
    /// `*`
    Star,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `-` (unary minus on literals)
    Minus,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `?` — a positional parameter placeholder (prepared statements).
    Param,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier {s:?}"),
            Tok::Int(v) => write!(f, "integer {v}"),
            other => {
                let s = match other {
                    Tok::Select => "SELECT",
                    Tok::From => "FROM",
                    Tok::Where => "WHERE",
                    Tok::And => "AND",
                    Tok::Or => "OR",
                    Tok::Not => "NOT",
                    Tok::Between => "BETWEEN",
                    Tok::Group => "GROUP",
                    Tok::By => "BY",
                    Tok::Order => "ORDER",
                    Tok::Limit => "LIMIT",
                    Tok::Insert => "INSERT",
                    Tok::Into => "INTO",
                    Tok::Values => "VALUES",
                    Tok::Create => "CREATE",
                    Tok::Table => "TABLE",
                    Tok::Drop => "DROP",
                    Tok::Delete => "DELETE",
                    Tok::Integer => "INTEGER",
                    Tok::Count => "COUNT",
                    Tok::Sum => "SUM",
                    Tok::Min => "MIN",
                    Tok::Max => "MAX",
                    Tok::As => "AS",
                    Tok::Star => "*",
                    Tok::Comma => ",",
                    Tok::Dot => ".",
                    Tok::LParen => "(",
                    Tok::RParen => ")",
                    Tok::Semi => ";",
                    Tok::Minus => "-",
                    Tok::Eq => "=",
                    Tok::Ne => "<>",
                    Tok::Lt => "<",
                    Tok::Le => "<=",
                    Tok::Gt => ">",
                    Tok::Ge => ">=",
                    Tok::Param => "?",
                    Tok::Ident(_) | Tok::Int(_) => unreachable!(),
                };
                f.write_str(s)
            }
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token kind (and value, for identifiers and literals).
    pub tok: Tok,
    /// Source location.
    pub span: Span,
}

/// The keyword `word` spells in any case, without allocating.
fn keyword(word: &str) -> Option<Tok> {
    // Fold into a buffer as long as the longest keyword.
    let mut folded = [0u8; 7];
    if word.len() > folded.len() {
        return None;
    }
    for (f, b) in folded.iter_mut().zip(word.bytes()) {
        *f = b.to_ascii_lowercase();
    }
    Some(match &folded[..word.len()] {
        b"select" => Tok::Select,
        b"from" => Tok::From,
        b"where" => Tok::Where,
        b"and" => Tok::And,
        b"or" => Tok::Or,
        b"not" => Tok::Not,
        b"between" => Tok::Between,
        b"group" => Tok::Group,
        b"by" => Tok::By,
        b"order" => Tok::Order,
        b"limit" => Tok::Limit,
        b"insert" => Tok::Insert,
        b"into" => Tok::Into,
        b"values" => Tok::Values,
        b"create" => Tok::Create,
        b"table" => Tok::Table,
        b"drop" => Tok::Drop,
        b"delete" => Tok::Delete,
        b"integer" | b"int" => Tok::Integer,
        b"count" => Tok::Count,
        b"sum" => Tok::Sum,
        b"min" => Tok::Min,
        b"max" => Tok::Max,
        b"as" => Tok::As,
        _ => return None,
    })
}

/// What the byte scanner found at a span, before a word is folded or a
/// literal parsed.
enum Lexeme {
    /// An identifier or keyword, in the source's case.
    Word,
    /// The digits of an integer literal.
    Digits,
    /// An operator or punctuation token.
    Punct(Tok),
}

/// The character classes of the fragment, shared by [`lex`] and
/// [`normalize`]: skips whitespace and `--` comments and cuts the source
/// into [`Lexeme`]s.
struct Scanner<'a> {
    src: &'a str,
    pos: usize,
}

impl Scanner<'_> {
    /// The next lexeme and its span; `None` at end of input.
    fn next(&mut self) -> SqlResult<Option<(Lexeme, Span)>> {
        let bytes = self.src.as_bytes();
        let mut i = self.pos;
        loop {
            match bytes.get(i) {
                Some(b) if b.is_ascii_whitespace() => i += 1,
                // `--` comment to end of line.
                Some(b'-') if bytes.get(i + 1) == Some(&b'-') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        let start = i;
        let Some(&b) = bytes.get(start) else {
            self.pos = start;
            return Ok(None);
        };
        let lexeme = if b.is_ascii_alphabetic() || b == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            Lexeme::Word
        } else if b.is_ascii_digit() {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            Lexeme::Digits
        } else {
            let two = |a: u8| bytes.get(start + 1) == Some(&a);
            let (tok, len) = match b {
                b'*' => (Tok::Star, 1),
                b',' => (Tok::Comma, 1),
                b'.' => (Tok::Dot, 1),
                b'(' => (Tok::LParen, 1),
                b')' => (Tok::RParen, 1),
                b';' => (Tok::Semi, 1),
                b'-' => (Tok::Minus, 1),
                b'?' => (Tok::Param, 1),
                b'=' => (Tok::Eq, 1),
                b'<' if two(b'=') => (Tok::Le, 2),
                b'<' if two(b'>') => (Tok::Ne, 2),
                b'<' => (Tok::Lt, 1),
                b'>' if two(b'=') => (Tok::Ge, 2),
                b'>' => (Tok::Gt, 1),
                b'!' if two(b'=') => (Tok::Ne, 2),
                _ => {
                    return Err(SqlError::syntax(
                        format!(
                            "unexpected character {:?}",
                            self.src[start..]
                                .chars()
                                .next()
                                .unwrap_or(char::REPLACEMENT_CHARACTER)
                        ),
                        Span::new(start, start + 1),
                    ))
                }
            };
            i += len;
            Lexeme::Punct(tok)
        };
        self.pos = i;
        Ok(Some((lexeme, Span::new(start, i))))
    }
}

/// Tokenize a complete source text.
pub fn lex(src: &str) -> SqlResult<Vec<Token>> {
    let mut scanner = Scanner { src, pos: 0 };
    let mut out = Vec::new();
    while let Some((lexeme, span)) = scanner.next()? {
        let text = &src[span.start..span.end];
        let tok = match lexeme {
            Lexeme::Word => keyword(text).unwrap_or_else(|| Tok::Ident(text.to_ascii_lowercase())),
            Lexeme::Digits => Tok::Int(text.parse().map_err(|_| {
                SqlError::syntax(format!("integer literal {text} overflows i64"), span)
            })?),
            Lexeme::Punct(tok) => tok,
        };
        out.push(Token { tok, span });
    }
    Ok(out)
}

/// Where [`normalize`] stands inside `col [NOT] BETWEEN low AND high`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum InBetween {
    /// Not inside one.
    No,
    /// `BETWEEN` was the last token: the low bound comes next.
    Low,
    /// The low bound was the last token: the bounds' `AND` comes next.
    And,
    /// The bounds' `AND` was the last token: the high bound comes next.
    High,
}

/// Reduce one SELECT's text to its *shape*: words case-folded, whitespace
/// and comments collapsed to single spaces, and every integer literal that
/// is an operand of a comparison or a `BETWEEN` bound (with its unary
/// minus) replaced by `?`, its value pushed onto `binds` in source order.
/// The shape written to `key` is itself valid SQL whose `i`-th placeholder
/// takes `binds[i]`, so a plan prepared from it and bound to `binds`
/// equals the plan of `src` — and two texts differing only in literals,
/// case, spacing or comments share a key.
///
/// Returns `false` — *declines*, leaving `key` and `binds` unspecified —
/// for anything it cannot express that way, which the caller then runs
/// from the original text so errors keep their spans: a first keyword
/// other than `SELECT`, a source `?`, a second statement, an integer in
/// any other position (`LIMIT n`), a literal that overflows `i64`, and
/// any text [`lex`] rejects. One pass over the bytes; allocates nothing
/// once `key` and `binds` have grown to the statement's size.
pub(crate) fn normalize(src: &str, key: &mut String, binds: &mut Vec<i64>) -> bool {
    key.clear();
    binds.clear();
    shape_into(src, key, binds).is_some()
}

/// [`normalize`]'s scan; `None` declines.
fn shape_into(src: &str, key: &mut String, binds: &mut Vec<i64>) -> Option<()> {
    let mut scanner = Scanner { src, pos: 0 };
    // The last token was a comparison operator: a literal here is its
    // right operand.
    let mut after_cmp = false;
    let mut between = InBetween::No;
    // A unary minus waits for its digits.
    let mut negative = false;
    // The last token was a literal nothing to its left licensed: it is a
    // left operand, so a comparison operator must follow.
    let mut left_operand = false;
    // A `;` ended the statement: only more `;` may follow.
    let mut ended = false;
    while let Some((lexeme, span)) = scanner.next().ok()? {
        let text = &src[span.start..span.end];
        let is_cmp = matches!(
            lexeme,
            Lexeme::Punct(Tok::Eq | Tok::Ne | Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge)
        );
        let is_digits = matches!(lexeme, Lexeme::Digits);
        if ended && !matches!(lexeme, Lexeme::Punct(Tok::Semi))
            || left_operand && !is_cmp
            || negative && !is_digits
        {
            return None;
        }
        // Neither reaches the key: `;` ends the statement, the sign
        // travels with its literal's value.
        match lexeme {
            Lexeme::Punct(Tok::Semi) => {
                ended = true;
                continue;
            }
            Lexeme::Punct(Tok::Minus) => {
                negative = true;
                continue;
            }
            _ => {}
        }
        let first = key.is_empty();
        if first && !matches!(lexeme, Lexeme::Word) {
            return None;
        }
        if !first {
            key.push(' ');
        }
        match lexeme {
            Lexeme::Digits => {
                let bound = matches!(between, InBetween::Low | InBetween::High);
                between = match between {
                    InBetween::Low => InBetween::And,
                    InBetween::And => return None,
                    InBetween::High | InBetween::No => InBetween::No,
                };
                // `-9223372036854775808` declines like any literal whose
                // digits overflow: the lexer reports it the same way.
                let magnitude: i64 = text.parse().ok()?;
                binds.push(if negative { -magnitude } else { magnitude });
                key.push('?');
                left_operand = !(after_cmp || bound);
                (negative, after_cmp) = (false, false);
            }
            Lexeme::Punct(Tok::Param) => return None,
            Lexeme::Punct(_) => {
                if between != InBetween::No {
                    return None;
                }
                key.push_str(text);
                (left_operand, after_cmp) = (false, is_cmp);
            }
            Lexeme::Word => {
                let start = key.len();
                key.push_str(text);
                key[start..].make_ascii_lowercase();
                let word = keyword(&key[start..]);
                if first && word != Some(Tok::Select) {
                    return None;
                }
                between = match (between, word) {
                    (InBetween::No, Some(Tok::Between)) => InBetween::Low,
                    (InBetween::No, _) => InBetween::No,
                    (InBetween::And, Some(Tok::And)) => InBetween::High,
                    _ => return None,
                };
                after_cmp = false;
            }
        }
    }
    let complete = !key.is_empty() && !negative && !left_operand && between == InBetween::No;
    complete.then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("SELECT select SeLeCt"),
            vec![Tok::Select, Tok::Select, Tok::Select]
        );
    }

    #[test]
    fn identifiers_fold_to_lowercase() {
        assert_eq!(
            kinds("MyTable my_col2"),
            vec![Tok::Ident("mytable".into()), Tok::Ident("my_col2".into())]
        );
    }

    #[test]
    fn the_papers_example_query_lexes() {
        let toks = kinds("select * from R where R.a <10 and R.a >= 5;");
        assert_eq!(
            toks,
            vec![
                Tok::Select,
                Tok::Star,
                Tok::From,
                Tok::Ident("r".into()),
                Tok::Where,
                Tok::Ident("r".into()),
                Tok::Dot,
                Tok::Ident("a".into()),
                Tok::Lt,
                Tok::Int(10),
                Tok::And,
                Tok::Ident("r".into()),
                Tok::Dot,
                Tok::Ident("a".into()),
                Tok::Ge,
                Tok::Int(5),
                Tok::Semi,
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds("<= >= <> != < > ="),
            vec![
                Tok::Le,
                Tok::Ge,
                Tok::Ne,
                Tok::Ne,
                Tok::Lt,
                Tok::Gt,
                Tok::Eq
            ]
        );
    }

    #[test]
    fn parameter_placeholders_lex() {
        assert_eq!(
            kinds("a >= ? and a < ?"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ge,
                Tok::Param,
                Tok::And,
                Tok::Ident("a".into()),
                Tok::Lt,
                Tok::Param,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("select -- the projection\n *"),
            vec![Tok::Select, Tok::Star]
        );
        // A comment at end of input without trailing newline.
        assert_eq!(kinds("select --tail"), vec![Tok::Select]);
    }

    #[test]
    fn minus_is_its_own_token_but_double_minus_is_comment() {
        assert_eq!(kinds("- 5"), vec![Tok::Minus, Tok::Int(5)]);
        assert_eq!(kinds("--5"), vec![]);
    }

    #[test]
    fn spans_cover_the_source_fragments() {
        let src = "select count(*)";
        let toks = lex(src).unwrap();
        assert_eq!(toks[0].span.fragment(src), "select");
        assert_eq!(toks[1].span.fragment(src), "count");
        assert_eq!(toks[2].span.fragment(src), "(");
        assert_eq!(toks[3].span.fragment(src), "*");
    }

    #[test]
    fn overflowing_literal_is_an_error() {
        let err = lex("select 99999999999999999999").unwrap_err();
        assert!(matches!(err, SqlError::Syntax { .. }));
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn unexpected_character_is_an_error_with_span() {
        let err = lex("select @").unwrap_err();
        assert_eq!(err.span(), Some(Span::new(7, 8)));
    }

    #[test]
    fn int_and_integer_are_the_same_keyword() {
        assert_eq!(kinds("int integer"), vec![Tok::Integer, Tok::Integer]);
    }

    #[test]
    fn empty_and_whitespace_only_inputs() {
        assert_eq!(kinds(""), vec![]);
        assert_eq!(kinds("  \n\t "), vec![]);
    }

    /// `normalize`'s key and binds, or `None` when it declines.
    fn shape(src: &str) -> Option<(String, Vec<i64>)> {
        let (mut key, mut binds) = (String::from("stale"), vec![7]);
        normalize(src, &mut key, &mut binds).then_some((key, binds))
    }

    #[test]
    fn normalize_strips_comparison_operands_and_folds_the_rest() {
        let (key, binds) =
            shape("SELECT  count(*)\nFROM R -- the table\nWHERE R.a>=10 AND a < -20;").unwrap();
        assert_eq!(key, "select count ( * ) from r where r . a >= ? and a < ?");
        assert_eq!(binds, vec![10, -20]);
        assert!(lex(&key).is_ok(), "the key is itself SQL");
        // Literal on the left, a detached minus, both BETWEEN forms.
        let (key, binds) =
            shape("select * from r where 5 < a and - 3 <= b and k between -1 and 2 or k not between 8 and 9")
                .unwrap();
        assert_eq!(
            key,
            "select * from r where ? < a and ? <= b and k between ? and ? or k not between ? and ?"
        );
        assert_eq!(binds, vec![5, -3, -1, 2, 8, 9]);
        // The extremes that fit.
        let (_, binds) =
            shape("select * from r where a > -9223372036854775807 and a < 9223372036854775807")
                .unwrap();
        assert_eq!(binds, vec![-i64::MAX, i64::MAX]);
        // A constant comparison is stripped on both sides; it is the
        // prepare of `? > ?` that fails, once.
        let (key, binds) = shape("select * from r where a < 3 and 1 > 2").unwrap();
        assert_eq!(key, "select * from r where a < ? and ? > ?");
        assert_eq!(binds, vec![3, 1, 2]);
        // No literal at all is a shape too.
        let (key, binds) = shape("select k, count(*) from r group by k").unwrap();
        assert_eq!(key, "select k , count ( * ) from r group by k");
        assert!(binds.is_empty());
    }

    #[test]
    fn texts_share_a_key_exactly_when_they_share_their_tokens() {
        let base = shape("select k from r where a >= 10 and a < 20").unwrap().0;
        for same in [
            "select k from r where a >= 99 and a < -7",
            "SeLeCt K fRoM r WhErE A >= 10 aNd a < 20",
            "select k\n\tfrom r   where a>=10 and a<20 ;; ",
            "select k -- projection\nfrom r where a >= 10 -- low\n and a < 20 -- high",
        ] {
            assert_eq!(shape(same).unwrap().0, base, "{same}");
        }
        for other in [
            "select b from r where a >= 10 and a < 20",
            "select k from s where a >= 10 and a < 20",
            "select k from r where a > 10 and a < 20",
            "select k from r where a >= 10 or a < 20",
            "select k from r where a >= 10 and b < 20",
            "select k from r where a >= 10 and not a < 20",
            "select k from r where r.a >= 10 and a < 20",
        ] {
            assert_ne!(shape(other).unwrap().0, base, "{other}");
        }
    }

    #[test]
    fn normalize_declines_what_it_cannot_express() {
        for src in [
            "",
            "  -- nothing\n",
            ";",
            "insert into r values (1, 2)",
            "delete from r where a < 3",
            "create table t (a integer)",
            "from r select *",
            "(select * from r)",
            "5 < 3",
            "; select * from r",
            "select * from r where a < ?",
            "select * from r; select * from r",
            "select * from r;x",
            "select * from r limit 5",
            "select * from r where a < 3 limit 5",
            "select 5 from r",
            "select * from r where a < 99999999999999999999",
            "select * from r where a >= -9223372036854775808",
            "select * from r where a < -",
            "select * from r where a < - b",
            "select * from r where a between 1",
            "select * from r where a between 1 and",
            "select * from r where a between 1 or 2",
            "select * from r where a between b and 2",
            "select * from r where a between 1 and (2)",
            "select * from r where a < 3 4",
            "select * from r where a @ 3",
            "select * from r where a < 3 é",
        ] {
            assert_eq!(shape(src), None, "{src:?}");
        }
    }

    /// One piece of a generated statement's token skeleton.
    #[derive(Debug, Clone, PartialEq)]
    enum Piece {
        Word(&'static str),
        Punct(&'static str),
        Lit(i64),
    }

    const COLS: [&str; 3] = ["k", "a", "b"];
    const OPS: [&str; 7] = ["<", "<=", "=", "<>", "!=", ">=", ">"];

    /// A SELECT over `r(k, a, b)` as a token skeleton: one WHERE atom per
    /// `(kind, column, operator, literal, literal)`, joined per `joins`.
    fn skeleton(proj: u8, atoms: &[(u8, u8, u8, i64, i64)], joins: &[u8]) -> Vec<Piece> {
        use Piece::{Lit, Punct, Word};
        let mut out = vec![Word("select")];
        out.extend(match proj % 4 {
            0 => vec![Punct("*")],
            1 => vec![Word("count"), Punct("("), Punct("*"), Punct(")")],
            2 => vec![Word("k")],
            _ => vec![Word("a"), Punct(","), Word("r"), Punct("."), Word("b")],
        });
        out.extend([Word("from"), Word("r"), Word("where")]);
        for (i, &(kind, col, op, x, y)) in atoms.iter().enumerate() {
            if i > 0 {
                out.extend(match joins[i - 1] % 3 {
                    0 => vec![Word("and")],
                    1 => vec![Word("or")],
                    _ => vec![Word("and"), Word("not")],
                });
            }
            let (col, op) = (Word(COLS[col as usize % 3]), Punct(OPS[op as usize % 7]));
            out.extend(match kind % 5 {
                0 => vec![col, op, Lit(x)],
                1 => vec![Lit(x), op, col],
                2 => vec![col, Word("between"), Lit(x), Word("and"), Lit(y)],
                3 => vec![
                    col,
                    Word("not"),
                    Word("between"),
                    Lit(x),
                    Word("and"),
                    Lit(y),
                ],
                _ => vec![
                    Punct("("),
                    col,
                    op,
                    Lit(x),
                    Word("or"),
                    Lit(y),
                    Punct("<"),
                    Word("b"),
                    Punct(")"),
                ],
            });
        }
        out
    }

    /// Spell a skeleton out, `style` choosing each word's case, each gap's
    /// whitespace or comment, and how a negative literal carries its sign.
    fn render(pieces: &[Piece], style: &[u8]) -> String {
        let mut style = style.iter().cycle().copied();
        let mut next = move || style.next().unwrap_or(0);
        let mut out = String::new();
        for piece in pieces {
            out.push_str(match next() % 5 {
                0 | 1 => " ",
                2 => "\n\t",
                3 => "  ",
                _ => " -- a comment, select 1 < 2\n",
            });
            match piece {
                Piece::Word(w) if next() % 2 == 0 => out.push_str(&w.to_ascii_uppercase()),
                Piece::Word(w) | Piece::Punct(w) => out.push_str(w),
                Piece::Lit(v) if *v < 0 && next() % 2 == 0 => out.push_str(&format!("- {}", -v)),
                Piece::Lit(v) => out.push_str(&v.to_string()),
            }
        }
        if next() % 3 == 0 {
            out.push_str(" ;");
        }
        out
    }

    /// The key a skeleton must normalize to, and its binds.
    fn canonical(pieces: &[Piece]) -> (String, Vec<i64>) {
        let words: Vec<&str> = pieces
            .iter()
            .map(|p| match p {
                Piece::Word(w) | Piece::Punct(w) => *w,
                Piece::Lit(_) => "?",
            })
            .collect();
        let binds = pieces.iter().filter_map(|p| match p {
            Piece::Lit(v) => Some(*v),
            _ => None,
        });
        (words.join(" "), binds.collect())
    }

    struct Rkab;

    impl crate::lower::SchemaProvider for Rkab {
        fn has_table(&self, table: &str) -> bool {
            table == "r"
        }
        fn has_column(&self, table: &str, column: &str) -> bool {
            table == "r" && COLS.contains(&column)
        }
    }

    fn lowered(src: &str) -> SqlResult<crate::lower::LoweredSelect> {
        match crate::parser::parse_one(src)? {
            crate::ast::Statement::Select(s) => crate::lower::lower_select(&s, &Rkab),
            other => panic!("generated a non-SELECT: {other:?}"),
        }
    }

    proptest::proptest! {
        /// Arbitrary input never panics the normalizer, and whatever it
        /// does not decline is SQL the lexer accepts.
        #[test]
        fn prop_normalize_is_total_and_its_keys_lex(
            bytes in proptest::collection::vec(0u8..=255, 0..40),
            picks in proptest::collection::vec(0usize..24, 0..12),
        ) {
            const FRAGMENTS: [&str; 24] = [
                "select", "SELECT", "*", "from", "r", "where", "a", "<", ">=", "<>", "!", "=",
                "-", "--", "\n", "5", "99999999999999999999", "between", "and", "?", ";", "(",
                ")", "é",
            ];
            let soup: Vec<&str> = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            for src in [String::from_utf8_lossy(&bytes).into_owned(), soup.join(" "), soup.concat()] {
                if let Some((key, binds)) = shape(&src) {
                    let toks = lex(&key);
                    proptest::prop_assert!(toks.is_ok(), "{src:?} -> {key:?}: {toks:?}");
                    let params = toks.unwrap_or_default().iter().filter(|t| t.tok == Tok::Param).count();
                    proptest::prop_assert_eq!(params, binds.len(), "{:?} -> {:?}", src, key);
                }
            }
        }

        /// However a statement is spelled, its key is its token skeleton
        /// with `?` for the literals — so spellings of one skeleton share
        /// a key and different skeletons never do — and preparing the key
        /// and binding the literals gives the plan of the text itself.
        #[test]
        fn prop_normalized_shape_binds_back_to_the_literal_plan(
            proj in 0u8..4,
            atoms in proptest::collection::vec((0u8..5, 0u8..3, 0u8..7, -40i64..40, -40i64..40), 1..5),
            joins in proptest::collection::vec(0u8..3, 4..5),
            style in proptest::collection::vec(0u8..30, 8..40),
        ) {
            let pieces = skeleton(proj, &atoms, &joins);
            let text = render(&pieces, &style);
            let got = shape(&text);
            proptest::prop_assert_eq!(got.as_ref(), Some(&canonical(&pieces)), "{}", text);
            let (key, binds) = got.unwrap_or_default();
            let literal = lowered(&text);
            match lowered(&key) {
                Ok(plan) => {
                    proptest::prop_assert_eq!(plan.param_count, binds.len());
                    proptest::prop_assert_eq!(Ok(plan.bind(&binds)), literal.map(Ok), "{}", text);
                }
                // Only the DNF cap refuses these shapes, and it refuses
                // the text as well.
                Err(_) => proptest::prop_assert!(literal.is_err(), "{} lowers but {} does not", text, key),
            }
        }
    }
}
