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
use std::ops::Range;

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

/// The operator or punctuation token starting at `bytes[i]` and its
/// length in bytes; `None` when no token starts with that byte.
fn punct(bytes: &[u8], i: usize) -> Option<(Tok, usize)> {
    let two = |a: u8| bytes.get(i + 1) == Some(&a);
    Some(match bytes[i] {
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
        _ => return None,
    })
}

/// The end of the `--` comment starting at `bytes[i]`: the next newline,
/// or the end of the text.
fn comment_end(bytes: &[u8], i: usize) -> usize {
    bytes[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |n| i + n)
}

/// Tokenize a complete source text.
pub fn lex(src: &str) -> SqlResult<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let start = i;
        let tok = if b.is_ascii_whitespace() {
            i += 1;
            continue;
        } else if b == b'-' && bytes.get(i + 1) == Some(&b'-') {
            i = comment_end(bytes, i);
            continue;
        } else if b.is_ascii_alphabetic() || b == b'_' {
            let is_word = |b: &u8| b.is_ascii_alphanumeric() || *b == b'_';
            while bytes.get(i).is_some_and(is_word) {
                i += 1;
            }
            let text = &src[start..i];
            keyword(text).unwrap_or_else(|| Tok::Ident(text.to_ascii_lowercase()))
        } else if b.is_ascii_digit() {
            while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
            let text = &src[start..i];
            Tok::Int(text.parse().map_err(|_| {
                SqlError::syntax(
                    format!("integer literal {text} overflows i64"),
                    Span::new(start, i),
                )
            })?)
        } else {
            let Some((tok, len)) = punct(bytes, i) else {
                let c = src[start..].chars().next();
                return Err(SqlError::syntax(
                    format!(
                        "unexpected character {:?}",
                        c.unwrap_or(char::REPLACEMENT_CHARACTER)
                    ),
                    Span::new(start, start + 1),
                ));
            };
            i += len;
            tok
        };
        out.push(Token {
            tok,
            span: Span::new(start, i),
        });
    }
    Ok(out)
}

/// What [`normalize`] read: the kind of statement its key spells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Shape {
    /// A SELECT. The key is SQL that prepares to the text's plan once
    /// its `?`s are bound.
    Select,
    /// `INSERT INTO table VALUES` of equally wide tuples: the table is
    /// `key[table]`, and the binds are the rows back to back, `arity`
    /// values each.
    Insert {
        /// The table name's place in the key.
        table: Range<usize>,
        /// Values per row.
        arity: usize,
    },
}

/// Where [`normalize`] stands inside `col [NOT] BETWEEN low AND high`.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum InBetween {
    /// Not inside one.
    #[default]
    No,
    /// `BETWEEN` was the last token: the low bound comes next.
    Low,
    /// The low bound was the last token: the bounds' `AND` comes next.
    And,
    /// The bounds' `AND` was the last token: the high bound comes next.
    High,
}

/// The token an `INSERT INTO t VALUES (..), ..` needs next.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ins {
    /// `INTO`.
    Into,
    /// The table name: a word that is no keyword.
    Table,
    /// `VALUES`.
    Values,
    /// A tuple's `(`.
    Open,
    /// A literal, with its minus.
    Literal,
    /// `,` or the tuple's `)`.
    AfterLiteral,
    /// `,` before the next tuple, `;` or the end.
    AfterRow,
}

/// The statement [`normalize`] is reading.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Stmt {
    /// No token yet: the first word decides.
    #[default]
    Start,
    /// A SELECT.
    Select,
    /// An `INSERT`, which needs this token next.
    Insert(Ins),
}

/// [`normalize`]'s grammar between tokens. The byte loop calls one method
/// per token it scans; each returns `false` to decline the text.
#[derive(Default)]
struct Rules {
    stmt: Stmt,
    /// SELECT: the last token was a comparison operator, so a literal
    /// here is its right operand.
    after_cmp: bool,
    between: InBetween,
    /// A unary minus waits for its digits.
    negative: bool,
    /// SELECT: the last token was a literal nothing to its left
    /// licensed. It is a left operand, so a comparison operator must
    /// follow.
    left_operand: bool,
    /// A `;` ended the statement: only more `;` may follow.
    ended: bool,
    /// INSERT: the table name's place in the key, the values per row (0
    /// until the first `)`), and the values of the row being read.
    table: Range<usize>,
    arity: usize,
    width: usize,
}

impl Rules {
    /// A word, case-folded at `key[start..]`, whose [`packed`] form is
    /// `code`.
    fn word(&mut self, key: &str, start: usize, code: u64) -> bool {
        if self.ended || self.left_operand || self.negative {
            return false;
        }
        self.stmt = match self.stmt {
            Stmt::Start => match code {
                SELECT => Stmt::Select,
                INSERT => Stmt::Insert(Ins::Into),
                _ => return false,
            },
            Stmt::Select => {
                self.between = match (self.between, code) {
                    (InBetween::No, BETWEEN) => InBetween::Low,
                    (InBetween::No, _) => InBetween::No,
                    (InBetween::And, AND) => InBetween::High,
                    _ => return false,
                };
                self.after_cmp = false;
                Stmt::Select
            }
            Stmt::Insert(Ins::Into) if code == INTO => Stmt::Insert(Ins::Table),
            Stmt::Insert(Ins::Table) if keyword(&key[start..]).is_none() => {
                self.table = start..key.len();
                Stmt::Insert(Ins::Values)
            }
            Stmt::Insert(Ins::Values) if code == VALUES => Stmt::Insert(Ins::Open),
            Stmt::Insert(_) => return false,
        };
        true
    }

    /// An integer literal; its minus, if any, was the last token.
    fn literal(&mut self) -> bool {
        if self.ended || self.left_operand {
            return false;
        }
        self.negative = false;
        match self.stmt {
            Stmt::Select => {
                let bound = matches!(self.between, InBetween::Low | InBetween::High);
                self.between = match self.between {
                    InBetween::Low => InBetween::And,
                    InBetween::And => return false,
                    InBetween::High | InBetween::No => InBetween::No,
                };
                self.left_operand = !(self.after_cmp || bound);
                self.after_cmp = false;
            }
            Stmt::Insert(Ins::Literal) => {
                self.width += 1;
                self.stmt = Stmt::Insert(Ins::AfterLiteral);
            }
            _ => return false,
        }
        true
    }

    /// A unary minus.
    fn minus(&mut self) -> bool {
        let licensed = matches!(self.stmt, Stmt::Select | Stmt::Insert(Ins::Literal));
        let ok = licensed && !self.ended && !self.left_operand && !self.negative;
        self.negative = true;
        ok
    }

    /// A `;`.
    fn semi(&mut self) -> bool {
        self.ended = true;
        let at_end = !matches!(self.stmt, Stmt::Insert(ins) if ins != Ins::AfterRow);
        at_end && !self.left_operand && !self.negative
    }

    /// Any other operator or punctuation, spelled with first byte `b`;
    /// `is_cmp` for a comparison operator.
    fn punct(&mut self, b: u8, is_cmp: bool) -> bool {
        if self.ended || self.negative || self.left_operand && !is_cmp {
            return false;
        }
        match self.stmt {
            Stmt::Start => false,
            Stmt::Select => {
                self.left_operand = false;
                self.after_cmp = is_cmp;
                self.between == InBetween::No
            }
            Stmt::Insert(ins) => {
                let next = match (ins, b) {
                    (Ins::Open, b'(') => {
                        self.width = 0;
                        Ins::Literal
                    }
                    (Ins::AfterLiteral, b',') => Ins::Literal,
                    (Ins::AfterLiteral, b')') if self.arity == 0 || self.arity == self.width => {
                        self.arity = self.width;
                        Ins::AfterRow
                    }
                    (Ins::AfterRow, b',') => Ins::Open,
                    _ => return false,
                };
                self.stmt = Stmt::Insert(next);
                true
            }
        }
    }

    /// The shape of a text read to its end, or `None` for an unfinished
    /// one.
    fn finish(self) -> Option<Shape> {
        match self.stmt {
            Stmt::Select if !self.negative && !self.left_operand => {
                (self.between == InBetween::No).then_some(Shape::Select)
            }
            Stmt::Insert(Ins::AfterRow) => Some(Shape::Insert {
                table: self.table,
                arity: self.arity,
            }),
            _ => None,
        }
    }
}

/// Reduce one statement's text to its *shape*: words case-folded,
/// whitespace and comments collapsed to single spaces, and every integer
/// literal that is a SELECT's comparison operand or `BETWEEN` bound, or a
/// value of an `INSERT ... VALUES` tuple, replaced (with its unary minus)
/// by `?`, its value pushed onto `binds` in source order. The key written
/// to `key` lexes, and its `i`-th placeholder takes `binds[i]`: a
/// SELECT's key is SQL whose plan, bound to `binds`, equals the plan of
/// `src`, and an INSERT's key names the table and the tuples' width. Two
/// texts differing only in literals, case, spacing or comments share a
/// key.
///
/// Returns `None` — *declines*, leaving `key` and `binds` unspecified —
/// for anything it cannot express that way, which the caller then runs
/// from the original text so errors keep their spans: a first keyword
/// other than `SELECT` or `INSERT`, a source `?`, a second statement, a
/// SELECT's integer in any other position (`LIMIT n`), an `INSERT` other
/// than `INTO t VALUES` of non-empty tuples of literals all as wide as the
/// first, a literal that overflows `i64`, and any text [`lex`] rejects.
///
/// One loop over the bytes writes the key as it scans: a word is
/// case-folded into the key byte by byte while its first eight bytes are
/// packed into one integer, which the grammar compares with the keywords
/// it needs, and a literal's value is accumulated from its digits. There
/// is no token, span or error value in between, and nothing is allocated
/// once `key` and `binds` have grown to the statement's size. The byte
/// classes are [`lex`]'s; `prop_normalize_is_total_and_its_keys_lex`
/// pins that.
pub(crate) fn normalize(src: &str, key: &mut String, binds: &mut Vec<i64>) -> Option<Shape> {
    key.clear();
    binds.clear();
    let bytes = src.as_bytes();
    let mut rules = Rules::default();
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        i += 1;
        let ok = match b {
            // `u8::is_ascii_whitespace`.
            b' ' | b'\t' | b'\n' | b'\x0C' | b'\r' => continue,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let at = separate(key);
                let (mut code, mut len) = (0, 0);
                let mut c = b;
                loop {
                    let folded = c.to_ascii_lowercase();
                    key.push(char::from(folded));
                    if len < 8 {
                        code |= u64::from(folded) << (8 * len);
                    }
                    len += 1;
                    match bytes.get(i) {
                        Some(&next) if next.is_ascii_alphanumeric() || next == b'_' => c = next,
                        _ => break,
                    }
                    i += 1;
                }
                // A word of eight bytes or more is no keyword the grammar
                // asks about.
                rules.word(key, at, if len < 8 { code } else { u64::MAX })
            }
            b'0'..=b'9' => {
                // `-9223372036854775808` declines like any literal whose
                // digits overflow: the lexer reports it the same way.
                let mut magnitude = i64::from(b - b'0');
                while let Some(&d) = bytes.get(i).filter(|d| d.is_ascii_digit()) {
                    magnitude = magnitude
                        .checked_mul(10)?
                        .checked_add(i64::from(d - b'0'))?;
                    i += 1;
                }
                binds.push(if rules.negative {
                    -magnitude
                } else {
                    magnitude
                });
                separate(key);
                key.push('?');
                rules.literal()
            }
            b'-' if bytes.get(i) == Some(&b'-') => {
                i = comment_end(bytes, i);
                continue;
            }
            // Neither reaches the key: `;` ends the statement, the sign
            // travels with its literal's value.
            b'-' => rules.minus(),
            b';' => rules.semi(),
            _ => {
                let next = bytes.get(i).copied();
                let second = match (b, next) {
                    (b'<', Some(b'=' | b'>')) | (b'>' | b'!', Some(b'=')) => next,
                    (b'*' | b',' | b'.' | b'(' | b')' | b'=' | b'<' | b'>', _) => None,
                    // `?`, a lone `!`, and bytes no token starts with.
                    _ => return None,
                };
                separate(key);
                key.push(char::from(b));
                if let Some(c) = second {
                    key.push(char::from(c));
                    i += 1;
                }
                rules.punct(b, matches!(b, b'=' | b'<' | b'>' | b'!'))
            }
        };
        if !ok {
            return None;
        }
    }
    rules.finish()
}

/// The first eight bytes of a lowercase word, little-endian: a word
/// shorter than eight bytes is the keyword `word` exactly when its packed
/// form is `packed(word)`.
const fn packed(word: &[u8]) -> u64 {
    let mut code = 0;
    let mut i = 0;
    while i < word.len() {
        code |= (word[i] as u64) << (8 * i);
        i += 1;
    }
    code
}

const SELECT: u64 = packed(b"select");
const INSERT: u64 = packed(b"insert");
const INTO: u64 = packed(b"into");
const VALUES: u64 = packed(b"values");
const BETWEEN: u64 = packed(b"between");
const AND: u64 = packed(b"and");

/// Start the next token of a key: a space after the one before. Returns
/// where the token starts.
fn separate(key: &mut String) -> usize {
    if !key.is_empty() {
        key.push(' ');
    }
    key.len()
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
        insert_shape(src).map(|(key, binds, _)| (key, binds))
    }

    /// [`shape`] and the kind of statement the key spells.
    fn insert_shape(src: &str) -> Option<(String, Vec<i64>, Shape)> {
        let (mut key, mut binds) = (String::from("stale"), vec![7]);
        let kind = normalize(src, &mut key, &mut binds)?;
        Some((key, binds, kind))
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
            "insert",
            "insert into",
            "insert into r",
            "insert into r values",
            "insert r values (1)",
            "insert into r select * from r",
            "insert into r values (1, 2), (3)",
            "insert into r values (1), (2, 3)",
            "insert into r values ()",
            "insert into r values (1,)",
            "insert into r values (1) (2)",
            "insert into r values (1),",
            "insert into r values (1, ?)",
            "insert into r values (- - 1)",
            "insert into r values (-)",
            "insert into r values (1 2)",
            "insert into r values (a)",
            "insert into r values 1",
            "insert into r.x values (1)",
            "insert into select values (1)",
            "insert into int values (1)",
            "insert into r values (99999999999999999999)",
            "insert into r values (-9223372036854775808)",
            "insert into r values (1); insert into r values (2)",
            "insert into r values (1) where a < 3",
            "insert into r values (1) é",
        ] {
            assert_eq!(shape(src), None, "{src:?}");
        }
    }

    #[test]
    fn normalize_turns_values_tuples_into_binds() {
        let (key, binds, kind) =
            insert_shape("INSERT  INTO Rel -- the table\n VALUES (1, -2),(- 3,4) ;;").unwrap();
        assert_eq!(key, "insert into rel values ( ? , ? ) , ( ? , ? )");
        assert_eq!(binds, vec![1, -2, -3, 4]);
        assert_eq!(
            kind,
            Shape::Insert {
                table: 12..15,
                arity: 2
            }
        );
        assert_eq!(&key[12..15], "rel");
        let (_, binds, kind) =
            insert_shape("insert into t values (9223372036854775807), (-9223372036854775807)")
                .unwrap();
        assert_eq!(binds, vec![i64::MAX, -i64::MAX]);
        assert_eq!(
            kind,
            Shape::Insert {
                table: 12..13,
                arity: 1
            }
        );
        // Other literals and other widths make other keys.
        let base = shape("insert into t values (1, 2)").unwrap().0;
        assert_eq!(shape("insert into T values (-5,6);").unwrap().0, base);
        assert_ne!(
            shape("insert into t values (1, 2), (3, 4)").unwrap().0,
            base
        );
        assert_ne!(shape("insert into t values (1, 2, 3)").unwrap().0, base);
        assert_ne!(shape("insert into u values (1, 2)").unwrap().0, base);
        assert_eq!(insert_shape("select * from r").unwrap().2, Shape::Select);
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

    /// `INSERT INTO r VALUES` of `rows` as a token skeleton.
    fn insert_skeleton(rows: &[Vec<i64>]) -> Vec<Piece> {
        use Piece::{Lit, Punct, Word};
        let mut out = vec![Word("insert"), Word("into"), Word("r"), Word("values")];
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                out.push(Punct(","));
            }
            out.push(Punct("("));
            for (j, &v) in row.iter().enumerate() {
                if j > 0 {
                    out.push(Punct(","));
                }
                out.push(Lit(v));
            }
            out.push(Punct(")"));
        }
        out
    }

    /// A `VALUES` literal: small, extreme, or anywhere but `i64::MIN`,
    /// which no literal spells.
    fn value() -> impl proptest::Strategy<Value = i64> {
        proptest::prop_oneof![
            -40i64..40,
            -40i64..40,
            proptest::Just(i64::MAX),
            proptest::Just(-i64::MAX),
            (i64::MIN + 1)..=i64::MAX,
        ]
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
                Piece::Lit(v) if *v < 0 && next() % 2 == 0 => {
                    out.push_str(&format!("- {}", v.unsigned_abs()))
                }
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

        /// The same for `INSERT ... VALUES` of 1–40 tuples: however it is
        /// spelled, its key is its skeleton with `?` for the values, its
        /// binds are the rows the parser reads from the text, back to
        /// back, and the shape names the table and the tuples' width. A
        /// text holding `i64::MIN` declines, and the parser refuses it.
        #[test]
        fn prop_normalized_insert_binds_back_to_the_parsed_rows(
            arity in 1usize..4,
            n in 1usize..41,
            values in proptest::collection::vec(value(), 120..121),
            (min, min_at) in (0u8..5, 0usize..120),
            style in proptest::collection::vec(0u8..30, 8..40),
        ) {
            let mut rows: Vec<Vec<i64>> = values.chunks(arity).take(n).map(<[i64]>::to_vec).collect();
            let min_at = (min == 0).then_some(min_at % (n * arity));
            if let Some(at) = min_at {
                rows[at / arity][at % arity] = i64::MIN;
            }
            let pieces = insert_skeleton(&rows);
            let text = render(&pieces, &style);
            let parsed = crate::parser::parse_one(&text);
            if min_at.is_some() {
                proptest::prop_assert_eq!(insert_shape(&text), None, "{}", text);
                proptest::prop_assert!(parsed.is_err(), "{}", text);
            } else {
                let (key, binds) = canonical(&pieces);
                let want = Some((key, binds.clone(), Shape::Insert { table: 12..13, arity }));
                proptest::prop_assert_eq!(insert_shape(&text), want, "{}", text);
                proptest::prop_assert_eq!(&binds, &rows.concat());
                match parsed {
                    Ok(crate::ast::Statement::InsertValues { table, rows: got, .. }) => {
                        proptest::prop_assert_eq!(table, "r");
                        proptest::prop_assert_eq!(got, rows, "{}", text);
                    }
                    other => proptest::prop_assert!(false, "{} parsed to {:?}", text, other),
                }
            }
        }
    }
}
