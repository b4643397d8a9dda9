#![warn(missing_docs)]
//! # sql — a SQL front-end for the cracking engine
//!
//! The paper's architecture slots the cracker "between the semantic
//! analyzer and the query optimizer of a modern DBMS infrastructure"
//! (§3). This crate supplies the stages above that slot, for the SQL
//! fragment §3.1 actually evaluates:
//!
//! * [`token`] — a tokenizer for the statement forms of the experiments
//!   (`SELECT` with `WHERE`/`GROUP BY`/`LIMIT`, `INSERT INTO ... SELECT`,
//!   `INSERT ... VALUES`, `DELETE FROM`, `CREATE TABLE`, `DROP TABLE`);
//! * [`parser`] — a recursive-descent parser producing the [`ast`];
//! * [`dnf`] — normalization of WHERE clauses to disjunctive normal form,
//!   the representation the paper assumes "without loss of generality";
//! * [`lower`] — the semantic analyzer: name resolution, per-column range
//!   folding, join-path validation, and lowering to
//!   [`engine::query::QueryTerm`] — exactly the point where the cracker
//!   handles (Ξ selections, ^ joins, Ω groupings, Ψ projections) are
//!   extracted;
//! * [`exec`] — [`SqlSession`], an interactive session over an
//!   [`engine::AdaptiveDb`], which is the only owner of table data: every
//!   `SELECT` leaves the store better partitioned for the next, and
//!   DDL/DML mutates the database in place (an `INSERT` keeps the table's
//!   cracked columns warm, and so does a `DELETE`, which stages its rows
//!   as deletes and compacts and renumbers once per `len / 64` of them).
//!   A column has one cracked copy, the database's latched
//!   `ConcurrentColumn`, so a statement and a worker thread holding
//!   `AdaptiveDb::shared_cracker`'s handle see the same piece map.
//!   Statements may carry `?` placeholders; [`SqlSession::prepare`]
//!   lowers them once into a [`Prepared`] plan that
//!   [`SqlSession::execute_prepared_many`] binds and runs
//!   batch-at-a-time. Text takes the same road: [`SqlSession::execute`]
//!   and [`SqlSession::execute_one`] are normalize → cache → bind → run.
//!   The text of a SELECT or an `INSERT ... VALUES` is reduced to its
//!   shape in one pass over its bytes (case, spacing and comments
//!   folded, the integer operands of comparisons and the values of
//!   tuples pulled out as bind values), the shape is looked up in a small
//!   per-session map of prepared plans, and the plan is bound and run —
//!   so a shape seen before is not lexed, parsed or lowered again.
//!   Whatever the shape cannot carry *declines* the cache and is parsed
//!   from the original text, errors and spans as written: other
//!   statements, several statements, a source `?`, `LIMIT n`, a literal
//!   that overflows, and any shape that fails to prepare. A schema change
//!   (`CREATE`, `DROP`, `INSERT ... SELECT` into a new table) empties
//!   the map; [`SqlSession::plan_cache_stats`] counts what it did.
//!
//! ## Quick example
//!
//! ```
//! use sql::SqlSession;
//!
//! let mut session = SqlSession::new();
//! session
//!     .execute(
//!         "create table r (k integer, a integer);
//!          insert into r values (1, 30), (2, 10), (3, 20);",
//!     )
//!     .unwrap();
//! let out = session
//!     .execute_one("select * from r where a between 10 and 20")
//!     .unwrap();
//! assert_eq!(out.row_count(), 2);
//! // The range query cracked column `a` as a side effect.
//! assert_eq!(session.cracked_columns(), 1);
//!
//! // Projecting another column rides the same cracked copy of `a`: its
//! // OIDs select the rows and `k` is gathered from the base.
//! session
//!     .execute_one("select k from r where a between 10 and 20")
//!     .unwrap();
//! assert_eq!(session.cracked_columns(), 1);
//! ```

pub mod ast;
pub mod dnf;
pub mod error;
pub mod exec;
pub mod lower;
pub mod parser;
pub mod token;

pub use error::{Span, SqlError, SqlResult};
pub use exec::{PlanCacheStats, Prepared, QueryOutput, SqlSession};
pub use lower::{lower_select, LoweredSelect, ParamSlot, SchemaProvider};
pub use parser::{parse, parse_one};
