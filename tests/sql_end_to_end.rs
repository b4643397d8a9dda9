//! End-to-end: SQL statements in, cracked answers out, cross-checked
//! against a naive oracle over the same data.

use dbcracker::prelude::*;
use sql::SqlSession;

/// A session holding a 2-column tapestry table `r(k, a)` plus the raw
/// column data for oracle checks.
fn tapestry_session(n: usize, seed: u64) -> (SqlSession, Vec<i64>, Vec<i64>) {
    let t = Tapestry::generate(n, 2, seed);
    let k = t.column(0).to_vec();
    let a = t.column(1).to_vec();
    let mut s = SqlSession::new();
    s.load_table("r", vec![("k".into(), k.clone()), ("a".into(), a.clone())])
        .unwrap();
    (s, k, a)
}

#[test]
fn a_homerun_sequence_through_sql_matches_the_oracle() {
    let n = 5_000;
    let (mut session, _, a) = tapestry_session(n, 7);
    let windows = workload::homerun::homerun_sequence(n, 12, 0.05, Contraction::Linear, 3);
    for w in &windows {
        let (lo, hi) = (w.lo, w.hi);
        let sql = format!("select count(*) from r where a >= {lo} and a < {hi}");
        let out = session.execute_one(&sql).unwrap();
        let got = out.rows().unwrap()[0][0];
        let want = a.iter().filter(|&&v| (lo..hi).contains(&v)).count() as i64;
        assert_eq!(got, want, "window [{lo},{hi})");
    }
    // One column queried throughout → one cracked column.
    assert_eq!(session.cracked_columns(), 1);
    let stats = session.adaptive().total_crack_stats();
    assert_eq!(stats.queries, windows.len());
    assert!(
        stats.cracks > 0,
        "the sequence physically cracked the store"
    );
}

#[test]
fn conjunctions_disjunctions_and_negations_match_the_oracle() {
    let (mut session, k, a) = tapestry_session(2_000, 11);
    let cases = [
        "a >= 100 and a < 900 and k < 1000",
        "a < 100 or a > 1900",
        "not (a between 500 and 1500)",
        "a <> 1000 and k >= 1990",
        "(a < 300 or a >= 1700) and k between 1 and 1999",
    ];
    for clause in cases {
        let out = session
            .execute_one(&format!("select count(*) from r where {clause}"))
            .unwrap();
        let got = out.rows().unwrap()[0][0];
        let want = k
            .iter()
            .zip(&a)
            .filter(|&(&kv, &av)| oracle(clause, kv, av))
            .count() as i64;
        assert_eq!(got, want, "clause {clause:?}");
    }
}

/// Hand-written oracle for the fixed test clauses.
fn oracle(clause: &str, k: i64, a: i64) -> bool {
    match clause {
        "a >= 100 and a < 900 and k < 1000" => (100..900).contains(&a) && k < 1000,
        "a < 100 or a > 1900" => !(100..=1900).contains(&a),
        "not (a between 500 and 1500)" => !(500..=1500).contains(&a),
        "a <> 1000 and k >= 1990" => a != 1000 && k >= 1990,
        "(a < 300 or a >= 1700) and k between 1 and 1999" => {
            !(300..1700).contains(&a) && (1..=1999).contains(&k)
        }
        other => panic!("no oracle for {other:?}"),
    }
}

#[test]
fn materialization_pipeline_like_figure_1a() {
    let (mut session, _, a) = tapestry_session(1_000, 3);
    // The paper's benchmark query: INSERT INTO newR SELECT * FROM R WHERE ...
    session
        .execute_one("insert into newr select * from r where a >= 10 and a <= 200")
        .unwrap();
    let out = session.execute_one("select count(*) from newr").unwrap();
    let want = a.iter().filter(|&&v| (10..=200).contains(&v)).count() as i64;
    assert_eq!(out.rows().unwrap()[0][0], want);
    // The materialized table is itself crackable.
    let out = session
        .execute_one("select count(*) from newr where a < 50")
        .unwrap();
    let want = a.iter().filter(|&&v| (10..50).contains(&v)).count() as i64;
    assert_eq!(out.rows().unwrap()[0][0], want);
}

#[test]
fn join_through_sql_agrees_with_nested_loop() {
    let mut session = SqlSession::new();
    let r_k: Vec<i64> = (0..200).map(|i| i % 20).collect();
    let r_a: Vec<i64> = (0..200).collect();
    let s_k: Vec<i64> = (0..50).map(|i| i % 10).collect();
    let s_b: Vec<i64> = (0..50).map(|i| i * 3).collect();
    session
        .load_table(
            "r",
            vec![("k".into(), r_k.clone()), ("a".into(), r_a.clone())],
        )
        .unwrap();
    session
        .load_table(
            "s",
            vec![("k".into(), s_k.clone()), ("b".into(), s_b.clone())],
        )
        .unwrap();
    let out = session
        .execute_one("select count(*) from r, s where r.k = s.k and r.a < 100 and s.b >= 30")
        .unwrap();
    let mut want = 0i64;
    for (i, &rk) in r_k.iter().enumerate() {
        for (j, &sk) in s_k.iter().enumerate() {
            if rk == sk && r_a[i] < 100 && s_b[j] >= 30 {
                want += 1;
            }
        }
    }
    assert_eq!(out.rows().unwrap()[0][0], want);
}

#[test]
fn group_by_aggregates_agree_with_manual_grouping() {
    let (mut session, k, a) = tapestry_session(1_000, 19);
    // Bucket k into 10 groups via a materialized helper column is overkill;
    // group directly on k % -- not supported. Use a small value domain table.
    let groups: Vec<i64> = k.iter().map(|v| v % 7).collect();
    session
        .load_table(
            "g",
            vec![("grp".into(), groups.clone()), ("a".into(), a.clone())],
        )
        .unwrap();
    let out = session
        .execute_one("select grp, count(*), sum(a), min(a), max(a) from g group by grp")
        .unwrap();
    let rows = out.rows().unwrap();
    assert_eq!(rows.len(), 7);
    for row in rows {
        let g = row[0];
        let members: Vec<i64> = groups
            .iter()
            .zip(&a)
            .filter(|(&gv, _)| gv == g)
            .map(|(_, &av)| av)
            .collect();
        assert_eq!(row[1], members.len() as i64, "count of group {g}");
        assert_eq!(row[2], members.iter().sum::<i64>(), "sum of group {g}");
        assert_eq!(row[3], *members.iter().min().unwrap(), "min of group {g}");
        assert_eq!(row[4], *members.iter().max().unwrap(), "max of group {g}");
    }
}

#[test]
fn errors_render_with_source_context() {
    let mut session = SqlSession::new();
    session
        .load_table("r", vec![("a".into(), vec![1, 2, 3])])
        .unwrap();
    let src = "select * from r where b < 3";
    let err = session.execute_one(src).unwrap_err();
    let rendered = err.render(src);
    assert!(rendered.contains("no FROM table has a column"));
    assert!(rendered.contains('^'));
}

#[test]
fn successive_sql_queries_leave_the_store_progressively_cracked() {
    let (mut session, _, _) = tapestry_session(10_000, 23);
    let mut pieces_last = 0;
    for step in 0..8 {
        let lo = step * 500;
        let hi = lo + 400;
        session
            .execute_one(&format!(
                "select count(*) from r where a >= {lo} and a < {hi}"
            ))
            .unwrap();
        let stats = session.adaptive().total_crack_stats();
        assert!(stats.cracks >= pieces_last, "cracks only accumulate");
        pieces_last = stats.cracks;
    }
    // Eight disjoint windows → substantially more than one crack.
    assert!(pieces_last >= 8);
}

// ---- SQL-level differential DML: every statement against a naive row store ----

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sql::{QueryOutput, SqlError};
use std::collections::BTreeMap;

/// One table of the naive store: column names and rows, nothing else.
#[derive(Debug, Clone)]
struct NaiveTable {
    cols: Vec<&'static str>,
    rows: Vec<Vec<i64>>,
}

/// Half-open ranges over columns: `(column, lo, hi)` means `lo <= c < hi`.
type Conjunct = Vec<(&'static str, i64, i64)>;

impl NaiveTable {
    fn pos(&self, col: &str) -> usize {
        self.cols.iter().position(|c| *c == col).unwrap()
    }

    fn matching(&self, preds: &Conjunct) -> Vec<Vec<i64>> {
        let keep = |row: &&Vec<i64>| {
            preds
                .iter()
                .all(|&(c, lo, hi)| (lo..hi).contains(&row[self.pos(c)]))
        };
        self.rows.iter().filter(keep).cloned().collect()
    }

    /// Rows whose `a` and `b` satisfy `keep`.
    fn filter(&self, keep: impl Fn(i64, i64) -> bool) -> Vec<Vec<i64>> {
        let (a, b) = (self.pos("a"), self.pos("b"));
        let keep = |row: &&Vec<i64>| keep(row[a], row[b]);
        self.rows.iter().filter(keep).cloned().collect()
    }

    fn project(&self, rows: &[Vec<i64>], cols: &[&str]) -> Vec<Vec<i64>> {
        rows.iter()
            .map(|r| cols.iter().map(|c| r[self.pos(c)]).collect())
            .collect()
    }
}

fn where_sql(preds: &Conjunct) -> String {
    if preds.is_empty() {
        return String::new();
    }
    let terms: Vec<String> = preds
        .iter()
        .map(|(c, lo, hi)| format!("{c} >= {lo} and {c} < {hi}"))
        .collect();
    format!(" where {}", terms.join(" and "))
}

/// A random range over `col`, at most `width` wide.
fn range(rng: &mut SmallRng, col: &'static str, width: i64) -> (&'static str, i64, i64) {
    let lo = rng.gen_range(-20..1000);
    (col, lo, lo + rng.gen_range(0..=width))
}

fn values_sql(rows: &[Vec<i64>]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let vals: Vec<String> = r.iter().map(i64::to_string).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    tuples.join(", ")
}

fn sorted(mut rows: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
    rows.sort_unstable();
    rows
}

/// What the naive store says a statement must produce.
#[derive(Debug)]
enum Expect {
    Rows(Vec<Vec<i64>>),
    /// `LIMIT n`: any `n` of these rows (all of them if there are fewer).
    AnyOf(Vec<Vec<i64>>, usize),
    Ack(String),
    SemanticError,
    /// A source `?` outside a prepared statement.
    UnboundParameter,
}

#[test]
fn generated_dml_and_selects_match_a_naive_row_store() {
    let mut rng = SmallRng::seed_from_u64(0xC4AC);
    // `text` runs every statement from its text, so its SELECTs go through
    // the plan cache; `parsed` is handed ASTs, which no cache can see.
    let mut sessions = Twins {
        text: SqlSession::new(),
        parsed: SqlSession::new(),
    };
    let mut naive: BTreeMap<&'static str, NaiveTable> = BTreeMap::new();
    let seed_rows: Vec<Vec<i64>> = (0..300)
        .map(|_| {
            vec![
                rng.gen_range(0..8),
                rng.gen_range(0..1000),
                rng.gen_range(0..1000),
            ]
        })
        .collect();
    let column = |i: usize| seed_rows.iter().map(|r| r[i]).collect::<Vec<i64>>();
    for session in [&mut sessions.text, &mut sessions.parsed] {
        let columns = ["k", "a", "b"].iter().enumerate();
        let columns = columns.map(|(i, name)| (name.to_string(), column(i)));
        session.load_table("r", columns.collect()).unwrap();
    }
    naive.insert(
        "r",
        NaiveTable {
            cols: vec!["k", "a", "b"],
            rows: seed_rows.clone(),
        },
    );

    let mut kinds = BTreeMap::<&str, usize>::new();
    for step in 0..600 {
        let has_t2 = naive.contains_key("t2");
        // Selects and `INSERT ... VALUES` target either table.
        let target = if has_t2 && rng.gen_range(0..3) == 0 {
            "t2"
        } else {
            "r"
        };
        let arity = naive[target].cols.len();
        let (kind, sql, expect): (&str, String, Expect) = 'kind: {
            match rng.gen_range(0..100) {
                0..=13 => {
                    let rows: Vec<Vec<i64>> = (0..rng.gen_range(1..=4))
                        .map(|_| (0..arity).map(|_| rng.gen_range(0..1000)).collect())
                        .collect();
                    let sql = format!("insert into {target} values {}", values_sql(&rows));
                    let ack = format!("inserted {} rows into {target}", rows.len());
                    naive.get_mut(target).unwrap().rows.extend(rows);
                    ("insert values", sql, Expect::Ack(ack))
                }
                14..=17 => {
                    let sql = format!("insert into {target} values (1, 2), (3)");
                    ("ragged insert", sql, Expect::SemanticError)
                }
                18..=27 => {
                    // Creates t2(a, b) when it does not exist, appends otherwise.
                    let preds = vec![range(&mut rng, "a", 150)];
                    let r = &naive["r"];
                    let rows = r.project(&r.matching(&preds), &["a", "b"]);
                    let sql = format!("insert into t2 select a, b from r{}", where_sql(&preds));
                    let ack = format!("inserted {} rows into t2", rows.len());
                    naive
                        .entry("t2")
                        .or_insert_with(|| NaiveTable {
                            cols: vec!["a", "b"],
                            rows: Vec::new(),
                        })
                        .rows
                        .extend(rows);
                    ("insert select", sql, Expect::Ack(ack))
                }
                28..=34 => {
                    let preds = vec![range(&mut rng, "b", 60)];
                    let rows = naive["r"].matching(&preds);
                    let sql = format!("insert into r select * from r{}", where_sql(&preds));
                    let ack = format!("inserted {} rows into r", rows.len());
                    naive.get_mut("r").unwrap().rows.extend(rows);
                    ("insert select into itself", sql, Expect::Ack(ack))
                }
                35..=37 => {
                    let sql = if rng.gen_range(0..2) == 0 {
                        "insert into r select a, b from r where a < 500"
                    } else {
                        "insert into dup select a, a from r"
                    };
                    ("rejected insert select", sql.into(), Expect::SemanticError)
                }
                38..=47 => {
                    let mut preds = vec![range(&mut rng, "a", 120)];
                    if rng.gen_range(0..3) == 0 {
                        preds.push(range(&mut rng, "b", 600));
                    }
                    let t = naive.get_mut("r").unwrap();
                    let doomed = t.matching(&preds);
                    t.rows.retain(|row| !doomed.contains(row));
                    let doomed = doomed.len();
                    let sql = format!("delete from r{}", where_sql(&preds));
                    (
                        "ranged delete",
                        sql,
                        Expect::Ack(format!("deleted {doomed} rows from r")),
                    )
                }
                48..=50 => {
                    let expect = match naive.get_mut("t2") {
                        Some(t) => {
                            let n = std::mem::take(&mut t.rows).len();
                            Expect::Ack(format!("deleted {n} rows from t2"))
                        }
                        None => Expect::SemanticError,
                    };
                    ("delete without where", "delete from t2".into(), expect)
                }
                51..=54 => {
                    let expect = if has_t2 {
                        Expect::SemanticError
                    } else {
                        naive.insert(
                            "t2",
                            NaiveTable {
                                cols: vec!["a", "b"],
                                rows: Vec::new(),
                            },
                        );
                        Expect::Ack("created table t2".into())
                    };
                    (
                        "create",
                        "create table t2 (a integer, b integer)".into(),
                        expect,
                    )
                }
                55..=57 => {
                    let expect = match naive.remove("t2") {
                        Some(_) => Expect::Ack("dropped table t2".into()),
                        None => Expect::SemanticError,
                    };
                    ("drop", "drop table t2".into(), expect)
                }
                pick => {
                    let t = &naive[target];
                    let one = vec![range(&mut rng, "a", 200)];
                    let two = vec![range(&mut rng, "a", 400), range(&mut rng, "b", 400)];
                    let count = |rows: Vec<Vec<i64>>| vec![vec![rows.len() as i64]];
                    let select = |what: &str, preds: &Conjunct| {
                        format!("select {what} from {target}{}", where_sql(preds))
                    };
                    let (x, y) = (rng.gen_range(-20..1000), rng.gen_range(-20..1000));
                    let n: i64 = rng.gen_range(0..12);
                    let (kind, sql, rows) = match pick % 18 {
                    0 => ("count", select("count(*)", &one), count(t.matching(&one))),
                    1 => ("star", select("*", &one), t.matching(&one)),
                    2 => {
                        // `b` under a predicate on `a` is gathered by the
                        // OIDs `a`'s cracked copy selects; so is `a` itself.
                        let col = if rng.gen_range(0..2) == 0 { "a" } else { "b" };
                        let rows = t.project(&t.matching(&one), &[col]);
                        ("single column", select(col, &one), rows)
                    }
                    3 => (
                        "conjunct count",
                        select("count(*)", &two),
                        count(t.matching(&two)),
                    ),
                    4 => ("conjunct star", select("*", &two), t.matching(&two)),
                    5 => {
                        let preds = if rng.gen_range(0..2) == 0 {
                            Vec::new()
                        } else {
                            one
                        };
                        let key = t.cols[0];
                        let mut groups = BTreeMap::<i64, (i64, i64)>::new();
                        for row in t.matching(&preds) {
                            let g = groups.entry(row[0]).or_default();
                            *g = (g.0 + 1, g.1 + row[t.pos("b")]);
                        }
                        let what = format!("{key}, count(*), sum(b)");
                        let sql = format!("{} group by {key}", select(&what, &preds));
                        let rows = groups.iter().map(|(k, g)| vec![*k, g.0, g.1]).collect();
                        ("group by", sql, rows)
                    }
                    // Shapes the plan cache must strip, fold or decline right.
                    6 => (
                        "literal on the left",
                        format!("select * from {target} where {x} <= a and {y} > b"),
                        t.filter(|a, b| x <= a && y > b),
                    ),
                    7 => (
                        "negative literals",
                        format!("select count(*) from {target} where a > -{n} and b >= - 15 and a < {y}"),
                        count(t.filter(|a, b| a > -n && b >= -15 && a < y)),
                    ),
                    8 => (
                        "not equal",
                        format!("select a from {target} where a <> {x} and b != {y}"),
                        t.project(&t.filter(|a, b| a != x && b != y), &["a"]),
                    ),
                    9 => (
                        "negation",
                        format!("select * from {target} where not (a >= {x} and a < {y}) and not b < {n}"),
                        t.filter(|a, b| !(a >= x && a < y) && b >= n),
                    ),
                    10 => (
                        "two ranges of one column",
                        format!("select count(*) from {target} where a < {x} or a >= {y}"),
                        count(t.filter(|a, _| a < x || a >= y)),
                    ),
                    11 => (
                        "between",
                        format!("select b from {target} where a between {x} and {y} or b not between {n} and 990"),
                        t.project(&t.filter(|a, b| (x..=y).contains(&a) || !(n..=990).contains(&b)), &["b"]),
                    ),
                    12 => (
                        "empty range",
                        format!("select * from {target} where a < {n} and a > {}", n + 6),
                        Vec::new(),
                    ),
                    13 => (
                        "constant conjunct",
                        format!("select * from {target} where a < {x} and 1 > 2"),
                        Vec::new(),
                    ),
                    14 => {
                        let sql = format!("select * from {target} where a >= {x} limit {n}");
                        let expect = Expect::AnyOf(t.filter(|a, _| a >= x), n as usize);
                        break 'kind ("limit", sql, expect);
                    }
                    15 => {
                        // One shape, spelled the plain way first and then
                        // with its case, spacing and comments changed: the
                        // second spelling must find the first one's plan.
                        let plain = select("count(*)", &one);
                        let rows = count(t.matching(&one));
                        sessions.check(step, &plain, Expect::Rows(rows.clone()));
                        let (_, lo, hi) = one[0];
                        let sql = format!(
                            "SELECT  Count ( * )\nFROM {target} -- the table\n\tWHERE a>={lo} AND a<{hi} ;"
                        );
                        let hits = sessions.text.plan_cache_stats().hits;
                        sessions.check(step, &sql, Expect::Rows(rows.clone()));
                        assert_eq!(sessions.text.plan_cache_stats().hits, hits + 1, "{sql}");
                        ("respelled", sql, rows)
                    }
                    16 => {
                        let sql = format!("select count(*) from r, t2 where r.a = t2.a and r.b < {x}");
                        let expect = match naive.get("t2") {
                            Some(t2) => {
                                let r = &naive["r"];
                                let pairs = r.filter(|_, b| b < x).iter().map(|row| {
                                    let same_a = |other: &&Vec<i64>| other[0] == row[1];
                                    t2.rows.iter().filter(same_a).count() as i64
                                }).sum();
                                Expect::Rows(vec![vec![pairs]])
                            }
                            None => Expect::SemanticError,
                        };
                        break 'kind ("join", sql, expect);
                    }
                    _ => {
                        let sql = format!("select * from {target} where a < ? and b < {x}");
                        break 'kind ("source parameter", sql, Expect::UnboundParameter);
                    }
                };
                    (kind, sql, Expect::Rows(rows))
                }
            }
        };
        *kinds.entry(kind).or_default() += 1;
        let cracked = |s: &Twins| [s.text.cracked_columns(), s.parsed.cracked_columns()];
        let before = cracked(&sessions);
        sessions.check(step, &sql, expect);
        if kind.contains("delete") {
            // A delete keeps the table's cracked copies warm.
            let after = cracked(&sessions);
            assert!(
                after[0] >= before[0] && after[1] >= before[1],
                "step {step}: {sql}"
            );
        }
        sessions.check_tables(step, &sql, &naive);
    }
    // The generator reached every statement kind it knows.
    assert_eq!(kinds.len(), 27, "{kinds:?}");
    assert!(kinds.values().all(|&n| n >= 3), "{kinds:?}");
    // The text session answered from cached plans, dropped them at every
    // schema change, and sent to the uncached path what it had to.
    let cache = sessions.text.plan_cache_stats();
    assert!(cache.hits > cache.misses && cache.misses > 27, "{cache:?}");
    assert!(cache.evictions > 0 && cache.declined > 0, "{cache:?}");
    assert_eq!(sessions.parsed.plan_cache_stats().hits, 0);
}

/// Two sessions fed the same statements: `text` as SQL text — through the
/// plan cache — and `parsed` as ASTs, which bypass it. They must be
/// indistinguishable from outside.
struct Twins {
    text: SqlSession,
    parsed: SqlSession,
}

impl Twins {
    /// Run one statement on both sessions; compare the outcomes with each
    /// other (rows, typed error with its message and span, crack counters)
    /// and with the naive store's.
    fn check(&mut self, step: usize, sql: &str, expect: Expect) {
        let got = self.text.execute_one(sql);
        let twin = sql::parse(sql)
            .and_then(|stmts| self.parsed.execute_batch(&stmts))
            .map(|mut outs| outs.remove(0));
        match (&got, &twin) {
            (
                Ok(QueryOutput::Table { columns, rows }),
                Ok(QueryOutput::Table {
                    columns: twin_columns,
                    rows: twin_rows,
                }),
            ) => {
                assert_eq!(columns, twin_columns, "step {step}: {sql}");
                let (rows, twin_rows) = (sorted(rows.clone()), sorted(twin_rows.clone()));
                assert_eq!(rows, twin_rows, "step {step}: {sql}");
            }
            _ => assert_eq!(got, twin, "step {step}: {sql}"),
        }
        assert_eq!(
            self.text.adaptive().total_crack_stats(),
            self.parsed.adaptive().total_crack_stats(),
            "step {step}: {sql} cracked the two stores differently"
        );
        match (got, expect) {
            (Ok(QueryOutput::Table { rows, .. }), Expect::Rows(want)) => {
                assert_eq!(sorted(rows), sorted(want), "step {step}: {sql}")
            }
            (Ok(QueryOutput::Table { rows, .. }), Expect::AnyOf(pool, n)) => {
                assert_eq!(rows.len(), n.min(pool.len()), "step {step}: {sql}");
                let mut pool = sorted(pool);
                for row in rows {
                    let at = pool.binary_search(&row);
                    let at = at.unwrap_or_else(|_| panic!("step {step}: {sql}: stray row {row:?}"));
                    pool.remove(at);
                }
            }
            (Ok(QueryOutput::Affected { message }), Expect::Ack(want)) => {
                assert_eq!(message, want, "step {step}: {sql}")
            }
            (Err(SqlError::Semantic { .. }), Expect::SemanticError) => {}
            (Err(SqlError::Unsupported { msg, .. }), Expect::UnboundParameter)
                if msg.contains("unbound parameter") => {}
            (got, want) => panic!("step {step}: {sql}\n  got {got:?}\n  want {want:?}"),
        }
    }

    /// After every statement: same tables, same rows in each.
    fn check_tables(&mut self, step: usize, sql: &str, naive: &BTreeMap<&'static str, NaiveTable>) {
        let names: Vec<&str> = naive.keys().copied().collect();
        for session in [&mut self.text, &mut self.parsed] {
            assert_eq!(
                session.adaptive().catalog().names(),
                names,
                "step {step}: {sql}"
            );
        }
        for (name, table) in naive {
            let out = self
                .text
                .execute_one(&format!("select * from {name}"))
                .unwrap();
            assert_eq!(
                sorted(out.rows().unwrap().to_vec()),
                sorted(table.rows.clone()),
                "step {step}: table {name} after {sql}"
            );
        }
    }
}

/// `r(k, a)` and `t(k, a)`, both with `a` cracked by one range count each.
fn two_cracked_tables() -> SqlSession {
    let (mut session, k, a) = tapestry_session(1_000, 5);
    session
        .load_table("t", vec![("k".into(), k), ("a".into(), a)])
        .unwrap();
    for table in ["r", "t"] {
        session
            .execute_one(&format!("select count(*) from {table} where a < 300"))
            .unwrap();
    }
    assert_eq!(session.cracked_columns(), 2);
    assert_eq!(session.adaptive().total_crack_stats().queries, 2);
    session
}

/// Piece count and counters of `table.a`'s cracked copy.
fn cracked_a(session: &SqlSession, table: &str) -> (usize, CrackStats) {
    let col = session.adaptive().cracked_column(table, "a").unwrap();
    (col.piece_count(), col.stats())
}

/// `select count(*) from {table} where {clause}`.
fn count_where(session: &mut SqlSession, table: &str, clause: &str) -> i64 {
    let sql = format!("select count(*) from {table} where {clause}");
    session.execute_one(&sql).unwrap().rows().unwrap()[0][0]
}

#[test]
fn a_delete_leaves_other_tables_cracked_state_alone() {
    let mut session = two_cracked_tables();
    // Crack `t.a` where the delete's probe will look, so the delete
    // itself cracks nothing.
    count_where(&mut session, "t", "a >= 900");
    let (r_before, t_pieces) = (cracked_a(&session, "r"), cracked_a(&session, "t").0);
    session.execute_one("delete from t where a >= 900").unwrap();
    // t's copy was compacted and renumbered in place, keeping every
    // boundary; r's was not touched at all.
    assert_eq!(session.cracked_columns(), 2);
    assert_eq!(cracked_a(&session, "t").0, t_pieces);
    assert_eq!(cracked_a(&session, "r"), r_before);
    let before = session.adaptive().total_crack_stats();
    // `(table, clause, lo, hi)`: the clause keeps `lo <= a < hi`.
    let cases = [
        ("r", "a < 300", i64::MIN, 300),
        ("t", "a < 300", i64::MIN, 300),
        ("t", "a >= 900", 900, i64::MAX),
    ];
    for (table, clause, lo, hi) in cases {
        let got = count_where(&mut session, table, clause);
        let base = session.adaptive().catalog().table(table).unwrap();
        let want = base.ints("a").unwrap().iter();
        let want = want.filter(|v| (lo..hi).contains(*v)).count();
        assert_eq!(got, want as i64, "{table}: {clause}");
    }
    let delta = session.adaptive().total_crack_stats().delta_since(&before);
    // Index-only: both boundaries exist, so the answer comes off the read
    // latch without entering the cracking select (`queries` counts those).
    assert_eq!(
        (delta.queries, delta.cracks, delta.tuples_touched),
        (0, 0, 0),
        "the repeat queries on r and t are still index-only"
    );
    assert_eq!(count_where(&mut session, "t", "a >= 900"), 0);
}

#[test]
fn a_delete_reaches_rows_still_staged_by_an_insert() {
    let mut session = SqlSession::with_config(CrackerConfig::default().with_merge_threshold(64));
    let mut naive: Vec<Vec<i64>> = (0..1_000).map(|i| vec![i, (i * 7919) % 1_000]).collect();
    let columns = (0..2).map(|c| {
        (
            ["k", "a"][c].to_string(),
            naive.iter().map(|r| r[c]).collect(),
        )
    });
    session.load_table("r", columns.collect()).unwrap();
    let insert = |session: &mut SqlSession, naive: &mut Vec<Vec<i64>>, rows: Vec<Vec<i64>>| {
        let sql = format!("insert into r values {}", values_sql(&rows));
        session.execute_one(&sql).unwrap();
        naive.extend(rows);
    };
    let check = |session: &mut SqlSession, naive: &[Vec<i64>]| {
        for (lo, hi) in [(400, 600), (500, 550), (0, 2_000)] {
            let sql = format!("select * from r where a >= {lo} and a < {hi}");
            let rows = session.execute_one(&sql).unwrap().rows().unwrap().to_vec();
            let want = naive.iter().filter(|r| (lo..hi).contains(&r[1]));
            assert_eq!(sorted(rows), sorted(want.cloned().collect()), "{sql}");
        }
    };
    count_where(&mut session, "r", "a >= 400 and a < 600");
    // Twenty staged rows (below the merge threshold), five of them in the
    // range the delete removes, beside fifty cracked rows.
    insert(
        &mut session,
        &mut naive,
        (0..20).map(|i| vec![2_000 + i, 450 + 10 * i]).collect(),
    );
    count_where(&mut session, "r", "a >= 500 and a < 550");
    let (pieces, _) = cracked_a(&session, "r");
    session
        .execute_one("delete from r where a >= 500 and a < 550")
        .unwrap();
    naive.retain(|r| !(500..550).contains(&r[1]));
    let col = session.adaptive().cracked_column("r", "a").unwrap();
    assert!(
        col.has_pending_updates(),
        "the surviving inserts stay staged"
    );
    assert_eq!((session.cracked_columns(), col.piece_count()), (1, pieces));
    check(&mut session, &naive);
    // Push the staging area past the threshold: the next select merges,
    // keeping every boundary.
    let (pieces, before) = cracked_a(&session, "r");
    insert(
        &mut session,
        &mut naive,
        (0..64).map(|i| vec![3_000 + i, 15 * i]).collect(),
    );
    check(&mut session, &naive);
    let (after, stats) = cracked_a(&session, "r");
    assert_eq!((after, stats.merges), (pieces, before.merges + 1));
    assert!(!session
        .adaptive()
        .cracked_column("r", "a")
        .unwrap()
        .has_pending_updates());
}

#[test]
fn insert_select_into_an_existing_table_keeps_it_cracked() {
    let (mut session, _, a) = tapestry_session(1_000, 5);
    session
        .execute_one("select count(*) from r where a < 300")
        .unwrap();
    assert_eq!(session.cracked_columns(), 1);
    let out = session
        .execute_one("insert into r select * from r where a >= 100 and a < 200")
        .unwrap();
    let copied = a.iter().filter(|&&v| (100..200).contains(&v)).count();
    assert_eq!(out.to_string(), format!("inserted {copied} rows into r"));
    assert_eq!(session.cracked_columns(), 1, "no cold rebuild");
    assert_eq!(session.adaptive().total_crack_stats().queries, 2);
    let out = session
        .execute_one("select count(*) from r where a >= 100 and a < 200")
        .unwrap();
    assert_eq!(out.rows().unwrap()[0][0], 2 * copied as i64);
}

#[test]
fn a_rejected_statement_changes_neither_rows_nor_cracked_state() {
    let mut session = two_cracked_tables();
    let before = session.adaptive().total_crack_stats();
    for sql in [
        "insert into dup select a, a from r",
        "insert into r values (1)",
        "insert into t select a from r",
        "create table r (x integer)",
        "drop table zzz",
        "delete from zzz",
    ] {
        let err = session.execute_one(sql).unwrap_err();
        assert!(matches!(err, SqlError::Semantic { .. }), "{sql}: {err:?}");
    }
    assert_eq!(session.adaptive().catalog().names(), vec!["r", "t"]);
    assert_eq!(session.cracked_columns(), 2);
    assert_eq!(session.adaptive().total_crack_stats(), before);
    for table in ["r", "t"] {
        let out = session
            .execute_one(&format!("select count(*) from {table}"))
            .unwrap();
        assert_eq!(out.rows().unwrap()[0][0], 1_000);
    }
}
