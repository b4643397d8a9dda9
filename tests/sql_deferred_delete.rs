//! The deferred `DELETE` through SQL, against a naive row store. The
//! table is large enough that a `DELETE` stages its rows as tombstones
//! instead of compacting at once (it folds them once they reach
//! `len / 64`), so every whole-table reader runs between folds: `SELECT *`
//! and `count(*)` without `WHERE`, `GROUP BY` with and without `WHERE`
//! (the latter folds first), a join, `INSERT … SELECT`, the first touch of
//! a column no query had cracked (by a one-sided `SELECT *` and by a
//! two-sided `count(*)`, which builds the copy from the base already cut),
//! and a `DELETE` of rows an `INSERT` has just staged. The mix runs at 1 and 4 shards and crosses the fold
//! threshold through `DELETE` several times.

use dbcracker::engine::AdaptiveDb;
use dbcracker::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Rows of `r` at load: `len / 64` is 312, far above one `DELETE`'s rows.
const N: i64 = 20_000;

/// The naive store: `r(k, a, b, d)` and `s(g, c)` as rows.
struct Naive {
    r: Vec<Vec<i64>>,
    s: Vec<Vec<i64>>,
}

impl Naive {
    /// Rows of `r` with `lo <= a < hi`.
    fn r_where_a(&self, lo: i64, hi: i64) -> Vec<Vec<i64>> {
        let hit = |row: &&Vec<i64>| (lo..hi).contains(&row[1]);
        self.r.iter().filter(hit).cloned().collect()
    }

    /// `(b, count, sum(a))` over `rows`, in group order.
    fn grouped(rows: &[Vec<i64>]) -> Vec<Vec<i64>> {
        let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for row in rows {
            let g = groups.entry(row[2]).or_default();
            *g = (g.0 + 1, g.1 + row[1]);
        }
        (groups.into_iter())
            .map(|(b, (count, sum))| vec![b, count, sum])
            .collect()
    }

    /// `(r.k, s.c)` of every pair with `r.b = s.g` among `rows`.
    fn joined(&self, rows: &[Vec<i64>]) -> Vec<Vec<i64>> {
        let pairs = rows.iter().flat_map(|r| {
            let partners = self.s.iter().filter(|s| s[0] == r[2]);
            partners.map(|s| vec![r[0], s[1]])
        });
        pairs.collect()
    }
}

fn sorted(mut rows: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
    rows.sort_unstable();
    rows
}

fn values_sql(rows: &[Vec<i64>]) -> String {
    let tuples = rows.iter().map(|r| {
        let vals: Vec<String> = r.iter().map(i64::to_string).collect();
        format!("({})", vals.join(", "))
    });
    tuples.collect::<Vec<_>>().join(", ")
}

/// Run one statement and compare its rows (as a multiset) or its
/// acknowledgement with the naive store's.
fn check(session: &mut SqlSession, step: usize, sql: &str, want: Result<Vec<Vec<i64>>, String>) {
    let out = session.execute_one(sql);
    match (out, want) {
        (Ok(QueryOutput::Table { rows, .. }), Ok(want)) => {
            assert_eq!(sorted(rows), sorted(want), "step {step}: {sql}")
        }
        (Ok(QueryOutput::Affected { message }), Err(ack)) => {
            assert_eq!(message, ack, "step {step}: {sql}")
        }
        (got, want) => panic!("step {step}: {sql}\n  got {got:?}\n  want {want:?}"),
    }
}

/// The length of `r`'s OID space and its live rows.
fn sizes(session: &SqlSession) -> (usize, usize) {
    let db = session.adaptive();
    let len = db.catalog().table("r").unwrap().len();
    (len, db.live_rows("r").unwrap())
}

/// Run the mix on a session over `db`; returns `(folds by DELETE, reads
/// answered while tombstones were pending)`.
fn run_mix(db: AdaptiveDb, seed: u64) -> (usize, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut naive = Naive {
        r: (0..N)
            .map(|k| {
                vec![
                    k,
                    rng.gen_range(0..N),
                    rng.gen_range(0..40),
                    rng.gen_range(0..1_000),
                ]
            })
            .collect(),
        s: (0..60).map(|i| vec![i % 30, i]).collect(),
    };
    let mut session = SqlSession::with_db(db);
    for (name, cols, rows) in [("r", "kabd", &naive.r), ("s", "gc", &naive.s)] {
        let columns = cols.chars().enumerate().map(|(i, c)| {
            let values = rows.iter().map(|row| row[i]).collect();
            (c.to_string(), values)
        });
        session.load_table(name, columns.collect()).unwrap();
    }
    // `a` is cracked from the start; `d` and `b` are first touched only
    // once tombstones are pending.
    let touched = session.execute_one("select count(*) from r where a < 5000");
    assert_eq!(
        touched.unwrap().rows().unwrap()[0][0],
        naive.r_where_a(0, 5_000).len() as i64
    );
    let (mut d_touched, mut b_touched, mut folds, mut deferred_reads) = (false, false, 0, 0);
    // Values above the base's domain: rows `INSERT` stages and a `DELETE`
    // then takes back.
    let mut marker = 2 * N;
    for step in 0..240 {
        let (len, live) = sizes(&session);
        let pending = len > live;
        let lo = rng.gen_range(0..N);
        let (sql, want) = match rng.gen_range(0..100) {
            _ if pending && !d_touched => {
                d_touched = true;
                let hi = rng.gen_range(0..1_000);
                let want = naive.r.iter().filter(|row| row[3] < hi).cloned().collect();
                (format!("select * from r where d < {hi}"), Ok(want))
            }
            _ if pending && !b_touched => {
                // A two-sided range count builds `b`'s copy straight from
                // the base, cut at its larger outer side.
                b_touched = true;
                assert!(session.adaptive().cracked_column("r", "b").is_none());
                let n = naive
                    .r
                    .iter()
                    .filter(|row| (10..13).contains(&row[2]))
                    .count();
                let sql = "select count(*) from r where b >= 10 and b < 13".to_string();
                (sql, Ok(vec![vec![n as i64]]))
            }
            0..=39 => {
                let hi = lo + rng.gen_range(10i64..=80);
                let n = naive.r_where_a(lo, hi).len();
                naive.r.retain(|row| !(lo..hi).contains(&row[1]));
                let sql = format!("delete from r where a >= {lo} and a < {hi}");
                (sql, Err(format!("deleted {n} rows from r")))
            }
            40..=44 => {
                let want = vec![vec![naive.r.len() as i64]];
                ("select count(*) from r".to_string(), Ok(want))
            }
            45..=47 => ("select * from r".to_string(), Ok(naive.r.clone())),
            48..=49 => {
                let want = Naive::grouped(&naive.r);
                (
                    "select b, count(*), sum(a) from r group by b".to_string(),
                    Ok(want),
                )
            }
            50..=56 => {
                let hi = lo + rng.gen_range(100i64..=2_000);
                let want = Naive::grouped(&naive.r_where_a(lo, hi));
                let sql = format!(
                    "select b, count(*), sum(a) from r where a >= {lo} and a < {hi} group by b"
                );
                (sql, Ok(want))
            }
            57..=65 => {
                let hi = lo + rng.gen_range(100i64..=1_500);
                let joined = naive.joined(&naive.r_where_a(lo, hi));
                let range = format!("r.a >= {lo} and r.a < {hi}");
                if rng.gen_range(0..2) == 0 {
                    let sql = format!("select count(*) from r, s where r.b = s.g and {range}");
                    (sql, Ok(vec![vec![joined.len() as i64]]))
                } else {
                    let sql = format!("select r.k, s.c from r, s where r.b = s.g and {range}");
                    (sql, Ok(joined))
                }
            }
            66..=72 => {
                let hi = lo + rng.gen_range(0i64..=30);
                let rows = naive.r_where_a(lo, hi);
                naive.r.extend(rows.iter().cloned());
                let sql = format!("insert into r select * from r where a >= {lo} and a < {hi}");
                (sql, Err(format!("inserted {} rows into r", rows.len())))
            }
            73..=80 => {
                // Stage a few rows, then delete some of them at once.
                let rows: Vec<Vec<i64>> = (0..5)
                    .map(|i| {
                        vec![
                            -1,
                            marker + i,
                            rng.gen_range(0..40),
                            rng.gen_range(0..1_000),
                        ]
                    })
                    .collect();
                let sql = format!("insert into r values {}", values_sql(&rows));
                check(
                    &mut session,
                    step,
                    &sql,
                    Err("inserted 5 rows into r".into()),
                );
                let hi = marker + rng.gen_range(1i64..=5);
                let n = rows.iter().filter(|row| row[1] < hi).count();
                naive.r.extend(rows.into_iter().filter(|row| row[1] >= hi));
                let sql = format!("delete from r where a >= {marker} and a < {hi}");
                marker += 5;
                (sql, Err(format!("deleted {n} rows from r")))
            }
            81..=87 if d_touched => {
                let hi = rng.gen_range(0..1_000);
                let a_hi = lo + rng.gen_range(0i64..=4_000);
                let want = (naive.r_where_a(lo, a_hi).into_iter())
                    .filter(|row| row[3] < hi)
                    .collect();
                let sql = format!("select * from r where a >= {lo} and a < {a_hi} and d < {hi}");
                (sql, Ok(want))
            }
            _ => {
                let hi = lo + rng.gen_range(0i64..=400);
                let want = naive.r_where_a(lo, hi);
                (
                    format!("select * from r where a >= {lo} and a < {hi}"),
                    Ok(want),
                )
            }
        };
        if pending && want.is_ok() {
            deferred_reads += 1;
        }
        check(&mut session, step, &sql, want);
        let (after, live) = sizes(&session);
        assert_eq!(live, naive.r.len(), "step {step}: {sql}");
        if sql.starts_with("delete") && after < len {
            folds += 1;
        }
    }
    assert!(d_touched, "d was first touched with tombstones pending");
    assert!(b_touched, "b was first touched with tombstones pending");
    (folds, deferred_reads)
}

#[test]
fn deferred_deletes_through_sql_match_a_naive_row_store() {
    for (shards, seed) in [(1, 0xDE1E), (4, 0xF01D)] {
        let db = AdaptiveDb::new().with_concurrency(ConcurrencyMode { shards });
        let (folds, deferred_reads) = run_mix(db, seed);
        assert!(folds >= 2, "{shards} shards: {folds} folds by DELETE");
        assert!(
            deferred_reads >= 20,
            "{shards} shards: {deferred_reads} reads"
        );
    }
}
