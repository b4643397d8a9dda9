//! One rep of an SQL workload: `cold_start`, `warm_explore`, `update_mix`.
//!
//! A rep is a closed loop of one client: each statement's text goes to a
//! fresh `SqlSession` and its answer is reduced to a digest outside the
//! timed span. A traced rep then replays the stream down the ladder (see
//! [`crate::ladder`]): on a twin session taken apart into parse / lower /
//! execute, on a mirror `AdaptiveDb`, and on mirror columns.
//!
//! The oracle runs after the loop, replaying the stream against its own
//! row store, so its scans never evict the program's working set between
//! two timed statements.

use crate::adapter::{self, SQL_TABLE};
use crate::gen::{self, Op, Shape, Workload};
use crate::ladder::{column_pass, emit_column_metrics, emit_crack_counts, filters, Stream};
use crate::oracle::{Digest, Oracle, Project};
use crate::rep::{rung, timed, RepCtx, RepOut, Samples};
use crate::trace::Tracer;
use cracker_core::{ConcurrentColumn, CrackStats, CrackerColumn};
use std::hint::black_box;

/// Column positions in `r(k, a, b)`.
const K: usize = 0;
const A: usize = 1;
const B: usize = 2;
/// `breakeven_query` when cracking never catches up within the sequence.
const NEVER: f64 = (gen::COLD_STEPS + 1) as f64;

fn named(data: &Oracle) -> Vec<(&'static str, &[i64])> {
    (gen::SQL_COLUMNS.iter().enumerate())
        .map(|(i, n)| (*n, data.column(i)))
        .collect()
}

/// Table columns that `op.a` and `op.b` range over.
const RANGED: [usize; 2] = [A, B];

/// The oracle's answer to `op`; applies writes to the oracle.
fn expected(oracle: &mut Oracle, op: &Op) -> Digest {
    let f = filters(&RANGED, op);
    match op.shape {
        Shape::Count | Shape::Conjunct => oracle.select(&f, Project::Count),
        Shape::Sideways => oracle.select(&f, Project::Columns(&[K])),
        Shape::Star => oracle.select(&f, Project::Columns(&[K, A, B])),
        Shape::Insert => {
            oracle.insert(&op.rows);
            Digest::of_write(op.rows.len() as u64)
        }
        Shape::Delete => Digest::of_write(oracle.delete(&f)),
    }
}

/// Rung 2: every statement taken apart on a twin session. Returns each
/// op's execute time and span, and the cold rebuilds seen.
fn twin_pass(
    tracer: &mut Option<&mut Tracer>,
    stream: &Stream,
    root_spans: &[Option<usize>],
    s: &mut Samples,
    out: &mut RepOut,
) -> (Vec<f64>, Vec<Option<usize>>, u64) {
    let mut twin = adapter::session(SQL_TABLE, &named(stream.table));
    // The session owes a rebuild that the next select will pay: it was
    // just loaded, or a `DELETE` ran on it.
    let (mut dirty, mut after_delete) = (true, false);
    let (mut queries, mut rebuilds) = (0, 0);
    let mut exec = vec![0.0; stream.ops.len()];
    let mut spans = vec![None; stream.ops.len()];
    for (i, op) in stream.ops.iter().enumerate() {
        let Ok(root) = &stream.roots[i] else {
            continue;
        };
        let parent = root_spans[i];
        let (stmt, parse_ns, _) =
            rung(tracer, i, "sql.parser", parent, || adapter::parse(&op.text));
        let stmt = match stmt {
            Ok(stmt) => stmt,
            Err(e) => {
                out.fail(format!("op {i} sql.parser: {e}"));
                continue;
            }
        };
        // Lowering needs the catalog, and asking a dirty session for it
        // would pay the rebuild here instead of inside the statement.
        let mut lower_ns = None;
        if op.is_read() && !dirty {
            let (r, ns, _) = rung(tracer, i, "sql.lower", parent, || {
                adapter::lower(&mut twin, &stmt)
            });
            if let Err(e) = r {
                out.fail(format!("op {i} sql.lower: {e}"));
            }
            lower_ns = Some(ns);
        }
        let (res, ns, span) = rung(tracer, i, "sql.exec", parent, || {
            adapter::execute_parsed(&mut twin, stmt)
        });
        (exec[i], spans[i]) = (ns, span);
        match res.map(|o| adapter::digest(op, &o)) {
            Ok(d) if d == *root => {}
            other => out.fail(format!("op {i} sql.exec: {other:?}, root gave {root:?}")),
        }
        match op.shape {
            Shape::Delete => (dirty, after_delete) = (true, true),
            Shape::Insert => {}
            _ => {
                if after_delete {
                    s.push("select_after_delete_ns", ns);
                }
                (dirty, after_delete) = (false, false);
                // A cold rebuild shows as the query counter starting over.
                let now = adapter::session_queries(&mut twin);
                rebuilds += u64::from(now < queries);
                queries = now;
            }
        }
        if op.timed {
            s.push("parse_ns", parse_ns);
            if let Some(ns) = lower_ns {
                s.push("lower_ns", ns);
            }
            match op.shape {
                Shape::Insert => s.push("exec_insert_ns", ns),
                Shape::Delete => s.push("exec_delete_ns", ns),
                _ => s.push("exec_read_ns", ns),
            }
        }
    }
    (exec, spans, rebuilds)
}

/// Rung 3: the equivalent `AdaptiveDb` call on a mirror database, which is
/// rebuilt cold after a `DELETE` as the session's is. Returns each op's
/// time and span, and the crack counters of the timed ops.
fn db_pass(
    tracer: &mut Option<&mut Tracer>,
    stream: &Stream,
    parents: &[Option<usize>],
    s: &mut Samples,
    out: &mut RepOut,
) -> (Vec<f64>, Vec<Option<usize>>, CrackStats) {
    let mut data = stream.table.clone();
    let mut db = adapter::database(SQL_TABLE, &named(&data));
    // Counters of mirror databases replaced after a `DELETE`.
    let mut retired = CrackStats::default();
    let mut since = None;
    let mut times = vec![0.0; stream.ops.len()];
    let mut spans = vec![None; stream.ops.len()];
    for (i, op) in stream.ops.iter().enumerate() {
        let Ok(root) = &stream.roots[i] else {
            continue;
        };
        if op.timed && since.is_none() {
            let mut before = retired;
            before.absorb(&adapter::crack_stats(&db));
            since = Some(before);
        }
        if op.shape == Shape::Delete {
            data.delete(&filters(stream.cols, op));
            retired.absorb(&adapter::crack_stats(&db));
            db = adapter::database(SQL_TABLE, &named(&data));
            continue;
        }
        let (r, ns, span) = rung(tracer, i, "engine.db", parents[i], || {
            adapter::db_apply(&mut db, op)
        });
        (times[i], spans[i]) = (ns, span);
        // An append answers with the first new OID, a select with rows.
        let want = if op.shape == Shape::Insert {
            data.insert(&op.rows);
            (data.len() - op.rows.len()) as u64
        } else {
            root.matched
        };
        if r != Ok(want) {
            out.fail(format!("op {i} engine.db: {r:?}, want {want}"));
        }
        if op.timed {
            let name = if op.is_read() {
                "db_select_ns"
            } else {
                "append_rows_ns"
            };
            s.push(name, ns);
        }
    }
    retired.absorb(&adapter::crack_stats(&db));
    let delta = retired.delta_since(&since.unwrap_or_default());
    (times, spans, delta)
}

/// Replay the stream down the ladder and emit the per-layer metrics.
fn ladder(
    tracer: &mut Option<&mut Tracer>,
    stream: &Stream,
    root_spans: &[Option<usize>],
    s: &mut Samples,
    out: &mut RepOut,
) {
    let (exec, exec_spans, rebuilds) = twin_pass(tracer, stream, root_spans, s, out);
    let (db, db_spans, delta) = db_pass(tracer, stream, &exec_spans, s, out);
    let (col, pieces) = column_pass::<CrackerColumn<i64>>(tracer, stream, &db_spans, s, out);
    column_pass::<ConcurrentColumn<i64>>(tracer, stream, &db_spans, s, out);
    for (i, op) in stream.ops.iter().enumerate() {
        if op.timed && op.is_read() && stream.roots[i].is_ok() {
            let name = match op.shape {
                Shape::Count => "self_count_ns",
                Shape::Sideways => "self_sideways_ns",
                Shape::Star => "self_star_ns",
                _ => "self_conjunct_ns",
            };
            s.push(name, exec[i] - db[i]);
            s.push("db_self_ns", db[i] - col[i]);
        }
    }

    s.mean(out, "sql.parser.ns_per_stmt", "parse_ns", 1.0);
    s.mean(out, "sql.lower.ns_per_stmt", "lower_ns", 1.0);
    s.p50(out, "sql.exec.count.self_us_p50", "self_count_ns", 1e3);
    s.p50(
        out,
        "sql.exec.sideways.self_us_p50",
        "self_sideways_ns",
        1e3,
    );
    s.p50(out, "sql.exec.star.self_us_p50", "self_star_ns", 1e3);
    s.p50(
        out,
        "sql.exec.conjunct.self_us_p50",
        "self_conjunct_ns",
        1e3,
    );
    let exec_s = s.sum("exec_read_ns") / 1e9;
    if exec_s > 0.0 {
        let n = s.get("rows_out").len();
        out.set("sql.exec.rows_out_per_s", s.sum("rows_out") / exec_s, n);
    }
    s.p50(out, "sql.exec.insert_us_p50", "exec_insert_ns", 1e3);
    s.p50(out, "sql.exec.delete_ms_p50", "exec_delete_ns", 1e6);
    let after = "sql.exec.select_after_delete_ms_p50";
    s.p50(out, after, "select_after_delete_ns", 1e6);
    out.set("sql.exec.rebuilds", rebuilds as f64, 1);
    s.p50(out, "engine.db.select_us_p50", "db_select_ns", 1e3);
    s.p50(out, "engine.db.self_us_p50", "db_self_ns", 1e3);
    s.p50(out, "engine.db.append_rows_us_p50", "append_rows_ns", 1e3);
    emit_column_metrics(s, out);
    emit_crack_counts(&delta, pieces, s.sum("matched"), out);
}

/// Replay `cold_start`'s windows with a plain scan over the base column:
/// the break-even comparison of §2.2, on the SQL path.
fn scan_replay(base: &[i64], stream: &Stream, s: &Samples, out: &mut RepOut) {
    let crack_ns = s.get("read_ns");
    let (mut scan_total, mut crack_total, mut first_scan, mut breakeven) = (0.0, 0.0, 0.0, NEVER);
    for (i, op) in stream.ops.iter().enumerate() {
        let (lo, hi) = op.a.expect("cold_start ops filter on a");
        let (count, ns) = timed(|| {
            black_box(base)
                .iter()
                .filter(|&&v| v >= lo && v < hi)
                .count()
        });
        let root = &stream.roots[i];
        if root.as_ref().map(|d| d.matched) != Ok(count as u64) {
            out.fail(format!(
                "op {i}: the scan counts {count}, SQL gave {root:?}"
            ));
        }
        scan_total += ns;
        crack_total += crack_ns[i];
        if i == 0 {
            first_scan = ns;
        }
        if breakeven == NEVER && crack_total <= scan_total {
            breakeven = (i + 1) as f64;
        }
    }
    let n = stream.ops.len();
    out.set("cracker_core.scan_equiv_ms", scan_total / 1e6, n);
    out.set(
        "cracker_core.first_query_over_scan",
        crack_ns[0] / first_scan,
        1,
    );
    out.set("cracker_core.breakeven_query", breakeven, n);
}

/// Run one rep.
pub fn run(ctx: &mut RepCtx) -> RepOut {
    let (w, scale) = (ctx.workload, ctx.scale);
    let mut out = RepOut::default();
    let mut s = Samples::default();

    let (data, gen_ns) = timed(|| gen::table(w, &scale, ctx.seed));
    let ops = gen::ops(w, &scale, ctx.seed);
    out.stream_hash = gen::stream_hash(&ops);
    let mut oracle = Oracle::new(data.columns);
    let (mut root, load_ns) = timed(|| adapter::session(SQL_TABLE, &named(&oracle)));

    let mut setup_ns = gen_ns + load_ns;
    let mut digests: Vec<Result<Digest, String>> = Vec::with_capacity(ops.len());
    let mut spans = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let (res, ns, span) = rung(&mut ctx.tracer, i, "sql.session", None, || {
            adapter::execute_text(&mut root, &op.text)
        });
        let got = res.map(|o| adapter::digest(op, &o));
        if i == 0 {
            out.set("first_query_ms", ns / 1e6, 1);
        }
        if op.timed {
            s.push("timed_ns", ns);
            s.push(
                match op.shape {
                    Shape::Insert => "insert_ns",
                    Shape::Delete => "delete_ns",
                    _ => "read_ns",
                },
                ns,
            );
            if let (true, Ok(d)) = (op.is_read(), &got) {
                s.push("matched", d.matched as f64);
                s.push("rows_out", d.rows as f64);
            }
        } else if i < scale.warmup {
            setup_ns += ns;
        }
        digests.push(got);
        spans.push(span);
    }
    drop(root);

    let stream = Stream {
        ops: &ops,
        roots: &digests,
        table: &oracle,
        cols: &RANGED,
    };
    if ctx.tracer.is_some() {
        ladder(&mut ctx.tracer, &stream, &spans, &mut s, &mut out);
    } else if w == Workload::ColdStart {
        scan_replay(oracle.column(A), &stream, &s, &mut out);
    }

    // The oracle replays the stream: every write, a sample of the reads.
    for (i, (op, got)) in ops.iter().zip(&digests).enumerate() {
        let want = (!op.is_read() || ctx.checks(i)).then(|| {
            let mut d = expected(&mut oracle, op);
            d.matched += u64::from(ctx.corrupt == Some(i));
            d
        });
        out.verify(i, op, got, want);
    }
    out.user_bytes = (oracle.len() * w.columns().len() * 8) as u64;

    let timed_ops = s.get("timed_ns").len();
    out.set("setup_s", setup_ns / 1e9, 1);
    out.set(
        "ops_per_s",
        timed_ops as f64 / (s.sum("timed_ns") / 1e9),
        timed_ops,
    );
    s.p50(&mut out, "read_p50_us", "read_ns", 1e3);
    s.p99(&mut out, "read_p99_us", "read_ns", 1e3);
    s.p50(&mut out, "write_p50_us", "insert_ns", 1e3);
    s.p50(&mut out, "delete_p50_ms", "delete_ns", 1e6);
    out
}
