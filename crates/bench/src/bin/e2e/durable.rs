//! One rep of `durable_ingest`: redo-logged batches beside reads,
//! checkpoints, then a crash image, recovery and verification.
//!
//! The workload uses the `AdaptiveDb` API because SQL cannot reach
//! durability yet. Flush policy, identical on both sides of any
//! comparison: group commit 1 — every acknowledged batch is fsynced
//! before it applies. Latencies are this sandbox's file system, not a
//! device's.
//!
//! Crash image: killing a process keeps the OS page cache, so the rep
//! discards unflushed bytes itself. It records every durable file's
//! length whenever an acknowledged call returns. After the last
//! checkpoint it stages a few more batches, which only the log holds, and
//! then one whose acknowledgement it pretends never to receive. It
//! recovers from a copy of the directory in which every file keeps its
//! acknowledged length plus half of what was written since — the last
//! batch torn in the middle — and files unknown at the last
//! acknowledgement are left out. What a length cannot show is whether the
//! acknowledged bytes were fsynced; `storage`'s own fault-injection tests
//! cover a dropped fsync.

use crate::adapter::{self, API_TABLE};
use crate::gen::{self, Shape};
use crate::ladder::{column_pass, emit_column_metrics, emit_crack_counts, Stream};
use crate::oracle::{Digest, Oracle, Project};
use crate::rep::{rung, timed, RepCtx, RepOut, Samples};
use cracker_core::{ConcurrentColumn, CrackStats, CrackerColumn};
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fs;
use std::path::Path;

/// Oracle columns: position 0 holds the OID, position 1 the value of `v`.
const OID: usize = 0;
const V: usize = 1;

type Lengths = BTreeMap<OsString, u64>;

/// Length of every file in `dir`.
fn lengths(dir: &Path) -> Lengths {
    fs::read_dir(dir)
        .expect("the durability directory is readable")
        .filter_map(Result::ok)
        .filter_map(|e| {
            Some((
                e.file_name(),
                e.metadata().ok().filter(|m| m.is_file())?.len(),
            ))
        })
        .collect()
}

/// Bytes of files in `after` that `before` did not have.
fn new_bytes(before: &Lengths, after: &Lengths) -> u64 {
    after
        .iter()
        .filter(|(name, _)| !before.contains_key(*name))
        .map(|(_, len)| len)
        .sum()
}

/// Copy `dir` to `image` as a crash could leave it: every file keeps its
/// acknowledged length and the first half of the bytes written since (the
/// page cache may have flushed any prefix of them). Returns the bytes
/// discarded.
fn crash_image(dir: &Path, image: &Path, acked: &Lengths) -> std::io::Result<u64> {
    fs::create_dir_all(image)?;
    let mut discarded = 0;
    for (name, &len) in acked {
        let to = image.join(name);
        let written = fs::copy(dir.join(name), &to)?;
        let keep = len + written.saturating_sub(len) / 2;
        fs::OpenOptions::new()
            .write(true)
            .open(&to)?
            .set_len(keep)?;
        discarded += written.saturating_sub(keep);
    }
    Ok(discarded)
}

/// The passes below the root of a traced rep: a mirror database without
/// durability (the difference is the log's share), a standalone redo log,
/// and mirror columns. Returns the mirror column's final piece count.
fn ladder(
    ctx: &mut RepCtx,
    stream: &Stream,
    spans: &[Option<usize>],
    root_ns: &[f64],
    s: &mut Samples,
    out: &mut RepOut,
) -> usize {
    let tracer = &mut ctx.tracer;
    // Nothing reads `k`; the oracle's OID column stands in for it.
    let cols = [
        ("k", stream.table.column(OID)),
        ("v", stream.table.column(V)),
    ];
    let mut mirror = adapter::database(API_TABLE, &cols);
    let log_path = ctx.tmp.join(format!("rep{}-standalone.log", ctx.rep));
    let mut log = adapter::wal_open(&log_path);
    let mut logged_rows = 0;
    for (i, op) in stream.ops.iter().enumerate() {
        let Ok(root) = &stream.roots[i] else {
            continue;
        };
        if op.shape == Shape::Insert {
            let (r, ns, _) = rung(tracer, i, "engine.db.nolog", spans[i], || {
                adapter::db_stage_batch(&mut mirror, &op.rows)
            });
            let (logged, wal_ns, _) = rung(tracer, i, "storage.wal", spans[i], || {
                let log = log.as_mut().map_err(|e| e.clone())?;
                adapter::wal_append_sync(log, &op.rows)
            });
            if op.timed {
                s.push("nolog_ns", ns);
                s.push("wal_ns", wal_ns);
            }
            logged_rows += op.rows.len();
            if let Err(e) = r.and(logged) {
                out.fail(format!("op {i} below the root: {e}"));
            }
        } else {
            let range = op.a.expect("durable selects carry a range");
            let (r, _, _) = rung(tracer, i, "engine.db.nolog", spans[i], || {
                adapter::db_select(&mut mirror, range)
            });
            let got = r.map(|oids| oids.len() as u64);
            if got != Ok(root.matched) {
                out.fail(format!(
                    "op {i} mirror: {got:?}, root gave {}",
                    root.matched
                ));
            }
        }
    }
    let bytes = fs::metadata(&log_path).map_or(0, |m| m.len());
    let _ = fs::remove_file(&log_path);
    out.set(
        "storage.wal.bytes_per_user_byte",
        bytes as f64 / (logged_rows * 8) as f64,
        1,
    );
    drop(mirror);

    let (col, pieces) = column_pass::<CrackerColumn<i64>>(tracer, stream, spans, s, out);
    column_pass::<ConcurrentColumn<i64>>(tracer, stream, spans, s, out);
    for (i, op) in stream.ops.iter().enumerate() {
        if op.timed && op.is_read() && stream.roots[i].is_ok() {
            s.push("db_self_ns", root_ns[i] - col[i]);
        }
    }
    pieces
}

/// Run one rep.
pub fn run(ctx: &mut RepCtx) -> RepOut {
    let (w, scale) = (ctx.workload, ctx.scale);
    let traced = ctx.tracer.is_some();
    let mut out = RepOut::default();
    let mut s = Samples::default();
    let dir = ctx.tmp.join(format!("rep{}", ctx.rep));
    let image = ctx.tmp.join(format!("rep{}-image", ctx.rep));

    let (mut data, gen_ns) = timed(|| gen::table(w, &scale, ctx.seed));
    let mut ops = gen::ops(w, &scale, ctx.seed);
    out.stream_hash = gen::stream_hash(&ops);
    // The crash overtakes the last batch's acknowledgement.
    let in_flight = ops.pop().expect("the stream ends on the in-flight batch");
    let cols: Vec<(&str, &[i64])> = (w.columns().iter().copied())
        .zip(data.columns.iter().map(Vec::as_slice))
        .collect();
    let (mut db, load_ns) = timed(|| adapter::database(API_TABLE, &cols));
    let mut setup_ns = gen_ns + load_ns;

    // The root pass: the durable database.
    let mut digests: Vec<Result<Digest, String>> = Vec::with_capacity(ops.len());
    let mut spans = Vec::with_capacity(ops.len());
    let mut root_ns = Vec::with_capacity(ops.len());
    let mut acked = Lengths::new();
    let mut since = CrackStats::default();
    let mut inserted = 0u64;
    let mut timed_ops = 0usize;
    let mut last_read = None;
    for (i, op) in ops.iter().enumerate() {
        if i == scale.warmup {
            let (epoch, ns) = timed(|| adapter::attach(&mut db, &dir));
            if let Err(e) = epoch {
                out.fail(format!("attach_durability: {e}"));
                return out;
            }
            setup_ns += ns;
            acked = lengths(&dir);
            since = adapter::crack_stats(&db);
        }
        if traced && i == scale.warmup + scale.ops {
            // A checkpoint right after a checkpoint finds nothing changed.
            // (`period` divides `ops`, so the timed ops ended on a dirty one.)
            let (r, ns, _) = rung(&mut ctx.tracer, i, "engine.db.checkpoint", None, || {
                adapter::checkpoint(&mut db)
            });
            if let Err(e) = r {
                out.fail(format!("clean checkpoint: {e}"));
            }
            out.set("storage.checkpoint.clean_ms", ns / 1e6, 1);
            acked = lengths(&dir);
        }
        let (got, ns, span) = if op.shape == Shape::Insert {
            let (r, ns, span) = rung(&mut ctx.tracer, i, "engine.db", None, || {
                adapter::db_stage_batch(&mut db, &op.rows)
            });
            acked = lengths(&dir);
            if op.timed {
                s.push("write_ns", ns);
            }
            inserted += op.rows.len() as u64;
            (r.map(|()| Digest::of_write(op.rows.len() as u64)), ns, span)
        } else {
            let range = op.a.expect("durable selects carry a range");
            let (r, ns, span) = rung(&mut ctx.tracer, i, "engine.db", None, || {
                adapter::db_select(&mut db, range)
            });
            let got = r.map(|oids| {
                let mut d = Digest::default();
                oids.iter().for_each(|&o| d.push_row(&[i64::from(o)]));
                d
            });
            if i == 0 {
                out.set("first_query_ms", ns / 1e6, 1);
            }
            if op.timed {
                s.push("read_ns", ns);
                last_read = Some(range);
                if let Ok(d) = &got {
                    s.push("matched", d.matched as f64);
                }
            } else {
                setup_ns += ns;
            }
            (got, ns, span)
        };
        digests.push(got);
        spans.push(span);
        root_ns.push(ns);
        if op.timed {
            s.push("timed_ns", ns);
            timed_ops += 1;
            if timed_ops.is_multiple_of(scale.period) {
                let before = lengths(&dir);
                let (r, ns, _) = rung(&mut ctx.tracer, i, "engine.db.checkpoint", None, || {
                    adapter::checkpoint(&mut db)
                });
                if let Err(e) = r {
                    out.fail(format!("checkpoint after op {i}: {e}"));
                }
                acked = lengths(&dir);
                s.push("checkpoint_ns", ns);
                s.push("timed_ns", ns);
                s.push("checkpoint_bytes", new_bytes(&before, &acked) as f64);
            }
        }
    }
    let delta = adapter::crack_stats(&db).delta_since(&since);
    let disk_bytes: u64 = acked.values().sum();
    if let Err(e) = adapter::db_stage_batch(&mut db, &in_flight.rows) {
        out.fail(format!("the in-flight batch: {e}"));
    }
    drop(db);

    // Crash, recover.
    let values = data.columns.swap_remove(V);
    drop(data);
    let mut oracle = Oracle::new(vec![(0..scale.n as i64).collect(), values]);
    out.user_bytes = (scale.n * w.columns().len() * 8) as u64 + inserted * 8;
    let recovered = crash_image(&dir, &image, &acked)
        .map_err(|e| e.to_string())
        .and_then(|discarded| {
            if discarded == 0 {
                return Err("the crash image discarded nothing".to_string());
            }
            let (db, ns, _) = rung(
                &mut ctx.tracer,
                ops.len(),
                "engine.db.recover",
                None,
                || adapter::recover(&image),
            );
            out.set("recover_ms", ns / 1e6, 1);
            db
        });

    let mut pieces = 0;
    if traced {
        let stream = Stream {
            ops: &ops,
            roots: &digests,
            table: &oracle,
            cols: &[V],
        };
        pieces = ladder(ctx, &stream, &spans, &root_ns, &mut s, &mut out);
    }

    // The oracle replays the stream: every write, a sample of the reads.
    for (i, (op, got)) in ops.iter().zip(&digests).enumerate() {
        let want = match op.shape {
            Shape::Insert => {
                oracle.insert(&op.rows);
                Some(Digest::of_write(op.rows.len() as u64))
            }
            _ if ctx.checks(i) => {
                let (lo, hi) = op.a.expect("durable selects carry a range");
                let mut d = oracle.select(&[(V, lo, hi)], Project::Columns(&[OID]));
                d.matched += u64::from(ctx.corrupt == Some(i));
                Some(d)
            }
            _ => None,
        };
        out.verify(i, op, got, want);
    }
    match recovered {
        Err(e) => out.fail(format!("recover: {e}")),
        Ok(mut db) => {
            // The recovered first query repeats the last read: it must be
            // warm, i.e. touch a sliver of the column, not scan it.
            out.attempted += 2;
            let range = last_read.expect("the stream has timed reads");
            let before = adapter::crack_stats(&db);
            let (r, ns, _) = rung(&mut ctx.tracer, ops.len(), "engine.db", None, || {
                adapter::db_select(&mut db, range)
            });
            let d = adapter::crack_stats(&db).delta_since(&before);
            let want = oracle
                .select(&[(V, range.0, range.1)], Project::Count)
                .matched;
            // The kept half of the in-flight batch may or may not come back.
            let maybe = (in_flight.rows.iter())
                .filter(|row| (range.0..range.1).contains(&row[V]))
                .count() as u64;
            let read = d.tuples_touched + d.edge_scanned;
            let right = r
                .as_ref()
                .is_ok_and(|o| (want..=want + maybe).contains(&(o.len() as u64)));
            if !right || read > scale.n as u64 / 10 {
                out.fail(format!(
                    "first query after recovery: {:?} rows, want {want}; read {read} tuples",
                    r.map(|o| o.len())
                ));
            }
            if traced {
                out.set("engine.db.first_query_after_recover_us", ns / 1e3, 1);
            }
            // Every acknowledged row must come back, and besides them
            // only rows of the in-flight batch may: select everything
            // and compare OID sets with the oracle.
            let all = adapter::db_select(&mut db, (i64::MIN, i64::MAX)).unwrap_or_default();
            let mut present = vec![false; oracle.len()];
            let mut stray = 0;
            for oid in all {
                match present.get_mut(oid as usize) {
                    Some(p) => *p = true,
                    None if in_flight.rows.iter().any(|r| r[OID] == i64::from(oid)) => {}
                    None => stray += 1,
                }
            }
            let lost = present.iter().filter(|&&p| !p).count();
            if lost > 0 {
                out.fail(format!("{lost} acknowledged rows missing after recovery"));
            }
            if stray > 0 {
                out.fail(format!(
                    "{stray} rows nobody staged came back after recovery"
                ));
            }
            out.set("lost_acked_writes", lost as f64, oracle.len());
        }
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&image);

    out.set("setup_s", setup_ns / 1e9, 1);
    // Checkpoints are foreground stalls: in the wall time, not in the ops.
    out.set(
        "ops_per_s",
        timed_ops as f64 / (s.sum("timed_ns") / 1e9),
        timed_ops,
    );
    s.p50(&mut out, "read_p50_us", "read_ns", 1e3);
    s.p99(&mut out, "read_p99_us", "read_ns", 1e3);
    s.p50(&mut out, "write_p50_us", "write_ns", 1e3);
    s.p99(&mut out, "write_p99_us", "write_ns", 1e3);
    s.p50(&mut out, "checkpoint_p50_ms", "checkpoint_ns", 1e6);
    out.set(
        "disk_bytes_per_user_byte",
        disk_bytes as f64 / out.user_bytes as f64,
        1,
    );
    if traced {
        if let Some(&(ms, n)) = out.metrics.get("recover_ms") {
            out.set("engine.db.recover_ms", ms, n as usize);
        }
        s.p50(&mut out, "engine.db.select_us_p50", "read_ns", 1e3);
        s.p50(&mut out, "engine.db.self_us_p50", "db_self_ns", 1e3);
        s.p50(&mut out, "engine.db.stage_batch_us_p50", "write_ns", 1e3);
        s.p50(
            &mut out,
            "engine.db.stage_batch_nolog_us_p50",
            "nolog_ns",
            1e3,
        );
        s.p50(&mut out, "storage.wal.append_sync_us_p50", "wal_ns", 1e3);
        s.p50(
            &mut out,
            "storage.checkpoint.dirty_ms_p50",
            "checkpoint_ns",
            1e6,
        );
        s.p50(
            &mut out,
            "storage.checkpoint.bytes_per_cycle",
            "checkpoint_bytes",
            1.0,
        );
        emit_column_metrics(&s, &mut out);
        emit_crack_counts(&delta, pieces, s.sum("matched"), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_crash_image_tears_the_unacknowledged_tail_and_recovery_keeps_every_acked_row() {
        let tmp = crate::scratch_dir();
        let (live, image) = (tmp.join("live"), tmp.join("image"));
        let (k, v): (Vec<i64>, Vec<i64>) = (0..100).map(|i| (i, i * 10)).unzip();
        let mut db = adapter::database(API_TABLE, &[("k", &k), ("v", &v)]);
        adapter::attach(&mut db, &live).expect("attach");
        let batch =
            |from: i64| -> Vec<Vec<i64>> { (from..from + 8).map(|o| vec![o, o * 10]).collect() };
        adapter::db_stage_batch(&mut db, &batch(100)).expect("acknowledged");
        let acked = lengths(&live);
        adapter::db_stage_batch(&mut db, &batch(108)).expect("in flight");
        drop(db);

        let written: u64 = lengths(&live).values().sum();
        let discarded = crash_image(&live, &image, &acked).expect("image");
        let kept: u64 = lengths(&image).values().sum();
        assert!(discarded > 0 && kept + discarded == written);
        assert!(kept > acked.values().sum(), "half of the tail stays, torn");

        let mut db = adapter::recover(&image).expect("a torn tail is repaired, not refused");
        let mut oids = adapter::db_select(&mut db, (i64::MIN, i64::MAX)).expect("select");
        oids.sort_unstable();
        assert!(oids.len() < 116, "the torn batch cannot come back whole");
        assert_eq!(oids[..108], (0..108).collect::<Vec<u32>>()[..]);
        let _ = fs::remove_dir_all(&tmp);
    }
}
