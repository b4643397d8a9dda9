//! What the ladder passes of both runners share.
//!
//! A traced rep feeds the same op stream at every depth, **one depth
//! after the other**: the root pass first, then each mirror alone with
//! the machine, as the program is in an untraced run. (Replaying op by op
//! across all depths would make every rung start on cold instruction and
//! data caches; the rung that happened to share code with its predecessor
//! then looks cheaper than the one above it.) Mirrors see the identical
//! stream, so their crack state evolves identically, and op `i`'s self
//! time at a layer is that pass's time for op `i` minus the next pass's.

use crate::adapter::MirrorColumn;
use crate::gen::{Op, Shape};
use crate::oracle::{Digest, Filter, Oracle};
use crate::rep::{rung, RepOut, Samples};
use crate::trace::Tracer;
use cracker_core::CrackStats;

/// The stream a pass replays, and what the root pass found.
pub struct Stream<'a> {
    /// The ops, warm-up first.
    pub ops: &'a [Op],
    /// The root pass's answer to each op.
    pub roots: &'a [Result<Digest, String>],
    /// The table as loaded, before any op.
    pub table: &'a Oracle,
    /// Table columns that `op.a` and `op.b` range over, in that order.
    pub cols: &'a [usize],
}

/// The op's ranges as filters over the table columns `cols`.
pub fn filters(cols: &[usize], op: &Op) -> Vec<Filter> {
    (cols.iter().zip([op.a, op.b]))
        .filter_map(|(&c, r)| r.map(|(lo, hi)| (c, lo, hi)))
        .collect()
}

/// Rung 4: replay the stream's predicates on mirror columns of type `C`,
/// kept in step with inserts and rebuilt after deletes as the database's
/// own cracked copies are. Returns each op's time (summed over its
/// columns) and the final piece count.
pub fn column_pass<C: MirrorColumn>(
    tracer: &mut Option<&mut Tracer>,
    stream: &Stream,
    parents: &[Option<usize>],
    s: &mut Samples,
    out: &mut RepOut,
) -> (Vec<f64>, usize) {
    let mut data = stream.table.clone();
    let mut mirrors: Vec<Option<C>> = stream.cols.iter().map(|_| None).collect();
    let mut per_op = vec![0.0; stream.ops.len()];
    for (i, op) in stream.ops.iter().enumerate() {
        let Ok(root) = &stream.roots[i] else {
            continue;
        };
        match op.shape {
            Shape::Delete => {
                data.delete(&filters(stream.cols, op));
                mirrors.fill_with(|| None);
            }
            Shape::Insert => {
                let first_oid = data.len();
                data.insert(&op.rows);
                for (mirror, &c) in mirrors.iter_mut().zip(stream.cols) {
                    for (j, row) in op.rows.iter().enumerate() {
                        if let Some(m) = mirror {
                            m.stage((first_oid + j) as u32, row[c]);
                        }
                    }
                }
            }
            _ => {
                for ((mirror, &c), range) in mirrors.iter_mut().zip(stream.cols).zip([op.a, op.b]) {
                    let Some(range) = range else {
                        continue;
                    };
                    // The first touch (the copy) is its own sample.
                    let first = mirror.is_none();
                    let (got, ns, _) = rung(tracer, i, C::LAYER, parents[i], || {
                        mirror
                            .get_or_insert_with(|| C::build(data.column(c)))
                            .matched(range)
                    });
                    per_op[i] += ns;
                    if first {
                        s.push(C::FIRST_TOUCH, ns);
                    } else if op.timed {
                        s.push(C::LAYER, ns);
                    }
                    if op.shape != Shape::Conjunct && got != root.matched {
                        let want = root.matched;
                        out.fail(format!("op {i} {}: {got} rows, root gave {want}", C::LAYER));
                    }
                }
            }
        }
    }
    let pieces = mirrors.iter().flatten().map(C::pieces).sum();
    (per_op, pieces)
}

/// Exact crack counters of the timed part of a rep, the final piece
/// count, and the waste ratio: tuples the cracker read per row it
/// returned.
pub fn emit_crack_counts(delta: &CrackStats, pieces: usize, matched: f64, out: &mut RepOut) {
    out.set("cracker_core.cracks", delta.cracks as f64, 1);
    out.set(
        "cracker_core.tuples_touched",
        delta.tuples_touched as f64,
        1,
    );
    out.set("cracker_core.tuples_moved", delta.tuples_moved as f64, 1);
    out.set("cracker_core.edge_scanned", delta.edge_scanned as f64, 1);
    out.set("cracker_core.merges", delta.merges as f64, 1);
    out.set("cracker_core.fusions", delta.fusions as f64, 1);
    out.set("cracker_core.pieces_final", pieces as f64, 1);
    if matched > 0.0 {
        let read = (delta.tuples_touched + delta.edge_scanned) as f64;
        out.set("cracker_core.touched_per_result_row", read / matched, 1);
    }
}

/// The column-rung metrics both runners print.
pub fn emit_column_metrics(s: &Samples, out: &mut RepOut) {
    s.p50(
        out,
        "cracker_core.column.select_ns_p50",
        "cracker_core.column",
        1.0,
    );
    s.p99(
        out,
        "cracker_core.column.select_ns_p99",
        "cracker_core.column",
        1.0,
    );
    s.p50(
        out,
        "cracker_core.column.first_touch_ms",
        "column_first_touch",
        1e6,
    );
    let latched = "cracker_core.concurrent";
    s.p50(out, "cracker_core.concurrent.select_ns_p50", latched, 1.0);
}
