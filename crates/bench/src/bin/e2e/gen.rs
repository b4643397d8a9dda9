//! Workload definitions and seeded op-stream generation.
//!
//! Everything the program under test receives is generated here from the
//! workload seed: the tapestry table and a stream of [`Op`]s carrying the
//! SQL text (or, for `durable_ingest`, the API arguments) plus the parsed
//! ranges and rows the ladder mirrors and the oracle need. The same seed
//! gives the same stream ([`stream_hash`] pins that in a test).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use workload::scenario::{Op as ScenarioOp, Shift, ShiftingHotSet, ZipfQueries};
use workload::skew::zipf_column;
use workload::strolling::{strolling_sequence, StrollMode};
use workload::{Contraction, Tapestry};

/// Columns of the SQL workloads' table `r`.
pub const SQL_COLUMNS: &[&str] = &["k", "a", "b"];
/// Rows per `INSERT` statement / staged batch.
pub const INSERT_ROWS: usize = 32;
/// Width of a `DELETE`'s range over `a`.
pub const DELETE_WIDTH: i64 = 50;
/// Steps of the `cold_start` strolling sequence.
pub const COLD_STEPS: usize = 64;
/// Untimed batches `durable_ingest` stages after its last checkpoint, so
/// that recovery has acknowledged rows to replay from the log; one more
/// batch follows them, in flight when the crash comes.
pub const TAIL_BATCHES: usize = 4;

const SALT_A: u64 = 0xE2E0_0001_0A0A_0A0A;
const SALT_B: u64 = 0xE2E0_0002_0B0B_0B0B;
const SALT_MIX: u64 = 0xE2E0_0003_3C3C_3C3C;

/// The four workloads; `README.md` says why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Fresh session, 64-step strolling sequence: the paper's §2.2 claim.
    ColdStart,
    /// Warmed session, mixed statement shapes over a jumping hot set.
    WarmExplore,
    /// Reads beside SQL `INSERT`s and `DELETE`s.
    UpdateMix,
    /// Redo-logged batches, checkpoints and recovery through `AdaptiveDb`.
    DurableIngest,
}

/// Sizes of one rep of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Base table rows.
    pub n: usize,
    /// Untimed warm-up ops, counted in `setup_s`.
    pub warmup: usize,
    /// Timed ops.
    pub ops: usize,
    /// `warm_explore`: queries between hot-set jumps; `durable_ingest`:
    /// ops between checkpoints.
    pub period: usize,
    /// The oracle checks every write, the first 64 ops of rep 0, and one
    /// read in this many: 1 under `--quick`, sparser where 2 M-row scans
    /// would outlast the measurement.
    pub check_every: usize,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdStart,
        Workload::WarmExplore,
        Workload::UpdateMix,
        Workload::DurableIngest,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdStart => "cold_start",
            Workload::WarmExplore => "warm_explore",
            Workload::UpdateMix => "update_mix",
            Workload::DurableIngest => "durable_ingest",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Column names of the workload's table, in declaration order.
    pub fn columns(self) -> &'static [&'static str] {
        match self {
            Workload::DurableIngest => &["k", "v"],
            _ => SQL_COLUMNS,
        }
    }

    /// Sizes of one rep. Full sizes put the 2 M-row table (48 MB) well
    /// past the last-level cache; `quick` shrinks everything so the unit
    /// tests can check every op against the oracle in a debug build.
    pub fn scale(self, quick: bool) -> Scale {
        let (n, warmup, ops, period, check_every) = match (self, quick) {
            (Workload::ColdStart, false) => (2_000_000, 0, COLD_STEPS, 0, 16),
            (Workload::ColdStart, true) => (20_000, 0, COLD_STEPS, 0, 1),
            (Workload::WarmExplore, false) => (2_000_000, 4_096, 40_000, 5_000, 512),
            (Workload::WarmExplore, true) => (20_000, 256, 1_200, 400, 1),
            (Workload::UpdateMix, false) => (1_000_000, 1_000, 600, 0, 16),
            (Workload::UpdateMix, true) => (20_000, 100, 300, 0, 1),
            (Workload::DurableIngest, false) => (1_000_000, 200, 1_600, 400, 64),
            (Workload::DurableIngest, true) => (20_000, 50, 240, 80, 1),
        };
        Scale {
            n,
            warmup,
            ops,
            period,
            check_every,
        }
    }
}

/// What an op asks of the program; decides which rung calls replay it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    /// `select count(*) … where a-range` (on `durable_ingest`: a select
    /// over `v`).
    Count,
    /// `select k … where a-range` — answered by a sideways cracker map.
    Sideways,
    /// `select * … where b-range`.
    Star,
    /// `select count(*) … where a-range and b-range`.
    Conjunct,
    /// A multi-row `INSERT` (on `durable_ingest`: one staged batch).
    Insert,
    /// `delete … where a-range`.
    Delete,
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Which kind of statement this is.
    pub shape: Shape,
    /// The SQL text handed to `SqlSession` (on `durable_ingest`, a
    /// rendering of the API arguments, used only for hashing).
    pub text: String,
    /// Half-open range over column `a` (`v` on `durable_ingest`).
    pub a: Option<(i64, i64)>,
    /// Half-open range over column `b`.
    pub b: Option<(i64, i64)>,
    /// Rows of an insert: `(k, a, b)`, or `(oid, v)` on `durable_ingest`.
    pub rows: Vec<Vec<i64>>,
    /// Whether the op is timed (false for warm-up and the final probe).
    pub timed: bool,
}

impl Op {
    fn select(shape: Shape, a: Option<(i64, i64)>, b: Option<(i64, i64)>, timed: bool) -> Op {
        let mut clauses = Vec::new();
        if let Some((lo, hi)) = a {
            clauses.push(format!("a >= {lo} and a < {hi}"));
        }
        if let Some((lo, hi)) = b {
            clauses.push(format!("b >= {lo} and b < {hi}"));
        }
        let target = match shape {
            Shape::Sideways => "k",
            Shape::Star => "*",
            _ => "count(*)",
        };
        let mut text = format!("select {target} from r");
        if !clauses.is_empty() {
            text.push_str(" where ");
            text.push_str(&clauses.join(" and "));
        }
        Op {
            shape,
            text,
            a,
            b,
            rows: Vec::new(),
            timed,
        }
    }

    fn insert(rows: Vec<Vec<i64>>) -> Op {
        let tuples: Vec<String> = rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(i64::to_string).collect();
                format!("({})", cells.join(", "))
            })
            .collect();
        Op {
            shape: Shape::Insert,
            text: format!("insert into r values {}", tuples.join(", ")),
            a: None,
            b: None,
            rows,
            timed: true,
        }
    }

    fn delete(lo: i64) -> Op {
        let hi = lo + DELETE_WIDTH;
        Op {
            shape: Shape::Delete,
            text: format!("delete from r where a >= {lo} and a < {hi}"),
            a: Some((lo, hi)),
            b: None,
            rows: Vec::new(),
            timed: true,
        }
    }

    /// Whether the op reads (any select shape).
    pub fn is_read(&self) -> bool {
        !matches!(self.shape, Shape::Insert | Shape::Delete)
    }
}

/// The workload's base table: tapestry permutation columns.
pub fn table(w: Workload, scale: &Scale, seed: u64) -> Tapestry {
    Tapestry::generate(scale.n, w.columns().len(), seed)
}

/// The workload's op stream: warm-up ops first (untimed), then the timed
/// ops, then — where writes happen — one untimed full count that exposes
/// a lost write.
pub fn ops(w: Workload, scale: &Scale, seed: u64) -> Vec<Op> {
    match w {
        Workload::ColdStart => cold_start(scale, seed),
        Workload::WarmExplore => warm_explore(scale, seed),
        Workload::UpdateMix => update_mix(scale, seed),
        Workload::DurableIngest => durable_ingest(scale, seed),
    }
}

/// `total` op kinds in the exact proportions `shares` (per cent; the last
/// kind takes the rounding remainder), shuffled. Drawing each op's kind
/// independently would make the number of 36 ms `DELETE`s per rep a
/// coin toss, and with it the rep's `ops_per_s`.
fn mix<T: Copy>(rng: &mut SmallRng, total: usize, shares: &[(T, usize)]) -> Vec<T> {
    let mut kinds = Vec::with_capacity(total);
    for &(kind, share) in shares {
        let count = (total * share / 100).min(total - kinds.len());
        kinds.extend(std::iter::repeat_n(kind, count));
    }
    let (last, _) = shares[shares.len() - 1];
    kinds.resize(total, last);
    kinds.shuffle(rng);
    kinds
}

/// 64 windows of selectivity 0.1 % at random positions. Each is a
/// one-step strolling sequence: the library's multi-step sequences start
/// at selectivity 1 and contract, and this workload wants every result
/// small so that the crack kernels, not row delivery, do the work.
fn cold_start(scale: &Scale, seed: u64) -> Vec<Op> {
    (0..scale.ops as u64)
        .map(|i| {
            let w = strolling_sequence(
                scale.n,
                1,
                0.001,
                Contraction::Linear,
                StrollMode::RandomWithReplacement,
                seed.wrapping_mul(COLD_STEPS as u64).wrapping_add(i),
            )[0];
            Op::select(Shape::Count, Some((w.lo, w.hi)), None, true)
        })
        .collect()
}

/// Zipf (s = 1.1) endpoints inside a hot window that jumps every
/// `scale.period` queries; 50 % narrow counts, 20 % sideways, 20 % star
/// over `b`, 10 % two-column conjuncts.
fn warm_explore(scale: &Scale, seed: u64) -> Vec<Op> {
    let n = scale.n as i64;
    let total = scale.warmup + scale.ops;
    let mut hot = ShiftingHotSet::new(scale.n, total, scale.period, Shift::Jump, seed);
    let hot_width = hot.hot_window().width() as usize;
    let off_a = zipf_column(total, hot_width, 1.1, seed ^ SALT_A);
    let off_b = zipf_column(total, hot_width, 1.1, seed ^ SALT_B);
    let mut rng = SmallRng::seed_from_u64(seed ^ SALT_MIX);
    let narrow = (n / 10_000).max(1);
    let wide = (n / 5_000).max(1);
    let shares = [
        (Shape::Count, 50),
        (Shape::Sideways, 20),
        (Shape::Star, 20),
        (Shape::Conjunct, 10),
    ];
    let mut shapes = mix(&mut rng, scale.warmup, &shares);
    shapes.extend(mix(&mut rng, scale.ops, &shares));
    (shapes.into_iter().enumerate())
        .map(|(i, shape)| {
            hot.next();
            let base = hot.hot_window().lo - 1;
            let (lo_a, lo_b) = (base + off_a[i], base + off_b[i]);
            let a = Some((lo_a, lo_a + rng.gen_range(1..=narrow)));
            let b = match shape {
                Shape::Star => Some((lo_b, lo_b + wide)),
                Shape::Conjunct => Some((lo_b, lo_b + n / 2)),
                _ => None,
            };
            let a = a.filter(|_| shape != Shape::Star);
            Op::select(shape, a, b, i >= scale.warmup)
        })
        .collect()
}

/// The next window of a Zipf endpoint stream.
fn next_window(zipf: &mut ZipfQueries) -> (i64, i64) {
    match zipf.next() {
        Some(ScenarioOp::Select(w)) => (w.lo, w.hi),
        other => unreachable!("ZipfQueries yields only selects, got {other:?}"),
    }
}

/// 70 % narrow counts at Zipf endpoints, 28 % 32-row inserts, 2 % deletes
/// of a 50-wide range.
fn update_mix(scale: &Scale, seed: u64) -> Vec<Op> {
    let n = scale.n as i64;
    let total = scale.warmup + scale.ops;
    let mut zipf =
        ZipfQueries::new(1, scale.n, 1.1, total, seed).with_max_width((n / 10_000).max(1));
    let mut rng = SmallRng::seed_from_u64(seed ^ SALT_MIX);
    let mut next_key = n;
    let shares = [(Shape::Count, 70), (Shape::Insert, 28), (Shape::Delete, 2)];
    let mut shapes = vec![Shape::Count; scale.warmup];
    shapes.extend(mix(&mut rng, scale.ops, &shares));
    let mut out: Vec<Op> = (shapes.into_iter().enumerate())
        .map(|(i, shape)| match shape {
            Shape::Insert => Op::insert(
                (0..INSERT_ROWS)
                    .map(|_| {
                        next_key += 1;
                        vec![next_key, rng.gen_range(1..=n), rng.gen_range(1..=n)]
                    })
                    .collect(),
            ),
            Shape::Delete => Op::delete(rng.gen_range(1..=n - DELETE_WIDTH)),
            _ => {
                let window = Some(next_window(&mut zipf));
                Op::select(Shape::Count, window, None, i >= scale.warmup)
            }
        })
        .collect();
    out.push(Op::select(Shape::Count, None, None, false));
    out
}

/// 60 % narrow selects over `v` at Zipf endpoints, 40 % staged batches of
/// 32 `(oid, value)` pairs. Checkpoints are not ops: the runner takes one
/// every `scale.period` timed ops. The stream ends on [`TAIL_BATCHES`]
/// untimed batches, which only the log holds when the crash comes, and
/// one last batch whose acknowledgement the crash overtakes: the crash
/// image keeps half of its bytes.
///
/// The share of batches decides what `read_p99_us` measures. The column
/// merges its staged rows into the cracked store on the first read after
/// 1 024 have piled up, a ~30 ms stall. At 25 % batches such reads are
/// 1.04 % of all reads, so p99 would fall inside or outside them by luck;
/// at 40 % they are 2.1 % and p99 is the merge stall in every rep.
fn durable_ingest(scale: &Scale, seed: u64) -> Vec<Op> {
    let n = scale.n as i64;
    let total = scale.warmup + scale.ops;
    let mut zipf =
        ZipfQueries::new(1, scale.n, 1.1, total, seed).with_max_width((n / 10_000).max(1));
    let mut rng = SmallRng::seed_from_u64(seed ^ SALT_MIX);
    let mut next_oid = n;
    let mut shapes = vec![Shape::Count; scale.warmup];
    shapes.extend(mix(
        &mut rng,
        scale.ops,
        &[(Shape::Count, 60), (Shape::Insert, 40)],
    ));
    shapes.extend([Shape::Insert; TAIL_BATCHES + 1]);
    (shapes.into_iter().enumerate())
        .map(|(i, shape)| {
            let timed = (scale.warmup..total).contains(&i);
            if shape == Shape::Insert {
                let rows: Vec<Vec<i64>> = (0..INSERT_ROWS)
                    .map(|_| {
                        next_oid += 1;
                        vec![next_oid - 1, rng.gen_range(1..=n)]
                    })
                    .collect();
                Op {
                    shape: Shape::Insert,
                    text: format!("stage_insert_batch t v {rows:?}"),
                    a: None,
                    b: None,
                    rows,
                    timed,
                }
            } else {
                let (lo, hi) = next_window(&mut zipf);
                Op {
                    shape: Shape::Count,
                    text: format!("select_conjunctive t v [{lo},{hi})"),
                    a: Some((lo, hi)),
                    b: None,
                    rows: Vec::new(),
                    timed,
                }
            }
        })
        .collect()
}

/// FNV-1a over the texts of a stream: equal for equal seeds, different
/// for different seeds.
pub fn stream_hash(ops: &[Op]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for op in ops {
        for &byte in op.text.as_bytes().iter().chain(b"\n") {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            let scale = w.scale(true);
            let one = ops(w, &scale, 1);
            assert_eq!(one, ops(w, &scale, 1), "{}", w.name());
            assert_eq!(table(w, &scale, 1), table(w, &scale, 1));
            assert_ne!(
                stream_hash(&one),
                stream_hash(&ops(w, &scale, 2)),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn streams_have_the_advertised_mix() {
        let scale = Workload::UpdateMix.scale(true);
        let stream = ops(Workload::UpdateMix, &scale, 5);
        assert_eq!(stream.len(), scale.warmup + scale.ops + 1);
        assert!(stream[..scale.warmup]
            .iter()
            .all(|o| !o.timed && o.is_read()));
        let timed: Vec<&Op> = stream.iter().filter(|o| o.timed).collect();
        assert_eq!(timed.len(), scale.ops);
        assert!(timed.iter().any(|o| o.shape == Shape::Insert));
        assert!(timed.iter().any(|o| o.shape == Shape::Delete));
        let cold = ops(Workload::ColdStart, &Workload::ColdStart.scale(true), 5);
        assert!(cold.iter().all(|o| {
            let (lo, hi) = o.a.expect("a range");
            hi - lo == 20 && o.text.starts_with("select count(*) from r where a >= ")
        }));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
