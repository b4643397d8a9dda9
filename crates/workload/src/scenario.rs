//! The scenario engine: skewed, shifting, and update-heavy workloads.
//!
//! The MQS kit of §4 ([`crate::mqs`]) captures *benign* users — zooming,
//! drifting, strolling. The cracker's argument, however, is that it adapts
//! to *whatever* sequence arrives, and its failure modes only surface when
//! the workload's structure actually moves. This module is the kit for
//! those moving workloads:
//!
//! * [`ZipfQueries`] — query endpoints drawn with the same Zipf skew as
//!   the data ([`crate::skew::zipf_column`]), so the hot head of the
//!   domain is both dense and hammered;
//! * [`ShiftingHotSet`] — all queries land inside a hot window that
//!   relocates every `period` queries, either drifting by a fixed step or
//!   jumping to a random location ([`Shift`]);
//! * [`UpdateHeavy`] — an MQS profile's select sequence interleaved with
//!   insert/delete bursts at a configurable updates-per-select ratio,
//!   stressing `cracker_core::updates` staging and merging.
//!
//! A scenario is a **seeded iterator of [`Op`] steps** over a base column
//! it also generates ([`Scenario::base`]). The seeding contract: every
//! stream a scenario consumes (data, endpoints, widths, update values,
//! victims) is derived from the constructor `seed` through fixed salts, so
//! two scenarios built with identical parameters emit bit-identical base
//! columns *and* op streams — rebuilding a scenario is how a harness
//! replays "the same" workload against many executors.
//!
//! Correctness under these adversarial mixes is the real risk, so the
//! differential oracle is part of the kit, not an afterthought:
//! [`SortedOracle`] is a sorted-vector reference store, and
//! [`ScenarioRunner::run_differential`] replays any scenario against any
//! [`ScenarioExecutor`] *and* the oracle in lock-step, comparing the full
//! result set (not just counts) after every step.

use std::collections::{HashMap, VecDeque};

use cracker_core::{ConcurrentColumn, CrackerColumn};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::skew;
use crate::tapestry::Tapestry;
use crate::{Mqs, Window};

/// Salt separating a scenario's query-endpoint stream from its data seed.
const ENDPOINT_SALT: u64 = 0x5CEA_0001_D00D_BEEF;
/// Salt separating the width/placement jitter stream from the data seed.
const JITTER_SALT: u64 = 0x5CEA_0002_CAFE_F00D;
/// Salt separating the update stream (values, victims) from the data seed.
const UPDATE_SALT: u64 = 0x5CEA_0003_FEED_5EED;
/// Salt separating a chaos schedule's action stream from its seed.
const CHAOS_SALT: u64 = 0x5CEA_0004_BAD5_EED5;

/// One step of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Answer a range query over the value domain.
    Select(Window),
    /// Insert a fresh tuple. OIDs are allocated by the scenario, strictly
    /// above the base column's positions, and never reused.
    Insert {
        /// The new tuple's OID.
        oid: u32,
        /// The new tuple's value.
        value: i64,
    },
    /// Delete a live tuple (from the base column or a previous insert).
    Delete {
        /// The victim OID; the scenario only names OIDs it knows live.
        oid: u32,
    },
}

/// A seeded workload: a base column plus an iterator of [`Op`] steps.
///
/// Implementations are deterministic: reconstructing a scenario with the
/// same parameters and seed yields the same [`Scenario::base`] column and
/// the same op stream, which is how runners replay one workload against
/// several executors.
pub trait Scenario: Iterator<Item = Op> {
    /// Stable, human-readable identifier for reports.
    fn name(&self) -> String;

    /// The base column the scenario plays over. Executors must be loaded
    /// with exactly this column (OID `i` = position `i`) before replay.
    fn base(&self) -> &[i64];
}

// ---------------------------------------------------------------------------
// ZipfQueries
// ---------------------------------------------------------------------------

/// Skewed query endpoints over Zipf-skewed data: both the column and the
/// window origins are drawn `∝ 1/v^s`, so the dense head of the domain
/// receives nearly all queries — the regime where a cracker's pieces pile
/// up in one region.
#[derive(Debug)]
pub struct ZipfQueries {
    data: Vec<i64>,
    endpoints: Vec<i64>,
    next: usize,
    jitter: SmallRng,
    max_width: i64,
    name: String,
}

impl ZipfQueries {
    /// `n` data values over `1..=domain` with exponent `s`, and `k`
    /// queries whose origins follow the same skew. Window widths jitter
    /// uniformly in `1..=max(domain/64, 1)` (see [`Self::with_max_width`]).
    pub fn new(n: usize, domain: usize, s: f64, k: usize, seed: u64) -> Self {
        ZipfQueries {
            data: skew::zipf_column(n, domain, s, seed),
            endpoints: skew::zipf_column(k, domain, s, seed ^ ENDPOINT_SALT),
            next: 0,
            jitter: SmallRng::seed_from_u64(seed ^ JITTER_SALT),
            max_width: (domain as i64 / 64).max(1),
            name: format!("zipf(n={n},domain={domain},s={s},k={k})"),
        }
    }

    /// Override the maximum query-window width (clamped to ≥ 1).
    pub fn with_max_width(mut self, max_width: i64) -> Self {
        self.max_width = max_width.max(1);
        self
    }
}

impl Iterator for ZipfQueries {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let lo = *self.endpoints.get(self.next)?;
        self.next += 1;
        let width = self.jitter.gen_range(1..=self.max_width);
        Some(Op::Select(Window::new(lo, lo + width)))
    }
}

impl Scenario for ZipfQueries {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn base(&self) -> &[i64] {
        &self.data
    }
}

// ---------------------------------------------------------------------------
// ShiftingHotSet
// ---------------------------------------------------------------------------

/// How the hot window relocates when its period expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shift {
    /// The window slides by a fixed `step`, wrapping around the domain —
    /// the cracker can partially reuse boundaries from the previous
    /// position.
    Drift {
        /// Domain values the hot window advances per relocation.
        step: i64,
    },
    /// The window jumps to a uniformly random location — every relocation
    /// lands on cold, coarsely cracked territory.
    Jump,
}

/// A hot set of the domain receives every query; the hot set relocates
/// every `period` queries. The base column is a permutation of `1..=n`
/// (a one-column tapestry), so answers are exactly window-width until
/// updates enter the picture.
#[derive(Debug)]
pub struct ShiftingHotSet {
    data: Vec<i64>,
    rng: SmallRng,
    n: i64,
    hot_lo: i64,
    hot_width: i64,
    query_width: i64,
    period: usize,
    shift: Shift,
    issued: usize,
    k: usize,
    name: String,
}

impl ShiftingHotSet {
    /// `k` queries over a permutation of `1..=n`; the hot window (default
    /// width `n/20`) relocates every `period` queries per `shift`; each
    /// query is a window of width `n/200` (default) placed uniformly
    /// inside the current hot set.
    pub fn new(n: usize, k: usize, period: usize, shift: Shift, seed: u64) -> Self {
        assert!(n >= 64, "domain too small for a hot set");
        assert!(period >= 1, "period must be at least 1");
        let hot_width = (n as i64 / 20).max(8);
        let query_width = (n as i64 / 200).max(2);
        let mut rng = SmallRng::seed_from_u64(seed ^ JITTER_SALT);
        let hot_lo = rng.gen_range(1..=(n as i64 - hot_width + 1));
        let shift_name = match shift {
            Shift::Drift { step } => format!("drift:{step}"),
            Shift::Jump => "jump".to_string(),
        };
        ShiftingHotSet {
            data: Tapestry::generate(n, 1, seed).column(0).to_vec(),
            rng,
            n: n as i64,
            hot_lo,
            hot_width,
            query_width,
            period,
            shift,
            issued: 0,
            k,
            name: format!("shifting(n={n},k={k},period={period},shift={shift_name})"),
        }
    }

    /// Override the hot-set and per-query window widths (both clamped so
    /// the query window fits inside the hot set inside the domain).
    pub fn with_widths(mut self, hot_width: i64, query_width: i64) -> Self {
        self.hot_width = hot_width.clamp(2, self.n);
        self.query_width = query_width.clamp(1, self.hot_width - 1);
        self.hot_lo = self.hot_lo.min(self.n - self.hot_width + 1);
        self
    }

    /// The hot window currently receiving all queries.
    pub fn hot_window(&self) -> Window {
        Window::new(self.hot_lo, self.hot_lo + self.hot_width)
    }

    fn relocate(&mut self) {
        let span = self.n - self.hot_width + 1;
        self.hot_lo = match self.shift {
            Shift::Drift { step } => (self.hot_lo - 1 + step).rem_euclid(span) + 1,
            Shift::Jump => self.rng.gen_range(1..=span),
        };
    }
}

impl Iterator for ShiftingHotSet {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.issued >= self.k {
            return None;
        }
        if self.issued > 0 && self.issued.is_multiple_of(self.period) {
            self.relocate();
        }
        self.issued += 1;
        let lo = self
            .rng
            .gen_range(self.hot_lo..=(self.hot_lo + self.hot_width - self.query_width));
        Some(Op::Select(Window::new(lo, lo + self.query_width)))
    }
}

impl Scenario for ShiftingHotSet {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn base(&self) -> &[i64] {
        &self.data
    }
}

// ---------------------------------------------------------------------------
// UpdateHeavy
// ---------------------------------------------------------------------------

/// An MQS profile's select sequence interleaved with insert/delete bursts.
///
/// Before each select the scenario accrues `ratio` owed updates; whenever
/// the debt reaches `burst`, a burst of that many updates is emitted
/// (inserts of fresh values and deletes of random live OIDs, chosen with
/// equal probability while tuples remain). `ratio = 4.0` with `burst = 8`
/// means a burst of eight updates every other select.
#[derive(Debug)]
pub struct UpdateHeavy {
    data: Vec<i64>,
    selects: Vec<Window>,
    sel_idx: usize,
    rng: SmallRng,
    ratio: f64,
    burst: usize,
    owed: f64,
    live: Vec<u32>,
    next_oid: u32,
    domain: i64,
    queue: VecDeque<Op>,
    name: String,
}

impl UpdateHeavy {
    /// Interleave the select sequence of `mqs` (data and windows both
    /// derived from `seed`) with `ratio` updates per select, grouped into
    /// bursts of `burst` (clamped to ≥ 1).
    pub fn new(mqs: Mqs, ratio: f64, burst: usize, seed: u64) -> Self {
        assert!(ratio >= 0.0, "ratio must be non-negative");
        let data = mqs.table(seed).column(0).to_vec();
        let n = data.len();
        UpdateHeavy {
            data,
            selects: mqs.sequence(seed),
            sel_idx: 0,
            rng: SmallRng::seed_from_u64(seed ^ UPDATE_SALT),
            ratio,
            burst: burst.max(1),
            owed: 0.0,
            live: (0..n as u32).collect(),
            next_oid: n as u32,
            domain: n as i64,
            queue: VecDeque::new(),
            name: format!(
                "update_heavy({},ratio={ratio},burst={})",
                mqs.describe(),
                burst.max(1)
            ),
        }
    }

    fn gen_update(&mut self) -> Op {
        if self.live.is_empty() || self.rng.gen_range(0..2) == 0 {
            let oid = self.next_oid;
            self.next_oid += 1;
            self.live.push(oid);
            Op::Insert {
                oid,
                value: self.rng.gen_range(1..=self.domain),
            }
        } else {
            let idx = self.rng.gen_range(0..self.live.len());
            Op::Delete {
                oid: self.live.swap_remove(idx),
            }
        }
    }
}

impl Iterator for UpdateHeavy {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if let Some(op) = self.queue.pop_front() {
            return Some(op);
        }
        let w = *self.selects.get(self.sel_idx)?;
        self.sel_idx += 1;
        self.owed += self.ratio;
        while self.owed >= self.burst as f64 {
            self.owed -= self.burst as f64;
            for _ in 0..self.burst {
                let u = self.gen_update();
                self.queue.push_back(u);
            }
        }
        self.queue.push_back(Op::Select(w));
        self.queue.pop_front()
    }
}

impl Scenario for UpdateHeavy {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn base(&self) -> &[i64] {
        &self.data
    }
}

// ---------------------------------------------------------------------------
// The differential oracle
// ---------------------------------------------------------------------------

/// The reference store of the differential harness: a `(value, OID)`
/// vector kept sorted, answering range selects by binary search and
/// applying updates eagerly. Trivially correct, so any executor that
/// disagrees with it after any step is wrong.
#[derive(Debug, Clone)]
pub struct SortedOracle {
    /// Sorted by `(value, oid)`.
    pairs: Vec<(i64, u32)>,
    /// Live OID → value, so a delete locates its pair by binary search
    /// instead of scanning (the `Vec::remove` shift still costs O(n)).
    by_oid: HashMap<u32, i64>,
}

impl SortedOracle {
    /// Load the oracle with a base column (OID `i` = position `i`).
    pub fn new(base: &[i64]) -> Self {
        let mut pairs: Vec<(i64, u32)> = base
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        pairs.sort_unstable();
        let by_oid = base
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u32, v))
            .collect();
        SortedOracle { pairs, by_oid }
    }

    /// Live tuple count.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no tuples are live.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The OIDs qualifying under `w`, ascending.
    pub fn select_oids(&self, w: Window) -> Vec<u32> {
        let start = self.pairs.partition_point(|&(v, _)| v < w.lo);
        let end = self.pairs.partition_point(|&(v, _)| v < w.hi);
        let mut oids: Vec<u32> = self.pairs[start..end].iter().map(|&(_, o)| o).collect();
        oids.sort_unstable();
        oids
    }

    /// Number of tuples qualifying under `w`.
    pub fn count(&self, w: Window) -> usize {
        let start = self.pairs.partition_point(|&(v, _)| v < w.lo);
        let end = self.pairs.partition_point(|&(v, _)| v < w.hi);
        end - start
    }

    /// Insert `(oid, value)` at its sorted position.
    pub fn insert(&mut self, oid: u32, value: i64) {
        debug_assert!(
            !self.by_oid.contains_key(&oid),
            "scenarios never reuse OIDs"
        );
        let at = self.pairs.partition_point(|&p| p < (value, oid));
        self.pairs.insert(at, (value, oid));
        self.by_oid.insert(oid, value);
    }

    /// Delete `oid`, returning whether it was live.
    pub fn delete(&mut self, oid: u32) -> bool {
        let Some(value) = self.by_oid.remove(&oid) else {
            return false;
        };
        let at = self.pairs.partition_point(|&p| p < (value, oid));
        debug_assert_eq!(self.pairs.get(at), Some(&(value, oid)));
        self.pairs.remove(at);
        true
    }
}

// ---------------------------------------------------------------------------
// Executors and the runner
// ---------------------------------------------------------------------------

/// Anything that can replay a scenario: answer range selects with the
/// qualifying OID set and apply staged updates. Implementations exist for
/// every cracker column flavour and for [`SortedOracle`] itself; the
/// engine crate adds engine-level runners on top.
///
/// `run_select` may return OIDs in any order — the runner canonicalizes
/// before comparing.
pub trait ScenarioExecutor {
    /// Executor label for mismatch reports.
    fn label(&self) -> String;

    /// The OIDs qualifying under `w` (any order).
    fn run_select(&mut self, w: Window) -> Vec<u32>;

    /// Apply an insert.
    fn run_insert(&mut self, oid: u32, value: i64);

    /// Apply a delete, returning whether the OID was found.
    fn run_delete(&mut self, oid: u32) -> bool;
}

impl ScenarioExecutor for SortedOracle {
    fn label(&self) -> String {
        "sorted-oracle".to_string()
    }

    fn run_select(&mut self, w: Window) -> Vec<u32> {
        self.select_oids(w)
    }

    fn run_insert(&mut self, oid: u32, value: i64) {
        self.insert(oid, value);
    }

    fn run_delete(&mut self, oid: u32) -> bool {
        self.delete(oid)
    }
}

impl ScenarioExecutor for CrackerColumn<i64> {
    fn label(&self) -> String {
        "cracker-column".to_string()
    }

    fn run_select(&mut self, w: Window) -> Vec<u32> {
        self.select_oids(w.to_pred())
    }

    fn run_insert(&mut self, oid: u32, value: i64) {
        self.insert(oid, value);
    }

    fn run_delete(&mut self, oid: u32) -> bool {
        self.delete(oid)
    }
}

impl ScenarioExecutor for ConcurrentColumn<i64> {
    fn label(&self) -> String {
        format!("concurrent({} shards)", self.shard_count())
    }

    fn run_select(&mut self, w: Window) -> Vec<u32> {
        ConcurrentColumn::select_oids(self, w.to_pred())
    }

    fn run_insert(&mut self, oid: u32, value: i64) {
        ConcurrentColumn::insert(self, oid, value);
    }

    fn run_delete(&mut self, oid: u32) -> bool {
        ConcurrentColumn::delete(self, oid)
    }
}

/// Tallies of one scenario replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Select ops replayed.
    pub selects: usize,
    /// Insert ops replayed.
    pub inserts: usize,
    /// Delete ops replayed.
    pub deletes: usize,
    /// Total qualifying tuples across all selects.
    pub result_tuples: u64,
}

impl RunReport {
    /// Total ops replayed.
    pub fn ops(&self) -> usize {
        self.selects + self.inserts + self.deletes
    }
}

/// Drives any [`Scenario`] against any [`ScenarioExecutor`], plainly or
/// differentially against the [`SortedOracle`].
pub struct ScenarioRunner;

impl ScenarioRunner {
    /// Replay `scenario` against `exec` (which must already hold the
    /// scenario's base column), returning tallies.
    pub fn run<S, E>(scenario: &mut S, exec: &mut E) -> RunReport
    where
        S: Scenario + ?Sized,
        E: ScenarioExecutor + ?Sized,
    {
        let mut report = RunReport::default();
        for op in scenario {
            match op {
                Op::Select(w) => {
                    report.selects += 1;
                    report.result_tuples += exec.run_select(w).len() as u64;
                }
                Op::Insert { oid, value } => {
                    report.inserts += 1;
                    exec.run_insert(oid, value);
                }
                Op::Delete { oid } => {
                    report.deletes += 1;
                    exec.run_delete(oid);
                }
            }
        }
        report
    }

    /// Replay `scenario` against `exec` *and* a fresh [`SortedOracle`]
    /// over the scenario's base column, in lock-step. After every select
    /// the full (sorted) OID result sets must be identical, and every
    /// delete must agree on whether the victim was found; the first
    /// divergence aborts the replay with a description.
    pub fn run_differential<S, E>(scenario: &mut S, exec: &mut E) -> Result<RunReport, String>
    where
        S: Scenario + ?Sized,
        E: ScenarioExecutor + ?Sized,
    {
        let name = scenario.name();
        let mut oracle = SortedOracle::new(scenario.base());
        let mut report = RunReport::default();
        for (step, op) in scenario.enumerate() {
            match op {
                Op::Select(w) => {
                    report.selects += 1;
                    let mut got = exec.run_select(w);
                    got.sort_unstable();
                    let want = oracle.select_oids(w);
                    if got != want {
                        return Err(format!(
                            "{name} step {step}: {} diverged from the oracle on \
                             Select([{}, {})): got {} oids, want {} \
                             (first difference at {:?})",
                            exec.label(),
                            w.lo,
                            w.hi,
                            got.len(),
                            want.len(),
                            got.iter()
                                .zip(&want)
                                .position(|(a, b)| a != b)
                                .or(Some(got.len().min(want.len())))
                        ));
                    }
                    report.result_tuples += want.len() as u64;
                }
                Op::Insert { oid, value } => {
                    report.inserts += 1;
                    exec.run_insert(oid, value);
                    oracle.insert(oid, value);
                }
                Op::Delete { oid } => {
                    report.deletes += 1;
                    let got = exec.run_delete(oid);
                    let want = oracle.delete(oid);
                    if got != want {
                        return Err(format!(
                            "{name} step {step}: {} Delete({oid}) found={got}, oracle \
                             found={want}",
                            exec.label()
                        ));
                    }
                }
            }
        }
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// Chaos schedules
// ---------------------------------------------------------------------------

/// One disturbance a chaos harness injects between scenario steps.
///
/// The schedule is storage-agnostic on purpose — this crate knows nothing
/// about checkpoint stores, redo logs, or admission gates. Fault points
/// and kinds are therefore raw indices; the interpreting runner (the
/// engine crate's chaos replay) maps them onto its own injection-point
/// and fault-kind tables by modulo, so every drawn value is meaningful
/// regardless of how many points the runner exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Arm a deterministic I/O fault: `point`/`kind` index the runner's
    /// injection-point and fault-kind tables (modulo their lengths),
    /// `fires` bounds how many times the fault triggers before healing.
    ArmFault {
        /// Raw injection-point index (runner maps modulo its table).
        point: u32,
        /// Raw fault-kind index (runner maps modulo its table).
        kind: u32,
        /// How many times the armed fault fires before healing.
        fires: u32,
    },
    /// Run the next query pre-cancelled: it must fail typed and change
    /// no later observable answer.
    CancelNext,
    /// Run the next query with an already-expired deadline.
    DeadlineNext,
    /// Saturate admission so the next query is shed at the gate.
    ShedNext,
    /// Arm a panic on the next crack: the query fails loudly, the column
    /// heals (degrades to cold), answers stay exact.
    PanicNext,
    /// Take a checkpoint (rotates the redo log, clearing any poison).
    Checkpoint,
    /// Simulate a process restart: recover from the durability directory
    /// and continue the replay warm.
    Restart,
}

/// A seeded list of `(step, action)` pairs, sorted by step: before
/// replaying scenario step `i`, the harness performs every action
/// scheduled at `i`. Two schedules built with the same `(steps, seed,
/// intensity)` are identical — chaos runs replay bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSchedule {
    actions: Vec<(usize, ChaosAction)>,
}

impl ChaosSchedule {
    /// Draw a schedule over `steps` scenario steps: each step receives an
    /// action with probability `intensity` (clamped to `[0, 1]`), the
    /// action mix weighted toward I/O faults — the failure class with the
    /// most distinct points to cover.
    pub fn seeded(steps: usize, seed: u64, intensity: f64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ CHAOS_SALT);
        let intensity = intensity.clamp(0.0, 1.0);
        let mut actions = Vec::new();
        for step in 0..steps {
            if !rng.gen_bool(intensity) {
                continue;
            }
            let action = match rng.gen_range(0..100u32) {
                0..=39 => ChaosAction::ArmFault {
                    point: rng.gen::<u32>(),
                    kind: rng.gen::<u32>(),
                    fires: rng.gen_range(1..4u32),
                },
                40..=51 => ChaosAction::CancelNext,
                52..=61 => ChaosAction::DeadlineNext,
                62..=71 => ChaosAction::ShedNext,
                72..=79 => ChaosAction::PanicNext,
                80..=89 => ChaosAction::Checkpoint,
                _ => ChaosAction::Restart,
            };
            actions.push((step, action));
        }
        ChaosSchedule { actions }
    }

    /// Build a schedule from explicit `(step, action)` pairs — for tests
    /// that want a hand-crafted disturbance pattern rather than a seeded
    /// draw.
    pub fn from_actions(actions: Vec<(usize, ChaosAction)>) -> Self {
        ChaosSchedule { actions }
    }

    /// The scheduled `(step, action)` pairs, ascending by step.
    pub fn actions(&self) -> &[(usize, ChaosAction)] {
        &self.actions
    }

    /// Actions scheduled before step `step`, in schedule order.
    pub fn at(&self, step: usize) -> impl Iterator<Item = ChaosAction> + '_ {
        self.actions
            .iter()
            .filter(move |(s, _)| *s == step)
            .map(|&(_, a)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_schedules_are_deterministic_and_scale_with_intensity() {
        let a = ChaosSchedule::seeded(500, 42, 0.3);
        let b = ChaosSchedule::seeded(500, 42, 0.3);
        assert_eq!(a, b, "same parameters, same schedule");
        assert!(!a.actions().is_empty(), "intensity 0.3 over 500 steps");
        assert!(ChaosSchedule::seeded(500, 42, 0.0).actions().is_empty());
        assert_eq!(ChaosSchedule::seeded(200, 7, 1.0).actions().len(), 200);
        let (step, action) = a.actions()[0];
        assert!(a.at(step).any(|x| x == action), "at() surfaces its step");
        assert_eq!(a.at(usize::MAX).count(), 0);
    }

    fn collect_ops<S: Scenario>(mut s: S) -> (Vec<i64>, Vec<Op>) {
        let base = s.base().to_vec();
        let ops: Vec<Op> = s.by_ref().collect();
        (base, ops)
    }

    #[test]
    fn zipf_queries_hammer_the_head() {
        let (base, ops) = collect_ops(ZipfQueries::new(10_000, 2_000, 1.2, 400, 7));
        assert_eq!(base.len(), 10_000);
        assert_eq!(ops.len(), 400);
        let head = ops
            .iter()
            .filter(|op| matches!(op, Op::Select(w) if w.lo <= 20))
            .count();
        let tail = ops
            .iter()
            .filter(|op| matches!(op, Op::Select(w) if w.lo > 1_800))
            .count();
        assert!(
            head > 5 * tail.max(1),
            "skewed endpoints: head {head} vs tail {tail}"
        );
    }

    #[test]
    fn shifting_hot_set_relocates_on_schedule() {
        let mut s = ShiftingHotSet::new(10_000, 64, 16, Shift::Jump, 3);
        let mut hots = vec![s.hot_window()];
        let ops: Vec<Op> = s.by_ref().collect();
        hots.push(s.hot_window());
        assert_eq!(ops.len(), 64);
        // 64 queries at period 16: three relocations happened.
        assert_ne!(hots[0], hots[1], "the hot window moved");
        // Every query inside some epoch's hot window width.
        for op in &ops {
            let Op::Select(w) = op else {
                panic!("shifting hot set emits only selects")
            };
            assert!(w.width() >= 1);
        }
    }

    #[test]
    fn drift_wraps_around_the_domain() {
        let n = 1_000;
        let mut s =
            ShiftingHotSet::new(n, 200, 1, Shift::Drift { step: 400 }, 9).with_widths(100, 10);
        let mut lows = Vec::new();
        for _ in 0..200 {
            s.next();
            lows.push(s.hot_window().lo);
        }
        assert!(lows
            .iter()
            .all(|&l| (1..=(n as i64 - 100 + 1)).contains(&l)));
        // With step 400 over span 901 the window must wrap at least once.
        assert!(lows.windows(2).any(|p| p[1] < p[0]), "drift wrapped");
    }

    #[test]
    fn update_heavy_mixes_to_the_requested_ratio() {
        let mqs = Mqs::paper_default(5_000, 64, 0.05);
        let (base, ops) = collect_ops(UpdateHeavy::new(mqs, 3.0, 4, 11));
        assert_eq!(base.len(), 5_000);
        let selects = ops.iter().filter(|o| matches!(o, Op::Select(_))).count();
        let updates = ops.len() - selects;
        assert_eq!(selects, 64);
        // 3 updates per select, bursts of 4: within one burst of exact.
        assert!(
            (updates as i64 - 3 * 64).abs() <= 4,
            "updates {updates} ≈ 192"
        );
        // Bursts really are grouped: somewhere 4 consecutive non-selects.
        assert!(ops
            .windows(4)
            .any(|w| w.iter().all(|o| !matches!(o, Op::Select(_)))));
    }

    #[test]
    fn update_heavy_only_deletes_live_oids() {
        let mqs = Mqs::paper_default(1_000, 32, 0.1);
        let (_, ops) = collect_ops(UpdateHeavy::new(mqs, 8.0, 8, 5));
        let mut live: std::collections::HashSet<u32> = (0..1_000).collect();
        for op in ops {
            match op {
                Op::Insert { oid, .. } => assert!(live.insert(oid), "fresh OID {oid}"),
                Op::Delete { oid } => assert!(live.remove(&oid), "live OID {oid}"),
                Op::Select(_) => {}
            }
        }
    }

    #[test]
    fn seeding_contract_rebuild_replays_identically() {
        let a = collect_ops(ZipfQueries::new(2_000, 500, 1.0, 80, 42));
        let b = collect_ops(ZipfQueries::new(2_000, 500, 1.0, 80, 42));
        assert_eq!(a, b);
        let c = collect_ops(ShiftingHotSet::new(2_000, 80, 8, Shift::Jump, 42));
        let d = collect_ops(ShiftingHotSet::new(2_000, 80, 8, Shift::Jump, 42));
        assert_eq!(c, d);
        let mqs = Mqs::paper_default(2_000, 40, 0.05);
        let e = collect_ops(UpdateHeavy::new(mqs, 2.0, 4, 42));
        let f = collect_ops(UpdateHeavy::new(mqs, 2.0, 4, 42));
        assert_eq!(e, f);
        // And a different seed diverges.
        let g = collect_ops(ZipfQueries::new(2_000, 500, 1.0, 80, 43));
        assert_ne!(a.1, g.1);
    }

    #[test]
    fn oracle_select_insert_delete_roundtrip() {
        let mut o = SortedOracle::new(&[5, 3, 9, 3, 7]);
        assert_eq!(o.len(), 5);
        assert_eq!(o.select_oids(Window::new(3, 6)), vec![0, 1, 3]);
        assert_eq!(o.count(Window::new(3, 6)), 3);
        o.insert(10, 4);
        assert_eq!(o.select_oids(Window::new(3, 6)), vec![0, 1, 3, 10]);
        assert!(o.delete(1));
        assert!(!o.delete(1), "already gone");
        assert_eq!(o.select_oids(Window::new(3, 6)), vec![0, 3, 10]);
        assert!(!o.is_empty());
    }

    #[test]
    fn runner_differential_passes_on_real_columns() {
        let mut scenario = ZipfQueries::new(3_000, 800, 1.1, 60, 13);
        let mut col = CrackerColumn::new(scenario.base().to_vec());
        let report = ScenarioRunner::run_differential(&mut scenario, &mut col)
            .expect("cracker agrees with the oracle");
        assert_eq!(report.selects, 60);
        assert_eq!(report.ops(), 60);
        assert!(report.result_tuples > 0);
    }

    #[test]
    fn runner_differential_catches_a_lying_executor() {
        struct Liar;
        impl ScenarioExecutor for Liar {
            fn label(&self) -> String {
                "liar".into()
            }
            fn run_select(&mut self, _w: Window) -> Vec<u32> {
                vec![0xDEAD]
            }
            fn run_insert(&mut self, _oid: u32, _value: i64) {}
            fn run_delete(&mut self, _oid: u32) -> bool {
                true
            }
        }
        let mut scenario = ZipfQueries::new(500, 100, 1.0, 5, 1);
        let err = ScenarioRunner::run_differential(&mut scenario, &mut Liar)
            .expect_err("the liar must be caught");
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn runner_plain_tallies_ops() {
        let mqs = Mqs::paper_default(1_000, 16, 0.1);
        let mut scenario = UpdateHeavy::new(mqs, 2.0, 2, 3);
        let mut oracle = SortedOracle::new(scenario.base());
        let report = ScenarioRunner::run(&mut scenario, &mut oracle);
        assert_eq!(report.selects, 16);
        assert_eq!(report.inserts + report.deletes, report.ops() - 16);
        assert!(report.ops() >= 16 + 30, "ratio 2 owed ~32 updates");
    }
}
