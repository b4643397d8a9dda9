//! The workspace's sync facade: instrumented latches with **lockdep**.
//!
//! Every latch in the cracker's concurrency layer — the per-shard
//! latches of [`crate::sharded::ConcurrentColumn`] (one shard is one
//! column-wide latch) and the mutex/condvar pair inside the engine's
//! `AdmissionGate` — is constructed through this module instead of
//! `parking_lot` / `std::sync` directly
//! (a hand-rolled lint, `cargo run -p analysis --bin lint`, enforces
//! this). The wrappers are transparent pass-throughs until **lock
//! analysis** is switched on, at which point every acquisition is checked
//! against the latch discipline documented in `CONCURRENCY.md`:
//!
//! * **Lock-order graph** — each acquisition made while other latches are
//!   held adds `held-class → new-class` edges to a global directed graph;
//!   an edge that closes a cycle is a latent deadlock and panics with both
//!   acquisition sites (the classic lockdep check).
//! * **Same-class ordering** — latches of the same class within the same
//!   [`LockGroup`] (e.g. the shards of one sharded column) must be
//!   acquired in strictly ascending `order` — the ascending-shard-index
//!   discipline. A descending or duplicate acquisition panics.
//! * **Upgrade-while-held** — re-acquiring an instance this thread already
//!   holds panics: read→write is the classic self-deadlocking upgrade, and
//!   read→read recursion deadlocks under a writer-priority `RwLock` when a
//!   writer queues between the two reads.
//! * **Latch budgets** — a scope can declare "this class may be acquired
//!   at most N times per instance" ([`LatchBudget`](lockdep::LatchBudget)); the batch executors
//!   use it to machine-check their "at most two latch round-trips per
//!   shard per batch" contract.
//!
//! # Enabling analysis
//!
//! Analysis is off by default and costs one relaxed atomic load per
//! acquisition (measured unobservable next to the lock operation itself).
//! It turns on when any of these hold at the *first* lock operation:
//!
//! * the environment variable `LOCK_ANALYSIS=1` (CI runs the concurrency
//!   suites under it),
//! * the compile-time cfg `--cfg lock_analysis`,
//! * a prior call to [`lockdep::force_enable`] (used by the negative
//!   tests, which must trip the checker under plain `cargo test`).
//!
//! Violations panic. That is deliberate: a latch-order inversion is a
//! latent deadlock, and the instrumented test run exists to surface it as
//! a loud failure with both acquisition sites in the message.
//!
//! Lock *classes* are `&'static str` names. The graph is keyed by class,
//! not instance, so checks generalize: observing `admission → shard` on
//! one code path and `shard → admission` on another is reported even if
//! the two paths never ran concurrently. Same-class ordering is scoped by
//! [`LockGroup`] so two unrelated sharded columns do not order-constrain
//! each other (holding shards of two *different* columns at once is
//! outside the discipline and not currently checked — no code path does
//! it; see `CONCURRENCY.md`).

use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;

/// Scope key for same-class order checking: the shards of one column share
/// a group; distinct columns get distinct groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockGroup(u64);

impl LockGroup {
    /// A fresh, process-unique group.
    pub fn new() -> Self {
        LockGroup(next_id())
    }
}

impl Default for LockGroup {
    fn default() -> Self {
        Self::new()
    }
}

/// Identity of one instrumented lock instance.
#[derive(Debug, Clone, Copy)]
struct LockId {
    /// Latch class — the node in the lock-order graph.
    class: &'static str,
    /// Order key within `(class, group)`: shard index for shard latches.
    order: u32,
    /// Scope for the same-class ordering rule.
    group: u64,
    /// Process-unique instance id (upgrade/recursion detection).
    instance: u64,
}

fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A reader-writer latch routed through lockdep. API mirrors the
/// `parking_lot` subset the workspace uses.
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    id: LockId,
    inner: parking_lot::RwLock<T>,
}

/// Shared guard of [`RwLock`]; releases (and lockdep-untracks) on drop.
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    // Drop order: the lockdep entry is popped by the token's drop after
    // the latch itself is released; both orders are correct (the checker
    // tolerates either), field order keeps it deterministic. The leading
    // underscore: the field exists only for its Drop.
    inner: parking_lot::RwLockReadGuard<'a, T>,
    _tracked: lockdep::HeldToken,
}

/// Exclusive guard of [`RwLock`]; releases (and lockdep-untracks) on drop.
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    _tracked: lockdep::HeldToken,
}

impl<T> RwLock<T> {
    /// An anonymous-class latch (class `"rwlock"`, its own group). Prefer
    /// [`with_class`](Self::with_class) so lockdep reports carry a name.
    pub fn new(value: T) -> Self {
        Self::with_class(value, "rwlock", 0, LockGroup::new())
    }

    /// A latch belonging to `class` with an `order` key inside `group`.
    pub fn with_class(value: T, class: &'static str, order: u32, group: LockGroup) -> Self {
        RwLock {
            id: LockId {
                class,
                order,
                group: group.0,
                instance: next_id(),
            },
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consume the latch, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Block until shared access is acquired (lockdep-checked).
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let tracked = lockdep::on_acquire(self.id, lockdep::Mode::Read, Location::caller());
        RwLockReadGuard {
            inner: self.inner.read(),
            _tracked: tracked,
        }
    }

    /// Block until exclusive access is acquired (lockdep-checked).
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let tracked = lockdep::on_acquire(self.id, lockdep::Mode::Write, Location::caller());
        RwLockWriteGuard {
            inner: self.inner.write(),
            _tracked: tracked,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A mutex routed through lockdep, paired with [`Condvar`]. Backed by
/// `std::sync::Mutex` (the condvar needs the std guard); poisoning is
/// swallowed like the `parking_lot` shim does.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    id: LockId,
    inner: std::sync::Mutex<T>,
}

/// Guard of [`Mutex`]; releases (and lockdep-untracks) on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::mem::ManuallyDrop<std::sync::MutexGuard<'a, T>>,
    lock: &'a Mutex<T>,
    tracked: Option<lockdep::HeldToken>,
}

impl<T> Mutex<T> {
    /// An anonymous-class mutex (class `"mutex"`, its own group).
    pub fn new(value: T) -> Self {
        Self::with_class(value, "mutex")
    }

    /// A mutex belonging to `class` (its own group, order 0).
    pub fn with_class(value: T, class: &'static str) -> Self {
        Mutex {
            id: LockId {
                class,
                order: 0,
                group: next_id(),
                instance: next_id(),
            },
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the mutex is acquired (lockdep-checked). A panic in a
    /// previous holder does not poison the lock.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let tracked = lockdep::on_acquire(self.id, lockdep::Mode::Write, Location::caller());
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            inner: std::mem::ManuallyDrop::new(inner),
            lock: self,
            tracked: Some(tracked),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    // The ManuallyDrop release below is the one unsafe operation the
    // facade needs; justified inline.
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        // SAFETY: `inner` is dropped exactly once: here, or — when the
        // guard was consumed by `Condvar::wait` via `into_parts` — never
        // (ManuallyDrop::take transfers ownership there and `drop` is not
        // run on the dismantled guard, which is wrapped in
        // `std::mem::forget`).
        unsafe { std::mem::ManuallyDrop::drop(&mut self.inner) };
        drop(self.tracked.take());
    }
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Dismantle the guard without releasing the mutex: hand the std guard
    /// and the lockdep bookkeeping to [`Condvar::wait`].
    // ManuallyDrop::take is unsafe; the forget directly below makes it
    // sound — see the SAFETY note.
    #[allow(unsafe_code)]
    fn into_parts(
        mut self,
    ) -> (
        std::sync::MutexGuard<'a, T>,
        &'a Mutex<T>,
        Option<lockdep::HeldToken>,
    ) {
        // SAFETY: `self` is forgotten immediately after the take, so its
        // Drop (the only other place that drops `inner`) never runs.
        let inner = unsafe { std::mem::ManuallyDrop::take(&mut self.inner) };
        let lock = self.lock;
        let tracked = self.tracked.take();
        std::mem::forget(self);
        (inner, lock, tracked)
    }
}

/// A condition variable for [`Mutex`]. Waiting releases the mutex
/// atomically and re-registers it with lockdep on wakeup.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A fresh condition variable.
    pub fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically release `guard`'s mutex and wait for a notification;
    /// the mutex is re-acquired (and re-checked by lockdep) before this
    /// returns. Spurious wakeups are possible, as with `std`.
    #[track_caller]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let (inner, lock, tracked) = guard.into_parts();
        // The mutex is released inside `wait`: pop the held entry now so
        // lockdep does not count it against latches acquired by other
        // code this thread runs via unwinds, and so a notifier's checks
        // see the true held set.
        drop(tracked);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        let tracked = lockdep::on_acquire(lock.id, lockdep::Mode::Write, Location::caller());
        MutexGuard {
            inner: std::mem::ManuallyDrop::new(inner),
            lock,
            tracked: Some(tracked),
        }
    }

    /// Like [`Condvar::wait`], but give up after `timeout`: returns the
    /// re-acquired guard plus `true` when the wait timed out (the bounded
    /// wait the admission gate's `try_acquire_for` builds on). Spurious
    /// wakeups are possible; callers must re-check their predicate *and*
    /// their own deadline.
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (inner, lock, tracked) = guard.into_parts();
        // Same bookkeeping as `wait`: the mutex is released inside.
        drop(tracked);
        let (inner, res) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        let tracked = lockdep::on_acquire(lock.id, lockdep::Mode::Write, Location::caller());
        (
            MutexGuard {
                inner: std::mem::ManuallyDrop::new(inner),
                lock,
                tracked: Some(tracked),
            },
            res.timed_out(),
        )
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

pub mod lockdep {
    //! The checker behind the [`super`] facade: held-set tracking, the
    //! lock-order graph, and latch budgets. See the module docs above for
    //! the discipline being enforced and `CONCURRENCY.md` for which
    //! invariants are checked here vs. stress-tested.

    use super::LockId;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::Mutex;

    /// Acquisition strength, for report wording and the upgrade check.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Mode {
        /// Shared.
        Read,
        /// Exclusive.
        Write,
    }

    // 0 = undecided (resolve from env on first use), 1 = off, 2 = on.
    static STATE: AtomicU8 = AtomicU8::new(0);

    /// Is lock analysis active? One relaxed load on the hot path.
    #[inline]
    pub fn enabled() -> bool {
        match STATE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => resolve(),
        }
    }

    #[cold]
    fn resolve() -> bool {
        let on = cfg!(lock_analysis)
            || std::env::var("LOCK_ANALYSIS").is_ok_and(|v| v == "1" || v == "true");
        // A concurrent `force_enable` wins over an env-derived "off".
        let _ = STATE.compare_exchange(
            0,
            if on { 2 } else { 1 },
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        STATE.load(Ordering::Relaxed) == 2
    }

    /// Switch analysis on for the rest of the process, regardless of the
    /// environment. Used by the negative tests (which must trip the
    /// checker under plain `cargo test`); those live in their own test
    /// binary so the forced state does not leak into unrelated suites.
    pub fn force_enable() {
        STATE.store(2, Ordering::Relaxed);
    }

    #[derive(Debug, Clone, Copy)]
    struct Held {
        id: LockId,
        mode: Mode,
        site: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static BUDGETS: RefCell<Vec<BudgetFrame>> = const { RefCell::new(Vec::new()) };
    }

    /// Proof that an acquisition was (maybe) recorded; dropping it removes
    /// the held-set entry. Carried inside every facade guard.
    #[derive(Debug)]
    pub(super) struct HeldToken {
        /// Instance to pop, `0` when the acquisition was not tracked
        /// (analysis off at acquire time).
        instance: u64,
    }

    impl Drop for HeldToken {
        fn drop(&mut self) {
            if self.instance == 0 {
                return;
            }
            let instance = self.instance;
            // Tolerant removal: analysis may have been force-enabled
            // between this guard's acquire and release, in which case the
            // entry never existed.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|h| h.id.instance == instance) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Edges of the class-level lock-order graph, with the first-observed
    /// acquisition sites of each edge for reporting.
    #[derive(Debug, Default)]
    struct Graph {
        edges: HashMap<(&'static str, &'static str), EdgeSites>,
    }

    #[derive(Debug, Clone, Copy)]
    struct EdgeSites {
        held_at: &'static Location<'static>,
        acquired_at: &'static Location<'static>,
    }

    impl Graph {
        /// Is `to` reachable from `from`?
        fn reaches(&self, from: &'static str, to: &'static str) -> bool {
            let mut stack = vec![from];
            let mut seen = vec![from];
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                for (a, b) in self.edges.keys() {
                    if *a == n && !seen.contains(b) {
                        seen.push(b);
                        stack.push(b);
                    }
                }
            }
            false
        }
    }

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: std::sync::OnceLock<Mutex<Graph>> = std::sync::OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(Graph::default()))
    }

    /// Check one acquisition against the discipline, record it, and
    /// return the pop token. Panics on violations (see module docs).
    pub(super) fn on_acquire(
        id: LockId,
        mode: Mode,
        site: &'static Location<'static>,
    ) -> HeldToken {
        if !enabled() {
            return HeldToken { instance: 0 };
        }
        HELD.with(|held| {
            let held_now = held.borrow();
            for h in held_now.iter() {
                if h.id.instance == id.instance {
                    let kind = match (h.mode, mode) {
                        (Mode::Read, Mode::Write) => "read->write upgrade while held",
                        (Mode::Read, Mode::Read) => {
                            "recursive read latch (deadlocks under a queued writer)"
                        }
                        _ => "re-acquisition of a held latch",
                    };
                    panic!(
                        "lockdep: {kind} on class `{}`: held {:?} at {}, re-acquired {:?} at {}",
                        id.class, h.mode, h.site, mode, site
                    );
                }
                if h.id.class == id.class && h.id.group == id.group && h.id.order >= id.order {
                    panic!(
                        "lockdep: same-class order inversion on `{}`: holding order {} \
                         (acquired at {}) while acquiring order {} at {} — \
                         latches of one group must be taken in strictly ascending order",
                        id.class, h.id.order, h.site, id.order, site
                    );
                }
            }
            // Cross-class edges: every held class orders before the new one.
            if held_now.iter().any(|h| h.id.class != id.class) {
                let mut g = graph()
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                for h in held_now.iter().filter(|h| h.id.class != id.class) {
                    if g.reaches(id.class, h.id.class) {
                        let reverse = g.edges.get(&(id.class, h.id.class)).copied();
                        let detail = match reverse {
                            Some(e) => format!(
                                "the opposite order `{}` -> `{}` was observed with `{}` held \
                                 at {} while acquiring at {}",
                                id.class, h.id.class, id.class, e.held_at, e.acquired_at
                            ),
                            None => format!(
                                "`{}` already reaches `{}` through intermediate classes",
                                id.class, h.id.class
                            ),
                        };
                        panic!(
                            "lockdep: lock-order cycle: acquiring `{}` at {} while holding `{}` \
                             (acquired at {}), but {detail}",
                            id.class, site, h.id.class, h.site
                        );
                    }
                    g.edges.entry((h.id.class, id.class)).or_insert(EdgeSites {
                        held_at: h.site,
                        acquired_at: site,
                    });
                }
            }
            drop(held_now);
            held.borrow_mut().push(Held { id, mode, site });
        });
        BUDGETS.with(|budgets| {
            if let Some(frame) = budgets.borrow_mut().last_mut() {
                frame.charge(id, site);
            }
        });
        HeldToken {
            instance: id.instance,
        }
    }

    #[derive(Debug)]
    struct BudgetFrame {
        class: &'static str,
        limit: u32,
        what: &'static str,
        counts: HashMap<u64, u32>,
    }

    impl BudgetFrame {
        fn charge(&mut self, id: LockId, site: &'static Location<'static>) {
            if id.class != self.class {
                return;
            }
            let n = self.counts.entry(id.instance).or_insert(0);
            *n += 1;
            if *n > self.limit {
                panic!(
                    "lockdep: latch budget exceeded: {} acquisitions of one `{}` instance \
                     (order {}) in a scope limited to {} ({}); latest at {}",
                    n, self.class, id.order, self.limit, self.what, site
                );
            }
        }
    }

    /// Scope guard declaring "while I live, this thread acquires any one
    /// latch of `class` at most `limit` times" — the machine-checked form
    /// of the batch executors' latch-amortization contract. No-op when
    /// analysis is off. Frames nest; only the innermost is charged.
    #[derive(Debug)]
    pub struct LatchBudget {
        active: bool,
    }

    impl LatchBudget {
        /// Open a budget scope; `what` names the contract in reports.
        pub fn new(class: &'static str, limit: u32, what: &'static str) -> Self {
            if !enabled() {
                return LatchBudget { active: false };
            }
            BUDGETS.with(|budgets| {
                budgets.borrow_mut().push(BudgetFrame {
                    class,
                    limit,
                    what,
                    counts: HashMap::new(),
                });
            });
            LatchBudget { active: true }
        }
    }

    impl Drop for LatchBudget {
        fn drop(&mut self) {
            if self.active {
                let _ = BUDGETS.try_with(|budgets| {
                    budgets.borrow_mut().pop();
                });
            }
        }
    }

    /// Number of latches the current thread holds (test support).
    pub fn held_count() -> usize {
        HELD.with(|held| held.borrow().len())
    }
}

#[cfg(test)]
mod tests {
    // The positive-path tests here run with analysis *off* (the default in
    // this test binary) plus basic pass-through behavior; everything that
    // force-enables the checker lives in `tests/lockdep.rs`, a separate
    // process, so the forced state cannot leak into unrelated suites.
    use super::*;

    #[test]
    fn rwlock_passthrough_roundtrip() {
        let l = RwLock::with_class(vec![1, 2], "t_sync_rw", 0, LockGroup::new());
        {
            let a = l.read();
            assert_eq!(a.len(), 2);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let m = Mutex::with_class(0usize, "t_sync_mx");
        let cv = Condvar::new();
        *m.lock() += 1;
        std::thread::scope(|s| {
            let m = &m;
            let cv = &cv;
            s.spawn(move || {
                let mut g = m.lock();
                *g += 1;
                drop(g);
                cv.notify_all();
            });
            let mut g = m.lock();
            while *g < 2 {
                g = cv.wait(g);
            }
            assert_eq!(*g, 2);
        });
    }

    #[test]
    fn wait_timeout_times_out_and_still_returns_the_lock() {
        let m = Mutex::with_class(0usize, "t_sync_to");
        let cv = Condvar::new();
        let g = m.lock();
        let (g, timed_out) = cv.wait_timeout(g, std::time::Duration::from_millis(5));
        assert!(timed_out, "nobody notified: the wait must time out");
        assert_eq!(*g, 0);
        drop(g);
        // And the notified path reports no timeout.
        std::thread::scope(|s| {
            let m = &m;
            let cv = &cv;
            s.spawn(move || {
                *m.lock() = 1;
                cv.notify_all();
            });
            let mut g = m.lock();
            let mut timed_out = false;
            while *g < 1 && !timed_out {
                (g, timed_out) = cv.wait_timeout(g, std::time::Duration::from_secs(5));
            }
            assert_eq!(*g, 1, "the notification must arrive well before 5s");
        });
    }

    #[test]
    fn tokens_balance_even_when_disabled() {
        let l = RwLock::new(7u32);
        let g = l.read();
        drop(g);
        assert_eq!(lockdep::held_count(), 0);
    }
}
