//! Protocol models for the [`crate::sched`] explorer.
//!
//! Each model is a few-line re-statement of a real protocol from
//! `cracker_core` / `engine`, small enough to explore exhaustively (2–3
//! virtual threads, a 2-shard column) yet faithful at the sync-operation
//! level: the sequence of latch acquisitions, condvar waits, and
//! notifies matches the production code line for line. Every correct
//! model has a deliberately-broken sibling — the exact historical bug
//! shape the protocol defends against — so the test suite proves the
//! explorer *can* catch the bug class before trusting the clean run.
//!
//! | model                      | production code                         | property                                   |
//! |----------------------------|------------------------------------------|--------------------------------------------|
//! | [`double_crack`]           | `ConcurrentColumn` per-shard upgrade     | exactly one crack per cold predicate       |
//! | [`double_crack_buggy`]     | (double-check deleted)                   | explorer finds a double-crack schedule     |
//! | [`admission_gate`]         | `AdmissionGate::admit` / permit release  | no deadlock, permits conserved             |
//! | [`admission_gate_buggy`]   | (unlock-then-sleep wait)                 | explorer finds the lost-wakeup deadlock    |
//! | [`eligibility_notify`]     | `Wake::{None,One,All}` release policy    | capped waiters never stall eligible ones   |
//! | [`gate_timeout`]           | `AdmissionGate::try_acquire_for`         | every exit path clears the waiting set     |
//! | [`gate_timeout_leaky`]     | (timeout path forgets `remove_one`)      | explorer finds the phantom-waiter leak     |

use crate::sched::{Explorer, Model, Report};

const SHARDS: usize = 2;
/// Per-shard oracle contribution; an uncracked read returns [`GARBAGE`].
const VALUES: [u64; SHARDS] = [10, 23];
const GARBAGE: u64 = 999;

#[derive(Debug, Clone, Copy, Default)]
struct Shard {
    cracked: bool,
    cracks: u32,
}

#[derive(Debug, Clone, Default)]
struct ColumnState {
    shards: [Shard; SHARDS],
    answers: Vec<u64>,
}

/// The two-phase sharded select from `ConcurrentColumn`
/// (`for_each_selection`): an optimistic all-shards read pass that bails
/// at the first cold shard, then a per-shard read-probe →
/// write-escalate pass whose write branch **re-checks** under the
/// exclusive latch before cracking. `double_check = false` deletes that
/// re-check — the seeded bug.
fn sharded_select(m: &mut Model, threads: usize, double_check: bool) {
    let locks: Vec<_> = (0..SHARDS)
        .map(|s| m.rwlock(["shard0", "shard1"][s]))
        .collect();
    let col = m.cell(ColumnState::default());

    for t in 0..threads {
        let locks = locks.clone();
        let col = col.clone();
        m.thread(["q0", "q1", "q2"][t], move |ctx| {
            // Phase 1: optimistic — read-latch ascending, bail on cold.
            let mut held = Vec::new();
            let mut warm = true;
            for (s, l) in locks.iter().enumerate() {
                ctx.acquire_read(*l);
                held.push(*l);
                if !col.with(|c| c.shards[s].cracked) {
                    warm = false;
                    break;
                }
            }
            if warm {
                let total: u64 = VALUES.iter().sum();
                for l in held.drain(..) {
                    ctx.release_read(l);
                }
                col.with(|c| c.answers.push(total));
                return;
            }
            for l in held.drain(..) {
                ctx.release_read(l);
            }

            // Phase 2: pessimistic — per shard, read-probe then escalate.
            let mut total = 0u64;
            for (s, l) in locks.iter().enumerate() {
                ctx.acquire_read(*l);
                if col.with(|c| c.shards[s].cracked) {
                    total += VALUES[s];
                    ctx.release_read(*l);
                    continue;
                }
                ctx.release_read(*l);
                ctx.acquire_write(*l);
                let must_crack = !double_check || !col.with(|c| c.shards[s].cracked);
                if must_crack {
                    col.with(|c| {
                        c.shards[s].cracked = true;
                        c.shards[s].cracks += 1;
                    });
                }
                total += if col.with(|c| c.shards[s].cracked) {
                    VALUES[s]
                } else {
                    GARBAGE
                };
                ctx.release_write(*l);
            }
            col.with(|c| c.answers.push(total));
        });
    }

    let col = col.clone();
    let expected: u64 = VALUES.iter().sum();
    m.check(move || {
        col.with(|c| {
            for (s, sh) in c.shards.iter().enumerate() {
                if sh.cracks != 1 {
                    return Err(format!("shard {s} cracked {} times (want 1)", sh.cracks));
                }
            }
            if c.answers.len() != threads {
                return Err(format!("{} answers for {threads} queries", c.answers.len()));
            }
            for (i, a) in c.answers.iter().enumerate() {
                if *a != expected {
                    return Err(format!("query {i} answered {a}, oracle says {expected}"));
                }
            }
            Ok(())
        })
    });
}

/// Preemption budget by model size: three query threads over two shards
/// have enough sync points that bound 3 overflows the schedule cap;
/// bound 2 keeps the space exhaustible and still covers the seeded bug
/// class (double-crack and lost-wakeup both need ≤ 2 preemptions).
fn select_explorer(threads: usize) -> Explorer {
    Explorer::with_preemptions(if threads > 2 { 2 } else { 3 })
}

/// Correct two-phase select: exactly one crack per shard and
/// oracle-equal answers on every explored schedule.
pub fn double_crack(threads: usize) -> Report {
    select_explorer(threads).explore(move |m| sharded_select(m, threads, true))
}

/// The seeded double-crack bug: the write branch skips the re-check
/// under the exclusive latch, so two queries that both probed a cold
/// shard crack it twice. The explorer must return a counterexample.
pub fn double_crack_buggy(threads: usize) -> Report {
    select_explorer(threads).explore(move |m| sharded_select(m, threads, false))
}

#[derive(Debug, Clone, Default)]
struct GateState {
    in_flight: usize,
    done: usize,
}

/// `AdmissionGate::admit` with one permit and `atomic_wait` selecting the
/// real condvar (release the mutex *and* sleep as one step) versus the
/// seeded non-atomic "unlock, then sleep" whose notify-sized window
/// loses wakeups. Release notifies **after** dropping the gate mutex,
/// exactly like `AdmissionPermit::drop`.
fn gate(m: &mut Model, threads: usize, atomic_wait: bool) {
    let mx = m.mutex("gate");
    let cv = m.condvar("released");
    let st = m.cell(GateState::default());

    for t in 0..threads {
        let st = st.clone();
        m.thread(["g0", "g1", "g2"][t], move |ctx| {
            // admit()
            ctx.lock(mx);
            while st.with(|g| g.in_flight) >= 1 {
                if atomic_wait {
                    ctx.wait(cv, mx);
                } else {
                    // Seeded bug: the sleep is not atomic with the
                    // unlock — a notify landing in between is lost.
                    ctx.unlock(mx);
                    ctx.wait_unlinked(cv);
                    ctx.lock(mx);
                }
            }
            st.with(|g| g.in_flight += 1);
            ctx.unlock(mx);

            ctx.step("query under permit");

            // AdmissionPermit::drop
            ctx.lock(mx);
            st.with(|g| {
                g.in_flight -= 1;
                g.done += 1;
            });
            ctx.unlock(mx);
            ctx.notify_one(cv);
        });
    }

    let st = st.clone();
    m.check(move || {
        st.with(|g| {
            if g.in_flight != 0 {
                return Err(format!("{} permits leaked", g.in_flight));
            }
            if g.done != threads {
                return Err(format!("{} of {threads} queries completed", g.done));
            }
            Ok(())
        })
    });
}

/// Correct gate: on every schedule all queries eventually admit and the
/// permit count balances — no deadlock, no lost wakeup.
pub fn admission_gate(threads: usize) -> Report {
    Explorer::default().explore(move |m| gate(m, threads, true))
}

/// The seeded lost-wakeup bug: a waiter unlocks the gate and *then*
/// sleeps, so a release that fires in the window notifies nobody and the
/// waiter sleeps forever. The explorer must report a deadlock.
pub fn admission_gate_buggy(threads: usize) -> Report {
    Explorer::default().explore(move |m| gate(m, threads, false))
}

#[derive(Debug, Clone, Default)]
struct TimedGateState {
    in_flight: usize,
    waiting: usize,
    admitted: usize,
    timed_out: usize,
    shed: usize,
}

/// Wait-queue bound of the timed-gate model (`max_waiters`).
const TIMED_MAX_WAITERS: usize = 1;

/// `AdmissionGate::try_acquire_for` over one permit with a wait queue of
/// one: a query at a full gate either sheds instantly (queue full), or
/// queues and later admits, or queues and *times out*. The explorer has
/// no timed-wait primitive, so the bounded wait is modeled as a yield
/// window ([`crate::sched::Ctx::step`]): whether the permit frees inside
/// it is a scheduler branch, which is exactly the nondeterminism a real
/// `wait_timeout` exposes. The property is the waiting-set bookkeeping:
/// **every** exit path — admitted, timed out, shed — must remove the
/// operation from the waiting count, or phantom waiters inflate the
/// queue bound and shed every later query at an empty gate.
/// `leak_on_timeout = true` deletes the removal on the timeout path —
/// the seeded bug.
fn timed_gate(m: &mut Model, leak_on_timeout: bool) {
    let mx = m.mutex("gate");
    let cv = m.condvar("released");
    let st = m.cell(TimedGateState::default());
    let threads = 3usize;

    for t in 0..threads {
        let st = st.clone();
        m.thread(["t0", "t1", "t2"][t], move |ctx| {
            // try_acquire_for(): fast path under the gate mutex.
            ctx.lock(mx);
            if st.with(|g| g.in_flight) < 1 {
                st.with(|g| {
                    g.in_flight += 1;
                    g.admitted += 1;
                });
                ctx.unlock(mx);
                ctx.step("query under permit");
                // AdmissionPermit::drop
                ctx.lock(mx);
                st.with(|g| g.in_flight -= 1);
                ctx.unlock(mx);
                ctx.notify_one(cv);
                return;
            }
            // Shed: the wait queue is already at its bound.
            if st.with(|g| g.waiting) >= TIMED_MAX_WAITERS {
                st.with(|g| g.shed += 1);
                ctx.unlock(mx);
                return;
            }
            // Queue, then wait at most the deadline budget.
            st.with(|g| g.waiting += 1);
            ctx.unlock(mx);
            ctx.step("bounded wait window");
            ctx.lock(mx);
            if st.with(|g| g.in_flight) < 1 {
                st.with(|g| {
                    g.waiting -= 1;
                    g.in_flight += 1;
                    g.admitted += 1;
                });
                ctx.unlock(mx);
                ctx.step("query under permit");
                ctx.lock(mx);
                st.with(|g| g.in_flight -= 1);
                ctx.unlock(mx);
                ctx.notify_one(cv);
                return;
            }
            // Timed out. The seeded bug forgets to leave the waiting
            // set — the phantom waiter that sheds every later query.
            if !leak_on_timeout {
                st.with(|g| g.waiting -= 1);
            }
            st.with(|g| g.timed_out += 1);
            ctx.unlock(mx);
        });
    }

    let st = st.clone();
    m.check(move || {
        st.with(|g| {
            if g.waiting != 0 {
                return Err(format!(
                    "{} phantom waiter(s) left in the waiting set — later queries \
                     would shed at an empty gate",
                    g.waiting
                ));
            }
            if g.in_flight != 0 {
                return Err(format!("{} permits leaked", g.in_flight));
            }
            if g.admitted + g.timed_out + g.shed != threads {
                return Err(format!(
                    "accounting hole: {} admitted + {} timed out + {} shed != {threads}",
                    g.admitted, g.timed_out, g.shed
                ));
            }
            if g.admitted == 0 {
                return Err("nobody ever held the permit".into());
            }
            Ok(())
        })
    });
}

/// Correct timed gate: on every schedule the waiting set drains to zero
/// and every query is accounted admitted, timed out, or shed.
pub fn gate_timeout() -> Report {
    Explorer::default().explore(move |m| timed_gate(m, false))
}

/// The seeded waiting-set leak: the timeout path returns without
/// `remove_one`, so a timed-out waiter is counted as queued forever. The
/// explorer must return a counterexample schedule.
pub fn gate_timeout_leaky() -> Report {
    Explorer::default().explore(move |m| timed_gate(m, true))
}

#[derive(Debug, Clone, Default)]
struct EligState {
    in_flight: usize,
    /// Per-session in-flight counts (2 sessions).
    per_session: [usize; 2],
    /// Per-session waiter counts (2 sessions).
    waiting: [usize; 2],
    done: usize,
}

const TOTAL_PERMITS: usize = 2;
const SESSION_CAP: usize = 1;

/// The eligibility-aware release policy from `AdmissionPermit::drop`:
/// `notify_one` when every waiting session is below its cap (any waiter
/// can take the permit), `notify_all` when some waiter is cap-blocked (a
/// single wakeup could land on it and stall an eligible waiter). Three
/// queries across two sessions on two permits with a per-session cap of
/// one — the smallest shape where a waiter can be cap-blocked while
/// permits are free, which is exactly what motivates the broadcast arm.
pub fn eligibility_notify() -> Report {
    Explorer::default().explore(move |m| {
        let mx = m.mutex("gate");
        let cv = m.condvar("released");
        let st = m.cell(EligState::default());
        // Sessions: q0,q1 → session 0; q2 → session 1.
        for (t, sid) in [(0usize, 0usize), (1, 0), (2, 1)] {
            let st = st.clone();
            m.thread(["s0a", "s0b", "s1a"][t], move |ctx| {
                ctx.lock(mx);
                let admissible =
                    |g: &EligState| g.in_flight < TOTAL_PERMITS && g.per_session[sid] < SESSION_CAP;
                if !st.with(|g| admissible(g)) {
                    st.with(|g| g.waiting[sid] += 1);
                    while !st.with(|g| admissible(g)) {
                        ctx.wait(cv, mx);
                    }
                    st.with(|g| g.waiting[sid] -= 1);
                }
                st.with(|g| {
                    g.in_flight += 1;
                    g.per_session[sid] += 1;
                });
                ctx.unlock(mx);

                ctx.step("query under permit");

                ctx.lock(mx);
                let wake = st.with(|g| {
                    g.in_flight -= 1;
                    g.per_session[sid] -= 1;
                    g.done += 1;
                    let waiters: usize = g.waiting.iter().sum();
                    if waiters == 0 {
                        0 // Wake::None
                    } else if (0..2).all(|s| g.waiting[s] == 0 || g.per_session[s] < SESSION_CAP) {
                        1 // Wake::One — every waiting session is eligible
                    } else {
                        2 // Wake::All — someone is cap-blocked
                    }
                });
                ctx.unlock(mx);
                match wake {
                    0 => {}
                    1 => ctx.notify_one(cv),
                    _ => ctx.notify_all(cv),
                }
            });
        }
        let st = st.clone();
        m.check(move || {
            st.with(|g| {
                if g.done != 3 {
                    return Err(format!("{} of 3 queries completed", g.done));
                }
                if g.in_flight != 0 || g.per_session != [0, 0] {
                    return Err("permit accounting leaked".into());
                }
                Ok(())
            })
        });
    })
}
