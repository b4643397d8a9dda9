//! Static and dynamic analysis for the cracker's concurrency protocols.
//!
//! Three tools live here, all dependency-free by construction (the build
//! environment is offline):
//!
//! * [`sched`] — a miniature loom: a cooperative scheduler that runs
//!   small protocol models one virtual thread at a time and enumerates
//!   interleavings depth-first under a CHESS-style preemption bound,
//!   flagging deadlocks, lost wakeups, assertion failures, and
//!   post-condition violations with a replayable schedule trace.
//! * [`models`] — sync-operation-faithful re-statements of the real
//!   protocols (`ConcurrentColumn`'s two-phase select,
//!   `AdmissionGate`'s condvar discipline), each paired with a
//!   deliberately-broken sibling so the suite proves the explorer can
//!   catch the bug class before trusting a clean run.
//! * [`lint`] — a lexer-level lint for workspace conventions `rustc`
//!   cannot express (`// SAFETY:` comments, no raw locks outside the
//!   `cracker_core::sync` facade, no `unwrap` in library code,
//!   justified `#[allow]`s), run in CI via `cargo run -p analysis
//!   --bin lint`.
//!
//! The runtime half of the story — lockdep's held-lock sets, the
//! lock-order graph, and latch budgets — lives in `cracker_core::sync`
//! so it can wrap every latch in the hot path; this crate holds the
//! tooling that does not belong in the production dependency tree. See
//! `CONCURRENCY.md` at the repo root for the full latch hierarchy and
//! which invariant is checked by which tool.

pub mod lint;
pub mod models;
pub mod sched;
