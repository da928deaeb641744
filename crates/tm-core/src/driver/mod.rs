//! The unified transaction driver: one loop, many engines.
//!
//! The four runtimes (the paper's eager STM, lazy STM and simulated HTM,
//! plus the hybrid HTM/STM) differ in how an individual attempt reads,
//! writes and commits — but the *orchestration* around attempts is
//! identical: re-execute on abort, back off on conflicts, restart in
//! value-logging mode when `Retry` needs a waitset, roll back and hand off
//! to `Deschedule` when a precondition fails, and run `wakeWaiters` after
//! every writer commit (Algorithm 4).
//!
//! Re-execution is also where the access-set pool pays off: every attempt's
//! logs (read set, write log, lock/line sets, the `Retry` value log in
//! [`crate::tx::TxCommon::waitset`]) are pooled [`crate::access`] containers
//! drawn from the thread's [`crate::access::LogPool`], so an aborted
//! attempt's capacity is handed straight to its re-execution instead of
//! being reallocated.
//!
//! This module owns that orchestration:
//!
//! * [`TxEngine`] — the narrow per-runtime interface (begin / commit /
//!   rollback / materialise_wait, the `Retry-Orig` read cover and a few
//!   mode-policy hooks), and [`CommitOutcome`], whose
//!   [`CommitOutcome::wake_set`] tells the wake path which waiter-registry
//!   shards a commit must scan,
//! * [`run`] — the single generic driver loop, which also runs the
//!   `Retry-Orig` baseline on the system's [`crate::orig::OrigRegistry`],
//! * [`deschedule`] / [`deschedule_until`] / [`wake_waiters_matching`] — the
//!   paper's parking and waking protocol (unbounded and deadline-bounded),
//!   sharded by ownership-record stripe, called from the loop and
//!   re-exported through `condsync`.
//!
//! Timed waits thread two extra pieces of state through the loop: the
//! deadline a timed construct stashed in [`crate::tx::TxCommon::wait_deadline`]
//! is forwarded to [`deschedule_until`], and the resulting
//! [`crate::waitlist::WakeReason`] is handed to every subsequent attempt via
//! [`crate::tx::TxCommon::wake_reason`], so the re-executed body can observe
//! a timeout or cancellation.
//!
//! Runtime crates implement [`TxEngine`] and nothing else: every engine gets
//! the public [`crate::TmRuntime`] / [`crate::TmRt`] entry points, which
//! call [`run`], from one blanket implementation in [`crate::runtime`].
//! Adding a runtime means implementing the engine trait, not re-writing
//! the protocol.

mod engine;
mod run;
mod wake;

pub use engine::{CommitOutcome, TxEngine};
pub use run::{run, run_kind};
pub use wake::{
    deschedule, deschedule_until, poll_timers, wake_waiters, wake_waiters_matching,
    DescheduleOutcome,
};
