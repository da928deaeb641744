//! An eager (undo-log, encounter-time locking) software TM, following the
//! paper's Appendix A (Algorithms 8–11), in the style of TinySTM and the GCC
//! libitm "ml-wt" method the paper evaluates as **Eager STM**.
//!
//! * Writes acquire the ownership record covering the address at encounter
//!   time, log the old value in an undo log, and update memory in place.
//! * Reads are validated against the global version clock at the time they
//!   happen (giving opacity) and re-validated at commit.
//! * Commit increments the global clock, validates the read set (with the
//!   TL2-style fast path when no other writer intervened), releases locks at
//!   the new version, performs deferred frees and quiesces for privatization
//!   safety.
//! * Abort undoes writes in reverse order, releases locks at `version + 1`,
//!   blindly bumps the clock, and undoes transactional allocations.
//!
//! This crate owns only what is eager about it: the write policy
//! ([`tx::UndoPolicy`]: encounter-time locking, the undo log, the lock-set
//! commit and the undo-and-unlock rollback).  The runtime ([`EagerStm`])
//! and the rest of an attempt ([`EagerTx`]) — reads, snapshot reads,
//! read-set validation, the read-only commit, allocation, the deschedule
//! rollback and `commit_and_reopen` — are the shared `tm_core::stm::Stm`
//! and `tm_core::stm::StmTx`, instantiated with the undo policy.  `Await`
//! still captures its value snapshot while this runtime's locks are held:
//! the policy restores memory from the undo log first.
//!
//! Condition synchronization is layered on via the *shared* driver loop in
//! `tm_core::driver`, which owns re-execution, the deschedule hand-off to
//! [`condsync::deschedule()`], the post-commit [`condsync::wake_waiters`]
//! scan and the `Retry-Orig` waiting list.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod tx;

pub use tx::{EagerTx, UndoPolicy};

/// The eager (undo-log) software TM runtime.
pub type EagerStm = tm_core::stm::Stm<UndoPolicy>;
