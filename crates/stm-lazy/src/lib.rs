//! A lazy (redo-log, commit-time locking) software TM in the style of TL2,
//! corresponding to the paper's **Lazy STM** configuration (a
//! privatization-safe, redo-log variant of the GCC STM).
//!
//! * Writes are buffered in a redo log; memory is untouched until commit.
//! * Reads check the redo log first (read-your-writes) and otherwise
//!   validate against the global version clock, exactly as in TL2.
//! * Commit acquires the ownership records covering the write set, increments
//!   the clock, validates the read set, writes the redo log back to memory,
//!   and releases the locks at the commit timestamp.
//! * Abort merely discards the logs (nothing was written in place).
//!
//! This crate owns only what is lazy about it: the write policy
//! ([`tx::RedoPolicy`]: the redo log with read-your-writes, commit-time
//! locking, validation and write-back) and the [`CommitInterlock`] hook the
//! hybrid runtime installs around that write-back.  The runtime
//! ([`LazyStm`]) and the rest of an attempt ([`LazyTx`]) are the shared
//! `tm_core::stm::Stm` and `tm_core::stm::StmTx`, instantiated with the
//! redo policy.
//!
//! Condition synchronization reuses the *same* driver loop as the eager
//! runtime (`tm_core::driver::run`, via the `TxEngine` trait); the only
//! difference the mechanisms see is how `Await` captures its value snapshot
//! (no undo is needed because memory was never modified).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod tx;

pub use tx::{CommitInterlock, LazyTx, RedoPolicy};

/// The lazy (redo-log) software TM runtime.
pub type LazyStm = tm_core::stm::Stm<RedoPolicy>;
