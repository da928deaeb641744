//! Condition synchronization for transactional memory.
//!
//! This crate implements the paper's contribution: the **Deschedule**
//! abstract mechanism (Algorithm 4) and, on top of it, the three linguistic
//! constructs the paper proposes or adapts:
//!
//! * [`retry`] — Haskell-style `Retry` (Algorithm 5): sleep until some
//!   location read by the failed attempt changes value.
//! * [`await_addrs`] — Atomos-style `Await` (Algorithm 6): sleep until one of
//!   an explicit list of addresses changes value.
//! * [`wait_pred`] — `WaitPred` (Algorithm 7): sleep until a user-supplied
//!   predicate over shared state becomes true.
//!
//! Each construct also has a deadline-bounded variant — [`retry_for`],
//! [`await_for`], [`wait_pred_for`] — and waits can be ended out-of-band
//! with [`cancel`]; the re-executed transaction observes how its wait ended
//! through [`wake_reason`] / [`timed_out`] / [`was_cancelled`] (see the
//! [`timed`] module for the protocol).
//!
//! plus the baselines the evaluation compares against:
//!
//! * [`restart`] — abort and immediately re-execute (no sleeping),
//! * [`retry_orig`] — the original lock-metadata-based `Retry`
//!   (Algorithm 1), whose waiting list lives in [`orig`] (`tm_core::orig`),
//!   one per system,
//! * [`condvar::TmCondVar`] — transaction-safe condition variables, which
//!   commit the in-flight transaction at the wait point (breaking atomicity).
//!
//! All of the paper's mechanisms are expressed as a rollback followed by
//! [`deschedule::deschedule`]; committed writers call
//! [`deschedule::wake_waiters_matching`], which evaluates each *relevant*
//! sleeper's wait condition as an ordinary read-only transaction over shared
//! memory.  Relevance comes from the sharded waiter registry
//! (`tm_core::waitlist`): waiters are indexed by the ownership-record
//! stripes their conditions cover, and a committing writer scans only the
//! shards covering the stripes it wrote.  Correctness never *requires* the
//! write set — [`deschedule::wake_waiters`] is the scan-everything variant
//! any committer may use — which is what keeps the design compatible with
//! (simulated) hardware TM, whose serial fallback reports no write set at
//! all.
//!
//! How each [`tm_core::WaitSpec`] variant maps onto registry shards:
//!
//! | `WaitSpec` variant | materialised condition | registry shard(s) |
//! |---|---|---|
//! | `ReadSetValues` (`Retry`) | value log `(addr, val)` pairs | shard of every logged address's stripe |
//! | `Addrs` (`Await`) | captured `(addr, val)` pairs | shard of every awaited address's stripe |
//! | `Pred` (`WaitPred`) | predicate + marshalled args | the *unindexed* shard (no addresses to index; scanned by every writer) |
//! | `OrigReadLocks` (`Retry-Orig`) | — | not in this registry at all: the driver puts it on the system's separate [`OrigRegistry`] (`tm_core::orig`, the `orig` field of `TmSystem`), keyed by read-lock indices |
//!
//! Both functions are invoked exclusively by the unified driver loop in
//! `tm_core::driver` (where their implementation lives — the dependency
//! points from this crate to `tm-core`); this crate contributes the
//! user-facing constructs, the `Retry-Orig` and `TMCondVar` baselines, and
//! the [`Mechanism`] enumeration the evaluation sweeps over.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod condvar;
pub mod deschedule;
pub mod mechanism;
pub mod timed;

pub use tm_core::orig;

pub use condvar::{TmCondVar, WATCHDOG_INTERVAL};
pub use deschedule::{
    deschedule, deschedule_until, wake_waiters, wake_waiters_matching, DescheduleOutcome,
    WakeReason,
};
pub use mechanism::{await_addrs, await_one, restart, retry, retry_orig, wait_pred, Mechanism};
pub use timed::{
    await_for, await_one_for, cancel, cancel_thread, clear_wake_reason, retry_for, timed_out,
    wait_interrupted, wait_pred_for, wake_reason, was_cancelled,
};
pub use tm_core::orig::{sleep_until_intersection, OrigRegistry, OrigWaiter};
