//! Shared substrate for the transactional-memory condition-synchronization
//! reproduction.
//!
//! This crate contains everything the four transaction runtimes
//! ([`stm-eager`], [`stm-lazy`], [`htm-sim`], [`tm-hybrid`]) and the
//! condition-synchronization layer ([`condsync`]) have in common:
//!
//! * the unified transaction driver ([`driver`]): the single loop that runs
//!   every runtime's transactions ([`driver::run`]) against the narrow
//!   [`driver::TxEngine`] interface, including the `Deschedule` parking /
//!   `wakeWaiters` protocol ([`driver::deschedule`],
//!   [`driver::wake_waiters`]) and the `Retry-Orig` baseline ([`orig`]);
//!   every engine gets [`TmRuntime`] and [`TmRt`] from one blanket
//!   implementation,
//! * a word-addressable transactional heap ([`heap::TmHeap`]) with a simple
//!   allocator, standing in for the raw C memory the paper instruments,
//! * a table of ownership records ([`orec::OrecTable`]) hashed from addresses,
//!   exactly as in the paper's Appendix A (entries cache-line padded),
//! * the version clock plane ([`clock::ClockPlane`]): the GV1 shared counter
//!   and the decentralized lazy-GV5 scheme over the per-thread epoch table
//!   ([`epoch::EpochTable`]), plus the cache-line padding primitive both are
//!   built from ([`pad::CachePadded`]),
//! * the object-safe transaction handle trait ([`tx::Tx`]) plus the common
//!   per-transaction metadata ([`tx::TxCommon`]) used by `Retry`'s value
//!   logging,
//! * the shared access-set layer ([`access`]): hash-indexed read sets,
//!   write logs and index sets with a per-thread recycling pool, backing
//!   every runtime's transaction logs,
//! * the software STM ([`stm`]): the engine and the attempt the eager and
//!   lazy STMs share — begin, reads, snapshot reads, read-set validation,
//!   the read-only commit, allocation, rollback and deschedule capture —
//!   generic over the [`stm::WritePolicy`] that is the only part they
//!   differ in,
//! * the mode-control plane: the system-wide serial/irrevocable gate and
//!   shared serial attempt ([`serial`]) plus the pluggable contention-
//!   management policies that drive backoff and mode escalation ([`policy`]),
//! * the pluggable hardware plane ([`hwtm`]): the [`hwtm::HwTm`] trait the
//!   HTM and hybrid runtimes drive their hardware backend through, and the
//!   deterministic [`hwtm::FaultPlane`] fault-injection decorator,
//! * control-flow types for aborts and descheduling ([`ctl`]),
//! * the thread registry, statistics and quiescence support ([`thread`],
//!   [`stats`]),
//! * the sharded, address-indexed waiter registry and semaphore used by the
//!   `Deschedule` mechanism ([`waitlist`], [`sem`]), plus the lazily driven
//!   timer wheel behind its timed (`deschedule_until`) variant ([`timer`]),
//! * typed views over heap words ([`vars::TmVar`], [`vars::TmArray`]).
//!
//! The paper's algorithms are implemented on top of these pieces; see the
//! `condsync` crate for the contribution (Deschedule / Retry / Await /
//! WaitPred) and the runtime crates for Appendix A and the TL2/TSX analogues.
//!
//! [`stm-eager`]: ../stm_eager/index.html
//! [`stm-lazy`]: ../stm_lazy/index.html
//! [`htm-sim`]: ../htm_sim/index.html
//! [`tm-hybrid`]: ../tm_hybrid/index.html
//! [`condsync`]: ../condsync/index.html

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod addr;
pub mod backoff;
pub mod clock;
pub mod config;
pub mod ctl;
pub mod driver;
pub mod epoch;
pub mod heap;
pub mod hwtm;
pub mod lock;
pub mod orec;
pub mod orig;
pub mod pad;
pub mod policy;
pub mod runtime;
pub mod sem;
pub mod serial;
pub mod stats;
pub mod stm;
pub mod system;
pub mod thread;
pub mod timer;
pub mod tx;
pub mod vars;
pub mod waitlist;

pub use access::{IndexSet, LogPool, ReadEntry, ReadSet, WriteEntry, WriteLog};
pub use addr::{Addr, LineId, LINE_WORDS};
pub use clock::{ClockMode, ClockPlane, CommitStamp, GlobalClock};
pub use config::{
    default_orec_shards, BackoffConfig, FaultConfig, HtmConfig, SnapshotMode, TimerConfig, TmConfig,
};
pub use ctl::{AbortReason, PredFn, TxCtl, TxResult, WaitCondition, WaitSpec};
pub use driver::{CommitOutcome, TxEngine};
pub use epoch::{EpochSlot, EpochTable};
pub use heap::TmHeap;
pub use hwtm::{FaultPlane, HwAbort, HwAbortKind, HwTm};
pub use orec::{OrecTable, OrecValue};
pub use pad::{CachePadded, CACHE_LINE_BYTES};
pub use policy::{CmAction, CmEvent, CmHistory, ContentionManager, PolicyKind};
pub use runtime::{TmRt, TmRuntime};
pub use sem::Semaphore;
pub use serial::{subscribe_begin, SerialAttempt, SerialGate};
pub use stats::{LatencyHistogram, LatencySnapshot, OpClass, StatsSnapshot, TxStats};
pub use system::TmSystem;
pub use thread::{ThreadCtx, ThreadId, ThreadRegistry};
pub use timer::{TimerPoll, TimerWheel};
pub use tx::{Tx, TxCommon, TxKind, TxMode};
pub use vars::{TmArray, TmValue, TmVar};
pub use waitlist::{ScanPlan, WaitList, Waiter, WakeReason, WakeSet};
