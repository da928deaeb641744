//! The object-safe transaction handle used by transaction bodies.
//!
//! Data structures and workloads are written once against `&mut dyn Tx` and
//! run unchanged on the eager STM, the lazy STM and the HTM simulator.  The
//! handle exposes word reads and writes (the paper's `TxRead`/`TxWrite`
//! instrumentation), transactional allocation, the `read-for-write`
//! optimisation used by production STMs (§2.2.4), and the commit-and-reopen
//! hook needed by transaction-safe condition variables.

use std::sync::Arc;
use std::time::Instant;

use crate::access::WriteLog;
use crate::addr::Addr;
use crate::ctl::{TxCtl, TxResult};
use crate::system::TmSystem;
use crate::thread::ThreadCtx;
use crate::waitlist::WakeReason;

/// The execution mode of the current transaction attempt.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TxMode {
    /// Running as a (simulated) hardware transaction.
    Hardware,
    /// Running under software instrumentation.
    Software,
    /// Running under software instrumentation *and* logging `(addr, value)`
    /// pairs on every read, because the previous attempt called `Retry`
    /// (Algorithm 5's `is_retry` flag).
    SoftwareRetry,
    /// Running serially/irrevocably (all other transactions excluded).
    Serial,
}

impl TxMode {
    /// True for the software modes (instrumented reads and writes).
    pub fn is_software(self) -> bool {
        !matches!(self, TxMode::Hardware)
    }
}

/// Whether the transaction is a full update transaction or a declared
/// read-only transaction eligible for the snapshot read path.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum TxKind {
    /// A full transaction: reads are tracked and validated, writes allowed.
    #[default]
    Update,
    /// A read-only transaction: software attempts read against the begin
    /// snapshot with no read set and commit without validation (see
    /// [`crate::config::SnapshotMode`]).  A write upgrades the transaction
    /// to [`TxKind::Update`] and restarts it.
    ReadOnly,
}

/// Per-attempt metadata shared by all runtimes.
#[derive(Debug)]
pub struct TxCommon {
    /// The executing thread.
    pub thread: Arc<ThreadCtx>,
    /// Execution mode of this attempt.
    pub mode: TxMode,
    /// Update or declared read-only (snapshot-eligible).  Defaults to
    /// [`TxKind::Update`]; the driver sets [`TxKind::ReadOnly`] for
    /// `atomically_read` attempts and clears it again on upgrade.
    pub kind: TxKind,
    /// Value log for `Retry`: populated on every read when
    /// `mode == SoftwareRetry` (Algorithm 5, `TxRead`).  A pooled
    /// [`WriteLog`] in first-value-wins mode, so re-reads deduplicate in
    /// O(1) and the capacity is recycled across attempts; drain it with
    /// [`WriteLog::drain_pairs`] when materialising the wait condition.
    pub waitset: WriteLog,
    /// How many times this transaction has been attempted (for backoff and
    /// the HTM fallback policy).
    pub attempts: u32,
    /// How the transaction's most recent deschedule ended, set by the driver
    /// loop when it re-executes the body after a sleep.  `None` until the
    /// transaction deschedules for the first time.  This is the hand-off
    /// that lets a timed wait observe its own timeout: the body reads it
    /// through `condsync::wake_reason` / `condsync::timed_out` and decides
    /// whether to give up instead of waiting again.
    pub wake_reason: Option<WakeReason>,
    /// Deadline requested by a timed wait construct (`retry_for` and
    /// friends) during *this* attempt; the driver reads it when the body
    /// requests a deschedule and forwards it to `deschedule_until`.  Plain
    /// (unbounded) constructs reset it to `None`, so each deschedule request
    /// carries exactly the deadline of the construct that raised it.
    pub wait_deadline: Option<Instant>,
}

impl TxCommon {
    /// Creates attempt metadata for `thread` in `mode`.
    ///
    /// The `Retry` value log is taken from the thread's
    /// [`crate::access::LogPool`] only in value-logging mode; other modes
    /// never touch it, so they carry an allocation-free empty log.
    pub fn new(thread: Arc<ThreadCtx>, mode: TxMode, attempts: u32) -> Self {
        let waitset = if mode == TxMode::SoftwareRetry {
            thread.take_write_log()
        } else {
            WriteLog::new()
        };
        TxCommon {
            thread,
            mode,
            kind: TxKind::Update,
            waitset,
            attempts,
            wake_reason: None,
            wait_deadline: None,
        }
    }

    /// Sets the transaction kind (builder-style, used by the driver when
    /// beginning a declared read-only attempt).
    pub fn with_kind(mut self, kind: TxKind) -> Self {
        self.kind = kind;
        self
    }

    /// Records a read in the `Retry` value log when in retry-logging mode.
    ///
    /// Deduplicates by address in O(1); keeping the *first* observed value
    /// makes the log reflect the state the transaction actually observed.
    #[inline]
    pub fn log_retry_read(&mut self, addr: Addr, val: u64) {
        if self.mode == TxMode::SoftwareRetry {
            self.waitset.record_first(addr, val, || 0);
        }
    }
}

impl Drop for TxCommon {
    fn drop(&mut self) {
        // Recycle the value log's capacity for the next attempt.  Nothing
        // else clears it (a deschedule drains it, a commit leaves it full),
        // and it logs *reads*, so no high-water mark is recorded for it.
        self.waitset.clear();
        self.thread
            .pool
            .put_write_log(std::mem::take(&mut self.waitset));
    }
}

/// The transaction handle passed to transaction bodies.
///
/// All methods may return `Err(TxCtl::…)`, which the body must propagate
/// (with `?`) so the runtime can roll back and act on the control request.
pub trait Tx {
    /// Transactionally reads the word at `addr`.
    fn read(&mut self, addr: Addr) -> TxResult<u64>;

    /// Transactionally writes `val` to `addr`.
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()>;

    /// Reads a word that the caller intends to subsequently write.
    ///
    /// Production STMs implement this as "read for write" (§2.2.4): the
    /// location is locked immediately and is *not* added to the read set.
    /// The default implementation is a plain read.
    fn read_for_write(&mut self, addr: Addr) -> TxResult<u64> {
        self.read(addr)
    }

    /// Transactionally allocates `words` contiguous heap words.
    ///
    /// The allocation is undone if the transaction aborts ("captured
    /// memory", §2.2.4).
    fn alloc(&mut self, words: usize) -> TxResult<Addr>;

    /// Transactionally frees `words` words at `addr`; reclamation is deferred
    /// until the transaction commits.
    fn free(&mut self, addr: Addr, words: usize) -> TxResult<()>;

    /// Commits the transaction's work so far, runs `block` outside any
    /// transaction, then begins a fresh transaction for the remainder of the
    /// body.
    ///
    /// This deliberately *breaks atomicity* and exists only to implement
    /// transaction-safe condition variables (the `TMCondVar` baseline); the
    /// paper's own mechanisms never need it.
    fn commit_and_reopen(&mut self, block: &mut dyn FnMut()) -> TxResult<()>;

    /// Requests an explicit abort with an 8-bit code (Intel `xabort` style).
    fn explicit_abort(&mut self, code: u8) -> TxCtl;

    /// Access to the attempt metadata.
    fn common(&self) -> &TxCommon;

    /// Mutable access to the attempt metadata.
    fn common_mut(&mut self) -> &mut TxCommon;

    /// The system (heap, clocks, registries) this transaction runs against.
    fn system(&self) -> &Arc<TmSystem>;

    /// The current execution mode.
    fn mode(&self) -> TxMode {
        self.common().mode
    }

    /// The executing thread.
    fn thread(&self) -> Arc<ThreadCtx> {
        Arc::clone(&self.common().thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TmConfig;

    #[test]
    fn mode_software_classification() {
        assert!(TxMode::Software.is_software());
        assert!(TxMode::SoftwareRetry.is_software());
        assert!(TxMode::Serial.is_software());
        assert!(!TxMode::Hardware.is_software());
    }

    #[test]
    fn kind_defaults_to_update_and_with_kind_overrides() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        let c = TxCommon::new(Arc::clone(&th), TxMode::Software, 0);
        assert_eq!(c.kind, TxKind::Update);
        let c = TxCommon::new(th, TxMode::Software, 0).with_kind(TxKind::ReadOnly);
        assert_eq!(c.kind, TxKind::ReadOnly);
    }

    #[test]
    fn retry_log_only_in_retry_mode_and_deduplicates() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        let mut c = TxCommon::new(Arc::clone(&th), TxMode::Software, 0);
        c.log_retry_read(Addr(1), 10);
        assert!(c.waitset.is_empty(), "not logging outside retry mode");

        let mut c = TxCommon::new(th, TxMode::SoftwareRetry, 0);
        c.log_retry_read(Addr(1), 10);
        c.log_retry_read(Addr(2), 20);
        c.log_retry_read(Addr(1), 99);
        assert_eq!(c.waitset.pairs(), vec![(Addr(1), 10), (Addr(2), 20)]);
    }

    #[test]
    fn dropped_attempts_recycle_the_value_log() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        {
            let mut c = TxCommon::new(Arc::clone(&th), TxMode::SoftwareRetry, 0);
            c.log_retry_read(Addr(1), 10);
        }
        // The next retry-mode attempt takes the recycled log back out.
        let c = TxCommon::new(Arc::clone(&th), TxMode::SoftwareRetry, 1);
        assert!(c.waitset.is_empty());
        assert_eq!(th.stats.snapshot().log_pool_reuses, 1);
    }
}
