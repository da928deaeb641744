//! The software-STM attempt, written once for both write policies.
//!
//! The paper's eager STM (Appendix A, Algorithms 8–11) and its TL2-style
//! lazy STM differ only in where writes go before commit: in place behind
//! encounter-time locks with an undo log, or into a redo log that is locked
//! and written back at commit.  Everything else is this module's
//! [`StmTx`]:
//!
//! * `begin` — the serial-gate acquire or [`subscribe_begin`], the snapshot
//!   decision and the pooled logs,
//! * the serial dispatch at the top of every [`Tx`] method,
//! * the orec–value–orec validated read, the snapshot read and its
//!   first-read refresh,
//! * the commit-time read-set validation ([`Attempt::reads_valid`]), the
//!   read-only commit and the writer-commit epilogue (deferred frees, epoch
//!   publication, quiescence),
//! * transactional `alloc`/`free`, rollback of allocations, the deschedule
//!   rollback for every [`WaitSpec`] and `commit_and_reopen`.
//!
//! A [`WritePolicy`] supplies the rest: the write barrier, read-your-writes,
//! `read_for_write`, publishing writes at commit and undoing them on
//! rollback.  `stm_eager::EagerTx` and `stm_lazy::LazyTx` are this attempt
//! instantiated with the undo and the redo policy.  The attempt is generic
//! rather than dynamically dispatched so every barrier is monomorphised
//! into the runtime crate and inlines as before.

use std::fmt;
use std::sync::Arc;

use crate::access::ReadSet;
use crate::addr::Addr;
use crate::clock::CommitStamp;
use crate::ctl::{AbortReason, TxCtl, TxResult, WaitCondition, WaitSpec};
use crate::driver::CommitOutcome;
use crate::serial::{subscribe_begin, SerialAttempt};
use crate::stats::TxStats;
use crate::system::TmSystem;
use crate::thread::{ThreadCtx, ThreadId};
use crate::tx::{Tx, TxCommon, TxKind, TxMode};

/// The write half of a software STM: where an attempt's writes live until
/// commit, and how they are published or undone.
///
/// Every hook runs on a plain software attempt only; serial attempts and
/// the snapshot checks are handled by [`StmTx`] before a hook is reached.
pub trait WritePolicy: Sized + fmt::Debug {
    /// Per-runtime state handed to every attempt's policy (the hybrid
    /// runtime's commit interlock for the redo policy; `()` otherwise).
    type Setup: Default;

    /// The policy state for a new attempt.  `pooled` is false for snapshot
    /// attempts, which never write and so skip the log pool.
    fn begin(thread: &ThreadCtx, setup: Self::Setup, pooled: bool) -> Self;

    /// True while the attempt has nothing to publish, so it commits as a
    /// read-only transaction.
    fn is_read_only(&self) -> bool;

    /// Read-your-writes for a buffering policy: the value this attempt has
    /// written to `addr` but not yet published.
    #[inline]
    fn buffered(&self, addr: Addr) -> Option<u64> {
        let _ = addr;
        None
    }

    /// For a policy that writes in place: the value `addr` held before this
    /// attempt wrote it.  A rollback restores it, so it is what the `Retry`
    /// value log must record (Algorithm 5, `TxRead` lines 2–5).
    #[inline]
    fn undo_value(&self, addr: Addr) -> Option<u64> {
        let _ = addr;
        None
    }

    /// Takes the write lock on `addr` for a `read_for_write` (§2.2.4).
    /// `Ok(true)` means the lock is held, so the read needs no read-set
    /// entry; `Ok(false)` means the policy has no encounter-time locks and
    /// the read-for-write is a plain read.
    #[inline]
    fn lock_for_write(&mut self, at: &Attempt, addr: Addr) -> TxResult<bool> {
        let _ = (at, addr);
        Ok(false)
    }

    /// The write barrier.
    fn write(&mut self, at: &Attempt, addr: Addr, val: u64) -> TxResult<()>;

    /// Publishes the writes of a writer attempt: lock, take the commit
    /// stamp, validate the read set with [`Attempt::reads_valid`], make the
    /// writes visible and release the locks at the stamp.  Returns the
    /// written orec stripes and the commit time.  On `Err` the caller rolls
    /// the attempt back.
    fn commit(&mut self, at: &Attempt) -> Result<(Vec<usize>, u64), TxCtl>;

    /// Undoes the attempt's effect on memory and ownership records.
    fn rollback(&mut self, at: &Attempt);

    /// Restores pre-transaction values in memory while keeping every lock,
    /// ahead of an `Await` capture (Algorithm 6).  A no-op for policies
    /// that never write in place.
    #[inline]
    fn restore_memory(&mut self, at: &Attempt) {
        let _ = at;
    }

    /// Empties the logs for the next attempt, recording the write-set
    /// high-water mark.
    fn clear(&mut self, stats: &TxStats);

    /// Hands the pooled logs back to `thread`'s pool.
    fn recycle(&mut self, thread: &ThreadCtx);
}

/// What one orec–value–orec read of an address observed.
enum Sample {
    /// The orec was stable, unlocked and no newer than `start`: the value
    /// and the address's stripe.
    Valid(u64, usize),
    /// The orec is locked by this attempt: memory holds its own write.
    Owned(u64),
    /// The orec is newer than `start` (already folded into the clock).
    TooNew,
    /// Locked by another attempt, or changed between the two loads.
    Busy,
}

/// The policy-independent state of one software attempt, which
/// [`WritePolicy`] hooks read through its accessors.
#[derive(Debug)]
pub struct Attempt {
    common: TxCommon,
    system: Arc<TmSystem>,
    /// Global-clock value sampled at begin (Algorithm 9, `start`).
    start: u64,
    /// Validated reads with their orec stripes cached at read time
    /// (Algorithm 8, `reads`).
    reads: ReadSet,
    /// `Some` when this attempt runs serially behind the system's
    /// [`crate::SerialGate`] ([`TxMode::Serial`]): all accesses go straight
    /// to the shared serial attempt, the instrumented logs stay empty.
    serial: Option<SerialAttempt>,
    /// True when this attempt runs on the snapshot read path: a declared
    /// read-only transaction in plain [`TxMode::Software`] mode with
    /// [`crate::SnapshotMode::On`].  Reads validate against `start` only,
    /// no read set is kept, writes abort with
    /// [`AbortReason::ReadOnlyWrite`], and the commit is free.
    snapshot: bool,
    /// Whether the snapshot attempt has completed at least one read (the
    /// first-read refresh is sound only before it has).
    snap_observed: bool,
    /// Transactional allocations, undone on abort.
    mallocs: Vec<(Addr, usize)>,
    /// Deferred frees, performed at commit.
    frees: Vec<(Addr, usize)>,
}

impl Attempt {
    /// The system the attempt runs on.
    #[inline]
    pub fn system(&self) -> &TmSystem {
        &self.system
    }

    /// The clock value sampled at begin.
    #[inline]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// The executing thread's id (the owner field of the orecs it locks).
    #[inline]
    pub fn me(&self) -> ThreadId {
        self.common.thread.id
    }

    /// The executing thread's statistics.
    #[inline]
    pub fn stats(&self) -> &TxStats {
        &self.common.thread.stats
    }

    /// Folds a too-new orec version into the clock, so the retry begins
    /// current even before the committer publishes its epoch (lazy clock
    /// plane; a no-op under GV1).
    #[inline]
    pub fn note_stale(&self, version: u64) {
        self.system.clock.note_stale(version, self.stats());
    }

    /// Aborts with [`AbortReason::ReadOnlyWrite`] on the snapshot path:
    /// the read-only promise was broken, and the driver upgrades the
    /// transaction to a full update attempt and restarts it.
    #[inline]
    pub fn require_update(&self) -> TxResult<()> {
        if self.snapshot {
            return Err(TxCtl::Abort(AbortReason::ReadOnlyWrite));
        }
        Ok(())
    }

    /// Commit-time read-set validation, run once the commit holds every
    /// write lock and has taken `stamp`.  Each read stripe must be unlocked
    /// and no newer than `start`, or locked by this attempt.
    ///
    /// Unless `always` is set, a unique stamp of `start + 1` skips the
    /// check: nothing else committed since begin, so no read can have been
    /// invalidated.  A lazy stamp may be shared with a concurrent committer
    /// and never takes the shortcut.
    #[inline]
    pub fn reads_valid(&self, stamp: CommitStamp, always: bool) -> bool {
        if !always && stamp.unique && stamp.ts == self.start + 1 {
            return true;
        }
        let me = self.me();
        self.reads.iter().all(|e| {
            // The stripe was cached when the read was validated, so
            // validation does not hash the address a second time.
            let o = self.system.orecs.load(e.stripe);
            if o.is_locked() {
                o.is_locked_by(me)
            } else if o.version() <= self.start {
                true
            } else {
                self.note_stale(o.version());
                false
            }
        })
    }

    /// The orec–value–orec read (Algorithm 10, `TxRead`).
    #[inline]
    fn sample(&self, addr: Addr) -> Sample {
        let idx = self.system.orecs.index_for(addr);
        let before = self.system.orecs.load(idx);
        let val = self.system.heap.load(addr);
        let after = self.system.orecs.load(idx);
        if before.is_locked() {
            return if before.is_locked_by(self.me()) {
                Sample::Owned(val)
            } else {
                Sample::Busy
            };
        }
        if before != after {
            return Sample::Busy;
        }
        if before.version() <= self.start {
            return Sample::Valid(val, idx);
        }
        self.note_stale(before.version());
        Sample::TooNew
    }

    /// One snapshot-path read: validated against `start` only, with no read
    /// set and no value logging.  A too-new version first tries a snapshot
    /// refresh before aborting.
    #[inline]
    fn snapshot_read(&mut self, addr: Addr) -> TxResult<u64> {
        loop {
            match self.sample(addr) {
                Sample::Valid(val, _) => {
                    self.snap_observed = true;
                    return Ok(val);
                }
                Sample::TooNew if self.try_snapshot_refresh() => continue,
                _ => return Err(TxCtl::Abort(AbortReason::ReadConflict)),
            }
        }
    }

    /// Advances the begin snapshot past a too-new version.  Sound only
    /// before the first successful read: nothing has been observed, so any
    /// snapshot is still admissible.  The new start is re-published through
    /// the serial-gate subscription handshake, exactly like a fresh begin.
    fn try_snapshot_refresh(&mut self) -> bool {
        if self.snap_observed {
            return false;
        }
        self.common.thread.exit_tx();
        self.start = subscribe_begin(&self.system, &self.common.thread);
        TxStats::bump(&self.stats().snapshot_refreshes);
        true
    }

    /// Performs the deferred frees of a committing attempt.
    fn free_deferred(&self) {
        for &(addr, words) in &self.frees {
            self.system
                .heap
                .dealloc_for(&self.common.thread, addr, words);
        }
    }
}

/// An in-flight software-STM attempt with write policy `W`.
///
/// The read set and the policy's logs are pooled access-set containers
/// ([`crate::access`]): membership and read-after-write lookups are O(1),
/// the orec covers stay sorted incrementally, and a re-executed attempt
/// inherits the previous attempt's capacity through the thread's
/// [`crate::access::LogPool`].
#[derive(Debug)]
pub struct StmTx<W: WritePolicy> {
    at: Attempt,
    writes: W,
}

impl<W: WritePolicy> StmTx<W> {
    /// Begins a new attempt with the policy's default setup.
    pub fn begin(system: &Arc<TmSystem>, common: TxCommon) -> Self {
        Self::begin_with(system, common, W::Setup::default())
    }

    /// Begins a new attempt.  Serial-mode attempts acquire the system's
    /// serial gate; instrumented attempts publish their start time through
    /// the gate's subscription protocol so a serial acquirer can quiesce
    /// them.
    pub fn begin_with(system: &Arc<TmSystem>, common: TxCommon, setup: W::Setup) -> Self {
        let (serial, start) = if common.mode == TxMode::Serial {
            (
                Some(SerialAttempt::begin(system, &common.thread)),
                system.clock.now(),
            )
        } else {
            (None, subscribe_begin(system, &common.thread))
        };
        let snapshot = common.kind == TxKind::ReadOnly
            && common.mode == TxMode::Software
            && system.config.snapshot.is_enabled();
        // Snapshot attempts keep no logs at all; skip the pool round trip
        // (zero-capacity containers are dropped, not pooled, on `put`).
        let reads = if snapshot {
            ReadSet::new()
        } else {
            common.thread.take_read_set()
        };
        let writes = W::begin(&common.thread, setup, !snapshot);
        StmTx {
            at: Attempt {
                common,
                system: Arc::clone(system),
                start,
                reads,
                serial,
                snapshot,
                snap_observed: false,
                mallocs: Vec::new(),
                frees: Vec::new(),
            },
            writes,
        }
    }

    /// The clock value sampled at begin.
    pub fn start(&self) -> u64 {
        self.at.start
    }

    /// Ownership-record indices covering the read set (used by
    /// `Retry-Orig`), sorted and deduplicated — the read set's own stripe
    /// cover, not recomputed from the address list.
    pub fn read_orec_indices(&mut self) -> Vec<usize> {
        self.at.reads.orec_cover().to_vec()
    }

    /// Records a read in the `Retry` value log, substituting the value a
    /// rollback restores for an address this attempt wrote in place: after
    /// the rollback that accompanies a deschedule, memory holds the *old*
    /// value, so that is what the wake-up check must compare against.
    fn log_retry(&mut self, addr: Addr, observed: u64) {
        if self.at.common.mode == TxMode::SoftwareRetry {
            let logged = self.writes.undo_value(addr).unwrap_or(observed);
            self.at.common.log_retry_read(addr, logged);
        }
    }

    /// A read outside the snapshot path: read-your-writes, then the
    /// validated read, recorded in the read set.
    #[inline]
    fn tracked_read(&mut self, addr: Addr) -> TxResult<u64> {
        if let Some(v) = self.writes.buffered(addr) {
            if self.at.common.mode == TxMode::SoftwareRetry {
                // The Retry value log must hold what memory holds once the
                // attempt is discarded: the committed value, not the
                // pending write.
                let Sample::Valid(mem, _) = self.at.sample(addr) else {
                    return Err(TxCtl::Abort(AbortReason::ReadConflict));
                };
                self.at.common.log_retry_read(addr, mem);
            }
            return Ok(v);
        }
        match self.at.sample(addr) {
            Sample::Valid(val, idx) => {
                self.at.reads.record(addr, idx);
                self.at.common.log_retry_read(addr, val);
                Ok(val)
            }
            // A stripe this attempt has locked: no other writer can touch
            // it, so the read needs no read-set entry.
            Sample::Owned(val) => {
                self.log_retry(addr, val);
                Ok(val)
            }
            Sample::TooNew | Sample::Busy => Err(TxCtl::Abort(AbortReason::ReadConflict)),
        }
    }

    fn reset_logs(&mut self) {
        let at = &mut self.at;
        TxStats::record_max(&at.common.thread.stats.read_set_max, at.reads.len() as u64);
        self.writes.clear(&at.common.thread.stats);
        at.reads.clear();
        at.snap_observed = false;
        at.mallocs.clear();
        at.frees.clear();
    }

    /// Rolls the attempt back: the policy undoes its writes, allocations are
    /// freed and all logs cleared (Algorithm 11).  Serial attempts undo
    /// their direct writes and release the gate.  Safe to call more than
    /// once.
    pub fn rollback(&mut self) {
        if let Some(serial) = &mut self.at.serial {
            serial.rollback();
            return;
        }
        self.writes.rollback(&self.at);
        for &(addr, words) in &self.at.mallocs {
            self.at
                .system
                .heap
                .dealloc_for(&self.at.common.thread, addr, words);
        }
        self.reset_logs();
        self.at.common.thread.exit_tx();
    }

    /// Attempts to commit (Algorithm 9, `TxCommit`).  On failure the caller
    /// must invoke [`StmTx::rollback`].
    pub fn try_commit(&mut self) -> Result<CommitOutcome, TxCtl> {
        if let Some(serial) = &mut self.at.serial {
            return Ok(serial.commit());
        }
        if self.writes.is_read_only() {
            // Every read was validated when it happened, so nothing further
            // is required.
            if self.at.snapshot {
                // The snapshot commit did zero read-set pushes and performs
                // zero commit-time orec loads.
                TxStats::bump(&self.at.stats().ro_fast_commits);
            }
            self.at.free_deferred();
            self.reset_logs();
            self.at.common.thread.exit_tx();
            return Ok(CommitOutcome::read_only());
        }
        let (written, end) = self.writes.commit(&self.at)?;
        // The transaction is committed; allocations simply survive.
        self.at.free_deferred();
        self.reset_logs();
        // Publish the commit epoch only now that the writes are visible and
        // every lock is released; later begins start at or above `end`,
        // which also bounds the quiescence wait below.
        let thread = &self.at.common.thread;
        thread.publish_epoch(end);
        thread.exit_tx();
        // Privatization-safety quiescence (Algorithm 9, line 20).
        self.at.system.quiesce(thread, end);
        Ok(CommitOutcome::software_writer(written, end))
    }

    /// Rolls back and materialises the wait condition for a deschedule
    /// request.  Returns `Err` (with the attempt already rolled back) if
    /// the condition could not be captured consistently, in which case the
    /// driver simply re-executes the transaction.
    pub fn rollback_for_deschedule(&mut self, spec: WaitSpec) -> Result<WaitCondition, TxCtl> {
        if let Some(serial) = &mut self.at.serial {
            return serial.rollback_for_deschedule(spec, &mut self.at.common);
        }
        match spec {
            WaitSpec::ReadSetValues => {
                let pairs = self.at.common.waitset.drain_pairs();
                self.rollback();
                Ok(WaitCondition::ValuesChanged(pairs))
            }
            WaitSpec::Addrs(addrs) => {
                // Algorithm 6: capture what memory will hold once the attempt
                // is gone.  In-place writes are undone first (their locks
                // stay held), then each address is read consistently with
                // the start time.
                self.writes.restore_memory(&self.at);
                let pairs: Option<Vec<_>> = addrs
                    .into_iter()
                    .map(|addr| match self.at.sample(addr) {
                        Sample::Valid(v, _) | Sample::Owned(v) => Some((addr, v)),
                        Sample::TooNew | Sample::Busy => None,
                    })
                    .collect();
                self.rollback();
                pairs
                    .map(WaitCondition::ValuesChanged)
                    .ok_or(TxCtl::Abort(AbortReason::ReadConflict))
            }
            WaitSpec::Pred { f, args } => {
                self.rollback();
                Ok(WaitCondition::Pred { f, args })
            }
            WaitSpec::OrigReadLocks => {
                // Handled by the driver (it needs the read-orec list *and*
                // the registry); reaching this point is a logic error.
                self.rollback();
                Err(TxCtl::Abort(AbortReason::ReadConflict))
            }
        }
    }
}

impl<W: WritePolicy> Drop for StmTx<W> {
    fn drop(&mut self) {
        // Recycle the attempt's access sets so the next attempt (or the
        // thread's next transaction) reuses their capacity.
        let thread = &self.at.common.thread;
        thread.put_read_set(std::mem::take(&mut self.at.reads));
        self.writes.recycle(thread);
    }
}

impl<W: WritePolicy> Tx for StmTx<W> {
    #[inline]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        // Serial attempts read directly: the gate holder runs alone.  Their
        // reads are never value-logged — a serial `Retry` relogs in
        // SoftwareRetry mode (see the driver's ReadSetValues dispatch).
        if let Some(serial) = &self.at.serial {
            return Ok(serial.read(addr));
        }
        if self.at.snapshot {
            return self.at.snapshot_read(addr);
        }
        self.tracked_read(addr)
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        if let Some(serial) = &mut self.at.serial {
            serial.write(addr, val);
            return Ok(());
        }
        self.at.require_update()?;
        self.writes.write(&self.at, addr, val)
    }

    fn read_for_write(&mut self, addr: Addr) -> TxResult<u64> {
        if self.at.serial.is_some() || !self.writes.lock_for_write(&self.at, addr)? {
            return self.read(addr);
        }
        // The address is protected by the lock, so it stays out of the read
        // set (§2.2.4).
        let val = self.at.system.heap.load(addr);
        self.log_retry(addr, val);
        Ok(val)
    }

    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        if let Some(serial) = &mut self.at.serial {
            return serial
                .alloc(words)
                .ok_or(TxCtl::Abort(AbortReason::OutOfMemory));
        }
        self.at.require_update()?;
        match self.at.system.heap.alloc_for(&self.at.common.thread, words) {
            Some(addr) => {
                self.at.mallocs.push((addr, words));
                Ok(addr)
            }
            None => Err(TxCtl::Abort(AbortReason::OutOfMemory)),
        }
    }

    fn free(&mut self, addr: Addr, words: usize) -> TxResult<()> {
        if let Some(serial) = &mut self.at.serial {
            serial.free(addr, words);
            return Ok(());
        }
        self.at.require_update()?;
        self.at.frees.push((addr, words));
        Ok(())
    }

    fn commit_and_reopen(&mut self, block: &mut dyn FnMut()) -> TxResult<()> {
        // Used only by transaction-safe condition variables: commit the work
        // so far (breaking atomicity), run the blocking section outside any
        // transaction, then begin a fresh transaction for the remainder.
        let serial = self.at.serial.is_some();
        let outcome = self.try_commit()?;
        // Only writer segments count, and serial ones also as serial
        // commits (the serial_commits ⊆ sw_commits invariant the stats docs
        // establish).
        if outcome.was_writer {
            TxStats::bump(&self.at.stats().sw_commits);
            if serial {
                TxStats::bump(&self.at.stats().serial_commits);
            }
        }
        block();
        let thread = &self.at.common.thread;
        if serial {
            // Continue in the same (serial) flavour: re-acquire the gate.
            self.at.serial = Some(SerialAttempt::begin(&self.at.system, thread));
            self.at.start = self.at.system.clock.now();
        } else {
            self.at.start = subscribe_begin(&self.at.system, thread);
        }
        Ok(())
    }

    fn explicit_abort(&mut self, code: u8) -> TxCtl {
        TxCtl::Abort(AbortReason::Explicit(code))
    }

    fn common(&self) -> &TxCommon {
        &self.at.common
    }

    fn common_mut(&mut self) -> &mut TxCommon {
        &mut self.at.common
    }

    fn system(&self) -> &Arc<TmSystem> {
        &self.at.system
    }
}
