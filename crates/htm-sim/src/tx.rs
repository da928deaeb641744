//! The per-attempt transaction descriptor for the HTM simulator.
//!
//! A transaction attempt is either **hardware** (speculative: redo-buffered
//! writes, line-granularity conflict detection, capacity limits, no escape
//! actions) or **serial** (runs while holding the global fallback lock:
//! direct writes with an undo log so that condition synchronization can still
//! roll it back).  The serial flavour doubles as the "software mode with
//! escape actions" that descheduling hardware transactions must fall back to
//! (§2.2.2), and as GCC-style serial-irrevocable execution after repeated
//! aborts.

use std::sync::Arc;

use tm_core::access::{IndexSet, WriteLog};
use tm_core::driver::{CommitOutcome, TxEngine};
use tm_core::hwtm::HwAbort;
use tm_core::stats::TxStats;
use tm_core::{
    AbortReason, Addr, OrecValue, ThreadCtx, TmSystem, Tx, TxCommon, TxCtl, TxMode, TxResult,
    WaitCondition, WaitSpec,
};

use crate::runtime::HtmSim;

/// Converts a hardware-plane abort into the driver-level control request,
/// counting injected faults as they surface.
fn hw_fault(thread: &ThreadCtx, fault: HwAbort) -> TxCtl {
    if fault.injected {
        TxStats::bump(&thread.stats.hw_faults_injected);
    }
    TxCtl::Abort(fault.kind.reason())
}

/// Execution state specific to the attempt flavour.
///
/// The slot sets and logs are pooled access-set containers
/// (`tm_core::access`): slot membership and read-after-write lookups are
/// O(1), and re-executed attempts recycle capacity through the thread's
/// `LogPool`.
#[derive(Debug)]
enum State {
    Hardware {
        /// Directory slots registered as read.
        read_slots: IndexSet,
        /// Directory slots registered as written.
        write_slots: IndexSet,
        /// Buffered writes, one entry per address (last value wins).
        redo: WriteLog,
    },
    Serial {
        /// Old values of written locations, one entry per address.
        undo: WriteLog,
    },
}

impl State {
    /// Returns the state's (cleared) containers to `thread`'s pool.
    fn recycle(self, thread: &ThreadCtx) {
        match self {
            State::Hardware {
                read_slots,
                write_slots,
                redo,
            } => {
                thread.put_index_set(read_slots);
                thread.put_index_set(write_slots);
                thread.put_write_log(redo);
            }
            State::Serial { undo } => thread.put_write_log(undo),
        }
    }

    /// Records the attempt's set-size high-water marks and clears its
    /// containers: the one place either happens, once per commit or
    /// rollback.
    fn reset(&mut self, thread: &ThreadCtx) {
        match self {
            State::Hardware {
                read_slots,
                write_slots,
                redo,
            } => {
                TxStats::record_max(&thread.stats.read_set_max, read_slots.len() as u64);
                TxStats::record_max(&thread.stats.write_set_max, redo.len() as u64);
                read_slots.clear();
                write_slots.clear();
                redo.clear();
            }
            State::Serial { undo } => {
                TxStats::record_max(&thread.stats.write_set_max, undo.len() as u64);
                undo.clear();
            }
        }
    }

    /// An empty serial state owning nothing, left behind when the real
    /// state's containers are recycled.
    fn placeholder() -> State {
        State::Serial {
            undo: WriteLog::new(),
        }
    }
}

/// An in-flight attempt on the HTM simulator.
#[derive(Debug)]
pub struct HtmTx<'rt> {
    rt: &'rt HtmSim,
    common: TxCommon,
    state: State,
    /// True from begin until the attempt commits or rolls back.  A live
    /// serial attempt holds the fallback lock.
    live: bool,
    mallocs: Vec<(Addr, usize)>,
    frees: Vec<(Addr, usize)>,
}

impl<'rt> HtmTx<'rt> {
    /// Begins a new attempt.  Hardware attempts wait for the fallback lock to
    /// be free before starting (lock-elision subscription); serial attempts
    /// acquire the lock and doom all in-flight hardware transactions.
    pub fn begin(rt: &'rt HtmSim, common: TxCommon) -> Self {
        let state = Self::begin_state(rt, &common.thread, common.mode == TxMode::Hardware);
        HtmTx {
            rt,
            common,
            state,
            live: true,
            mallocs: Vec::new(),
            frees: Vec::new(),
        }
    }

    /// Starts a hardware attempt or takes the serial lock, and takes the
    /// flavour's containers from the pool.
    fn begin_state(rt: &HtmSim, thread: &Arc<ThreadCtx>, hardware: bool) -> State {
        if hardware {
            rt.wait_fallback_clear();
            // A stale doom flag from a previous attempt must not kill this one.
            thread.take_doomed();
            rt.plane().begin_attempt(thread.id);
            State::Hardware {
                read_slots: thread.take_index_set(),
                write_slots: thread.take_index_set(),
                redo: thread.take_write_log(),
            }
        } else {
            rt.acquire_serial(thread);
            State::Serial {
                undo: thread.take_write_log(),
            }
        }
    }

    /// True if this attempt is speculative (hardware).
    pub fn is_hardware(&self) -> bool {
        matches!(self.state, State::Hardware { .. })
    }

    fn retry_log(&mut self, addr: Addr, observed: u64) {
        if self.common.mode != TxMode::SoftwareRetry {
            return;
        }
        // Substitute the pre-transaction value for locations this (serial)
        // attempt has already written, as Algorithm 5 does with the undo log.
        let logged = match &self.state {
            State::Serial { undo } => undo.lookup(addr).unwrap_or(observed),
            State::Hardware { .. } => observed,
        };
        self.common.log_retry_read(addr, logged);
    }

    /// Rolls the attempt back.  Safe to call more than once: only a live
    /// attempt has anything to undo.  Serial attempts release the fallback
    /// lock.
    pub fn rollback(&mut self) {
        if !self.live {
            return;
        }
        self.live = false;
        match &self.state {
            State::Hardware {
                read_slots,
                write_slots,
                ..
            } => {
                let me = self.common.thread.id;
                for slot in read_slots.iter() {
                    self.rt.plane().clear_read(slot, me);
                }
                for slot in write_slots.iter() {
                    self.rt.plane().clear_write(slot, me);
                }
                self.common.thread.take_doomed();
            }
            State::Serial { undo } => {
                for e in undo.iter().rev() {
                    self.rt.system().heap.store(e.addr, e.val);
                }
                self.rt.release_serial();
            }
        }
        self.state.reset(&self.common.thread);
        for &(addr, words) in &self.mallocs {
            self.rt
                .system()
                .heap
                .dealloc_for(&self.common.thread, addr, words);
        }
        self.mallocs.clear();
        self.frees.clear();
    }

    /// Attempts to commit.  On failure the caller must call
    /// [`HtmTx::rollback`].
    pub fn try_commit(&mut self) -> Result<CommitOutcome, TxCtl> {
        let system = self.rt.system();
        let outcome = match &mut self.state {
            State::Hardware {
                read_slots,
                write_slots,
                redo,
            } => {
                // The doom check and the write-back must be one atomic step
                // with respect to other commits and to serial-lock
                // acquisition (on real hardware the coherence protocol
                // guarantees this); otherwise two mutually conflicting
                // transactions can both pass their doom checks and interleave
                // write-backs, losing updates.  A hybrid runtime's software
                // write-backs take the same barrier (`commit_barrier`).
                let commit_guard = self.rt.commit_barrier();
                if self.common.thread.is_doomed() {
                    drop(commit_guard);
                    return Err(TxCtl::Abort(AbortReason::HwConflict));
                }
                // The backend's commit-window check: past the doom check,
                // before anything is written, so an abort here (a fault
                // plane's injection point) can never lose an update.
                if let Err(f) = self.rt.plane().commit_check(self.common.thread.id) {
                    drop(commit_guard);
                    return Err(hw_fault(&self.common.thread, f));
                }
                let was_writer = !redo.is_empty();
                // The stripe cover of the written cache lines (a superset of
                // the written words' stripes), needed up front by the orec
                // coupling and after the write-back by the targeted wake
                // scan.
                let plane = self.rt.plane();
                let written_cover = |redo: &WriteLog| {
                    let mut lines: Vec<_> = redo.iter().map(|e| e.addr.line()).collect();
                    lines.sort_unstable();
                    lines.dedup();
                    let mut cover = Vec::new();
                    for line in lines {
                        plane.line_cover(line, &mut cover);
                    }
                    cover.sort_unstable();
                    cover.dedup();
                    cover
                };
                // Hybrid coupling: publish this commit through the software
                // STM's metadata, with the *same* protocol a software
                // committer uses.  Every stripe covering a written line is
                // CAS-acquired (abort on any stripe a software commit
                // already holds — overlapping data is mid-commit), held
                // across the write-back, and released at a freshly ticked
                // clock value after it.  Holding the locks is what makes
                // the write-back opaque to software readers: a validated
                // read can never interleave with it, and any transaction
                // that began before the release observes the new version
                // and aborts rather than mixing old and new values.  An
                // acquisition failure releases the acquired prefix at its
                // original versions and aborts before memory is touched.
                let mut coupled_cover = Vec::new();
                if was_writer && self.rt.orec_coupled() {
                    coupled_cover = written_cover(redo);
                    let me = self.common.thread.id;
                    for (k, &idx) in coupled_cover.iter().enumerate() {
                        let cur = system.orecs.load(idx);
                        let ok = !cur.is_locked()
                            && system
                                .orecs
                                .cas(idx, cur, OrecValue::locked(cur.version(), me));
                        if !ok {
                            for &held in &coupled_cover[..k] {
                                let c = system.orecs.load(held);
                                system.orecs.store(held, OrecValue::unlocked(c.version()));
                            }
                            return Err(TxCtl::Abort(AbortReason::HwConflict));
                        }
                    }
                }
                // Write back the buffered stores.  All conflicting in-flight
                // transactions were doomed when we registered as writer of
                // their lines, and our writer registrations are still in
                // place, so no new reader can adopt a partial view without
                // observing the conflict.
                for e in redo.iter() {
                    system.heap.store(e.addr, e.val);
                }
                // Release the coupled stripes at a fresh commit timestamp,
                // making the hardware write-back visible to software read
                // validation exactly like a software commit's.  The stamp is
                // taken while the whole CAS cover is held (the ordering the
                // lazy clock plane's soundness requires), and the epoch is
                // published only after every stripe is released.
                if !coupled_cover.is_empty() {
                    let stamp = system.clock.commit_stamp(&self.common.thread.stats);
                    for &idx in &coupled_cover {
                        system.orecs.store(idx, OrecValue::unlocked(stamp.ts));
                    }
                    self.common.thread.publish_epoch(stamp.ts);
                }
                // Map the committed cache lines back to orec stripes for the
                // targeted post-commit wake scan (the word-level write set is
                // architecturally invisible; the line cover is a superset) —
                // but only if someone is actually waiting, so the common
                // no-sleeper case pays one atomic load and nothing else.
                // A waiter that registers after this check double-checks its
                // condition after registering, and the write-back above is
                // already complete, so no wakeup is lost.  The coupled path
                // already computed the cover; reuse it.
                let mut wake_stripes = coupled_cover;
                if wake_stripes.is_empty() && was_writer && !system.waiters.is_empty() {
                    wake_stripes = written_cover(redo);
                }
                let me = self.common.thread.id;
                for slot in write_slots.iter() {
                    plane.clear_write(slot, me);
                }
                for slot in read_slots.iter() {
                    plane.clear_read(slot, me);
                }
                for &(addr, words) in &self.frees {
                    system.heap.dealloc_for(&self.common.thread, addr, words);
                }
                CommitOutcome::hardware(was_writer, wake_stripes)
            }
            State::Serial { undo } => {
                let was_writer = !undo.is_empty();
                for &(addr, words) in &self.frees {
                    system.heap.dealloc_for(&self.common.thread, addr, words);
                }
                self.rt.release_serial();
                CommitOutcome::serial(was_writer)
            }
        };
        self.live = false;
        self.state.reset(&self.common.thread);
        self.mallocs.clear();
        self.frees.clear();
        Ok(outcome)
    }

    /// Rolls back and materialises the wait condition for a deschedule
    /// request.  Only meaningful for serial attempts (hardware attempts are
    /// switched to the serial mode by the driver before descheduling).
    pub fn rollback_for_deschedule(&mut self, spec: WaitSpec) -> Result<WaitCondition, TxCtl> {
        match spec {
            WaitSpec::ReadSetValues | WaitSpec::OrigReadLocks => {
                let pairs = self.common.waitset.drain_pairs();
                self.rollback();
                Ok(WaitCondition::ValuesChanged(pairs))
            }
            WaitSpec::Addrs(addrs) => {
                // Undo our writes first so the captured snapshot reflects the
                // pre-transaction state; as the serial-lock holder we are the
                // only transaction running, so plain loads are consistent.
                // The rollback below restores the same words again.
                if let State::Serial { undo } = &self.state {
                    for e in undo.iter().rev() {
                        self.rt.system().heap.store(e.addr, e.val);
                    }
                }
                let pairs = addrs
                    .iter()
                    .map(|&a| (a, self.rt.system().heap.load(a)))
                    .collect();
                self.rollback();
                Ok(WaitCondition::ValuesChanged(pairs))
            }
            WaitSpec::Pred { f, args } => {
                self.rollback();
                Ok(WaitCondition::Pred { f, args })
            }
        }
    }
}

impl Drop for HtmTx<'_> {
    fn drop(&mut self) {
        // Defensive: never leak the serial lock or stale line registrations
        // if a body panics (a no-op once the attempt committed or rolled
        // back).
        self.rollback();
        // Recycle the attempt's access sets for the next attempt.
        std::mem::replace(&mut self.state, State::placeholder()).recycle(&self.common.thread);
    }
}

impl Tx for HtmTx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        if addr.index() >= self.rt.system().heap.len() {
            // A zombie transaction may compute a garbage address; turn that
            // into an abort instead of a panic.
            return Err(TxCtl::Abort(AbortReason::HwConflict));
        }
        if !self.is_hardware() {
            let val = self.rt.system().heap.load(addr);
            self.retry_log(addr, val);
            return Ok(val);
        }
        if self.common.thread.is_doomed() {
            return Err(TxCtl::Abort(AbortReason::HwConflict));
        }
        if self.rt.fallback_held() {
            return Err(TxCtl::Abort(AbortReason::HwFallbackLock));
        }
        let State::Hardware {
            read_slots, redo, ..
        } = &mut self.state
        else {
            unreachable!("checked above");
        };
        // Read-your-writes from the buffered store, O(1) by hash index.
        if let Some(v) = redo.lookup(addr) {
            return Ok(v);
        }
        let plane = self.rt.plane();
        let line = addr.line();
        let slot = plane.slot_for(line);
        if let Err(f) = plane.read_line(line, slot, self.common.thread.id) {
            // A conflicting speculative writer has been doomed by the backend
            // (our coherence request invalidates its line); we abort as well
            // rather than consuming a possibly torn value.
            return Err(hw_fault(&self.common.thread, f));
        }
        if read_slots.insert(slot) {
            if let Err(f) = plane.check_read_footprint(read_slots.len()) {
                return Err(hw_fault(&self.common.thread, f));
            }
        }
        let val = self.rt.system().heap.load(addr);
        // Every committer dooms the registered readers of a line before it
        // writes the line back.  If this thread was preempted between the
        // doom check above and the load, the load may return a committed
        // value that contradicts an earlier read; the doom is visible by
        // now, so check again rather than hand the body a torn view (real
        // HTM aborts the load itself).
        if self.common.thread.is_doomed() {
            return Err(TxCtl::Abort(AbortReason::HwConflict));
        }
        Ok(val)
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        if addr.index() >= self.rt.system().heap.len() {
            return Err(TxCtl::Abort(AbortReason::HwConflict));
        }
        match &mut self.state {
            State::Hardware {
                write_slots, redo, ..
            } => {
                if self.common.thread.is_doomed() {
                    return Err(TxCtl::Abort(AbortReason::HwConflict));
                }
                if self.rt.fallback_held() {
                    return Err(TxCtl::Abort(AbortReason::HwFallbackLock));
                }
                let plane = self.rt.plane();
                let line = addr.line();
                let slot = plane.slot_for(line);
                // The backend registers us as the line's writer, dooming
                // every conflicting speculative occupant; a conflict abort
                // means a foreign writer could not be displaced.
                if let Err(f) = plane.write_line(line, slot, self.common.thread.id) {
                    return Err(hw_fault(&self.common.thread, f));
                }
                if write_slots.insert(slot) {
                    if let Err(f) = plane.check_write_footprint(write_slots.len()) {
                        return Err(hw_fault(&self.common.thread, f));
                    }
                }
                // Buffer the store.  The HTM never consults ownership
                // records and nothing reads this log's cover (commit maps
                // written *lines* to stripes), so the cached index is left
                // degenerate rather than maintained for nobody.
                redo.record(addr, val, || 0);
                Ok(())
            }
            State::Serial { undo, .. } => {
                let old = self.rt.system().heap.load(addr);
                // First write per address keeps the pre-transaction value.
                undo.record_first(addr, old, || 0);
                self.rt.system().heap.store(addr, val);
                Ok(())
            }
        }
    }

    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        match self.rt.system().heap.alloc_for(&self.common.thread, words) {
            Some(addr) => {
                self.mallocs.push((addr, words));
                Ok(addr)
            }
            None => Err(TxCtl::Abort(AbortReason::OutOfMemory)),
        }
    }

    fn free(&mut self, addr: Addr, words: usize) -> TxResult<()> {
        self.frees.push((addr, words));
        Ok(())
    }

    fn commit_and_reopen(&mut self, block: &mut dyn FnMut()) -> TxResult<()> {
        let hardware = self.is_hardware();
        match self.try_commit() {
            Ok(info) => {
                let stats = &self.common.thread.stats;
                if info.hardware {
                    TxStats::bump(&stats.hw_commits);
                } else {
                    TxStats::bump(&stats.sw_commits);
                }
                if info.serial {
                    TxStats::bump(&stats.serial_commits);
                }
                block();
                // Begin the continuation transaction in the same flavour,
                // recycling the committed attempt's (cleared) containers.
                std::mem::replace(&mut self.state, State::placeholder())
                    .recycle(&self.common.thread);
                self.state = Self::begin_state(self.rt, &self.common.thread, hardware);
                self.live = true;
                Ok(())
            }
            Err(ctl) => Err(ctl),
        }
    }

    fn explicit_abort(&mut self, code: u8) -> TxCtl {
        TxCtl::Abort(AbortReason::Explicit(code))
    }

    fn common(&self) -> &TxCommon {
        &self.common
    }

    fn common_mut(&mut self) -> &mut TxCommon {
        &mut self.common
    }

    fn system(&self) -> &Arc<TmSystem> {
        self.rt.system()
    }
}
