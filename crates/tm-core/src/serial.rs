//! The system-wide serial/irrevocable gate and the shared serial attempt.
//!
//! Serial (irrevocable) execution used to be an HTM-simulator private: its
//! GCC-style fallback lock lived inside `htm-sim`, and the software STMs had
//! no serial mode at all — `TxCtl::BecomeSerial` was dead weight on them.
//! This module lifts the whole facility into `tm-core`:
//!
//! * [`SerialGate`] — one flag per [`crate::system::TmSystem`] that every
//!   engine honors.  Hardware transactions subscribe to it exactly as they
//!   subscribed to the old fallback lock (refuse to start / abort while it is
//!   held); software transactions re-check it after publishing their start
//!   time, and the acquirer quiesces every in-flight software attempt before
//!   entering its serial section, so the holder runs truly alone.
//! * [`SerialAttempt`] — the one serial attempt shape shared by the software
//!   engines: direct heap access (no ownership records, no read set) with an
//!   undo log kept only so condition synchronization can still roll the
//!   attempt back and capture a wait condition.
//!
//! The acquisition protocol is a Dekker-style store/load handshake with the
//! per-thread published start times (see [`crate::thread::ThreadCtx`]):
//!
//! ```text
//!   acquirer                        software attempt
//!   ────────                        ────────────────
//!   flag.swap(true)   (SeqCst)      enter_tx(start)   (then SeqCst fence)
//!   fence(SeqCst)                   if gate.held() { exit_tx; wait; retry }
//!   wait: ∀ other t,
//!     t.published_start == NOT_IN_TX
//! ```
//!
//! Either the attempt sees the flag (and backs out), or the acquirer sees the
//! published start (and waits it out); both running concurrently is
//! impossible.  Hardware attempts never publish a start time — for them the
//! gate's doom sweep plus the simulator's commit barrier play the same role.
//!
//! Releasing the gate ticks the global clock (a "clock fence"): transactions
//! that begin after a serial section observe a commit event, so no
//! version-based fast path can conclude that nothing happened while they
//! were excluded.

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;

use crate::access::WriteLog;
use crate::addr::Addr;
use crate::backoff::SpinWait;
use crate::clock::GlobalClock;
use crate::ctl::{TxCtl, WaitCondition, WaitSpec};
use crate::driver::CommitOutcome;
use crate::stats::TxStats;
use crate::system::TmSystem;
use crate::thread::{ThreadCtx, NOT_IN_TX};
use crate::tx::TxCommon;

/// The system-wide serial/irrevocable flag, honored by every engine.
///
/// Doubles as the HTM fallback lock's subscription word: hardware
/// transactions check [`SerialGate::held`] before starting and on every
/// access, exactly as lock-elided transactions subscribe to the fallback
/// lock on real hardware.
#[derive(Debug, Default)]
pub struct SerialGate {
    flag: AtomicBool,
}

impl SerialGate {
    /// Creates a released gate.
    pub fn new() -> Self {
        SerialGate::default()
    }

    /// True while some transaction runs serially.
    #[inline]
    pub fn held(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Spins until the gate is free (the hardware-transaction subscription,
    /// and the software engines' begin-time courtesy wait).
    pub fn wait_clear(&self) {
        let mut spin = SpinWait::new();
        while self.held() {
            spin.pause();
        }
    }

    /// Acquires the gate for `thread` and excludes every other transaction:
    ///
    /// 1. spins until the flag CAS succeeds (one serial holder at a time),
    /// 2. dooms every other thread's in-flight *hardware* transaction (the
    ///    coherence-triggered abort acquiring the fallback lock causes on
    ///    real hardware; harmless for software threads),
    /// 3. quiesces every other thread's in-flight *software* transaction by
    ///    waiting for its published start time to clear.
    ///
    /// Engines with additional commit machinery (the HTM simulator's commit
    /// barrier) layer their own drain on top after this returns.
    pub fn acquire(&self, system: &TmSystem, thread: &ThreadCtx) {
        let mut spin = SpinWait::new();
        while self
            .flag
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            spin.pause();
        }
        TxStats::bump(&thread.stats.serial_acquires);
        // The flag store above must be ordered before the published-start
        // loads below (the other half of the Dekker handshake is in the
        // software engines' begin paths).
        fence(Ordering::SeqCst);
        system.threads.for_each_other(thread.id, |t| t.doom());
        // Quiesce over the padded epoch table: lock-free, allocation-free,
        // one isolated line per thread polled (same plane privatization
        // quiescence scans).
        let epochs = system.threads.epochs();
        for id in 0..epochs.len() {
            if id == thread.id {
                continue;
            }
            let slot = epochs.slot(id);
            let mut spin = SpinWait::new();
            while slot.start() != NOT_IN_TX {
                spin.pause();
            }
        }
    }

    /// Releases the gate, ticking the global clock so later transactions see
    /// a commit event for the serial section (the "clock fence").
    pub fn release(&self, clock: &GlobalClock) {
        clock.tick();
        self.flag.store(false, Ordering::SeqCst);
    }

    /// Software engines call this after publishing a start time: if the gate
    /// was taken concurrently, the attempt must back out (exit the published
    /// transaction) and wait, because the gate holder may already have
    /// missed it in the quiescence sweep.
    #[inline]
    pub fn must_back_out(&self) -> bool {
        // Pairs with the fence in `acquire`: the caller's `enter_tx` store
        // must be ordered before this load.
        fence(Ordering::SeqCst);
        self.held()
    }
}

/// Publishes a software attempt's start time while honoring the serial
/// gate: waits for the gate to clear, samples the clock, publishes via
/// [`ThreadCtx::enter_tx`], then re-checks the gate (the attempt's half of
/// the Dekker handshake with [`SerialGate::acquire`]).  Returns the sampled
/// start time; on return the attempt may run — any gate acquirer from here
/// on will quiesce on the published start.
pub fn subscribe_begin(system: &TmSystem, thread: &ThreadCtx) -> u64 {
    loop {
        system.serial.wait_clear();
        let start = system.clock.now();
        thread.enter_tx(start);
        if !system.serial.must_back_out() {
            return start;
        }
        thread.exit_tx();
    }
}

/// One serial (irrevocable) software attempt: direct heap access while
/// holding the [`SerialGate`].
///
/// No ownership records are read or written and no read set is kept — the
/// gate's quiescence guarantees the holder runs alone, which is what makes
/// serial mode a guaranteed-progress path for transactions that keep losing
/// (or that requested irrevocability via `TxCtl::BecomeSerial`).  The undo
/// log exists only so the attempt can still be rolled back when the body
/// requests a deschedule or an explicit abort.
#[derive(Debug)]
pub struct SerialAttempt {
    system: Arc<TmSystem>,
    thread: Arc<ThreadCtx>,
    /// Old values of written locations, one entry per address (first write
    /// wins, as in the eager STM's undo log).
    undo: WriteLog,
    holding: bool,
    mallocs: Vec<(Addr, usize)>,
    frees: Vec<(Addr, usize)>,
}

impl SerialAttempt {
    /// Acquires the gate and begins a serial attempt for `thread`.
    pub fn begin(system: &Arc<TmSystem>, thread: &Arc<ThreadCtx>) -> Self {
        system.serial.acquire(system, thread);
        SerialAttempt {
            system: Arc::clone(system),
            thread: Arc::clone(thread),
            undo: thread.take_write_log(),
            holding: true,
            mallocs: Vec::new(),
            frees: Vec::new(),
        }
    }

    /// Reads the word at `addr` directly.
    #[inline]
    pub fn read(&self, addr: Addr) -> u64 {
        self.system.heap.load(addr)
    }

    /// The pre-transaction value of `addr` if this attempt has written it
    /// (used to substitute undo values into the `Retry` value log).
    #[inline]
    pub fn undo_lookup(&self, addr: Addr) -> Option<u64> {
        self.undo.lookup(addr)
    }

    /// Writes `val` to `addr` in place, logging the old value once.
    pub fn write(&mut self, addr: Addr, val: u64) {
        let old = self.system.heap.load(addr);
        self.undo.record_first(addr, old, || 0);
        self.system.heap.store(addr, val);
    }

    /// Allocates `words` heap words, undone on rollback.  `None` when the
    /// allocator is exhausted (the caller converts that to `OutOfMemory`).
    pub fn alloc(&mut self, words: usize) -> Option<Addr> {
        let addr = self.system.heap.alloc_for(&self.thread, words)?;
        self.mallocs.push((addr, words));
        Some(addr)
    }

    /// Defers freeing `words` words at `addr` until commit.
    pub fn free(&mut self, addr: Addr, words: usize) {
        self.frees.push((addr, words));
    }

    /// Writes the logged old values back, newest first, keeping the log.
    fn restore_memory(&self) {
        for e in self.undo.iter().rev() {
            self.system.heap.store(e.addr, e.val);
        }
    }

    /// Clears the undo log, recording its size, and forgets the attempt's
    /// allocations: the one place the log is measured and cleared.
    fn reset(&mut self) {
        TxStats::record_max(&self.thread.stats.write_set_max, self.undo.len() as u64);
        self.undo.clear();
        self.mallocs.clear();
        self.frees.clear();
    }

    fn release_if_holding(&mut self) {
        if self.holding {
            self.system.serial.release(&self.system.clock);
            self.holding = false;
        }
    }

    /// Rolls the attempt back: undoes writes in reverse order, undoes
    /// allocations, releases the gate.  Safe to call more than once.
    pub fn rollback(&mut self) {
        self.restore_memory();
        for &(addr, words) in &self.mallocs {
            self.system.heap.dealloc_for(&self.thread, addr, words);
        }
        self.reset();
        self.release_if_holding();
    }

    /// Commits the attempt: finalizes deferred frees and releases the gate.
    /// Serial commits carry no metadata, so the outcome tells the wake path
    /// to scan conservatively.
    pub fn commit(&mut self) -> CommitOutcome {
        let was_writer = !self.undo.is_empty();
        for &(addr, words) in &self.frees {
            self.system.heap.dealloc_for(&self.thread, addr, words);
        }
        self.reset();
        self.release_if_holding();
        CommitOutcome::serial(was_writer)
    }

    /// Rolls back and materialises the wait condition for a deschedule
    /// request, mirroring the instrumented engines' rollback paths.  As the
    /// gate holder runs alone, plain loads are a consistent snapshot.
    pub fn rollback_for_deschedule(
        &mut self,
        spec: WaitSpec,
        common: &mut TxCommon,
    ) -> Result<WaitCondition, TxCtl> {
        match spec {
            WaitSpec::ReadSetValues | WaitSpec::OrigReadLocks => {
                let pairs = common.waitset.drain_pairs();
                self.rollback();
                Ok(WaitCondition::ValuesChanged(pairs))
            }
            WaitSpec::Addrs(addrs) => {
                // Undo writes first so the captured snapshot reflects the
                // pre-transaction state (the rollback below restores the
                // same words again; the gate holder runs alone).
                self.restore_memory();
                let pairs = addrs
                    .iter()
                    .map(|&a| (a, self.system.heap.load(a)))
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

impl Drop for SerialAttempt {
    fn drop(&mut self) {
        // Defensive: never leak the gate if a body panics mid-attempt.  A
        // finished attempt (committed or rolled back) no longer holds it
        // and has nothing left to undo.
        if self.holding {
            self.rollback();
        }
        self.thread
            .pool
            .put_write_log(std::mem::take(&mut self.undo));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TmConfig;

    #[test]
    fn gate_round_trip() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        assert!(!system.serial.held());
        system.serial.acquire(&system, &th);
        assert!(system.serial.held());
        let before = system.clock.now();
        system.serial.release(&system.clock);
        assert!(!system.serial.held());
        assert!(system.clock.now() > before, "release must fence the clock");
        assert_eq!(th.stats.snapshot().serial_acquires, 1);
    }

    #[test]
    fn acquire_quiesces_in_flight_software_transactions() {
        let system = TmSystem::new(TmConfig::small());
        let me = system.register_thread();
        let other = system.register_thread();
        other.enter_tx(3);
        let other2 = Arc::clone(&other);
        let system2 = Arc::clone(&system);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            other2.exit_tx();
            system2.heap.store(Addr(1), 1);
        });
        system.serial.acquire(&system, &me);
        assert_eq!(
            system.heap.load(Addr(1)),
            1,
            "acquire returned before the in-flight transaction exited"
        );
        assert!(other.is_doomed(), "acquire dooms in-flight hardware work");
        system.serial.release(&system.clock);
        h.join().unwrap();
    }

    #[test]
    fn serial_attempt_commits_writes_in_place() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        let mut s = SerialAttempt::begin(&system, &th);
        assert!(system.serial.held());
        s.write(Addr(5), 42);
        assert_eq!(s.read(Addr(5)), 42);
        assert_eq!(system.heap.load(Addr(5)), 42, "serial writes are direct");
        let outcome = s.commit();
        assert!(outcome.was_writer);
        assert!(outcome.serial);
        assert!(!outcome.hardware);
        assert!(!system.serial.held(), "commit releases the gate");
        assert_eq!(th.stats.snapshot().write_set_max, 1);
    }

    #[test]
    fn serial_attempt_rollback_restores_and_releases() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(7), 9);
        let th = system.register_thread();
        let mut s = SerialAttempt::begin(&system, &th);
        s.write(Addr(7), 100);
        s.write(Addr(7), 200);
        let a = s.alloc(4).unwrap();
        assert!(!a.is_null());
        s.rollback();
        assert_eq!(system.heap.load(Addr(7)), 9, "first-write-wins undo");
        assert!(!system.serial.held());
        // Idempotent.
        s.rollback();
        assert_eq!(system.heap.load(Addr(7)), 9);
    }

    #[test]
    fn serial_attempt_drop_releases_the_gate() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        {
            let mut s = SerialAttempt::begin(&system, &th);
            s.write(Addr(3), 1);
            // Dropped without commit or rollback (panic path).
        }
        assert!(!system.serial.held());
        assert_eq!(system.heap.load(Addr(3)), 0, "drop rolls the writes back");
    }

    #[test]
    fn deschedule_capture_reflects_pre_transaction_state() {
        use crate::tx::TxMode;
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(20), 5);
        let th = system.register_thread();
        let mut common = TxCommon::new(Arc::clone(&th), TxMode::Serial, 0);
        let mut s = SerialAttempt::begin(&system, &th);
        s.write(Addr(20), 6);
        let cond = s
            .rollback_for_deschedule(WaitSpec::Addrs(vec![Addr(20)]), &mut common)
            .unwrap();
        match cond {
            WaitCondition::ValuesChanged(pairs) => assert_eq!(pairs, vec![(Addr(20), 5)]),
            other => panic!("unexpected condition {other:?}"),
        }
        assert_eq!(system.heap.load(Addr(20)), 5);
        assert!(!system.serial.held());
    }
}
