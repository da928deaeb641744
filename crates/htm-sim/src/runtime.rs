//! The HTM simulator's runtime: a thin [`TxEngine`] over [`HtmTx`], plus the
//! GCC-style serial fallback lock.
//!
//! The speculative/serial mode ladder — bounded hardware attempts, the
//! serial fallback after repeated failures, and the software re-execution
//! that descheduling hardware transactions require — is expressed through
//! the engine's mode-policy hooks; the loop that drives it is the shared
//! [`tm_core::driver::run`].

use std::sync::Arc;

use tm_core::driver::{CommitOutcome, TxEngine};
use tm_core::hwtm::{FaultPlane, HwTm};
use tm_core::lock::{Mutex, MutexGuard};
use tm_core::{ThreadCtx, ThreadId, TmSystem, TxCommon, TxCtl, TxMode, WaitCondition, WaitSpec};

use crate::lines::LineTable;
use crate::plane::SimPlane;
use crate::tx::HtmTx;

/// The best-effort hardware TM runtime, generic over its hardware backend.
///
/// By default the backend is the crate's [`SimPlane`] simulator (wrapped in
/// a [`FaultPlane`] when the system's [`tm_core::FaultConfig`] enables
/// injection); [`HtmSim::with_plane`] installs any other [`HwTm`]
/// implementation, such as a real hardware backend.
pub struct HtmSim {
    system: Arc<TmSystem>,
    /// The simulator backend, when that is what `plane` is (directly or
    /// behind a fault layer); kept for the white-box [`HtmSim::lines`]
    /// accessor.  `None` under a foreign [`HtmSim::with_plane`] backend.
    sim: Option<Arc<SimPlane>>,
    /// The hardware backend every speculative access goes through.
    plane: Arc<dyn HwTm>,
    /// Serialises hardware commits (doom-check + redo write-back + directory
    /// clear) against each other, against serial-lock acquisition, and —
    /// through [`HtmSim::commit_barrier`] — against a hybrid runtime's
    /// software write-backs.
    ///
    /// On real hardware a transactional commit is atomic at the coherence
    /// layer; without this lock the simulator had a window between a
    /// transaction's final doom check and its write-back in which a
    /// conflicting commit (or the serial fallback's direct stores) could
    /// interleave, producing lost updates.
    ///
    /// The serial fallback *flag* itself is no longer here: it is the
    /// system-wide [`tm_core::SerialGate`] on [`TmSystem`], which every
    /// engine honors.
    commit_mutex: Mutex<()>,
    /// True when this simulator shares its [`TmSystem`] with a software STM
    /// (the hybrid runtime): hardware commits then publish themselves to the
    /// ownership records of their written lines so software validation can
    /// observe them, and abort instead of stomping locked orecs.
    orec_coupled: bool,
}

impl std::fmt::Debug for HtmSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmSim")
            .field("fallback_held", &self.fallback_held())
            .finish_non_exhaustive()
    }
}

impl HtmSim {
    /// Creates a runtime over `system`.
    pub fn new(system: Arc<TmSystem>) -> Arc<Self> {
        Self::build(system, false)
    }

    /// Creates a runtime whose hardware commits are *coupled* to the
    /// system's ownership records, for use as the fast path of a hybrid
    /// HTM+STM runtime sharing `system` with a software STM: commits
    /// validate against (and abort on) locked orecs covering their written
    /// lines, and publish a fresh version to those orecs so software read
    /// validation observes hardware writes.
    pub fn new_coupled(system: Arc<TmSystem>) -> Arc<Self> {
        Self::build(system, true)
    }

    fn build(system: Arc<TmSystem>, orec_coupled: bool) -> Arc<Self> {
        let sim = SimPlane::new(Arc::clone(&system));
        let fault = system.config.fault;
        let plane: Arc<dyn HwTm> = if fault.enabled() {
            Arc::new(FaultPlane::new(
                Arc::clone(&sim) as Arc<dyn HwTm>,
                fault,
                system.config.max_threads,
            ))
        } else {
            Arc::clone(&sim) as Arc<dyn HwTm>
        };
        Arc::new(HtmSim {
            system,
            sim: Some(sim),
            plane,
            commit_mutex: Mutex::new(()),
            orec_coupled,
        })
    }

    /// Creates a runtime over `system` driving the given hardware backend
    /// instead of the built-in simulator.  `orec_coupled` has the same
    /// meaning as in [`HtmSim::new_coupled`].
    pub fn with_plane(
        system: Arc<TmSystem>,
        plane: Arc<dyn HwTm>,
        orec_coupled: bool,
    ) -> Arc<Self> {
        Arc::new(HtmSim {
            system,
            sim: None,
            plane,
            commit_mutex: Mutex::new(()),
            orec_coupled,
        })
    }

    /// The hardware backend speculative accesses go through.
    #[inline]
    pub fn plane(&self) -> &Arc<dyn HwTm> {
        &self.plane
    }

    /// The simulated coherence directory (white-box test access).
    ///
    /// # Panics
    /// When a foreign backend was installed via [`HtmSim::with_plane`].
    pub fn lines(&self) -> &LineTable {
        self.sim
            .as_ref()
            .expect("no simulator backend installed (HtmSim::with_plane)")
            .lines()
    }

    /// True when hardware commits publish to the ownership records
    /// (hybrid-runtime coupling; see [`HtmSim::new_coupled`]).
    #[inline]
    pub fn orec_coupled(&self) -> bool {
        self.orec_coupled
    }

    /// True while some transaction holds the serial fallback lock (the
    /// system-wide [`tm_core::SerialGate`]).
    #[inline]
    pub fn fallback_held(&self) -> bool {
        self.system.serial.held()
    }

    /// Spins until the fallback lock is free (hardware transactions subscribe
    /// to the lock before starting, as in lock elision).
    pub fn wait_fallback_clear(&self) {
        self.system.serial.wait_clear();
    }

    /// Acquires the system's serial gate — which dooms every in-flight
    /// hardware transaction and quiesces in-flight software transactions —
    /// and then drains the hardware commit barrier.
    pub fn acquire_serial(&self, thread: &Arc<ThreadCtx>) {
        self.system.serial.acquire(&self.system, thread);
        // Wait out any hardware commit that passed its doom check before the
        // gate's dooms landed: once the commit mutex has been acquired and
        // released, every in-flight write-back has finished and every later
        // hardware commit will observe its doom flag and abort.  Without
        // this barrier the serial section's direct stores could interleave
        // with a lagging speculative write-back.
        drop(self.commit_mutex.lock());
    }

    /// Takes the hardware-commit lock: every hardware commit's
    /// doom-check + write-back runs under it, so holding it excludes them.
    /// Public because a hybrid runtime's software write-back must take the
    /// same barrier (see `stm_lazy::CommitInterlock`).
    pub fn commit_barrier(&self) -> MutexGuard<'_, ()> {
        self.commit_mutex.lock()
    }

    /// Releases the serial lock (the system gate).
    pub fn release_serial(&self) {
        self.system.serial.release(&self.system.clock);
    }

    /// Delivers a conflict abort to another thread's in-flight hardware
    /// transaction.
    pub fn doom_thread(&self, tid: ThreadId) {
        if let Some(t) = self.system.threads.get(tid) {
            t.doom();
        }
    }
}

impl TxEngine for HtmSim {
    type Tx<'eng> = HtmTx<'eng>;

    fn system(&self) -> &Arc<TmSystem> {
        &self.system
    }

    fn name(&self) -> &'static str {
        "htm"
    }

    fn begin(&self, common: TxCommon) -> HtmTx<'_> {
        HtmTx::begin(self, common)
    }

    fn try_commit(&self, tx: &mut HtmTx<'_>) -> Result<CommitOutcome, TxCtl> {
        tx.try_commit()
    }

    fn rollback(&self, tx: &mut HtmTx<'_>) {
        tx.rollback();
    }

    fn materialise_wait(&self, tx: &mut HtmTx<'_>, spec: WaitSpec) -> Result<WaitCondition, TxCtl> {
        tx.rollback_for_deschedule(spec)
    }

    fn initial_mode(&self) -> TxMode {
        TxMode::Hardware
    }

    fn attempt_is_hardware(&self, tx: &HtmTx<'_>) -> bool {
        tx.is_hardware()
    }

    fn mode_after_wake(&self) -> TxMode {
        // After waking, try hardware again from scratch.
        TxMode::Hardware
    }

    fn mode_for_software_switch(&self, _current: TxMode) -> TxMode {
        // No finer-grained software mode exists here: a transaction that
        // needs software facilities runs serially (holding the fallback
        // lock), exactly as descheduling transactions do on real TSX.
        TxMode::Serial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{Addr, HtmConfig, TmConfig, TmRt, TmVar, Tx, TxResult};

    fn runtime() -> (Arc<TmSystem>, Arc<HtmSim>) {
        let system = TmSystem::new(TmConfig::small());
        let rt = HtmSim::new(Arc::clone(&system));
        (system, rt)
    }

    #[test]
    fn simple_transaction_commits_in_hardware() {
        let (system, rt) = runtime();
        let th = system.register_thread();
        let v = TmVar::<u64>::alloc(&system, 5);
        let out = rt.atomically(&th, |tx| {
            let x = v.get(tx)?;
            v.set(tx, x + 1)?;
            Ok(x + 1)
        });
        assert_eq!(out, 6);
        assert_eq!(v.load_direct(&system), 6);
        let stats = th.stats.snapshot();
        assert_eq!(stats.hw_commits, 1);
        assert_eq!(stats.sw_commits, 0);
    }

    #[test]
    fn capacity_overflow_falls_back_to_serial() {
        let system = TmSystem::new(TmConfig::small().with_htm(HtmConfig {
            max_read_lines: 4,
            max_write_lines: 2,
            max_attempts: 2,
        }));
        let rt = HtmSim::new(Arc::clone(&system));
        let th = system.register_thread();
        let arr = tm_core::TmArray::<u64>::alloc(&system, 256, 0);
        rt.atomically(&th, |tx| {
            // Touch many distinct lines so the write capacity overflows.
            for i in 0..64 {
                arr.set(tx, i, i as u64)?;
            }
            Ok(())
        });
        for i in 0..64 {
            assert_eq!(arr.load_direct(&system, i), i as u64);
        }
        let stats = th.stats.snapshot();
        assert!(stats.hw_aborts >= 2, "should abort speculatively first");
        assert_eq!(stats.sw_commits, 1, "must finish in serial mode");
        assert!(stats.serial_acquires >= 1);
        assert!(!rt.fallback_held(), "serial lock must be released");
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let (system, rt) = runtime();
        let counter = TmVar::<u64>::alloc(&system, 0);
        let threads = 4;
        let per_thread = 300;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let rt = Arc::clone(&rt);
            let system = Arc::clone(&system);
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                let th = system.register_thread();
                for _ in 0..per_thread {
                    rt.atomically(&th, |tx| {
                        let x = counter.get(tx)?;
                        counter.set(tx, x + 1)
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load_direct(&system), threads * per_thread);
        assert!(!rt.fallback_held());
    }

    #[test]
    fn retry_switches_to_software_and_wakes() {
        let (system, rt) = runtime();
        let flag = TmVar::<u64>::alloc(&system, 0);
        let flag2 = flag.clone();
        let rt2 = Arc::clone(&rt);
        let system2 = Arc::clone(&system);
        let waiter = std::thread::spawn(move || {
            let th = system2.register_thread();
            rt2.atomically(&th, |tx| {
                let v = flag2.get(tx)?;
                if v == 0 {
                    return condsync::retry(tx);
                }
                Ok(v)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let th = system.register_thread();
        rt.atomically(&th, |tx| flag.set(tx, 3));
        assert_eq!(waiter.join().unwrap(), 3);
        assert!(!rt.fallback_held());
    }

    #[test]
    fn await_and_waitpred_work_on_htm() {
        let (system, rt) = runtime();
        let count = TmVar::<u64>::alloc(&system, 0);

        let c1 = count.clone();
        let rt1 = Arc::clone(&rt);
        let s1 = Arc::clone(&system);
        let awaiter = std::thread::spawn(move || {
            let th = s1.register_thread();
            rt1.atomically(&th, |tx| {
                let v = c1.get(tx)?;
                if v == 0 {
                    return condsync::await_one(tx, c1.addr());
                }
                Ok(v)
            })
        });

        fn nonzero(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
            Ok(tx.read(Addr(args[0] as usize))? != 0)
        }
        let c2 = count.clone();
        let rt2 = Arc::clone(&rt);
        let s2 = Arc::clone(&system);
        let predwaiter = std::thread::spawn(move || {
            let th = s2.register_thread();
            rt2.atomically(&th, |tx| {
                let v = c2.get(tx)?;
                if v == 0 {
                    return condsync::wait_pred(tx, nonzero, &[c2.addr().0 as u64]);
                }
                Ok(v)
            })
        });

        std::thread::sleep(std::time::Duration::from_millis(30));
        let th = system.register_thread();
        rt.atomically(&th, |tx| count.set(tx, 9));
        assert_eq!(awaiter.join().unwrap(), 9);
        assert_eq!(predwaiter.join().unwrap(), 9);
    }

    #[test]
    fn explicit_restart_works_on_htm() {
        let (system, rt) = runtime();
        let flag = TmVar::<u64>::alloc(&system, 0);
        let flag2 = flag.clone();
        let rt2 = Arc::clone(&rt);
        let system2 = Arc::clone(&system);
        let spinner = std::thread::spawn(move || {
            let th = system2.register_thread();
            rt2.atomically(&th, |tx| {
                let v = flag2.get(tx)?;
                if v == 0 {
                    return condsync::restart(tx);
                }
                Ok(v)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let th = system.register_thread();
        rt.atomically(&th, |tx| flag.set(tx, 1));
        assert_eq!(spinner.join().unwrap(), 1);
    }

    #[test]
    fn serial_lock_round_trip() {
        let (system, rt) = runtime();
        let th = system.register_thread();
        assert!(!rt.fallback_held());
        rt.acquire_serial(&th);
        assert!(rt.fallback_held());
        rt.release_serial();
        assert!(!rt.fallback_held());
    }
}
