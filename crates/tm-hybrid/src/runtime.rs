//! The hybrid engine: dispatches each attempt to the hardware or software
//! path and wires the two couplings described in the crate docs.

use std::sync::Arc;

use htm_sim::{HtmSim, HtmTx};
use stm_lazy::{CommitInterlock, LazyTx};
use tm_core::driver::{CommitOutcome, TxEngine};
use tm_core::{
    Addr, ThreadId, TmSystem, Tx, TxCommon, TxCtl, TxMode, TxResult, WaitCondition, WaitSpec,
};

/// The software-commit interlock this runtime installs into its lazy path:
/// write-backs take the simulator's commit barrier and claim/doom the
/// written lines first, so software and hardware commits serialise and no
/// speculative reader survives a software write-back it overlapped.
#[derive(Debug)]
struct HwInterlock {
    htm: Arc<HtmSim>,
    /// Scratch slot list reused across commits (only ever touched while the
    /// commit barrier is held, so the lock is uncontended; it exists purely
    /// to keep the software commit path allocation-free).
    slots: tm_core::lock::Mutex<Vec<usize>>,
}

impl CommitInterlock for HwInterlock {
    fn commit_section(
        &self,
        writer: ThreadId,
        write_entries: &[tm_core::access::WriteEntry],
        validate: &mut dyn FnMut() -> bool,
        writeback: &mut dyn FnMut(),
    ) -> bool {
        // Mutual exclusion with every hardware commit's doom-check +
        // write-back (and with serial-gate acquisition's drain).
        let _barrier = self.htm.commit_barrier();
        // Validate first: it only reads orecs, and the barrier already
        // excludes hardware commits, so a failed validation aborts this
        // commit without dooming a single speculative transaction.
        if !validate() {
            return false;
        }
        let plane = self.htm.plane();
        let mut slots = self.slots.lock();
        slots.clear();
        slots.extend(write_entries.iter().map(|e| plane.slot_for(e.addr.line())));
        slots.sort_unstable();
        slots.dedup();
        // Claim the written lines: the backend dooms every speculative
        // occupant, and any speculative access arriving during the
        // write-back observes a foreign writer and aborts.  This must
        // precede the write-back so no hardware transaction can read a torn
        // mix of old and new words (a reader registering between the claim
        // sweep and its line's store is still caught: it observes the
        // foreign writer and aborts).
        for &slot in slots.iter() {
            plane.claim_for_writeback(slot, writer);
        }
        writeback();
        for &slot in slots.iter() {
            plane.release_writeback(slot, writer);
        }
        true
    }
}

/// The hybrid HTM+STM runtime.
///
/// Attempts begin as (simulated) hardware transactions on an orec-coupled
/// [`HtmSim`]; software attempts are lazy-STM transactions
/// ([`stm_lazy::LazyTx`]) with the write-back interlock installed; serial
/// attempts go through the simulator's serial flavour (which drains the
/// commit barrier on top of the system gate).  All three share one
/// [`TmSystem`].
pub struct HybridTm {
    system: Arc<TmSystem>,
    htm: Arc<HtmSim>,
    interlock: Arc<HwInterlock>,
}

impl std::fmt::Debug for HybridTm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridTm")
            .field("serial_held", &self.system.serial.held())
            .finish_non_exhaustive()
    }
}

impl HybridTm {
    /// Creates a hybrid runtime over `system`.
    pub fn new(system: Arc<TmSystem>) -> Arc<Self> {
        let htm = HtmSim::new_coupled(Arc::clone(&system));
        let interlock = Arc::new(HwInterlock {
            htm: Arc::clone(&htm),
            slots: tm_core::lock::Mutex::new(Vec::new()),
        });
        Arc::new(HybridTm {
            system,
            htm,
            interlock,
        })
    }

    /// The hardware fast path's simulator (exposed for tests).
    pub fn htm(&self) -> &Arc<HtmSim> {
        &self.htm
    }
}

/// One in-flight hybrid attempt: either a speculative/serial attempt on the
/// simulator or an instrumented lazy-STM attempt.
//
// The variants differ in size, but the attempt lives on the driver loop's
// stack and is rebuilt on every re-execution — boxing the software variant
// would put a heap allocation on exactly the path the per-thread `LogPool`
// keeps allocation-free.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum HybridTx<'rt> {
    /// Hardware (speculative) or serial attempt.
    Hw(HtmTx<'rt>),
    /// Instrumented software attempt (plain or value-logging).
    Sw(LazyTx),
}

macro_rules! delegate {
    ($self:ident, $tx:ident => $body:expr) => {
        match $self {
            HybridTx::Hw($tx) => $body,
            HybridTx::Sw($tx) => $body,
        }
    };
}

impl Tx for HybridTx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        delegate!(self, tx => tx.read(addr))
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        delegate!(self, tx => tx.write(addr, val))
    }

    fn read_for_write(&mut self, addr: Addr) -> TxResult<u64> {
        delegate!(self, tx => tx.read_for_write(addr))
    }

    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        delegate!(self, tx => tx.alloc(words))
    }

    fn free(&mut self, addr: Addr, words: usize) -> TxResult<()> {
        delegate!(self, tx => tx.free(addr, words))
    }

    fn commit_and_reopen(&mut self, block: &mut dyn FnMut()) -> TxResult<()> {
        delegate!(self, tx => tx.commit_and_reopen(block))
    }

    fn explicit_abort(&mut self, code: u8) -> TxCtl {
        delegate!(self, tx => tx.explicit_abort(code))
    }

    fn common(&self) -> &TxCommon {
        delegate!(self, tx => tx.common())
    }

    fn common_mut(&mut self) -> &mut TxCommon {
        delegate!(self, tx => tx.common_mut())
    }

    fn system(&self) -> &Arc<TmSystem> {
        delegate!(self, tx => tx.system())
    }
}

impl TxEngine for HybridTm {
    type Tx<'eng> = HybridTx<'eng>;

    fn system(&self) -> &Arc<TmSystem> {
        &self.system
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn begin(&self, common: TxCommon) -> HybridTx<'_> {
        match common.mode {
            // Hardware runs speculatively; Serial runs the simulator's
            // serial flavour (system gate + commit-barrier drain).
            TxMode::Hardware | TxMode::Serial => HybridTx::Hw(HtmTx::begin(&self.htm, common)),
            // The software rungs are real STM attempts with the write-back
            // interlock installed.
            TxMode::Software | TxMode::SoftwareRetry => HybridTx::Sw(LazyTx::begin_with(
                &self.system,
                common,
                Some(Arc::clone(&self.interlock) as Arc<dyn CommitInterlock>),
            )),
        }
    }

    fn try_commit(&self, tx: &mut HybridTx<'_>) -> Result<CommitOutcome, TxCtl> {
        delegate!(tx, tx => tx.try_commit())
    }

    fn rollback(&self, tx: &mut HybridTx<'_>) {
        delegate!(tx, tx => tx.rollback());
    }

    fn materialise_wait(
        &self,
        tx: &mut HybridTx<'_>,
        spec: WaitSpec,
    ) -> Result<WaitCondition, TxCtl> {
        delegate!(tx, tx => tx.rollback_for_deschedule(spec))
    }

    fn initial_mode(&self) -> TxMode {
        TxMode::Hardware
    }

    fn attempt_is_hardware(&self, tx: &HybridTx<'_>) -> bool {
        match tx {
            HybridTx::Hw(tx) => tx.is_hardware(),
            HybridTx::Sw(_) => false,
        }
    }

    fn read_cover(&self, tx: &mut HybridTx<'_>) -> Option<(Vec<usize>, u64)> {
        // Only the software path has lock metadata, so `Retry-Orig` is
        // supported here, unlike on the pure HTM configuration: hardware
        // attempts relog in software first, exactly like value-based Retry.
        match tx {
            HybridTx::Hw(_) => None,
            HybridTx::Sw(tx) => tx.read_cover(),
        }
    }

    fn mode_after_wake(&self) -> TxMode {
        // A transaction that descheduled has already fallen off the hardware
        // path (its value log was built by a software attempt), and the
        // wake-up means it is racing the very writers that put it to sleep:
        // finish it on the instrumented software path rather than feed it
        // back into speculation mid-contention.  The *next* transaction
        // starts in hardware again ([`TxEngine::initial_mode`]).
        TxMode::Software
    }

    fn mode_for_software_switch(&self, current: TxMode) -> TxMode {
        // The whole point of the hybrid: hardware attempts that need
        // software facilities drop to the instrumented STM path, not to the
        // global serial lock.
        match current {
            TxMode::Hardware => TxMode::Software,
            other => other,
        }
    }

    fn escalated_mode(&self, current: TxMode) -> TxMode {
        // The mode ladder: Hw → Sw → Serial.
        match current {
            TxMode::Hardware => TxMode::Software,
            _ => TxMode::Serial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{HtmConfig, TmConfig, TmRt, TmVar};

    fn runtime() -> (Arc<TmSystem>, Arc<HybridTm>) {
        let system = TmSystem::new(TmConfig::small());
        let rt = HybridTm::new(Arc::clone(&system));
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
    fn capacity_overflow_degrades_to_software_not_serial() {
        let system = TmSystem::new(TmConfig::small().with_htm(HtmConfig {
            max_read_lines: 4,
            max_write_lines: 2,
            max_attempts: 2,
        }));
        let rt = HybridTm::new(Arc::clone(&system));
        let th = system.register_thread();
        let arr = tm_core::TmArray::<u64>::alloc(&system, 256, 0);
        rt.atomically(&th, |tx| {
            for i in 0..64 {
                arr.set(tx, i, i as u64)?;
            }
            Ok(())
        });
        for i in 0..64 {
            assert_eq!(arr.load_direct(&system, i), i as u64);
        }
        let stats = th.stats.snapshot();
        assert!(stats.hw_aborts >= 2, "speculation must fail first");
        assert_eq!(stats.sw_commits, 1, "must finish on the software path");
        assert_eq!(stats.serial_commits, 0, "the serial rung was not needed");
        assert_eq!(stats.serial_acquires, 0);
        assert!(stats.cm_escalations >= 1);
        assert!(!system.serial.held());
    }

    #[test]
    fn hardware_commit_publishes_to_the_orecs() {
        let (system, rt) = runtime();
        let th = system.register_thread();
        let v = TmVar::<u64>::alloc(&system, 0);
        let before = system.orecs.load_for(v.addr()).version();
        rt.atomically(&th, |tx| v.set(tx, 1));
        assert_eq!(th.stats.snapshot().hw_commits, 1);
        let after = system.orecs.load_for(v.addr()).version();
        assert!(
            after > before,
            "a coupled hardware commit must bump the written stripes \
             ({before} -> {after}) so software validation can see it"
        );
    }

    #[test]
    fn retry_deschedules_via_the_software_path_and_wakes() {
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
        while system.waiters.is_empty() {
            std::thread::yield_now();
        }
        let th = system.register_thread();
        rt.atomically(&th, |tx| flag.set(tx, 3));
        assert_eq!(waiter.join().unwrap(), 3);
        assert!(
            !system.serial.held(),
            "descheduling must not fall back to the serial gate"
        );
        assert_eq!(
            system.stats().serial_acquires,
            0,
            "the whole retry round-trip stays off the serial rung"
        );
    }

    #[test]
    fn retry_orig_is_supported_on_the_hybrid() {
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
                    return condsync::retry_orig(tx);
                }
                Ok(v)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let th = system.register_thread();
        rt.atomically(&th, |tx| flag.set(tx, 9));
        assert_eq!(waiter.join().unwrap(), 9);
        assert_eq!(rt.system().orig.len(), 0);
    }

    #[test]
    fn concurrent_mixed_increments_are_not_lost() {
        let (system, rt) = runtime();
        let counter = TmVar::<u64>::alloc(&system, 0);
        let threads = 4;
        let per_thread = 300;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let rt = Arc::clone(&rt);
            let system = Arc::clone(&system);
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                let th = system.register_thread();
                for i in 0..per_thread {
                    // Half of the transactions are forced onto the software
                    // path, so hardware and software commits genuinely
                    // interleave on the same location.
                    let force_sw = (tid + i) % 2 == 0;
                    rt.atomically(&th, |tx| {
                        if force_sw && tx.mode() == TxMode::Hardware {
                            return Err(TxCtl::SwitchToSoftware);
                        }
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
        let stats = system.stats();
        assert!(stats.hw_commits > 0, "the fast path must be used");
        assert!(stats.sw_commits > 0, "the software path must be used");
        assert!(!system.serial.held());
    }

    #[test]
    fn become_serial_runs_on_the_last_rung() {
        let (system, rt) = runtime();
        let th = system.register_thread();
        let v = TmVar::<u64>::alloc(&system, 1);
        let got = rt.atomically(&th, |tx| {
            if tx.mode() != TxMode::Serial {
                return Err(TxCtl::BecomeSerial);
            }
            let x = v.get(tx)?;
            v.set(tx, x * 10)?;
            Ok(x * 10)
        });
        assert_eq!(got, 10);
        let stats = th.stats.snapshot();
        assert_eq!(stats.serial_commits, 1);
        assert!(stats.serial_acquires >= 1);
        assert!(stats.mode_switches >= 1);
        assert!(!system.serial.held());
    }

    #[test]
    fn software_commit_dooms_overlapping_hardware_readers() {
        // Deterministic check of the interlock at the directory level: a
        // software commit's write-back claims the written line and dooms
        // registered speculative readers.
        let (system, rt) = runtime();
        let th = system.register_thread();
        let victim = system.register_thread();
        let addr = Addr(64);
        let slot = rt.htm().lines().slot_for(addr.line());
        assert_eq!(rt.htm().lines().register_reader(slot, victim.id), None);

        let v = TmVar::<u64>::from_addr(addr);
        rt.atomically(&th, |tx| {
            if tx.mode() == TxMode::Hardware {
                return Err(TxCtl::SwitchToSoftware);
            }
            v.set(tx, 7)
        });
        assert!(
            victim.is_doomed(),
            "the software write-back must doom the speculative reader"
        );
        rt.htm().lines().clear_reader(slot, victim.id);
    }
}
