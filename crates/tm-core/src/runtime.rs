//! Runtime traits: how workloads execute transactions.
//!
//! [`TmRuntime`] is object-safe and is what the condition-synchronization
//! layer uses (it must start read-only transactions for the `Deschedule`
//! double-check and for `wakeWaiters` without knowing which runtime it is
//! running on).  [`TmRt`] adds the ergonomic generic `atomically` entry
//! point used by data structures and workloads.
//!
//! Both are implemented once, here, for every [`TxEngine`]: each entry
//! point runs the shared driver loop ([`driver::run`]).

use std::sync::Arc;

use crate::ctl::TxResult;
use crate::driver::{self, TxEngine};
use crate::system::TmSystem;
use crate::thread::ThreadCtx;
use crate::tx::{Tx, TxKind};

/// Object-safe view of a transaction runtime.
pub trait TmRuntime: Send + Sync {
    /// The system this runtime executes against.
    fn system(&self) -> &Arc<TmSystem>;

    /// Short name used in benchmark output (`"eager-stm"`, `"lazy-stm"`,
    /// `"htm"`, `"hybrid"`).
    fn name(&self) -> &'static str;

    /// Runs a transaction body to completion, re-executing it as needed, and
    /// returns the body's value encoded as a `u64`.
    fn exec_u64(
        &self,
        thread: &Arc<ThreadCtx>,
        body: &mut dyn FnMut(&mut dyn Tx) -> TxResult<u64>,
    ) -> u64;

    /// Runs a read-only transaction returning a boolean.
    ///
    /// Used by `Deschedule`'s post-rollback double-check and by
    /// `wakeWaiters`; on the HTM runtime this should be attempted in
    /// hardware, falling back as necessary.
    fn exec_bool(
        &self,
        thread: &Arc<ThreadCtx>,
        body: &mut dyn FnMut(&mut dyn Tx) -> TxResult<bool>,
    ) -> bool {
        self.exec_u64(thread, &mut |tx| body(tx).map(u64::from)) != 0
    }
}

/// Ergonomic, generic transaction execution.
///
/// Not object-safe; workloads that need to be generic over the runtime take
/// `R: TmRt` as a type parameter, while the condition-synchronization layer
/// sticks to `&dyn TmRuntime`.
pub trait TmRt: TmRuntime {
    /// Runs `body` as a transaction, re-executing it until it commits, and
    /// returns its result.
    ///
    /// The body may be re-executed any number of times (conflict aborts,
    /// mode switches, wake-ups after a deschedule), so it must be free of
    /// non-transactional side effects.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tm_core::{TmConfig, TmRt, TmSystem, TmVar};
    ///
    /// let system = TmSystem::new(TmConfig::small());
    /// let rt = stm_eager::EagerStm::new(Arc::clone(&system));
    /// let th = system.register_thread();
    /// let v = TmVar::<u64>::alloc(&system, 20);
    ///
    /// let doubled = rt.atomically(&th, |tx| {
    ///     let x = v.get(tx)?;
    ///     v.set(tx, x * 2)?;
    ///     Ok(x * 2)
    /// });
    /// assert_eq!(doubled, 40);
    /// assert_eq!(v.load_direct(&system), 40);
    /// ```
    fn atomically<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        F: FnMut(&mut dyn Tx) -> TxResult<T>;

    /// Runs `body` as a *declared read-only* transaction.
    ///
    /// Software attempts take the snapshot read path (see
    /// [`crate::config::SnapshotMode`]): every read validates against the
    /// begin snapshot, no read set is kept, and the commit is free — no
    /// validation, no clock traffic.  If the body writes or allocates after
    /// all, the driver upgrades the transaction to a full update transaction
    /// and re-executes it, so declaring read-only is always safe — merely
    /// fastest when true.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tm_core::{TmConfig, TmRt, TmSystem, TmVar};
    ///
    /// let system = TmSystem::new(TmConfig::small());
    /// let rt = stm_eager::EagerStm::new(Arc::clone(&system));
    /// let th = system.register_thread();
    /// let a = TmVar::<u64>::alloc(&system, 3);
    /// let b = TmVar::<u64>::alloc(&system, 4);
    ///
    /// // A consistent two-word scan with no read set and a free commit.
    /// let sum = rt.atomically_read(&th, |tx| Ok(a.get(tx)? + b.get(tx)?));
    /// assert_eq!(sum, 7);
    /// assert!(th.stats.snapshot().ro_fast_commits >= 1);
    /// ```
    fn atomically_read<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        F: FnMut(&mut dyn Tx) -> TxResult<T>;
}

impl<E: TxEngine> TmRuntime for E {
    fn system(&self) -> &Arc<TmSystem> {
        TxEngine::system(self)
    }

    fn name(&self) -> &'static str {
        TxEngine::name(self)
    }

    fn exec_u64(
        &self,
        thread: &Arc<ThreadCtx>,
        body: &mut dyn FnMut(&mut dyn Tx) -> TxResult<u64>,
    ) -> u64 {
        driver::run(self, thread, body)
    }

    fn exec_bool(
        &self,
        thread: &Arc<ThreadCtx>,
        body: &mut dyn FnMut(&mut dyn Tx) -> TxResult<bool>,
    ) -> bool {
        driver::run(self, thread, body)
    }
}

impl<E: TxEngine> TmRt for E {
    fn atomically<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        F: FnMut(&mut dyn Tx) -> TxResult<T>,
    {
        driver::run(self, thread, body)
    }

    fn atomically_read<T, F>(&self, thread: &Arc<ThreadCtx>, body: F) -> T
    where
        F: FnMut(&mut dyn Tx) -> TxResult<T>,
    {
        driver::run_kind(self, thread, TxKind::ReadOnly, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TmConfig;

    /// A trivially sequential runtime used to exercise the default method.
    struct DirectRuntime {
        system: Arc<TmSystem>,
    }

    struct DirectTx {
        common: crate::tx::TxCommon,
        system: Arc<TmSystem>,
    }

    impl Tx for DirectTx {
        fn read(&mut self, addr: crate::addr::Addr) -> TxResult<u64> {
            Ok(self.system.heap.load(addr))
        }
        fn write(&mut self, addr: crate::addr::Addr, val: u64) -> TxResult<()> {
            self.system.heap.store(addr, val);
            Ok(())
        }
        fn alloc(&mut self, words: usize) -> TxResult<crate::addr::Addr> {
            self.system
                .heap
                .alloc(words)
                .ok_or(crate::ctl::TxCtl::Abort(
                    crate::ctl::AbortReason::OutOfMemory,
                ))
        }
        fn free(&mut self, addr: crate::addr::Addr, words: usize) -> TxResult<()> {
            self.system.heap.dealloc(addr, words);
            Ok(())
        }
        fn commit_and_reopen(&mut self, block: &mut dyn FnMut()) -> TxResult<()> {
            block();
            Ok(())
        }
        fn explicit_abort(&mut self, code: u8) -> crate::ctl::TxCtl {
            crate::ctl::TxCtl::Abort(crate::ctl::AbortReason::Explicit(code))
        }
        fn common(&self) -> &crate::tx::TxCommon {
            &self.common
        }
        fn common_mut(&mut self) -> &mut crate::tx::TxCommon {
            &mut self.common
        }
        fn system(&self) -> &Arc<TmSystem> {
            &self.system
        }
    }

    impl TmRuntime for DirectRuntime {
        fn system(&self) -> &Arc<TmSystem> {
            &self.system
        }
        fn name(&self) -> &'static str {
            "direct"
        }
        fn exec_u64(
            &self,
            thread: &Arc<ThreadCtx>,
            body: &mut dyn FnMut(&mut dyn Tx) -> TxResult<u64>,
        ) -> u64 {
            let mut tx = DirectTx {
                common: crate::tx::TxCommon::new(Arc::clone(thread), crate::tx::TxMode::Serial, 0),
                system: Arc::clone(&self.system),
            };
            body(&mut tx).expect("direct runtime cannot abort")
        }
    }

    #[test]
    fn exec_bool_default_goes_through_exec_u64() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        let rt = DirectRuntime { system };
        assert!(rt.exec_bool(&th, &mut |_tx| Ok(true)));
        assert!(!rt.exec_bool(&th, &mut |_tx| Ok(false)));
    }

    #[test]
    fn direct_runtime_reads_and_writes_heap() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        let rt = DirectRuntime {
            system: Arc::clone(&system),
        };
        let v = rt.exec_u64(&th, &mut |tx| {
            tx.write(crate::addr::Addr(7), 99)?;
            tx.read(crate::addr::Addr(7))
        });
        assert_eq!(v, 99);
        assert_eq!(system.heap.load(crate::addr::Addr(7)), 99);
    }
}
