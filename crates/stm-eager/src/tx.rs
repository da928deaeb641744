//! The eager STM's write policy (Algorithms 8–11 of the paper's
//! Appendix A): encounter-time locks and an undo log.  The rest of the
//! attempt is the shared [`tm_core::stm::StmTx`].

use tm_core::access::{IndexSet, WriteLog};
use tm_core::stats::TxStats;
use tm_core::stm::{Attempt, StmTx, WritePolicy};
use tm_core::{AbortReason, Addr, OrecValue, ThreadCtx, TxCtl, TxResult};

/// An in-flight eager-STM transaction attempt.
pub type EagerTx = StmTx<UndoPolicy>;

/// Writes in place behind encounter-time locks, logging old values for
/// rollback.
#[derive(Debug, Default)]
pub struct UndoPolicy {
    /// Old values of written locations (Algorithm 8, `undos`): one entry
    /// per address holding the pre-transaction value.
    undos: WriteLog,
    /// Ownership-record indices held by this attempt (Algorithm 8,
    /// `locks`).  It is also the write set's stripe cover, so the undo
    /// log's own cover is left degenerate (constant index).
    locks: IndexSet,
}

impl UndoPolicy {
    /// Acquires the ownership record covering `addr` for writing, or aborts
    /// if another attempt holds it or it is too new.
    fn acquire(&mut self, at: &Attempt, addr: Addr) -> TxResult<()> {
        let orecs = &at.system().orecs;
        let idx = orecs.index_for(addr);
        let cur = orecs.load(idx);
        if cur.is_locked_by(at.me()) {
            return Ok(());
        }
        if !cur.is_locked() {
            if cur.version() <= at.start() {
                if orecs.cas(idx, cur, OrecValue::locked(cur.version(), at.me())) {
                    self.locks.insert(idx);
                    return Ok(());
                }
            } else {
                at.note_stale(cur.version());
            }
        }
        Err(TxCtl::Abort(AbortReason::WriteConflict))
    }
}

impl WritePolicy for UndoPolicy {
    type Setup = ();

    fn begin(thread: &ThreadCtx, _setup: (), pooled: bool) -> Self {
        if !pooled {
            return UndoPolicy::default();
        }
        UndoPolicy {
            undos: thread.take_write_log(),
            locks: thread.take_index_set(),
        }
    }

    #[inline]
    fn is_read_only(&self) -> bool {
        self.locks.is_empty()
    }

    #[inline]
    fn undo_value(&self, addr: Addr) -> Option<u64> {
        self.undos.lookup(addr)
    }

    fn lock_for_write(&mut self, at: &Attempt, addr: Addr) -> TxResult<bool> {
        at.require_update()?;
        self.acquire(at, addr)?;
        Ok(true)
    }

    fn write(&mut self, at: &Attempt, addr: Addr, val: u64) -> TxResult<()> {
        // Algorithm 10, TxWrite: acquire the orec, log the old value (first
        // write per address only), update in place.
        self.acquire(at, addr)?;
        let heap = &at.system().heap;
        self.undos.record_first(addr, heap.load(addr), || 0);
        heap.store(addr, val);
        Ok(())
    }

    fn commit(&mut self, at: &Attempt) -> Result<(Vec<usize>, u64), TxCtl> {
        // Stamped after the lock phase: every orec this commit will touch is
        // already held, which is what makes a non-unique (lazy) stamp sound.
        let stamp = at.system().clock.commit_stamp(at.stats());
        if !at.reads_valid(stamp, false) {
            return Err(TxCtl::Abort(AbortReason::CommitValidation));
        }
        // The transaction is committed: release locks at the new version.
        let written = self.locks.take_entries();
        for &idx in &written {
            at.system().orecs.store(idx, OrecValue::unlocked(stamp.ts));
        }
        Ok((written, stamp.ts))
    }

    fn rollback(&mut self, at: &Attempt) {
        // Algorithm 11: undo writes in reverse order, release locks at
        // `version + 1`.
        self.restore_memory(at);
        let orecs = &at.system().orecs;
        for idx in self.locks.iter() {
            let cur = orecs.load(idx);
            orecs.store(idx, OrecValue::unlocked(cur.version() + 1));
        }
        if !self.locks.is_empty() {
            // Keep the bumped lock versions legal with respect to the clock
            // (Algorithm 11, line 5): a blind tick under GV1; in lazy mode
            // the inflated versions are covered by `note_stale` on the
            // reader side instead, so the shared line stays untouched.
            at.system().clock.rollback_bump(at.stats());
        }
    }

    fn restore_memory(&mut self, at: &Attempt) {
        // Record the write-set high-water mark before the log is drained.
        TxStats::record_max(&at.stats().write_set_max, self.undos.len() as u64);
        for e in self.undos.iter().rev() {
            at.system().heap.store(e.addr, e.val);
        }
        self.undos.clear();
    }

    fn clear(&mut self, stats: &TxStats) {
        TxStats::record_max(&stats.write_set_max, self.undos.len() as u64);
        self.undos.clear();
        self.locks.clear();
    }

    fn recycle(&mut self, thread: &ThreadCtx) {
        thread.put_write_log(std::mem::take(&mut self.undos));
        thread.put_index_set(std::mem::take(&mut self.locks));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_core::{TmConfig, TmSystem, Tx, TxCommon, TxKind, TxMode, WaitCondition, WaitSpec};

    fn setup() -> (Arc<TmSystem>, EagerTx) {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        let tx = EagerTx::begin(&system, TxCommon::new(th, TxMode::Software, 0));
        (system, tx)
    }

    #[test]
    fn read_your_own_write() {
        let (_system, mut tx) = setup();
        tx.write(Addr(5), 42).unwrap();
        assert_eq!(tx.read(Addr(5)).unwrap(), 42);
    }

    #[test]
    fn writes_are_in_place_and_undone_on_rollback() {
        let (system, tx) = setup();
        system.heap.store(Addr(5), 7);
        // Re-begin so the store above predates the transaction.
        let th = system.register_thread();
        let mut tx2 = EagerTx::begin(&system, TxCommon::new(th, TxMode::Software, 0));
        tx2.write(Addr(5), 100).unwrap();
        assert_eq!(system.heap.load(Addr(5)), 100, "eager STM updates in place");
        tx2.rollback();
        assert_eq!(
            system.heap.load(Addr(5)),
            7,
            "rollback restores the old value"
        );
        drop(tx);
    }

    #[test]
    fn commit_releases_locks_at_new_version() {
        let (system, mut tx) = setup();
        tx.write(Addr(9), 3).unwrap();
        let idx = system.orecs.index_for(Addr(9));
        assert!(system.orecs.load(idx).is_locked());
        let info = tx.try_commit().unwrap();
        assert!(info.was_writer);
        assert!(info.commit_time > 0);
        let o = system.orecs.load(idx);
        assert!(!o.is_locked());
        assert_eq!(o.version(), info.commit_time);
        assert_eq!(system.heap.load(Addr(9)), 3);
    }

    #[test]
    fn read_only_commit_is_trivial() {
        let (system, _tx) = setup();
        system.heap.store(Addr(3), 11);
        let th = system.register_thread();
        let mut tx = EagerTx::begin(&system, TxCommon::new(th, TxMode::Software, 0));
        assert_eq!(tx.read(Addr(3)).unwrap(), 11);
        let info = tx.try_commit().unwrap();
        assert!(!info.was_writer);
        assert_eq!(info.commit_time, 0);
    }

    #[test]
    fn conflicting_write_lock_aborts_second_writer() {
        let system = TmSystem::new(TmConfig::small());
        let t1 = system.register_thread();
        let t2 = system.register_thread();
        let mut tx1 = EagerTx::begin(&system, TxCommon::new(t1, TxMode::Software, 0));
        let mut tx2 = EagerTx::begin(&system, TxCommon::new(t2, TxMode::Software, 0));
        tx1.write(Addr(4), 1).unwrap();
        assert!(matches!(
            tx2.write(Addr(4), 2),
            Err(TxCtl::Abort(AbortReason::WriteConflict))
        ));
        tx1.rollback();
        tx2.rollback();
    }

    #[test]
    fn read_of_locked_location_aborts() {
        let system = TmSystem::new(TmConfig::small());
        let t1 = system.register_thread();
        let t2 = system.register_thread();
        let mut tx1 = EagerTx::begin(&system, TxCommon::new(t1, TxMode::Software, 0));
        tx1.write(Addr(8), 5).unwrap();
        let mut tx2 = EagerTx::begin(&system, TxCommon::new(t2, TxMode::Software, 0));
        assert!(tx2.read(Addr(8)).is_err());
        tx1.rollback();
        tx2.rollback();
    }

    #[test]
    fn stale_read_detected_at_commit() {
        // Two handles are driven from one OS thread, so the committer must
        // not quiesce waiting for the other handle (it could never finish).
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let t1 = system.register_thread();
        let t2 = system.register_thread();
        // tx1 reads addr 6, then tx2 commits a write to it, then tx1 writes
        // something else and tries to commit: validation must fail.
        let mut tx1 = EagerTx::begin(&system, TxCommon::new(t1, TxMode::Software, 0));
        assert_eq!(tx1.read(Addr(6)).unwrap(), 0);
        let mut tx2 = EagerTx::begin(&system, TxCommon::new(t2, TxMode::Software, 0));
        tx2.write(Addr(6), 9).unwrap();
        tx2.try_commit().unwrap();
        tx1.write(Addr(7), 1).unwrap();
        assert!(matches!(
            tx1.try_commit(),
            Err(TxCtl::Abort(AbortReason::CommitValidation))
        ));
        tx1.rollback();
        assert_eq!(system.heap.load(Addr(7)), 0);
        assert_eq!(system.heap.load(Addr(6)), 9);
    }

    #[test]
    fn read_after_foreign_commit_aborts_immediately() {
        // See stale_read_detected_at_commit: single-threaded test, two
        // handles, so quiescence must be off.
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let t1 = system.register_thread();
        let t2 = system.register_thread();
        let mut tx1 = EagerTx::begin(&system, TxCommon::new(t1, TxMode::Software, 0));
        let _ = tx1.read(Addr(2)).unwrap();
        // Another transaction commits a write to a different orec: tx1 can
        // still read locations whose version predates its start.
        let mut tx2 = EagerTx::begin(&system, TxCommon::new(t2, TxMode::Software, 0));
        tx2.write(Addr(100), 1).unwrap();
        tx2.try_commit().unwrap();
        // Reading the *updated* location must abort tx1 (version too new).
        assert!(tx1.read(Addr(100)).is_err());
        tx1.rollback();
    }

    #[test]
    fn retry_mode_logs_pre_transaction_values() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(12), 50);
        let th = system.register_thread();
        let mut tx = EagerTx::begin(&system, TxCommon::new(th, TxMode::SoftwareRetry, 1));
        assert_eq!(tx.read(Addr(12)).unwrap(), 50);
        tx.write(Addr(12), 99).unwrap();
        // A read-after-write must log the value from *before* the write,
        // because the write is undone when the transaction deschedules.
        assert_eq!(tx.read(Addr(12)).unwrap(), 99);
        assert_eq!(tx.common().waitset.pairs(), vec![(Addr(12), 50)]);
        tx.rollback();
    }

    #[test]
    fn reexecuted_attempts_reuse_pooled_logs() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        let mut tx = EagerTx::begin(&system, TxCommon::new(Arc::clone(&th), TxMode::Software, 0));
        let _ = tx.read(Addr(1)).unwrap();
        tx.write(Addr(2), 2).unwrap();
        tx.rollback();
        drop(tx);
        let before = th.stats.snapshot().log_pool_reuses;
        let mut tx = EagerTx::begin(&system, TxCommon::new(Arc::clone(&th), TxMode::Software, 1));
        assert!(
            th.stats.snapshot().log_pool_reuses >= before + 2,
            "the second attempt must recycle the first attempt's containers"
        );
        tx.rollback();
    }

    #[test]
    fn deschedule_rollback_captures_await_values() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(20), 5);
        let th = system.register_thread();
        let mut tx = EagerTx::begin(&system, TxCommon::new(Arc::clone(&th), TxMode::Software, 0));
        assert_eq!(tx.read(Addr(20)).unwrap(), 5);
        tx.write(Addr(20), 6).unwrap();
        let cond = tx
            .rollback_for_deschedule(WaitSpec::Addrs(vec![Addr(20)]))
            .unwrap();
        match cond {
            WaitCondition::ValuesChanged(pairs) => {
                assert_eq!(
                    pairs,
                    vec![(Addr(20), 5)],
                    "must capture the pre-transaction value"
                );
            }
            other => panic!("unexpected condition: {other:?}"),
        }
        assert_eq!(system.heap.load(Addr(20)), 5, "write must be undone");
        let idx = system.orecs.index_for(Addr(20));
        assert!(
            !system.orecs.load(idx).is_locked(),
            "locks must be released"
        );
        assert_eq!(
            th.stats.snapshot().write_set_max,
            1,
            "the Await deschedule path must record the write-set high-water \
             mark before draining the undo log"
        );
    }

    #[test]
    fn transactional_alloc_is_undone_on_rollback() {
        let (system, mut tx) = setup();
        let before = system.heap.allocated_words();
        let a = tx.alloc(8).unwrap();
        assert!(!a.is_null());
        assert_eq!(system.heap.allocated_words(), before + 8);
        tx.rollback();
        assert_eq!(system.heap.allocated_words(), before);
    }

    #[test]
    fn transactional_free_is_deferred_to_commit() {
        let (system, mut tx) = setup();
        let a = system.heap.alloc(4).unwrap();
        let before = system.heap.allocated_words();
        tx.free(a, 4).unwrap();
        assert_eq!(
            system.heap.allocated_words(),
            before,
            "free deferred until commit"
        );
        tx.try_commit().unwrap();
        assert_eq!(system.heap.allocated_words(), before - 4);
    }

    #[test]
    fn read_orec_indices_deduplicate() {
        let (_system, mut tx) = setup();
        let _ = tx.read(Addr(30)).unwrap();
        let _ = tx.read(Addr(30)).unwrap();
        let _ = tx.read(Addr(31)).unwrap();
        let idx = tx.read_orec_indices();
        assert!(idx.len() <= 2);
        tx.rollback();
    }

    #[test]
    fn rollback_is_idempotent() {
        let (system, mut tx) = setup();
        tx.write(Addr(40), 1).unwrap();
        tx.rollback();
        tx.rollback();
        assert_eq!(system.heap.load(Addr(40)), 0);
    }

    #[test]
    fn snapshot_read_for_write_aborts_with_read_only_write() {
        // Read-for-write takes an encounter-time lock, which a snapshot
        // attempt may not do: it upgrades like a write.
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        let mut tx = EagerTx::begin(
            &system,
            TxCommon::new(th, TxMode::Software, 0).with_kind(TxKind::ReadOnly),
        );
        assert!(matches!(
            tx.read_for_write(Addr(1)),
            Err(TxCtl::Abort(AbortReason::ReadOnlyWrite))
        ));
        tx.rollback();
    }
}
