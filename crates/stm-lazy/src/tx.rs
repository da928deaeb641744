//! The lazy (TL2-style) STM's write policy: a redo log, locked, validated
//! and written back at commit, plus the commit interlock the hybrid runtime
//! installs.  The rest of the attempt is the shared
//! [`tm_core::stm::StmTx`].

use std::sync::Arc;

use tm_core::access::{WriteEntry, WriteLog};
use tm_core::stats::TxStats;
use tm_core::stm::{Attempt, StmTx, WritePolicy};
use tm_core::{AbortReason, Addr, OrecValue, ThreadCtx, ThreadId, TxCtl, TxResult};

/// Hook a hybrid runtime installs around the redo-log write-back so that
/// software commits and (simulated) hardware commits exclude each other.
///
/// [`CommitInterlock::commit_section`] must (1) take whatever barrier also
/// serialises hardware commits, (2) run `validate` (the read-set check —
/// before any hardware state is disturbed, so a doomed validation costs
/// nobody else anything), and if it passes (3) claim/doom the hardware
/// state covering `write_entries` so no speculative reader can observe a
/// partial write-back, (4) run `writeback` (the write-back and lock
/// release), and (5) release its claims.  The plain lazy runtime installs
/// no interlock and runs the two phases back to back.
pub trait CommitInterlock: Send + Sync + std::fmt::Debug {
    /// Runs a commit's validate and write-back + unlock phases under mutual
    /// exclusion with hardware commits.  `writer` is the committing thread,
    /// `write_entries` the redo-log entries about to be written back
    /// (borrowed straight from the log — the commit path allocates
    /// nothing); returns `validate`'s verdict (false = validation failed,
    /// nothing written, no hardware transaction disturbed).
    fn commit_section(
        &self,
        writer: ThreadId,
        write_entries: &[WriteEntry],
        validate: &mut dyn FnMut() -> bool,
        writeback: &mut dyn FnMut(),
    ) -> bool;
}

/// An in-flight lazy-STM transaction attempt.
pub type LazyTx = StmTx<RedoPolicy>;

/// Buffers writes in a redo log and publishes them at commit.
#[derive(Debug, Default)]
pub struct RedoPolicy {
    /// Pending writes, one entry per address (last value wins), with the
    /// write set's orec cover kept sorted for commit-time locking.
    redo: WriteLog,
    /// Hybrid-runtime hook serialising the commit write-back against
    /// hardware commits; `None` for the plain lazy runtime.
    interlock: Option<Arc<dyn CommitInterlock>>,
}

impl WritePolicy for RedoPolicy {
    const NAME: &'static str = "lazy-stm";

    type Setup = Option<Arc<dyn CommitInterlock>>;

    fn begin(thread: &ThreadCtx, interlock: Self::Setup, pooled: bool) -> Self {
        let redo = if pooled {
            thread.take_write_log()
        } else {
            WriteLog::new()
        };
        RedoPolicy { redo, interlock }
    }

    #[inline]
    fn is_read_only(&self) -> bool {
        self.redo.is_empty()
    }

    #[inline]
    fn buffered(&self, addr: Addr) -> Option<u64> {
        self.redo.lookup(addr)
    }

    fn write(&mut self, at: &Attempt, addr: Addr, val: u64) -> TxResult<()> {
        // One redo entry per address (last value wins); the orec stripe is
        // hashed once, on the first write.
        let orecs = &at.system().orecs;
        self.redo.record(addr, val, || orecs.index_for(addr));
        Ok(())
    }

    fn commit(&mut self, at: &Attempt) -> Result<(Vec<usize>, u64), TxCtl> {
        // Acquire the ownership records covering the write set.  The cover
        // is the redo log's own sorted distinct-stripe list (borrowed, not
        // copied — the abort path stays allocation-free), so on failure at
        // position `k` the locks we hold are exactly the prefix `cover[..k]`
        // (this attempt holds no locks before commit).
        let me = at.me();
        let system = at.system();
        let interlock = self.interlock.as_ref();
        let (entries, write_orecs) = self.redo.entries_with_cover();
        let release_prefix = |n: usize| {
            for &a in &write_orecs[..n] {
                let c = system.orecs.load(a);
                system.orecs.store(a, OrecValue::unlocked(c.version()));
            }
        };
        for (k, &idx) in write_orecs.iter().enumerate() {
            let cur = system.orecs.load(idx);
            let ok = if cur.is_locked() {
                cur.is_locked_by(me)
            } else if cur.version() <= at.start() {
                system
                    .orecs
                    .cas(idx, cur, OrecValue::locked(cur.version(), me))
            } else {
                at.note_stale(cur.version());
                false
            };
            if !ok {
                release_prefix(k);
                return Err(TxCtl::Abort(AbortReason::WriteConflict));
            }
        }

        // Stamped after the whole cover is held, which is what makes a
        // non-unique (lazy) stamp sound: any reader that began before this
        // point sees our locks, any later reader sees `end > rv`.
        let stamp = system.clock.commit_stamp(at.stats());
        let end = stamp.ts;
        // With a hybrid interlock installed, hardware commits publish to
        // the orecs under their own clock ticks, so the unique-stamp
        // shortcut is no longer a proof of validity: validate always.
        // Validation and write-back then run inside the interlock's
        // `commit_section`, mutually exclusive with hardware commits — a
        // hardware commit serialises entirely before (its orec releases fail
        // our validation) or entirely after (it observes our locked orecs /
        // doomed lines) this section.
        let mut validate = || at.reads_valid(stamp, interlock.is_some());
        // Write back the redo log (one entry per address already holding
        // the latest value) and release locks at the commit timestamp.
        let mut writeback = || {
            for e in entries {
                system.heap.store(e.addr, e.val);
            }
            for &idx in write_orecs {
                system.orecs.store(idx, OrecValue::unlocked(end));
            }
        };
        let committed = match interlock {
            Some(interlock) => interlock.commit_section(me, entries, &mut validate, &mut writeback),
            None => {
                let ok = validate();
                if ok {
                    writeback();
                }
                ok
            }
        };
        if !committed {
            release_prefix(write_orecs.len());
            return Err(TxCtl::Abort(AbortReason::CommitValidation));
        }
        // Success path only: copy the cover out for the outcome.
        Ok((write_orecs.to_vec(), end))
    }

    fn rollback(&mut self, _at: &Attempt) {
        // Nothing was written in place and no lock outlives a failed commit.
    }

    fn clear(&mut self, stats: &TxStats) {
        TxStats::record_max(&stats.write_set_max, self.redo.len() as u64);
        self.redo.clear();
    }

    fn recycle(&mut self, thread: &ThreadCtx) {
        thread.put_write_log(std::mem::take(&mut self.redo));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{TmConfig, TmSystem, Tx, TxCommon, TxKind, TxMode, WaitCondition, WaitSpec};

    fn fresh_tx(system: &Arc<TmSystem>) -> LazyTx {
        let th = system.register_thread();
        LazyTx::begin(system, TxCommon::new(th, TxMode::Software, 0))
    }

    #[test]
    fn writes_are_buffered_until_commit() {
        let system = TmSystem::new(TmConfig::small());
        let mut tx = fresh_tx(&system);
        tx.write(Addr(5), 42).unwrap();
        assert_eq!(
            system.heap.load(Addr(5)),
            0,
            "lazy STM must not write in place"
        );
        assert_eq!(tx.read(Addr(5)).unwrap(), 42, "read-your-writes");
        tx.try_commit().unwrap();
        assert_eq!(system.heap.load(Addr(5)), 42);
    }

    #[test]
    fn last_write_to_an_address_wins() {
        let system = TmSystem::new(TmConfig::small());
        let mut tx = fresh_tx(&system);
        tx.write(Addr(3), 1).unwrap();
        tx.write(Addr(3), 2).unwrap();
        tx.write(Addr(3), 3).unwrap();
        assert_eq!(tx.read(Addr(3)).unwrap(), 3);
        tx.try_commit().unwrap();
        assert_eq!(system.heap.load(Addr(3)), 3);
    }

    #[test]
    fn rollback_discards_buffered_writes() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(8), 9);
        let mut tx = fresh_tx(&system);
        tx.write(Addr(8), 100).unwrap();
        tx.rollback();
        assert_eq!(system.heap.load(Addr(8)), 9);
    }

    #[test]
    fn commit_validation_detects_stale_reads() {
        // Single-threaded test driving two handles: disable quiescence so the
        // committing handle does not wait for the in-flight one.
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let mut tx1 = fresh_tx(&system);
        assert_eq!(tx1.read(Addr(6)).unwrap(), 0);
        let mut tx2 = fresh_tx(&system);
        tx2.write(Addr(6), 5).unwrap();
        tx2.try_commit().unwrap();
        tx1.write(Addr(7), 1).unwrap();
        assert!(matches!(
            tx1.try_commit(),
            Err(TxCtl::Abort(AbortReason::CommitValidation))
        ));
        tx1.rollback();
        assert_eq!(system.heap.load(Addr(7)), 0);
    }

    #[test]
    fn write_write_conflict_detected_at_commit() {
        // Single-threaded test driving two handles: disable quiescence so the
        // committing handle does not wait for the in-flight one.
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let mut tx1 = fresh_tx(&system);
        let mut tx2 = fresh_tx(&system);
        tx1.write(Addr(4), 1).unwrap();
        tx2.write(Addr(4), 2).unwrap();
        tx1.try_commit().unwrap();
        // tx2 started before tx1's commit, so its lock acquisition sees a
        // version newer than its start and must abort.
        assert!(tx2.try_commit().is_err());
        tx2.rollback();
        assert_eq!(system.heap.load(Addr(4)), 1);
    }

    #[test]
    fn failed_lock_acquisition_releases_partial_locks() {
        // Single-threaded test driving two handles: disable quiescence so the
        // committing handle does not wait for the in-flight one.
        let system = TmSystem::new(TmConfig::small().without_quiescence());
        let mut tx1 = fresh_tx(&system);
        let mut tx2 = fresh_tx(&system);
        // tx1 will hold the orec for addr 10 by being mid-commit is hard to
        // arrange directly; instead let tx1 commit a write to addr 10 so its
        // version is newer than tx2's start, forcing tx2's multi-location
        // commit to fail and release the lock it already took on addr 200.
        tx2.write(Addr(200), 1).unwrap();
        tx2.write(Addr(10), 2).unwrap();
        tx1.write(Addr(10), 7).unwrap();
        tx1.try_commit().unwrap();
        assert!(tx2.try_commit().is_err());
        tx2.rollback();
        let idx200 = system.orecs.index_for(Addr(200));
        let idx10 = system.orecs.index_for(Addr(10));
        assert!(!system.orecs.load(idx200).is_locked());
        assert!(!system.orecs.load(idx10).is_locked());
    }

    #[test]
    fn retry_log_records_committed_values_not_pending_writes() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(12), 50);
        let th = system.register_thread();
        let mut tx = LazyTx::begin(&system, TxCommon::new(th, TxMode::SoftwareRetry, 1));
        assert_eq!(tx.read(Addr(12)).unwrap(), 50);
        tx.write(Addr(12), 99).unwrap();
        assert_eq!(tx.read(Addr(12)).unwrap(), 99);
        assert_eq!(tx.common().waitset.pairs(), vec![(Addr(12), 50)]);
        tx.rollback();
    }

    #[test]
    fn reexecuted_attempts_reuse_pooled_logs() {
        let system = TmSystem::new(TmConfig::small());
        let th = system.register_thread();
        let mut tx = LazyTx::begin(&system, TxCommon::new(Arc::clone(&th), TxMode::Software, 0));
        let _ = tx.read(Addr(1)).unwrap();
        tx.write(Addr(2), 2).unwrap();
        tx.rollback();
        drop(tx);
        let before = th.stats.snapshot().log_pool_reuses;
        let mut tx = LazyTx::begin(&system, TxCommon::new(Arc::clone(&th), TxMode::Software, 1));
        assert!(
            th.stats.snapshot().log_pool_reuses >= before + 2,
            "the second attempt must recycle the first attempt's containers"
        );
        tx.rollback();
    }

    #[test]
    fn await_snapshot_is_current_memory() {
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(20), 5);
        let mut tx = fresh_tx(&system);
        assert_eq!(tx.read(Addr(20)).unwrap(), 5);
        tx.write(Addr(20), 6).unwrap();
        let cond = tx
            .rollback_for_deschedule(WaitSpec::Addrs(vec![Addr(20)]))
            .unwrap();
        match cond {
            WaitCondition::ValuesChanged(pairs) => assert_eq!(pairs, vec![(Addr(20), 5)]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(system.heap.load(Addr(20)), 5);
    }

    #[test]
    fn alloc_rolls_back_and_free_defers() {
        let system = TmSystem::new(TmConfig::small());
        let base = system.heap.allocated_words();
        let mut tx = fresh_tx(&system);
        tx.alloc(8).unwrap();
        tx.rollback();
        assert_eq!(system.heap.allocated_words(), base);

        let a = system.heap.alloc(4).unwrap();
        let mut tx = fresh_tx(&system);
        tx.free(a, 4).unwrap();
        tx.write(Addr(1), 1).unwrap();
        tx.try_commit().unwrap();
        assert_eq!(system.heap.allocated_words(), base);
    }

    #[test]
    fn snapshot_read_for_write_is_a_read() {
        // Lazy STM has no encounter-time locks: a read-for-write is a plain
        // read, still legal on the snapshot path (the upgrade happens at
        // the first actual write).
        let system = TmSystem::new(TmConfig::small());
        system.heap.store(Addr(1), 4);
        let th = system.register_thread();
        let mut tx = LazyTx::begin(
            &system,
            TxCommon::new(Arc::clone(&th), TxMode::Software, 0).with_kind(TxKind::ReadOnly),
        );
        assert_eq!(tx.read_for_write(Addr(1)).unwrap(), 4);
        assert!(tx.read_orec_indices().is_empty(), "still a snapshot read");
        tx.try_commit().unwrap();
        assert_eq!(th.stats.snapshot().ro_fast_commits, 1);
    }
}
