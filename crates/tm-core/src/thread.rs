//! Thread contexts and the global thread registry.
//!
//! Each worker thread registers once with the [`crate::system::TmSystem`] and
//! receives an [`ThreadCtx`] carrying its identity, statistics, its padded
//! slot in the system's [`EpochTable`] (published start time for
//! privatization-safe quiescence plus the last commit epoch the lazy clock
//! scans), and the "doomed" flag through which the HTM simulator delivers
//! asynchronous conflict aborts.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::access::{IndexSet, LogPool, ReadSet, Taken, WriteLog};
use crate::epoch::{EpochSlot, EpochTable};
use crate::lock::RwLock;
use crate::pad::CachePadded;

use crate::sem::Semaphore;
use crate::stats::{OpClass, TxStats};

/// Identifier of a registered thread (dense, starting from 0).
pub type ThreadId = usize;

/// Sentinel published as a thread's start time when it is not inside a
/// transaction.
pub const NOT_IN_TX: u64 = u64::MAX;

/// Epoch-table capacity of a standalone [`ThreadRegistry::new`] (unit-test
/// convenience; systems size theirs from
/// [`crate::config::TmConfig::max_threads`]).
const STANDALONE_REGISTRY_CAPACITY: usize = 64;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-thread context shared between the thread itself and other threads
/// (committers performing quiescence, hardware transactions dooming each
/// other, writers waking sleepers).
///
/// One OS thread at a time runs transactions on a context: its epoch slot,
/// its log pool and its statistics all assume a single owner.
#[derive(Debug)]
pub struct ThreadCtx {
    /// Dense thread identifier.
    pub id: ThreadId,
    /// Event counters.  Only the thread this context belongs to writes
    /// them (see [`crate::stats`]); other threads take snapshots.
    pub stats: TxStats,
    /// The shared epoch table; this thread owns slot [`ThreadCtx::id`],
    /// which carries its published start time and last commit epoch on a
    /// private cache line.
    epochs: Arc<EpochTable>,
    /// Set by another thread to doom this thread's in-flight *hardware*
    /// transaction (simulating a coherence-triggered abort).  Padded: it is
    /// remote-written on conflicts and owner-polled on the hardware hot
    /// path, so it must not share a line with the rest of the context.
    pub doomed: CachePadded<AtomicBool>,
    /// Parking semaphore used when the thread is descheduled.
    pub sem: Semaphore,
    /// Recycler for the thread's access-set containers: a rolled-back
    /// attempt's read set / write log / index sets go back here and the
    /// next attempt takes them out with their capacity intact.
    pub pool: LogPool,
    /// xorshift64 state for the thread's backoff jitter, seeded from the
    /// thread id.  Owner-only (replaces the driver's old process-global
    /// seed atomic, which was a shared hot line).
    backoff_rng: CachePadded<AtomicU64>,
    /// Workload-declared [`OpClass`] tag of the operation this thread is
    /// currently running (0 = none).  Owner-written around each operation
    /// and owner-read by the driver at commit, but padded so the store/load
    /// traffic never dirties a neighbour's line.
    op_class: CachePadded<AtomicU8>,
}

impl ThreadCtx {
    fn new(id: ThreadId, epochs: Arc<EpochTable>) -> Self {
        ThreadCtx {
            id,
            stats: TxStats::default(),
            epochs,
            doomed: CachePadded::new(AtomicBool::new(false)),
            sem: Semaphore::new(),
            pool: LogPool::new(),
            // splitmix64 never maps distinct inputs to the same output and
            // maps nothing to 0 except one input; or-in a bit so xorshift
            // (which fixes 0) always starts live.
            backoff_rng: CachePadded::new(AtomicU64::new(splitmix64(id as u64 + 1) | 1)),
            op_class: CachePadded::new(AtomicU8::new(0)),
        }
    }

    /// Declares the operation class of the transactions this thread is about
    /// to run; the driver routes their commit latency into the class's
    /// histogram until [`clear_op_class`](Self::clear_op_class).
    #[inline]
    pub fn set_op_class(&self, class: OpClass) {
        self.op_class.store(class.tag(), Ordering::Relaxed);
    }

    /// Clears the operation-class tag (latency goes only to the commit-class
    /// histograms again).
    #[inline]
    pub fn clear_op_class(&self) {
        self.op_class.store(0, Ordering::Relaxed);
    }

    /// The operation class currently declared on this thread, if any.
    #[inline]
    pub fn op_class(&self) -> Option<OpClass> {
        OpClass::from_tag(self.op_class.load(Ordering::Relaxed))
    }

    /// This thread's padded epoch-table slot.
    #[inline]
    pub fn epoch_slot(&self) -> &EpochSlot {
        self.epochs.slot(self.id)
    }

    /// The epoch table this thread publishes into.
    pub fn epochs(&self) -> &Arc<EpochTable> {
        &self.epochs
    }

    /// Next value of the thread's private backoff RNG (xorshift64).
    ///
    /// Deterministic per thread id, and touches only this thread's own
    /// cache line.
    #[inline]
    pub fn next_backoff_seed(&self) -> u64 {
        let mut s = self.backoff_rng.load(Ordering::Relaxed);
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.backoff_rng.store(s, Ordering::Relaxed);
        s
    }

    fn note_reuse(&self, taken: Taken) {
        if taken == Taken::Recycled {
            TxStats::bump(&self.stats.log_pool_reuses);
        }
    }

    /// Takes a cleared [`ReadSet`] from the pool, counting the reuse.
    pub fn take_read_set(&self) -> ReadSet {
        let (set, taken) = self.pool.take_read_set();
        self.note_reuse(taken);
        set
    }

    /// Returns a cleared read set to the pool.  The attempt that used it
    /// cleared it and recorded its high-water mark already.
    pub fn put_read_set(&self, set: ReadSet) {
        self.pool.put_read_set(set);
    }

    /// Takes a cleared [`WriteLog`] from the pool, counting the reuse.
    pub fn take_write_log(&self) -> WriteLog {
        let (log, taken) = self.pool.take_write_log();
        self.note_reuse(taken);
        log
    }

    /// Returns a cleared write log to the pool (see
    /// [`put_read_set`](Self::put_read_set)).
    pub fn put_write_log(&self, log: WriteLog) {
        self.pool.put_write_log(log);
    }

    /// Takes a cleared [`IndexSet`] from the pool, counting the reuse.
    pub fn take_index_set(&self) -> IndexSet {
        let (set, taken) = self.pool.take_index_set();
        self.note_reuse(taken);
        set
    }

    /// Returns a cleared index set to the pool.
    pub fn put_index_set(&self, set: IndexSet) {
        self.pool.put_index_set(set);
    }

    /// Publishes the start time of an in-flight transaction.
    #[inline]
    pub fn enter_tx(&self, start: u64) {
        self.epoch_slot().set_start(start);
    }

    /// Publishes that the thread is no longer inside a transaction.
    #[inline]
    pub fn exit_tx(&self) {
        self.epoch_slot().clear_start();
    }

    /// The published start time, or [`NOT_IN_TX`].
    #[inline]
    pub fn published_start(&self) -> u64 {
        self.epoch_slot().start()
    }

    /// Publishes a completed writer commit's timestamp to this thread's
    /// epoch slot.
    ///
    /// Call only after the commit is fully visible (write-back done, every
    /// ownership record released) and **before** [`exit_tx`](Self::exit_tx)
    /// or quiescence: a published epoch is a promise that any transaction
    /// beginning afterwards starts at or above it, which is both the lazy
    /// clock's correctness condition and what guarantees the publisher's own
    /// quiescence wait terminates.
    #[inline]
    pub fn publish_epoch(&self, ts: u64) {
        self.epoch_slot().set_epoch(ts);
    }

    /// The thread's last published commit epoch.
    #[inline]
    pub fn commit_epoch(&self) -> u64 {
        self.epoch_slot().epoch()
    }

    /// Marks this thread's hardware transaction as doomed.
    #[inline]
    pub fn doom(&self) {
        self.doomed.store(true, Ordering::Release);
    }

    /// Clears and returns the doomed flag (called when a hardware attempt
    /// begins or notices the abort).
    #[inline]
    pub fn take_doomed(&self) -> bool {
        self.doomed.swap(false, Ordering::AcqRel)
    }

    /// Reads the doomed flag without clearing it.
    #[inline]
    pub fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }
}

/// Registry of all threads that ever joined the system.
#[derive(Debug)]
pub struct ThreadRegistry {
    threads: RwLock<Vec<Arc<ThreadCtx>>>,
    /// The epoch table shared with the clock plane; registration activates
    /// one padded slot per thread.
    epochs: Arc<EpochTable>,
}

impl Default for ThreadRegistry {
    fn default() -> Self {
        ThreadRegistry::new()
    }
}

impl ThreadRegistry {
    /// Creates an empty standalone registry (with its own small epoch
    /// table; systems share theirs via [`ThreadRegistry::with_epochs`]).
    pub fn new() -> Self {
        ThreadRegistry::with_epochs(Arc::new(EpochTable::new(STANDALONE_REGISTRY_CAPACITY)))
    }

    /// Creates an empty registry whose threads publish into `epochs`.
    pub fn with_epochs(epochs: Arc<EpochTable>) -> Self {
        ThreadRegistry {
            threads: RwLock::new(Vec::new()),
            epochs,
        }
    }

    /// The epoch table this registry's threads publish into.
    pub fn epochs(&self) -> &Arc<EpochTable> {
        &self.epochs
    }

    /// Registers a new thread and returns its context.
    ///
    /// Panics when the epoch table is full (raise
    /// [`crate::config::TmConfig::max_threads`]).
    pub fn register(&self) -> Arc<ThreadCtx> {
        let mut threads = self.threads.write();
        let id = threads.len();
        self.epochs.activate(id);
        let ctx = Arc::new(ThreadCtx::new(id, Arc::clone(&self.epochs)));
        threads.push(Arc::clone(&ctx));
        ctx
    }

    /// Number of registered threads.
    pub fn len(&self) -> usize {
        self.threads.read().len()
    }

    /// True if no thread has registered yet.
    pub fn is_empty(&self) -> bool {
        self.threads.read().is_empty()
    }

    /// A snapshot of all registered threads.
    pub fn snapshot(&self) -> Vec<Arc<ThreadCtx>> {
        self.threads.read().clone()
    }

    /// Looks up a thread by id (used by the HTM simulator to deliver
    /// conflict aborts).
    pub fn get(&self, id: ThreadId) -> Option<Arc<ThreadCtx>> {
        self.threads.read().get(id).cloned()
    }

    /// Runs `f` for every registered thread other than `me`.
    pub fn for_each_other<F: FnMut(&ThreadCtx)>(&self, me: ThreadId, mut f: F) {
        for t in self.threads.read().iter() {
            if t.id != me {
                f(t);
            }
        }
    }

    /// Aggregated statistics across all threads.
    pub fn aggregate_stats(&self) -> crate::stats::StatsSnapshot {
        self.threads
            .read()
            .iter()
            .map(|t| t.stats.snapshot())
            .fold(crate::stats::StatsSnapshot::default(), |a, b| a.merge(&b))
    }

    /// Resets every thread's statistics (between benchmark phases).
    pub fn reset_stats(&self) {
        for t in self.threads.read().iter() {
            t.stats.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TxStats;

    #[test]
    fn registration_assigns_dense_ids() {
        let r = ThreadRegistry::new();
        let a = r.register();
        let b = r.register();
        let c = r.register();
        assert_eq!((a.id, b.id, c.id), (0, 1, 2));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn start_time_defaults_to_not_in_tx() {
        let r = ThreadRegistry::new();
        let t = r.register();
        assert_eq!(t.published_start(), NOT_IN_TX);
        t.enter_tx(42);
        assert_eq!(t.published_start(), 42);
        t.exit_tx();
        assert_eq!(t.published_start(), NOT_IN_TX);
    }

    #[test]
    fn doom_flag_is_sticky_until_taken() {
        let r = ThreadRegistry::new();
        let t = r.register();
        assert!(!t.is_doomed());
        t.doom();
        assert!(t.is_doomed());
        assert!(t.take_doomed());
        assert!(!t.is_doomed());
        assert!(!t.take_doomed());
    }

    #[test]
    fn for_each_other_skips_self() {
        let r = ThreadRegistry::new();
        let me = r.register();
        let _a = r.register();
        let _b = r.register();
        let mut seen = Vec::new();
        r.for_each_other(me.id, |t| seen.push(t.id));
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn pool_round_trip_counts_reuses() {
        use crate::addr::Addr;
        let r = ThreadRegistry::new();
        let t = r.register();

        let mut reads = t.take_read_set();
        let mut log = t.take_write_log();
        assert_eq!(
            t.stats.snapshot().log_pool_reuses,
            0,
            "first takes are fresh"
        );
        for i in 0..10 {
            reads.record(Addr(i), i);
        }
        log.record(Addr(1), 1, || 0);
        log.record(Addr(2), 2, || 0);
        // An attempt records its high-water marks where it clears its logs;
        // handing the cleared logs back records nothing more.
        reads.clear();
        log.clear();
        t.put_read_set(reads);
        t.put_write_log(log);

        let snap = t.stats.snapshot();
        assert_eq!((snap.read_set_max, snap.write_set_max), (0, 0));

        let reads = t.take_read_set();
        let log = t.take_write_log();
        assert!(reads.is_empty() && log.is_empty());
        assert_eq!(t.stats.snapshot().log_pool_reuses, 2);
    }

    #[test]
    fn aggregate_and_reset_stats() {
        let r = ThreadRegistry::new();
        let a = r.register();
        let b = r.register();
        TxStats::bump(&a.stats.sw_commits);
        TxStats::bump(&b.stats.sw_commits);
        TxStats::bump(&b.stats.sleeps);
        let agg = r.aggregate_stats();
        assert_eq!(agg.sw_commits, 2);
        assert_eq!(agg.sleeps, 1);
        r.reset_stats();
        assert_eq!(r.aggregate_stats().sw_commits, 0);
    }

    #[test]
    fn start_times_are_visible_through_the_epoch_table() {
        let r = ThreadRegistry::new();
        let t = r.register();
        t.enter_tx(9);
        assert_eq!(r.epochs().slot(t.id).start(), 9);
        t.exit_tx();
        assert_eq!(r.epochs().slot(t.id).start(), NOT_IN_TX);
    }

    #[test]
    fn publish_epoch_feeds_the_shared_scan() {
        let r = ThreadRegistry::new();
        let a = r.register();
        let b = r.register();
        assert_eq!(a.commit_epoch(), 0);
        a.publish_epoch(5);
        b.publish_epoch(3);
        assert_eq!(a.commit_epoch(), 5);
        assert_eq!(r.epochs().max_epoch(), 5);
    }

    #[test]
    fn backoff_rng_is_deterministic_per_thread_and_distinct_across_threads() {
        let r1 = ThreadRegistry::new();
        let r2 = ThreadRegistry::new();
        let a1 = r1.register();
        let b1 = r1.register();
        let a2 = r2.register();
        let seq_a1: Vec<u64> = (0..4).map(|_| a1.next_backoff_seed()).collect();
        let seq_b1: Vec<u64> = (0..4).map(|_| b1.next_backoff_seed()).collect();
        let seq_a2: Vec<u64> = (0..4).map(|_| a2.next_backoff_seed()).collect();
        assert_eq!(seq_a1, seq_a2, "same id, same sequence");
        assert_ne!(seq_a1, seq_b1, "different ids diverge");
        assert!(seq_a1.iter().all(|&s| s != 0), "xorshift state stays live");
    }

    #[test]
    fn registration_panics_when_the_epoch_table_is_full() {
        let r = ThreadRegistry::with_epochs(Arc::new(EpochTable::new(1)));
        let _ok = r.register();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.register()));
        assert!(attempt.is_err());
    }
}
