//! The original Retry mechanism (Algorithm 1), kept as the `Retry-Orig`
//! baseline.
//!
//! In the original design the waiter publishes the *lock metadata* (ownership
//! records) covering its read set, atomically with validating that those
//! reads are still consistent.  Every committing writer must then intersect
//! the set of locks it acquired with each waiter's read-lock set and wake the
//! waiter on a non-empty intersection.  This couples the mechanism to the
//! STM's metadata — which is exactly what makes it incompatible with hardware
//! TM, and what the paper's value-based Deschedule avoids.
//!
//! As in Algorithm 1, a single lock protects the waiting list; the "atomically
//! add calling transaction to waiting if still valid" step is expressed as
//! [`OrigRegistry::register_if`], which runs a validation closure while
//! holding that lock.  There is one list per [`TmSystem`]
//! ([`TmSystem::orig`]), whichever runtimes share the system: the driver
//! loop ([`crate::driver::run`]) puts Retry-Orig sleepers on it and wakes
//! them after every writer commit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::access::cover_valid_at;
use crate::driver::CommitOutcome;
use crate::lock::Mutex;
use crate::sem::Semaphore;
use crate::stats::TxStats;
use crate::system::TmSystem;
use crate::thread::{ThreadCtx, ThreadId};

/// A published record of a transaction sleeping under the original Retry.
#[derive(Debug)]
pub struct OrigWaiter {
    /// The descheduled thread.
    pub thread: ThreadId,
    /// Ownership-record indices covering the waiter's read set.
    pub read_orecs: Vec<usize>,
    /// Semaphore the waiter blocks on.
    pub sem: Arc<Semaphore>,
}

impl OrigWaiter {
    /// Creates a waiter record.
    pub fn new(thread: ThreadId, read_orecs: Vec<usize>, sem: Arc<Semaphore>) -> Arc<Self> {
        Arc::new(OrigWaiter {
            thread,
            read_orecs,
            sem,
        })
    }
}

/// The `waiting` list of Algorithm 1: lock-protected, scanned by every
/// committing writer.
#[derive(Debug, Default)]
pub struct OrigRegistry {
    list: Mutex<Vec<Arc<OrigWaiter>>>,
    count: AtomicUsize,
}

impl OrigRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        OrigRegistry::default()
    }

    /// Fast emptiness check for committing writers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count.load(Ordering::Acquire) == 0
    }

    /// Number of registered waiters.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Atomically (with respect to waking writers) validates and registers a
    /// waiter: `validate` runs while the list lock is held, and the waiter is
    /// only inserted if it returns true (Algorithm 1, `Retry` lines 3–8).
    ///
    /// Returns whether the waiter was inserted; if not, the caller must
    /// restart its transaction instead of sleeping.
    pub fn register_if<F: FnOnce() -> bool>(&self, waiter: Arc<OrigWaiter>, validate: F) -> bool {
        let mut list = self.list.lock();
        if !validate() {
            return false;
        }
        list.push(waiter);
        self.count.store(list.len(), Ordering::Release);
        true
    }

    /// Removes a waiter (after it has been woken, or if it gave up).
    pub fn deregister(&self, waiter: &Arc<OrigWaiter>) {
        let mut list = self.list.lock();
        list.retain(|w| !Arc::ptr_eq(w, waiter));
        self.count.store(list.len(), Ordering::Release);
    }

    /// Wakes every registered waiter unconditionally.  Serial commits carry
    /// no lock set to intersect, so a serial writer must assume any waiter's
    /// reads may have changed (the waiter revalidates on wake-up, exactly as
    /// after an intersection hit).
    ///
    /// Returns the number of threads woken.
    fn wake_all(&self, thread: &Arc<ThreadCtx>) -> usize {
        if self.is_empty() {
            return 0;
        }
        let mut woken = 0;
        let mut list = self.list.lock();
        for w in list.drain(..) {
            TxStats::bump(&thread.stats.wake_checks);
            w.sem.post();
            woken += 1;
            TxStats::bump(&thread.stats.wakeups);
        }
        self.count.store(0, Ordering::Release);
        woken
    }

    /// Wakes the sleepers a writer commit may concern (Algorithm 1,
    /// `TxCommit` lines 10–15): every one after a serial commit, which has
    /// no lock set to intersect, otherwise those whose read locks intersect
    /// the commit's written stripes.  Software commits report their lock
    /// set; hardware commits their written-line stripe cover, a superset of
    /// the written words' stripes — conservative, never lossy.
    ///
    /// Returns the number of threads woken.
    #[inline]
    pub fn wake_for_commit(&self, thread: &Arc<ThreadCtx>, outcome: &CommitOutcome) -> usize {
        if outcome.serial {
            self.wake_all(thread)
        } else {
            self.wake_matching(thread, &outcome.written_orecs)
        }
    }

    /// Wakes every waiter whose read-lock set intersects `written_orecs`
    /// (Algorithm 1, `TxCommit` lines 10–15).  Called by a writer after it
    /// has committed and released its locks.
    ///
    /// Returns the number of threads woken.
    fn wake_matching(&self, thread: &Arc<ThreadCtx>, written_orecs: &[usize]) -> usize {
        if self.is_empty() || written_orecs.is_empty() {
            return 0;
        }
        let mut woken = 0;
        let mut list = self.list.lock();
        list.retain(|w| {
            TxStats::bump(&thread.stats.wake_checks);
            let hit = w.read_orecs.iter().any(|r| written_orecs.contains(r));
            if hit {
                w.sem.post();
                woken += 1;
                TxStats::bump(&thread.stats.wakeups);
                false
            } else {
                true
            }
        });
        self.count.store(list.len(), Ordering::Release);
        woken
    }
}

/// The full `Retry-Orig` deschedule path (Algorithm 1): publish-if-valid,
/// sleep, deregister.
///
/// The caller must have rolled its transaction back already.  The waiter
/// publishes `read_orecs` on the system's waiting list only if every one of
/// them is still unlocked and no newer than `start`, checked under the list
/// lock; otherwise some location it read already changed and the thread
/// re-executes immediately instead of sleeping.
pub fn sleep_until_intersection(
    system: &TmSystem,
    thread: &Arc<ThreadCtx>,
    read_orecs: Vec<usize>,
    start: u64,
) {
    TxStats::bump(&thread.stats.descheds);
    let sem = Arc::new(Semaphore::new());
    let waiter = OrigWaiter::new(thread.id, read_orecs, Arc::clone(&sem));
    if system.orig.register_if(Arc::clone(&waiter), || {
        cover_valid_at(&system.orecs, &waiter.read_orecs, start)
    }) {
        TxStats::bump(&thread.stats.sleeps);
        sem.wait();
        system.orig.deregister(&waiter);
    } else {
        TxStats::bump(&thread.stats.desched_skips);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TmConfig;

    fn thread_ctx() -> Arc<ThreadCtx> {
        TmSystem::new(TmConfig::small()).register_thread()
    }

    #[test]
    fn register_if_respects_validation() {
        let reg = OrigRegistry::new();
        let w = OrigWaiter::new(0, vec![1, 2, 3], Arc::new(Semaphore::new()));
        assert!(!reg.register_if(Arc::clone(&w), || false));
        assert!(reg.is_empty());
        assert!(reg.register_if(w, || true));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn wake_matching_requires_intersection() {
        let reg = OrigRegistry::new();
        let th = thread_ctx();
        let sem = Arc::new(Semaphore::new());
        let w = OrigWaiter::new(0, vec![10, 11], Arc::clone(&sem));
        reg.register_if(Arc::clone(&w), || true);

        assert_eq!(reg.wake_matching(&th, &[1, 2, 3]), 0);
        assert_eq!(sem.permits(), 0);
        assert_eq!(reg.len(), 1);

        assert_eq!(reg.wake_matching(&th, &[3, 11]), 1);
        assert_eq!(sem.permits(), 1);
        assert!(reg.is_empty(), "woken waiters are removed from the list");
    }

    #[test]
    fn wake_matching_skips_work_when_empty() {
        let reg = OrigRegistry::new();
        let th = thread_ctx();
        assert_eq!(reg.wake_matching(&th, &[1, 2]), 0);
        assert_eq!(th.stats.snapshot().wake_checks, 0);
    }

    #[test]
    fn multiple_waiters_woken_by_one_writer() {
        let reg = OrigRegistry::new();
        let th = thread_ctx();
        let s1 = Arc::new(Semaphore::new());
        let s2 = Arc::new(Semaphore::new());
        let s3 = Arc::new(Semaphore::new());
        reg.register_if(OrigWaiter::new(1, vec![5], Arc::clone(&s1)), || true);
        reg.register_if(OrigWaiter::new(2, vec![5, 6], Arc::clone(&s2)), || true);
        reg.register_if(OrigWaiter::new(3, vec![7], Arc::clone(&s3)), || true);
        assert_eq!(reg.wake_matching(&th, &[5]), 2);
        assert_eq!(s1.permits(), 1);
        assert_eq!(s2.permits(), 1);
        assert_eq!(s3.permits(), 0);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn deregister_removes_specific_waiter() {
        let reg = OrigRegistry::new();
        let w1 = OrigWaiter::new(1, vec![1], Arc::new(Semaphore::new()));
        let w2 = OrigWaiter::new(2, vec![2], Arc::new(Semaphore::new()));
        reg.register_if(Arc::clone(&w1), || true);
        reg.register_if(Arc::clone(&w2), || true);
        reg.deregister(&w1);
        assert_eq!(reg.len(), 1);
        reg.deregister(&w1);
        assert_eq!(reg.len(), 1);
    }
}
