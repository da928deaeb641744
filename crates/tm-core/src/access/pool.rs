//! The per-thread log pool: rolled-back attempts recycle their capacity.

use crate::lock::Mutex;

use super::index_set::IndexSet;
use super::read_set::ReadSet;
use super::write_log::WriteLog;

/// Spare instances kept per container kind; a single attempt uses at most
/// one read set, two write logs (undo/redo + `Retry` value log) and two
/// index sets (HTM read/write slots), so a small bound suffices.
const MAX_SPARES: usize = 4;

#[derive(Debug, Default)]
struct PoolInner {
    read_sets: Vec<ReadSet>,
    write_logs: Vec<WriteLog>,
    index_sets: Vec<IndexSet>,
}

/// A pool of cleared access-set containers owned by one thread context.
///
/// Every re-executed transaction attempt used to rebuild its logs from
/// `Vec::new()`, paying the full growth sequence again; the pool hands the
/// previous attempt's (cleared) containers back instead, so the
/// re-execution path performs zero log allocations after the first attempt.
///
/// The mutex is uncontended in steady state — only the owning thread takes
/// and returns containers — but keeps the pool safely shareable through the
/// `Arc<ThreadCtx>` that committers and wakers already clone.
#[derive(Debug, Default)]
pub struct LogPool {
    inner: Mutex<PoolInner>,
}

/// What a take returned: a recycled container or a fresh one.  Callers
/// (see [`crate::thread::ThreadCtx::take_read_set`] and friends) bump the
/// `log_pool_reuses` statistic on [`Taken::Recycled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Taken {
    /// The container came from the pool with capacity already grown.
    Recycled,
    /// The pool was empty; the container is brand new (and empty).
    Fresh,
}

impl LogPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        LogPool::default()
    }

    /// Takes a cleared read set, recycling a pooled one when available.
    pub fn take_read_set(&self) -> (ReadSet, Taken) {
        match self.inner.lock().read_sets.pop() {
            Some(s) => (s, Taken::Recycled),
            None => (ReadSet::new(), Taken::Fresh),
        }
    }

    /// Takes a cleared write log, recycling a pooled one when available.
    pub fn take_write_log(&self) -> (WriteLog, Taken) {
        match self.inner.lock().write_logs.pop() {
            Some(l) => (l, Taken::Recycled),
            None => (WriteLog::new(), Taken::Fresh),
        }
    }

    /// Takes a cleared index set, recycling a pooled one when available.
    pub fn take_index_set(&self) -> (IndexSet, Taken) {
        match self.inner.lock().index_sets.pop() {
            Some(s) => (s, Taken::Recycled),
            None => (IndexSet::new(), Taken::Fresh),
        }
    }

    /// Returns a read set to the pool.
    ///
    /// The pool keeps only cleared containers that have grown.  It does
    /// not clear what it is given: the attempt that filled a container
    /// already cleared it once, recording its size as it did.  A container
    /// that never grew owns nothing and is dropped, which keeps the
    /// snapshot path, whose containers never grow, off the pool lock.  A
    /// container that comes back non-empty belongs to an attempt abandoned
    /// by a panic; it is dropped rather than handed to the next attempt.
    pub fn put_read_set(&self, s: ReadSet) {
        if LogPool::keeps(s.capacity(), s.is_empty()) {
            LogPool::push_bounded(&mut self.inner.lock().read_sets, s);
        }
    }

    /// Returns a write log to the pool (see [`LogPool::put_read_set`]).
    pub fn put_write_log(&self, l: WriteLog) {
        if LogPool::keeps(l.capacity(), l.is_empty()) {
            LogPool::push_bounded(&mut self.inner.lock().write_logs, l);
        }
    }

    /// Returns an index set to the pool (see [`LogPool::put_read_set`]).
    pub fn put_index_set(&self, s: IndexSet) {
        if LogPool::keeps(s.capacity(), s.is_empty()) {
            LogPool::push_bounded(&mut self.inner.lock().index_sets, s);
        }
    }

    /// Whether a returned container is pooled (see `put_read_set`).
    fn keeps(capacity: usize, is_empty: bool) -> bool {
        capacity != 0 && is_empty
    }

    fn push_bounded<T>(spares: &mut Vec<T>, container: T) {
        if spares.len() < MAX_SPARES {
            spares.push(container);
        }
    }

    /// Number of pooled containers across all kinds (for tests).
    pub fn spares(&self) -> usize {
        let inner = self.inner.lock();
        inner.read_sets.len() + inner.write_logs.len() + inner.index_sets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    #[test]
    fn round_trip_recycles_capacity() {
        let pool = LogPool::new();
        let (mut rs, taken) = pool.take_read_set();
        assert_eq!(taken, Taken::Fresh);
        for i in 0..100 {
            rs.record(Addr(i), i);
        }
        let cap = rs.capacity();
        rs.clear();
        pool.put_read_set(rs);
        assert_eq!(pool.spares(), 1);
        let (rs, taken) = pool.take_read_set();
        assert_eq!(taken, Taken::Recycled);
        assert!(rs.is_empty(), "pooled containers come back cleared");
        assert_eq!(rs.capacity(), cap, "capacity survives the round trip");
    }

    #[test]
    fn zero_capacity_containers_are_not_pooled() {
        let pool = LogPool::new();
        pool.put_read_set(ReadSet::new());
        pool.put_write_log(WriteLog::new());
        pool.put_index_set(IndexSet::new());
        assert_eq!(pool.spares(), 0);
    }

    #[test]
    fn uncleared_containers_are_dropped_not_pooled() {
        // What an attempt abandoned by a panic hands back: its logs still
        // hold entries, and the next attempt must never see them.
        let pool = LogPool::new();
        let mut l = WriteLog::new();
        l.record_first(Addr(3), 7, || 0);
        pool.put_write_log(l);
        let mut s = IndexSet::new();
        s.insert(4);
        pool.put_index_set(s);
        assert_eq!(pool.spares(), 0);
        let (l, taken) = pool.take_write_log();
        assert_eq!((taken, l.lookup(Addr(3))), (Taken::Fresh, None));
    }

    #[test]
    fn pool_is_bounded() {
        let pool = LogPool::new();
        for _ in 0..(2 * MAX_SPARES) {
            let mut l = WriteLog::new();
            l.record(Addr(1), 1, || 0);
            l.clear();
            pool.put_write_log(l);
        }
        assert_eq!(pool.spares(), MAX_SPARES);
    }
}
