//! The shared transaction access-set layer.
//!
//! The paper's Appendix A algorithms treat each transaction's read set,
//! write log and lock set as abstract sets; this module is their one
//! concrete implementation, shared by all four runtimes:
//!
//! * [`ReadSet`] — deduplicating append with cached orec stripes and a
//!   distinct-stripe cover accumulated in O(1) per read and sorted at most
//!   once per attempt (no re-deriving the cover from the full address list
//!   at deschedule time, no re-hash at validation time),
//! * [`WriteLog`] — insertion-ordered entries with an open-addressed hash
//!   index: O(1) read-after-write lookup and "have I written this address"
//!   tests for redo logs, undo logs and the `Retry` value log alike,
//! * [`IndexSet`] — insertion-ordered, O(1)-membership sets of small
//!   indices (orec lock sets, HTM line-slot sets),
//! * [`LogPool`] — the per-thread recycler that hands a rolled-back
//!   attempt's capacity to the next attempt instead of reallocating
//!   (reached through [`crate::thread::ThreadCtx`]).
//!
//! Exactly the workloads the paper cares about — large transactions that
//! block, roll back and re-execute under condition synchronization — used
//! to pay O(log size) per read-after-write and a full sort+dedup per
//! deschedule on the flat `Vec` logs these types replace.

mod index;
mod index_set;
mod pool;
mod read_set;
mod write_log;

pub use index_set::IndexSet;
pub use pool::{LogPool, Taken};
pub use read_set::{ReadEntry, ReadSet};
pub use write_log::{WriteEntry, WriteLog};

use crate::orec::OrecTable;

/// True if every stripe in `cover` is unlocked and no newer than `start`.
///
/// The shared validity check behind `Retry-Orig` registration and
/// [`ReadSet::valid_at`]; the runtimes previously each carried their own
/// copy (`reads_valid_at`).
pub fn cover_valid_at(orecs: &OrecTable, cover: &[usize], start: u64) -> bool {
    cover.iter().all(|&idx| {
        let o = orecs.load(idx);
        !o.is_locked() && o.version() <= start
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::orec::OrecValue;

    #[test]
    fn clearing_never_grown_containers_allocates_nothing() {
        // The snapshot path clears exactly these on every commit.
        let mut reads = ReadSet::new();
        let mut log = WriteLog::new();
        let mut set = IndexSet::new();
        for _ in 0..3 {
            reads.clear();
            log.clear();
            set.clear();
        }
        assert_eq!(
            (reads.capacity(), log.capacity(), set.capacity()),
            (0, 0, 0)
        );
        assert!(!reads.contains(Addr(1)));
        assert_eq!(log.lookup(Addr(1)), None);
        assert!(!set.contains(1));
        assert!(reads.orec_cover().is_empty() && log.orec_cover().is_empty());
    }

    #[test]
    fn taken_index_set_comes_back_from_the_pool_empty_and_reusable() {
        // `take_entries` clears a populated slab (the `len != 0` path) and
        // leaves the set empty, so the pool keeps it.
        let pool = LogPool::new();
        let (mut set, _) = pool.take_index_set();
        for i in 0..20 {
            set.insert(i * 7);
        }
        assert_eq!(set.take_entries().len(), 20);
        pool.put_index_set(set);
        let (mut set, taken) = pool.take_index_set();
        assert_eq!(taken, Taken::Recycled);
        assert!(set.is_empty());
        assert!((0..20).all(|i| !set.contains(i * 7)));
        assert!(set.insert(7) && set.insert(8) && !set.insert(7));
        assert_eq!(set.as_slice(), &[7, 8]);
    }

    #[test]
    fn cover_valid_at_matches_per_stripe_state() {
        let orecs = OrecTable::new(32);
        assert!(cover_valid_at(&orecs, &[0, 1, 2], 0));
        orecs.store(1, OrecValue::unlocked(7));
        assert!(!cover_valid_at(&orecs, &[0, 1, 2], 6));
        assert!(cover_valid_at(&orecs, &[0, 1, 2], 7));
        orecs.store(2, OrecValue::locked(0, 3));
        assert!(!cover_valid_at(&orecs, &[2], 100));
        assert!(cover_valid_at(&orecs, &[], 0), "empty cover is valid");
    }
}
