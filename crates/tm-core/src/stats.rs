//! Per-thread execution statistics.
//!
//! Every interesting event in the runtimes and the condition-synchronization
//! layer bumps a counter here.  The workload harness aggregates snapshots
//! across threads so the benchmark output can report abort rates, wake-up
//! counts and fallback frequencies alongside raw execution time (useful when
//! explaining *why* a mechanism wins, as §2.4.1 does).
//!
//! # Who writes a counter
//!
//! Every [`TxStats`] counter, high-water mark and histogram bucket is
//! written only by the thread whose [`crate::thread::ThreadCtx`] holds it;
//! a committer waking sleepers counts the wake-ups in its *own* stats.
//! Other threads only read, through [`TxStats::snapshot`].  So a write
//! needs no read-modify-write instruction: [`TxStats::bump`],
//! [`TxStats::add`], [`TxStats::record_max`] and
//! [`LatencyHistogram::record`] are a relaxed load plus a relaxed store,
//! never a `lock`-prefixed RMW.  A reader may see a value a few events
//! stale, never a torn or lost one.  A site that has to count into another
//! thread's stats must use an atomic RMW on the field itself.
//!
//! [`TxStats::reset`] (and `ThreadRegistry::reset_stats`) stores zeros from
//! whichever thread calls it, so call it only while the owners are
//! quiescent — between benchmark phases, as the harnesses do; a reset that
//! races an owner's load-then-store can be overwritten by the owner.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::pad::CachePadded;

/// Workload-level operation classes for per-operation latency routing.
///
/// A workload (e.g. the KV/session-store scenario) tags the current thread
/// with the class of the operation it is about to run
/// ([`crate::thread::ThreadCtx::set_op_class`]); the driver then records the
/// whole transaction's wall-clock latency — retries, backoff and upgrades
/// included — into the matching histogram at commit, alongside the
/// update/read-only commit-class histograms.  Reports can therefore show
/// p50/p99/p999 *per operation*, not just per commit class.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OpClass {
    /// Point lookup (typically a declared read-only transaction).
    Get,
    /// Insert or update.
    Put,
    /// Removal.
    Delete,
    /// Range scan over an ordered index.
    Scan,
}

impl OpClass {
    /// All operation classes, in rendering order.
    pub const ALL: [OpClass; 4] = [OpClass::Get, OpClass::Put, OpClass::Delete, OpClass::Scan];

    /// The label used in report `# latency` lines.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::Put => "put",
            OpClass::Delete => "del",
            OpClass::Scan => "scan",
        }
    }

    /// Non-zero wire tag for the thread-context slot (0 means "no class").
    pub(crate) fn tag(self) -> u8 {
        match self {
            OpClass::Get => 1,
            OpClass::Put => 2,
            OpClass::Delete => 3,
            OpClass::Scan => 4,
        }
    }

    /// Inverse of [`OpClass::tag`]; `None` for 0 (no class set).
    pub(crate) fn from_tag(tag: u8) -> Option<OpClass> {
        match tag {
            1 => Some(OpClass::Get),
            2 => Some(OpClass::Put),
            3 => Some(OpClass::Delete),
            4 => Some(OpClass::Scan),
            _ => None,
        }
    }
}

/// Number of log2 buckets in a [`LatencyHistogram`]: bucket `i` holds
/// samples whose nanosecond value has bit length `i`, so the covered range
/// tops out around 2 seconds before the last bucket absorbs the overflow.
pub const LATENCY_BUCKETS: usize = 32;

/// A cheap fixed-bucket latency histogram: 32 log2 buckets of plain
/// relaxed counters.
///
/// Only the owning thread records (see the module docs), so recording is
/// one `leading_zeros` plus a relaxed load and store of the bucket, with no
/// locked instruction — cheap enough for the driver's per-transaction hot
/// path.  The whole histogram is wrapped in [`CachePadded`] inside
/// [`TxStats`], so one thread's recording never invalidates another
/// thread's counter lines; buckets *within* a thread's histogram
/// deliberately share lines (only the owner writes them).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The log2 bucket index for a sample of `nanos` nanoseconds.
#[inline]
fn bucket_for(nanos: u64) -> usize {
    let bits = (u64::BITS - nanos.leading_zeros()) as usize;
    bits.min(LATENCY_BUCKETS - 1)
}

impl LatencyHistogram {
    /// Records one sample of `nanos` nanoseconds.  Owner thread only.
    #[inline]
    pub fn record(&self, nanos: u64) {
        TxStats::bump(&self.buckets[bucket_for(nanos)]);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    /// Zeroes every bucket (owners quiescent, as for [`TxStats::reset`]).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`], mergeable across threads.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    buckets: [u64; LATENCY_BUCKETS],
}

impl LatencySnapshot {
    /// Bucket-wise sum of two snapshots.
    pub fn merge(&self, other: &LatencySnapshot) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// An upper bound (in nanoseconds) on the `q`-quantile sample,
    /// `0.0 < q <= 1.0`: the inclusive upper edge of the log2 bucket the
    /// quantile falls in.  Returns 0 when the histogram is empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                // Bucket 0 holds only zero; the last bucket absorbs every
                // overflowing sample, so its upper edge is unbounded.
                return match i {
                    0 => 0,
                    i if i == LATENCY_BUCKETS - 1 => u64::MAX,
                    i => (1u64 << i) - 1,
                };
            }
        }
        u64::MAX
    }
}

macro_rules! stats_fields {
    (
        counters { $($(#[$cdoc:meta])* $cname:ident),+ $(,)? }
        maxima { $($(#[$mdoc:meta])* $mname:ident),+ $(,)? }
        histograms { $($(#[$hdoc:meta])* $hname:ident),+ $(,)? }
    ) => {
        /// Live (atomic) per-thread counters, plus high-water marks.
        ///
        /// Owner-written, snapshot-read: only the thread whose context holds
        /// a `TxStats` writes it (plain relaxed load + store, see the module
        /// docs); any thread may [`snapshot`](TxStats::snapshot) it.
        ///
        /// Counters sit on commit/abort hot paths, so each one is padded to
        /// its own cache line: a thread banging on `sw_commits` must never
        /// invalidate the line a harness thread is reading `sleeps` from,
        /// and — because the padding also aligns the whole struct — two
        /// threads' contexts can't end up sharing a line through allocator
        /// adjacency.  `CachePadded` derefs to the inner atomic, so call
        /// sites are unchanged.
        #[derive(Debug, Default)]
        pub struct TxStats {
            $($(#[$cdoc])* pub $cname: CachePadded<AtomicU64>,)+
            $($(#[$mdoc])* pub $mname: CachePadded<AtomicU64>,)+
            $($(#[$hdoc])* pub $hname: CachePadded<LatencyHistogram>,)+
        }

        /// A point-in-time copy of [`TxStats`], suitable for aggregation and
        /// serialization.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$cdoc])* pub $cname: u64,)+
            $($(#[$mdoc])* pub $mname: u64,)+
            $($(#[$hdoc])* pub $hname: LatencySnapshot,)+
        }

        impl TxStats {
            /// Takes a consistent-enough snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($cname: self.$cname.load(Ordering::Relaxed),)+
                    $($mname: self.$mname.load(Ordering::Relaxed),)+
                    $($hname: self.$hname.snapshot(),)+
                }
            }

            /// Resets all counters to zero.  Call only while the owning
            /// thread is quiescent: its next load-then-store could
            /// otherwise write back a pre-reset value.
            pub fn reset(&self) {
                $(self.$cname.store(0, Ordering::Relaxed);)+
                $(self.$mname.store(0, Ordering::Relaxed);)+
                $(self.$hname.reset();)+
            }
        }

        impl StatsSnapshot {
            /// Combines two snapshots: event counters add, high-water marks
            /// take the larger value (a maximum across threads summed would
            /// overstate every per-transaction peak), histogram buckets add.
            pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($cname: self.$cname + other.$cname,)+
                    $($mname: self.$mname.max(other.$mname),)+
                    $($hname: self.$hname.merge(&other.$hname),)+
                }
            }

            /// Field names and values in declaration order, for serialization
            /// without a reflection framework.  Histograms are not included
            /// (readers of old reports simply never see them, and
            /// [`StatsSnapshot::set_by_name`] already ignores unknown names).
            pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
                vec![
                    $((stringify!($cname), self.$cname),)+
                    $((stringify!($mname), self.$mname),)+
                ]
            }

            /// Sets a counter by field name; returns `false` for unknown
            /// names (forward compatibility when reading old reports).
            pub fn set_by_name(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $(stringify!($cname) => {
                        self.$cname = value;
                        true
                    })+
                    $(stringify!($mname) => {
                        self.$mname = value;
                        true
                    })+
                    _ => false,
                }
            }
        }
    };
}

stats_fields! {
    counters {
    /// Software-mode transactions committed.
    sw_commits,
    /// Software-mode transaction attempts aborted.
    sw_aborts,
    /// Hardware-mode transactions committed.
    hw_commits,
    /// Hardware-mode transaction attempts aborted.
    hw_aborts,
    /// Times the serial fallback / irrevocable lock was acquired.
    serial_acquires,
    /// Transactions that committed while holding the serial gate (counted in
    /// addition to `sw_commits`, which serial commits also increment).
    serial_commits,
    /// Attempts re-executed in a different mode than the previous attempt
    /// (hardware → software, software → serial, relogs, post-wake resets).
    mode_switches,
    /// Escalations requested by the contention-management policy
    /// (see `tm_core::policy`).
    cm_escalations,
    /// Times a transaction descheduled itself (Retry/Await/WaitPred slept).
    descheds,
    /// Times the Deschedule double-check found the condition already
    /// established, avoiding a sleep.
    desched_skips,
    /// Times a thread actually blocked on its semaphore.
    sleeps,
    /// Times a committed writer woke a sleeping thread.
    wakeups,
    /// Wait conditions evaluated by committing writers (`wakeWaiters` work).
    wake_checks,
    /// Waiter-registry shards a committing writer actually visited.
    wake_shard_scans,
    /// Waiter-registry shards a committing writer skipped (either outside
    /// its write set's stripes, or empty at scan time).
    wake_shard_skips,
    /// Writer commits that used a targeted (stripe-filtered) wake scan
    /// instead of the conservative scan-everything path.
    wake_targeted,
    /// Timed waits that ended because their deadline passed
    /// (`WakeReason::Timeout`), counted by the sleeper.
    wake_timeouts,
    /// Waits ended by an explicit `condsync::cancel`
    /// (`WakeReason::Cancelled`), counted by the sleeper.
    wake_cancels,
    /// Timer-wheel ticks advanced by this thread's lazy polls.
    timer_ticks,
    /// Times a `Retry` transaction restarted to populate its value log.
    retry_relogs,
    /// Explicit aborts requested by the program (Restart baseline, xabort).
    explicit_aborts,
    /// Condition-variable waits (TMCondVar and Pthreads baselines).
    condvar_waits,
    /// Condition-variable signals/broadcasts issued.
    condvar_signals,
    /// Hardware aborts manufactured by the fault-injection plane
    /// (`FaultPlane`); zero whenever injection is disabled.
    hw_faults_injected,
    /// TMCondVar watchdog timeouts delivered as spurious wake-ups: the
    /// bounded re-delivery that closes the signal-before-commit window.
    watchdog_redeliveries,
    /// Commit-time quiescence rounds executed for privatization safety.
    quiesce_rounds,
    /// Epoch-table slots examined by quiescence scans (commit-time
    /// privatization waits); pairs with `quiesce_rounds` to show how much
    /// commit-path polling the decentralized table absorbs.
    quiesce_scans,
    /// Shared clock-line read-modify-writes: every GV1 commit tick, plus
    /// the lazy plane's conflict-path CAS-advances (`note_stale`) and
    /// eager-rollback bumps.  The number the decentralized clock drives
    /// toward zero.
    clock_cas,
    /// Writer commits that reused `now() + 1` as their timestamp without
    /// writing the shared clock line (lazy plane only).
    clock_reuse,
    /// Access-set containers (read sets, write logs, index sets) handed out
    /// from the per-thread [`crate::access::LogPool`] with their capacity
    /// already grown by an earlier attempt, instead of being allocated.
    log_pool_reuses,
    /// Read-only transactions that committed on the snapshot fast path
    /// (no read set, no commit-time validation, no clock traffic) — software
    /// snapshot commits plus hardware commits of declared-read-only
    /// transactions that wrote nothing.
    ro_fast_commits,
    /// Declared read-only transactions upgraded to full update transactions
    /// (the body wrote, allocated, or descheduled).
    ro_upgrades,
    /// Snapshot reads that survived a too-new version at the attempt's
    /// first read by re-sampling the begin snapshot instead of aborting.
    snapshot_refreshes,
    /// Transactional allocations served mutex-free from the thread's own
    /// arena bins (no global allocator lock taken).
    heap_arena_allocs,
    /// Arena refills that took the global allocator lock to carve a batch of
    /// blocks.  Steady-state churn should keep `heap_global_refills /
    /// heap_arena_allocs` tiny — that ratio is the arena plane's whole
    /// point, and the `memory_plane` bench asserts it.
    heap_global_refills,
    /// Frees of a block owned by *another* thread's arena, pushed onto the
    /// owner's lock-free remote-free stack instead of the global allocator.
    heap_remote_frees,
    /// Failed compare-and-swaps on ownership-record stripes, summed over the
    /// shards of the orec plane.  Per-thread copies stay zero; the system
    /// overlays the shard counters when aggregating (see
    /// `TmSystem::stats`).
    orec_cas_failures,
    }
    maxima {
    /// Largest read set any single attempt built: distinct addresses on the
    /// software STMs, distinct speculative read *lines* on HTM hardware
    /// attempts (the simulator tracks reads at line granularity, so the HTM
    /// value is not comparable 1:1 with the STM rows).
    read_set_max,
    /// Largest write log (distinct addresses) any single attempt built.
    write_set_max,
    }
    histograms {
    /// Wall-clock latency of committed update transactions (begin of the
    /// first attempt to commit, including aborted attempts and backoff).
    update_tx_latency,
    /// Wall-clock latency of committed declared-read-only transactions
    /// (including any upgrade and re-execution as an update transaction).
    ro_tx_latency,
    /// Wall-clock latency of transactions tagged [`OpClass::Get`] by the
    /// workload (point lookups), retries and backoff included.
    op_get_latency,
    /// Wall-clock latency of transactions tagged [`OpClass::Put`].
    op_put_latency,
    /// Wall-clock latency of transactions tagged [`OpClass::Delete`].
    op_del_latency,
    /// Wall-clock latency of transactions tagged [`OpClass::Scan`] (range
    /// scans over the ordered index).
    op_scan_latency,
    }
}

impl TxStats {
    /// Increments a counter by one.  Owner thread only (module docs).
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        TxStats::add(counter, 1);
    }

    /// Adds `n` to a counter: a relaxed load and store, no locked RMW.
    /// Owner thread only (module docs).
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.store(
            counter.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// Raises a high-water mark to `value` if it is larger; stores nothing
    /// otherwise.  Owner thread only (module docs).
    #[inline]
    pub fn record_max(mark: &AtomicU64, value: u64) {
        if value > mark.load(Ordering::Relaxed) {
            mark.store(value, Ordering::Relaxed);
        }
    }

    /// The latency histogram that records transactions of the given
    /// workload-declared operation class.
    pub fn op_histogram(&self, class: OpClass) -> &LatencyHistogram {
        match class {
            OpClass::Get => &self.op_get_latency,
            OpClass::Put => &self.op_put_latency,
            OpClass::Delete => &self.op_del_latency,
            OpClass::Scan => &self.op_scan_latency,
        }
    }
}

impl StatsSnapshot {
    /// The latency snapshot for the given workload-declared operation class.
    pub fn op_latency(&self, class: OpClass) -> &LatencySnapshot {
        match class {
            OpClass::Get => &self.op_get_latency,
            OpClass::Put => &self.op_put_latency,
            OpClass::Delete => &self.op_del_latency,
            OpClass::Scan => &self.op_scan_latency,
        }
    }
}

impl StatsSnapshot {
    /// Total committed transactions (software + hardware).
    pub fn total_commits(&self) -> u64 {
        self.sw_commits + self.hw_commits
    }

    /// Total aborted attempts (software + hardware).
    pub fn total_aborts(&self) -> u64 {
        self.sw_aborts + self.hw_aborts
    }

    /// Aborts per commit; 0 when nothing committed.
    pub fn abort_ratio(&self) -> f64 {
        if self.total_commits() == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / self.total_commits() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = TxStats::default();
        TxStats::bump(&s.sw_commits);
        TxStats::bump(&s.sw_commits);
        TxStats::add(&s.sleeps, 5);
        let snap = s.snapshot();
        assert_eq!(snap.sw_commits, 2);
        assert_eq!(snap.sleeps, 5);
        assert_eq!(snap.hw_commits, 0);
    }

    #[test]
    fn merge_adds_fields() {
        let a = StatsSnapshot {
            sw_commits: 3,
            wakeups: 1,
            ..Default::default()
        };
        let b = StatsSnapshot {
            sw_commits: 4,
            sleeps: 2,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.sw_commits, 7);
        assert_eq!(m.wakeups, 1);
        assert_eq!(m.sleeps, 2);
    }

    #[test]
    fn ratios() {
        let s = StatsSnapshot {
            sw_commits: 10,
            sw_aborts: 5,
            hw_commits: 10,
            hw_aborts: 5,
            ..Default::default()
        };
        assert_eq!(s.total_commits(), 20);
        assert_eq!(s.total_aborts(), 10);
        assert!((s.abort_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(StatsSnapshot::default().abort_ratio(), 0.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = TxStats::default();
        TxStats::bump(&s.descheds);
        TxStats::record_max(&s.read_set_max, 99);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn record_max_keeps_the_high_water_mark() {
        let s = TxStats::default();
        TxStats::record_max(&s.read_set_max, 10);
        TxStats::record_max(&s.read_set_max, 4);
        TxStats::record_max(&s.write_set_max, 7);
        let snap = s.snapshot();
        assert_eq!(snap.read_set_max, 10);
        assert_eq!(snap.write_set_max, 7);
    }

    #[test]
    fn merge_takes_max_for_high_water_marks() {
        let a = StatsSnapshot {
            sw_commits: 1,
            read_set_max: 100,
            write_set_max: 2,
            ..Default::default()
        };
        let b = StatsSnapshot {
            sw_commits: 2,
            read_set_max: 50,
            write_set_max: 9,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.sw_commits, 3, "event counters still add");
        assert_eq!(m.read_set_max, 100);
        assert_eq!(m.write_set_max, 9);
    }

    #[test]
    fn as_pairs_and_set_by_name_cover_high_water_marks() {
        let mut s = StatsSnapshot::default();
        assert!(s.set_by_name("read_set_max", 5));
        assert!(s.set_by_name("log_pool_reuses", 3));
        assert!(!s.set_by_name("no_such_stat", 1));
        let pairs = s.as_pairs();
        assert!(pairs.contains(&("read_set_max", 5)));
        assert!(pairs.contains(&("log_pool_reuses", 3)));
    }

    #[test]
    fn clock_counters_round_trip() {
        let s = TxStats::default();
        TxStats::bump(&s.clock_cas);
        TxStats::bump(&s.clock_reuse);
        TxStats::add(&s.quiesce_scans, 3);
        let snap = s.snapshot();
        assert_eq!(
            (snap.clock_cas, snap.clock_reuse, snap.quiesce_scans),
            (1, 1, 3)
        );
        let pairs = snap.as_pairs();
        assert!(pairs.contains(&("clock_cas", 1)));
        assert!(pairs.contains(&("clock_reuse", 1)));
        assert!(pairs.contains(&("quiesce_scans", 3)));
    }

    #[test]
    fn snapshot_counters_round_trip() {
        let s = TxStats::default();
        TxStats::bump(&s.ro_fast_commits);
        TxStats::bump(&s.ro_upgrades);
        TxStats::add(&s.snapshot_refreshes, 2);
        let snap = s.snapshot();
        assert_eq!(
            (
                snap.ro_fast_commits,
                snap.ro_upgrades,
                snap.snapshot_refreshes
            ),
            (1, 1, 2)
        );
        let pairs = snap.as_pairs();
        assert!(pairs.contains(&("ro_fast_commits", 1)));
        assert!(pairs.contains(&("ro_upgrades", 1)));
        assert!(pairs.contains(&("snapshot_refreshes", 2)));
    }

    #[test]
    fn memory_plane_counters_round_trip() {
        let s = TxStats::default();
        TxStats::bump(&s.heap_arena_allocs);
        TxStats::bump(&s.heap_global_refills);
        TxStats::add(&s.heap_remote_frees, 2);
        let snap = s.snapshot();
        assert_eq!(
            (
                snap.heap_arena_allocs,
                snap.heap_global_refills,
                snap.heap_remote_frees,
                snap.orec_cas_failures,
            ),
            (1, 1, 2, 0)
        );
        let pairs = snap.as_pairs();
        assert!(pairs.contains(&("heap_arena_allocs", 1)));
        assert!(pairs.contains(&("heap_global_refills", 1)));
        assert!(pairs.contains(&("heap_remote_frees", 2)));
        assert!(pairs.contains(&("orec_cas_failures", 0)));
    }

    #[test]
    fn histogram_buckets_by_log2_and_quantiles_bound_samples() {
        let h = LatencyHistogram::default();
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(h.snapshot().quantile_upper_bound(0.5), 0);
        // 90 samples at ~100ns, 9 at ~10µs, 1 at ~1ms.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(10_000);
        }
        h.record(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        let p50 = snap.quantile_upper_bound(0.50);
        let p99 = snap.quantile_upper_bound(0.99);
        let p999 = snap.quantile_upper_bound(0.999);
        assert!((100..1000).contains(&p50), "p50 bound {p50}");
        assert!((10_000..100_000).contains(&p99), "p99 bound {p99}");
        assert!(p999 >= 1_000_000, "p999 bound {p999}");
        assert!(p50 <= p99 && p99 <= p999);
        h.reset();
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn histogram_extremes_stay_in_range() {
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.quantile_upper_bound(0.25), 0, "zero lands in bucket 0");
        assert_eq!(snap.quantile_upper_bound(1.0), u64::MAX);
    }

    #[test]
    fn histograms_merge_bucket_wise_through_snapshots() {
        let a = TxStats::default();
        let b = TxStats::default();
        a.update_tx_latency.record(100);
        b.update_tx_latency.record(100);
        b.ro_tx_latency.record(50);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.update_tx_latency.count(), 2);
        assert_eq!(m.ro_tx_latency.count(), 1);
        // Reset clears histograms too.
        a.update_tx_latency.record(1);
        a.reset();
        assert_eq!(a.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn hot_counters_live_on_distinct_cache_lines() {
        use crate::pad::CACHE_LINE_BYTES;
        let s = TxStats::default();
        let commits = &*s.sw_commits as *const AtomicU64 as usize;
        let aborts = &*s.sw_aborts as *const AtomicU64 as usize;
        assert!(commits.abs_diff(aborts) >= CACHE_LINE_BYTES);
        assert_eq!(commits % CACHE_LINE_BYTES, 0);
    }
}
