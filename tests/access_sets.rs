//! Property tests for the shared access-set layer (`tm_core::access`) and
//! its integration into the four runtimes, including the per-thread
//! statistics the attempts record as they use and clear their logs.
//!
//! Deterministic xorshift-driven cases (same style as `tests/properties.rs`):
//! every run explores the same inputs, so failures reproduce trivially.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use tm_core::access::{IndexSet, ReadSet, WriteLog};
use tm_core::backoff::XorShift64;
use tm_repro::prelude::*;
use tm_repro::workloads::runtime::RuntimeKind;

/// A 10k-entry read set behaves exactly like a set model: deduplicated
/// membership, first-insertion iteration order, and a sorted cover equal to
/// the model's distinct stripes.
#[test]
fn read_set_matches_model_at_ten_thousand_entries() {
    let mut rng = XorShift64::new(0xACCE55);
    let orecs = tm_core::OrecTable::new(1 << 10);
    let mut rs = ReadSet::new();
    let mut model_addrs: Vec<Addr> = Vec::new();
    let mut model_set: BTreeSet<usize> = BTreeSet::new();
    let mut model_cover: BTreeSet<usize> = BTreeSet::new();

    while model_addrs.len() < 10_000 {
        // Bias towards re-reads so deduplication is exercised constantly.
        let addr = Addr((rng.next() % 16_384) as usize);
        let stripe = orecs.index_for(addr);
        let fresh = rs.record(addr, stripe);
        assert_eq!(fresh, model_set.insert(addr.0), "dedup must match model");
        if fresh {
            model_addrs.push(addr);
            model_cover.insert(stripe);
        }
    }

    assert_eq!(rs.len(), 10_000);
    let addrs: Vec<Addr> = rs.iter().map(|e| e.addr).collect();
    assert_eq!(addrs, model_addrs, "first-read order is preserved");
    assert!(
        rs.iter().all(|e| e.stripe == orecs.index_for(e.addr)),
        "cached stripes stay correct"
    );
    let cover: Vec<usize> = model_cover.into_iter().collect();
    assert_eq!(
        rs.orec_cover(),
        &cover[..],
        "cover = sorted distinct stripes"
    );
}

/// Write-after-write keeps exactly one entry per address with the latest
/// value (redo) or the first value (undo), in first-write order.
#[test]
fn write_log_overwrite_order_matches_models() {
    let mut rng = XorShift64::new(0x1066);
    for case in 0..16 {
        let mut redo = WriteLog::new();
        let mut undo = WriteLog::new();
        let mut first_order: Vec<Addr> = Vec::new();
        let mut last_val: HashMap<usize, u64> = HashMap::new();
        let mut first_val: HashMap<usize, u64> = HashMap::new();

        for _ in 0..2_000 {
            let addr = Addr((rng.next() % 256) as usize);
            let val = rng.next();
            redo.record(addr, val, || addr.0 % 31);
            undo.record_first(addr, val, || addr.0 % 31);
            if !last_val.contains_key(&addr.0) {
                first_order.push(addr);
                first_val.insert(addr.0, val);
            }
            last_val.insert(addr.0, val);
        }

        assert_eq!(redo.len(), first_order.len(), "case {case}");
        let redo_order: Vec<Addr> = redo.iter().map(|e| e.addr).collect();
        assert_eq!(redo_order, first_order, "case {case}: insertion order");
        for &addr in &first_order {
            assert_eq!(redo.lookup(addr), Some(last_val[&addr.0]), "case {case}");
            assert_eq!(undo.lookup(addr), Some(first_val[&addr.0]), "case {case}");
        }
        assert_eq!(redo.lookup(Addr(9999)), None, "case {case}");
    }
}

/// The index set agrees with a set model over a long random insert stream.
#[test]
fn index_set_matches_model() {
    let mut rng = XorShift64::new(0x5E7);
    let mut s = IndexSet::new();
    let mut model: BTreeSet<usize> = BTreeSet::new();
    for _ in 0..5_000 {
        let idx = (rng.next() % 700) as usize;
        assert_eq!(s.insert(idx), model.insert(idx));
        assert!(s.contains(idx));
    }
    assert_eq!(s.len(), model.len());
    for idx in 0..700 {
        assert_eq!(s.contains(idx), model.contains(&idx));
    }
}

/// Deep read-after-write chains: a transaction interleaving random writes
/// and reads over a small address range must always read its own latest
/// write, on every runtime, exactly as a map model predicts.
#[test]
fn read_after_write_chains_match_model_on_all_runtimes() {
    for kind in RuntimeKind::ALL {
        let mut rng = XorShift64::new(0xC4A1);
        for case in 0..8 {
            let rt = kind.build(TmConfig::small());
            let system = Arc::clone(rt.system());
            let th = system.register_thread();
            // Pre-fill so untouched reads return a recognisable value.
            let addrs: Vec<Addr> = (0..64).map(|i| Addr(128 + i)).collect();
            for &a in &addrs {
                system.heap.store(a, 7_000 + a.0 as u64);
            }
            // The op schedule must be fixed before the body runs: the body
            // may re-execute (HTM capacity/conflict paths), and replaying
            // identical ops is exactly what the runtimes guarantee.
            let ops: Vec<(bool, usize, u64)> = (0..400)
                .map(|_| {
                    (
                        rng.next().is_multiple_of(2),
                        (rng.next() % 64) as usize,
                        rng.next() % 1_000_000,
                    )
                })
                .collect();

            let (sum, model_sum) = rt.atomically(&th, |tx| {
                let mut model: HashMap<usize, u64> = HashMap::new();
                let mut sum = 0u64;
                let mut model_sum = 0u64;
                for &(is_write, i, val) in &ops {
                    if is_write {
                        tx.write(addrs[i], val)?;
                        model.insert(i, val);
                    } else {
                        sum = sum.wrapping_add(tx.read(addrs[i])?);
                        model_sum = model_sum
                            .wrapping_add(*model.get(&i).unwrap_or(&(7_000 + addrs[i].0 as u64)));
                    }
                }
                Ok((sum, model_sum))
            });
            assert_eq!(sum, model_sum, "{kind} case {case}: read-your-writes");

            // After commit, memory holds the latest write per address.
            let mut model: HashMap<usize, u64> = HashMap::new();
            for &(is_write, i, val) in &ops {
                if is_write {
                    model.insert(i, val);
                }
            }
            for (i, &a) in addrs.iter().enumerate() {
                let expect = *model.get(&i).unwrap_or(&(7_000 + a.0 as u64));
                assert_eq!(
                    system.heap.load(a),
                    expect,
                    "{kind} case {case}: committed value at {a:?}"
                );
            }
        }
    }
}

/// Re-executed attempts recycle their log capacity: a transaction that
/// explicitly restarts several times performs pool takes on every attempt
/// after the first, and still commits the right values.
#[test]
fn aborted_attempts_reuse_pooled_logs_on_all_runtimes() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        let addrs: Vec<Addr> = (0..32).map(|i| Addr(512 + i)).collect();

        let mut remaining_restarts = 3u32;
        rt.atomically(&th, |tx| {
            for (i, &a) in addrs.iter().enumerate() {
                tx.write(a, i as u64 + 1)?;
                let _ = tx.read(a)?;
            }
            if remaining_restarts > 0 {
                remaining_restarts -= 1;
                return condsync::restart(tx);
            }
            Ok(())
        });

        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(system.heap.load(a), i as u64 + 1, "{kind}");
        }
        let stats = th.stats.snapshot();
        assert!(
            stats.log_pool_reuses >= 3,
            "{kind}: re-executed attempts must draw from the pool \
             (got {} reuses)",
            stats.log_pool_reuses
        );
        assert!(
            stats.write_set_max >= 32,
            "{kind}: write-set high-water mark must reflect the attempt \
             (got {})",
            stats.write_set_max
        );
    }
}

/// The `Retry` value log (now a pooled write log) still records the first
/// observed value per address and substitutes pre-transaction values for
/// written locations, on every runtime.
#[test]
fn retry_value_log_keeps_first_observed_values() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let flag = TmVar::<u64>::alloc(&system, 0);
        let obs = TmVar::<u64>::alloc(&system, 41);

        let (rt2, system2) = (rt.clone(), Arc::clone(&system));
        let (flag2, obs2) = (flag.clone(), obs.clone());
        let waiter = std::thread::spawn(move || {
            let th = system2.register_thread();
            rt2.atomically(&th, |tx| {
                // Read, overwrite, and re-read a location: the value log
                // must keep the pre-transaction value so the post-rollback
                // wake check compares against what memory actually holds.
                let seen = obs2.get(tx)?;
                obs2.set(tx, seen + 1)?;
                let _ = obs2.get(tx)?;
                let v = flag2.get(tx)?;
                if v == 0 {
                    return condsync::retry(tx);
                }
                Ok(v + seen)
            })
        });

        while system.waiters.is_empty() {
            std::thread::yield_now();
        }
        let th = system.register_thread();
        rt.atomically(&th, |tx| flag.set(tx, 9));
        assert_eq!(waiter.join().unwrap(), 50, "{kind}");
    }
}

/// Each attempt records its set sizes once, where it clears its logs, and
/// the high-water marks come out exactly: after a commit, after an
/// explicit restart, and after an `Await` deschedule whose rollback first
/// restores memory for the capture.
#[test]
fn set_high_water_marks_are_exact_on_all_runtimes() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        // Five words of one cache line: five read-set entries on the STMs,
        // one speculative read line on a hardware attempt.
        let words: Vec<Addr> = (0..5).map(|i| Addr(256 + i)).collect();
        let expect_reads = match kind {
            RuntimeKind::EagerStm | RuntimeKind::LazyStm => 5,
            RuntimeKind::Htm | RuntimeKind::Hybrid => 1,
        };

        rt.atomically(&th, |tx| {
            for &a in &words {
                tx.read(a)?;
            }
            for &a in &words[..3] {
                tx.write(a, 1)?;
            }
            Ok(())
        });
        let snap = th.stats.snapshot();
        assert_eq!(
            (snap.read_set_max, snap.write_set_max),
            (expect_reads, 3),
            "{kind}: after a commit"
        );

        // A larger write set that only ever rolls back still counts.
        let mut restarts = 1;
        rt.atomically(&th, |tx| {
            if restarts > 0 {
                for &a in &words[..4] {
                    tx.write(a, 2)?;
                }
                restarts -= 1;
                return condsync::restart(tx);
            }
            Ok(())
        });
        assert_eq!(
            th.stats.snapshot().write_set_max,
            4,
            "{kind}: after a restart"
        );

        // An `Await` capture restores the writes before the rollback; the
        // attempt that waited writes five words, the one after the
        // timeout writes none.
        let flag = Addr(512);
        rt.atomically(&th, |tx| {
            if condsync::timed_out(tx) {
                return Ok(());
            }
            for &a in &words {
                tx.write(a, 3)?;
            }
            condsync::await_one_for(tx, flag, Duration::from_millis(1))
        });
        assert_eq!(
            th.stats.snapshot().write_set_max,
            5,
            "{kind}: after an Await deschedule"
        );
        let committed: Vec<u64> = words.iter().map(|&a| system.heap.load(a)).collect();
        assert_eq!(
            committed,
            [1, 1, 1, 0, 0],
            "{kind}: only the first commit's writes"
        );
    }
}

/// Statistics are owner-written with plain stores, so counts stay exact
/// only if every write site counts into its own thread's stats.  Two
/// threads, each on its own context, run update and read-only transactions
/// at once; the aggregate must add up exactly, and a reset while both are
/// quiescent must zero everything.
#[test]
fn concurrent_per_thread_stats_add_up_exactly_on_every_runtime() {
    const N: u64 = 2_000;
    for kind in RuntimeKind::ALL {
        let rt = Arc::new(kind.build(TmConfig::small()));
        let system = Arc::clone(rt.system());
        let shared = Addr(64);
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let rt = Arc::clone(&rt);
                let system = Arc::clone(&system);
                std::thread::spawn(move || {
                    let th = system.register_thread();
                    let own = Addr(1024 + 64 * w);
                    for _ in 0..N {
                        rt.atomically(&th, |tx| {
                            let v = tx.read(own)?;
                            tx.write(own, v + 1)
                        });
                        rt.atomically_read(&th, |tx| Ok(tx.read(shared)? + tx.read(own)?));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        for w in 0..2 {
            assert_eq!(system.heap.load(Addr(1024 + 64 * w)), N, "{kind}");
        }
        let agg = system.threads.aggregate_stats();
        assert_eq!(agg.sw_commits + agg.hw_commits, 4 * N, "{kind}: commits");
        assert_eq!(
            agg.update_tx_latency.count(),
            2 * N,
            "{kind}: update latencies"
        );
        assert_eq!(
            agg.ro_tx_latency.count(),
            2 * N,
            "{kind}: read-only latencies"
        );

        system.threads.reset_stats();
        assert_eq!(
            system.threads.aggregate_stats(),
            tm_core::StatsSnapshot::default(),
            "{kind}: reset while quiescent"
        );
    }
}
