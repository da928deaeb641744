//! Stress tests for the sharded, address-indexed wake path.
//!
//! The waiter registry indexes sleepers by ownership-record stripe so that a
//! committing writer only scans the shards its write set covers.  These
//! tests drive that machinery through the full runtime stack on all three
//! runtimes, in the `tests/properties.rs` style: a deterministic xorshift
//! generator varies the shape of every iteration, so failures reproduce.
//!
//! Two properties are checked:
//!
//! * **No lost wakeups** — N sleepers on disjoint and overlapping address
//!   sets (plus a predicate sleeper in the unindexed shard) are all released
//!   by concurrent writers; every iteration terminates with every sleeper
//!   woken exactly once per sleep.
//! * **No spurious-wake storms** — a writer whose write set maps to shards
//!   disjoint from every sleeper's performs *zero* wake-condition
//!   evaluations, on all three runtimes (the linear scan this PR replaces
//!   evaluated every sleeper on every commit).

use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_repro::core::backoff::XorShift64;
use tm_repro::core::Addr;
use tm_repro::prelude::*;
use tm_repro::sync::{await_one, retry, wait_pred};
use tm_repro::workloads::runtime::RuntimeKind;

/// Consecutive iterations per runtime (the acceptance bar for this PR).
const ITERATIONS: u64 = 50;

/// Iteration count scaled by the `TM_STRESS_ITERS` multiplier (the
/// scheduled CI `stress` job sets it to 10 for soak coverage without
/// slowing the PR gate).
fn iterations() -> u64 {
    ITERATIONS * tm_repro::workloads::stress_iters()
}

/// Waits until `n` waiters are registered, with a liveness deadline so a
/// lost registration fails loudly instead of hanging the suite.
fn wait_for_sleepers(system: &TmSystem, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while system.waiters.len() < n {
        assert!(
            Instant::now() < deadline,
            "only {} of {n} sleepers registered",
            system.waiters.len()
        );
        std::thread::yield_now();
    }
}

fn pred_nonzero(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
    Ok(tx.read(Addr(args[0] as usize))? != 0)
}

/// One stress iteration: a rng-shaped mix of Retry/Await sleepers on
/// disjoint slots, two sleepers overlapping on a shared slot, and a
/// WaitPred sleeper, released by two concurrent writers.
fn stress_iteration(kind: RuntimeKind, rng: &mut XorShift64) {
    let rt = kind.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let slots = TmArray::<u64>::alloc(&system, 32, 0);

    let n_disjoint = 2 + (rng.next() % 3) as usize; // 2..=4
    let shared_slot = n_disjoint; // slots 0..n_disjoint are the disjoint ones
    let pred_slot = shared_slot + 1;
    let total = n_disjoint + 2 + 1;

    std::thread::scope(|scope| {
        // Disjoint sleepers: each waits for its own slot, via Retry or Await.
        for i in 0..n_disjoint {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let slots = slots.clone();
            let use_retry = rng.next().is_multiple_of(2);
            scope.spawn(move || {
                let th = system.register_thread();
                let got = rt.atomically(&th, |tx| {
                    let v = slots.get(tx, i)?;
                    if v == 0 {
                        return if use_retry {
                            retry(tx)
                        } else {
                            await_one(tx, slots.addr_of(i))
                        };
                    }
                    Ok(v)
                });
                assert_eq!(got, (i + 1) as u64, "disjoint sleeper {i}");
            });
        }
        // Overlapping sleepers: two wait on the same slot, one per mechanism.
        for use_retry in [false, true] {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let slots = slots.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                let got = rt.atomically(&th, |tx| {
                    let v = slots.get(tx, shared_slot)?;
                    if v == 0 {
                        return if use_retry {
                            retry(tx)
                        } else {
                            await_one(tx, slots.addr_of(shared_slot))
                        };
                    }
                    Ok(v)
                });
                assert_eq!(got, 77, "overlapping sleeper");
            });
        }
        // A predicate sleeper exercises the unindexed shard.
        {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let slots = slots.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                let got = rt.atomically(&th, |tx| {
                    let v = slots.get(tx, pred_slot)?;
                    if v == 0 {
                        return wait_pred(tx, pred_nonzero, &[slots.addr_of(pred_slot).0 as u64]);
                    }
                    Ok(v)
                });
                assert_eq!(got, 99, "predicate sleeper");
            });
        }

        wait_for_sleepers(&system, total);

        // Writer 1 releases the disjoint sleepers in a rng-shuffled order.
        let mut order: Vec<usize> = (0..n_disjoint).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let slots = slots.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                for i in order {
                    rt.atomically(&th, |tx| slots.set(tx, i, (i + 1) as u64));
                }
            });
        }
        // Writer 2 releases the overlapping pair and the predicate sleeper.
        {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let slots = slots.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                rt.atomically(&th, |tx| slots.set(tx, shared_slot, 77));
                rt.atomically(&th, |tx| slots.set(tx, pred_slot, 99));
            });
        }
    });

    // Every sleeper deregistered itself on the way out.
    assert!(system.waiters.is_empty(), "{kind}: registry must drain");
    let stats = system.stats();
    assert_eq!(stats.descheds, total as u64, "{kind}: one deschedule each");
    assert_eq!(
        stats.sleeps + stats.desched_skips,
        stats.descheds,
        "{kind}: every deschedule either slept or skipped"
    );
    // Nothing lost, no storms: every sleeper that actually slept was
    // signalled (the scope join proves it), and nobody was signalled more
    // than once per deschedule.  A writer may also claim a waiter between
    // its registration and its double-check (the waiter then skips the
    // sleep), so wakeups can exceed sleeps but never descheds.
    assert!(stats.wakeups >= stats.sleeps, "{kind}: a sleeper was lost");
    assert!(
        stats.wakeups <= stats.descheds,
        "{kind}: at most one signal per deschedule"
    );
}

#[test]
fn stress_no_lost_wakeups_eager() {
    let mut rng = XorShift64::new(0xEA6E_0001);
    for _ in 0..iterations() {
        stress_iteration(RuntimeKind::EagerStm, &mut rng);
    }
}

#[test]
fn stress_no_lost_wakeups_lazy() {
    let mut rng = XorShift64::new(0x1A2_0002);
    for _ in 0..iterations() {
        stress_iteration(RuntimeKind::LazyStm, &mut rng);
    }
}

#[test]
fn stress_no_lost_wakeups_htm() {
    let mut rng = XorShift64::new(0x547_0003);
    for _ in 0..iterations() {
        stress_iteration(RuntimeKind::Htm, &mut rng);
    }
}

#[test]
fn stress_no_lost_wakeups_hybrid() {
    let mut rng = XorShift64::new(0x8B1D_0004);
    for _ in 0..iterations() {
        stress_iteration(RuntimeKind::Hybrid, &mut rng);
    }
}

/// Sleeper addresses whose registry shards avoid `forbidden`, scanning raw
/// heap words deterministically.
fn pick_sleeper_addrs(system: &TmSystem, n: usize, forbidden: &[usize]) -> Vec<Addr> {
    let mut picked = Vec::new();
    let mut shards_used: Vec<usize> = forbidden.to_vec();
    for word in 64..system.heap.len() {
        let addr = Addr(word);
        let shard = system.waiters.shard_of(system.orecs.index_for(addr));
        if !shards_used.contains(&shard) {
            shards_used.push(shard);
            picked.push(addr);
            if picked.len() == n {
                return picked;
            }
        }
    }
    panic!("heap too small to find {n} shard-distinct sleeper addresses");
}

/// The registry shards a write to `addr` can touch on any runtime: the
/// shards of every word of its cache line (hardware commits report the line
/// cover via the same `OrecTable::line_indices`; software commits report a
/// subset of it).
fn writer_shards(system: &TmSystem, addr: Addr) -> Vec<usize> {
    system
        .orecs
        .line_indices(addr.line())
        .map(|stripe| system.waiters.shard_of(stripe))
        .collect()
}

/// A writer hammering stripes disjoint from every sleeper's must not
/// evaluate a single wait condition — the storm the sharded registry exists
/// to prevent — and the zero-waiter fast path must do no shard work at all.
fn disjoint_writer_scans_nothing(kind: RuntimeKind) {
    let rt = kind.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let writer = system.register_thread();

    // Fast path: committing with an empty registry touches no shards.
    let writer_addr = Addr(2048);
    rt.atomically(&writer, |tx| tx.write(writer_addr, 1));
    let s = writer.stats.snapshot();
    assert_eq!(s.wake_shard_scans, 0, "{kind}: empty-registry fast path");
    assert_eq!(s.wake_shard_skips, 0, "{kind}: empty-registry fast path");

    let n_sleepers = 4;
    let sleeper_addrs =
        pick_sleeper_addrs(&system, n_sleepers, &writer_shards(&system, writer_addr));

    std::thread::scope(|scope| {
        for &addr in &sleeper_addrs {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            scope.spawn(move || {
                let th = system.register_thread();
                let got = rt.atomically(&th, |tx| {
                    let v = tx.read(addr)?;
                    if v == 0 {
                        return await_one(tx, addr);
                    }
                    Ok(v)
                });
                assert_eq!(got, 5);
            });
        }
        wait_for_sleepers(&system, n_sleepers);

        // Phase 1: commits on shards none of the sleepers occupy.
        let before = writer.stats.snapshot();
        for round in 0..100u64 {
            rt.atomically(&writer, |tx| tx.write(writer_addr, round + 2));
        }
        let after = writer.stats.snapshot();
        assert_eq!(
            after.wake_checks - before.wake_checks,
            0,
            "{kind}: disjoint commits must not evaluate any wait condition"
        );
        assert!(
            after.wake_shard_skips > before.wake_shard_skips,
            "{kind}: disjoint commits should be skipping shards"
        );
        assert_eq!(after.wakeups - before.wakeups, 0, "{kind}: nobody woken");

        // Phase 2: release the sleepers through their own stripes.
        for &addr in &sleeper_addrs {
            rt.atomically(&writer, |tx| tx.write(addr, 5));
        }
    });

    assert!(system.waiters.is_empty(), "{kind}: registry must drain");
    assert_eq!(
        system.stats().wakeups,
        n_sleepers as u64,
        "{kind}: each sleeper woken exactly once"
    );
}

#[test]
fn disjoint_writer_scans_nothing_eager() {
    disjoint_writer_scans_nothing(RuntimeKind::EagerStm);
}

#[test]
fn disjoint_writer_scans_nothing_lazy() {
    disjoint_writer_scans_nothing(RuntimeKind::LazyStm);
}

#[test]
fn disjoint_writer_scans_nothing_htm() {
    disjoint_writer_scans_nothing(RuntimeKind::Htm);
}

#[test]
fn disjoint_writer_scans_nothing_hybrid() {
    disjoint_writer_scans_nothing(RuntimeKind::Hybrid);
}

/// Two runtimes layered over one [`TmSystem`] share its waiting lists: a
/// sleeper parked through the first runtime is woken by a write committed
/// through the second, for value-based `Retry` and for the `Retry-Orig`
/// baseline alike.  Every wait is bounded, so a sleeper left on a list the
/// writer never scans fails the test instead of hanging it.
#[test]
fn shared_system_wakes_sleepers_across_runtimes() {
    let system = TmSystem::new(TmConfig::small());
    let sleeper_rt = RuntimeKind::EagerStm.over(Arc::clone(&system));
    let writer_rt = RuntimeKind::EagerStm.over(Arc::clone(&system));
    let writer = system.register_thread();
    for orig in [false, true] {
        let label = if orig { "Retry-Orig" } else { "Retry" };
        let flag = TmVar::<u64>::alloc(&system, 0);
        let sleeps_before = system.stats().sleeps;
        let waiter = {
            let (rt, system, flag) = (sleeper_rt.clone(), Arc::clone(&system), flag.clone());
            std::thread::spawn(move || {
                let th = system.register_thread();
                rt.atomically(&th, |tx| match flag.get(tx)? {
                    0 if orig => tm_repro::sync::retry_orig(tx),
                    0 => retry(tx),
                    v => Ok(v),
                })
            })
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while system.stats().sleeps == sleeps_before {
            assert!(Instant::now() < deadline, "{label} sleeper never slept");
            std::thread::yield_now();
        }
        writer_rt.atomically(&writer, |tx| flag.set(tx, 7));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !waiter.is_finished() {
            assert!(
                Instant::now() < deadline,
                "{label} sleeper on one runtime was not woken by a commit through another"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(waiter.join().unwrap(), 7, "{label}");
    }
}
