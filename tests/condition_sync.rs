//! Integration tests for the condition-synchronization semantics themselves:
//! lost-wake-up freedom, selective wake-up, silent-store immunity and
//! multi-address Await, each exercised through the full runtime stack
//! (driver loop → rollback → deschedule → wakeWaiters), on all runtimes.

use std::sync::Arc;
use std::time::Duration;

use condsync::Mechanism;
use tm_repro::prelude::*;
use tm_repro::workloads::runtime::RuntimeKind;

/// Spawns `waiters` threads that each wait (with `mechanism`) until a shared
/// counter reaches `threshold`, while the main thread increments it one step
/// at a time.  Termination proves no wake-up was lost.
fn countdown(kind: RuntimeKind, mechanism: Mechanism, waiters: usize, threshold: u64) {
    let rt = kind.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let counter = TmCounter::new(&system, 0);

    std::thread::scope(|scope| {
        for _ in 0..waiters {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let counter = counter.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                let v = rt.atomically(&th, |tx| {
                    counter.wait_for_at_least(mechanism, tx, threshold)
                });
                assert!(v >= threshold);
            });
        }

        let th = system.register_thread();
        for _ in 0..threshold {
            // A tiny pause makes it likely the waiters are actually asleep,
            // covering the sleep-then-wake path rather than the double-check
            // fast path every time.
            std::thread::sleep(Duration::from_millis(1));
            rt.atomically(&th, |tx| counter.increment(tx).map(|_| ()));
        }
    });
    assert_eq!(counter.load_direct(&system), threshold);
}

#[test]
fn no_lost_wakeups_retry_all_runtimes() {
    for kind in RuntimeKind::ALL {
        countdown(kind, Mechanism::Retry, 3, 5);
    }
}

#[test]
fn no_lost_wakeups_await_all_runtimes() {
    for kind in RuntimeKind::ALL {
        countdown(kind, Mechanism::Await, 3, 5);
    }
}

#[test]
fn no_lost_wakeups_waitpred_all_runtimes() {
    for kind in RuntimeKind::ALL {
        countdown(kind, Mechanism::WaitPred, 3, 5);
    }
}

#[test]
fn no_lost_wakeups_retry_orig_on_stms() {
    for kind in RuntimeKind::ALL {
        if kind.supports_retry_orig() {
            countdown(kind, Mechanism::RetryOrig, 2, 4);
        }
    }
}

#[test]
fn restart_spins_to_completion() {
    countdown(RuntimeKind::EagerStm, Mechanism::Restart, 2, 3);
}

/// A predicate waiter must not wake for writes that do not establish its
/// predicate, while a Retry waiter wakes for any change to what it read.
#[test]
fn waitpred_is_more_selective_than_retry() {
    let rt = RuntimeKind::EagerStm.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let value = TmVar::<u64>::alloc(&system, 0);

    fn reached_ten(tx: &mut dyn Tx, args: &[u64]) -> TxResult<bool> {
        Ok(tx.read(Addr(args[0] as usize))? >= 10)
    }

    let rt_w = rt.clone();
    let system_w = Arc::clone(&system);
    let value_w = value.clone();
    let waiter = std::thread::spawn(move || {
        let th = system_w.register_thread();
        rt_w.atomically(&th, |tx| {
            let v = value_w.get(tx)?;
            if v < 10 {
                return wait_pred(tx, reached_ten, &[value_w.addr().0 as u64]);
            }
            Ok(v)
        })
    });

    // Wait for the waiter to be registered.
    while system.waiters.is_empty() {
        std::thread::yield_now();
    }

    let th = system.register_thread();
    // Nine writes that do not establish the predicate: the waiter's condition
    // is evaluated but it must stay asleep.
    for i in 1..=9u64 {
        rt.atomically(&th, |tx| value.set(tx, i));
    }
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        system.waiters.len(),
        1,
        "WaitPred waiter woke for a write that did not establish its predicate"
    );
    assert_eq!(system.stats().wakeups, 0);

    // The tenth write establishes it.
    rt.atomically(&th, |tx| value.set(tx, 10));
    assert_eq!(waiter.join().unwrap(), 10);
    assert!(system.waiters.is_empty());
}

/// A silent store (same value re-written) must not wake a Retry waiter,
/// thanks to value-based validation.
#[test]
fn silent_stores_do_not_wake_retry_waiters() {
    let rt = RuntimeKind::EagerStm.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let flag = TmVar::<u64>::alloc(&system, 0);

    let rt_w = rt.clone();
    let system_w = Arc::clone(&system);
    let flag_w = flag.clone();
    let waiter = std::thread::spawn(move || {
        let th = system_w.register_thread();
        rt_w.atomically(&th, |tx| {
            let v = flag_w.get(tx)?;
            if v == 0 {
                return retry(tx);
            }
            Ok(v)
        })
    });

    while system.waiters.is_empty() {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(10));

    let th = system.register_thread();
    // Silent store: writes the value that is already there.
    for _ in 0..3 {
        rt.atomically(&th, |tx| flag.set(tx, 0));
    }
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(system.stats().wakeups, 0, "silent store caused a wake-up");
    assert_eq!(system.waiters.len(), 1);

    rt.atomically(&th, |tx| flag.set(tx, 42));
    assert_eq!(waiter.join().unwrap(), 42);
}

/// Await with several addresses wakes when any one of them changes.
#[test]
fn await_on_multiple_addresses_wakes_on_any() {
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::small());
        let system = Arc::clone(rt.system());
        let a = TmVar::<u64>::alloc(&system, 0);
        let b = TmVar::<u64>::alloc(&system, 0);

        let rt_w = rt.clone();
        let system_w = Arc::clone(&system);
        let (a_w, b_w) = (a.clone(), b.clone());
        let waiter = std::thread::spawn(move || {
            let th = system_w.register_thread();
            rt_w.atomically(&th, |tx| {
                let x = a_w.get(tx)?;
                let y = b_w.get(tx)?;
                if x == 0 && y == 0 {
                    return await_addrs(tx, &[a_w.addr(), b_w.addr()]);
                }
                Ok(x + y)
            })
        });

        std::thread::sleep(Duration::from_millis(10));
        let th = system.register_thread();
        // Change only the *second* address.
        rt.atomically(&th, |tx| b.set(tx, 7));
        assert_eq!(waiter.join().unwrap(), 7, "{kind}");
    }
}

/// Multiple sleepers with different thresholds: each writer commit may wake a
/// different subset; everybody must eventually finish (Figure 2.1's protocol
/// repeated across a population of waiters).
#[test]
fn staggered_thresholds_all_waiters_finish() {
    let rt = RuntimeKind::EagerStm.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let counter = TmCounter::new(&system, 0);

    std::thread::scope(|scope| {
        for threshold in 1..=6u64 {
            let rt = rt.clone();
            let system = Arc::clone(&system);
            let counter = counter.clone();
            scope.spawn(move || {
                let th = system.register_thread();
                let v = rt.atomically(&th, |tx| {
                    counter.wait_for_at_least(Mechanism::WaitPred, tx, threshold)
                });
                assert!(v >= threshold);
            });
        }
        let th = system.register_thread();
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(2));
            rt.atomically(&th, |tx| counter.increment(tx).map(|_| ()));
        }
    });
    assert!(system.waiters.is_empty());
}

/// The TMCondVar baseline still synchronizes correctly (it just breaks
/// atomicity, which `composition.rs` covers).
#[test]
fn tmcondvar_signal_wakes_waiter() {
    let rt = RuntimeKind::EagerStm.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let ready = TmVar::<u64>::alloc(&system, 0);
    let cv = Arc::new(TmCondVar::new());

    let rt_w = rt.clone();
    let system_w = Arc::clone(&system);
    let ready_w = ready.clone();
    let cv_w = Arc::clone(&cv);
    let waiter = std::thread::spawn(move || {
        let th = system_w.register_thread();
        loop {
            let done = rt_w.atomically(&th, |tx| {
                if ready_w.get(tx)? != 0 {
                    return Ok(true);
                }
                cv_w.wait(tx)?;
                Ok(ready_w.get(tx)? != 0)
            });
            if done {
                return;
            }
        }
    });

    std::thread::sleep(Duration::from_millis(20));
    let th = system.register_thread();
    rt.atomically(&th, |tx| {
        ready.set(tx, 1)?;
        cv.signal_from(tx);
        Ok(())
    });
    waiter.join().expect("TMCondVar waiter");
}
